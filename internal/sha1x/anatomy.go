package sha1x

import (
	"time"

	"sslperf/internal/perf"
)

// Phase names for the Table 10 breakdown.
const (
	PhaseInit   = "init"
	PhaseUpdate = "update"
	PhaseFinal  = "final"
)

// ProfilePhases hashes a dataLen-byte message n times, timing Init,
// Update and Final separately — the SHA-1 column of the paper's
// Table 10 (which uses dataLen = 1024). It always runs the scalar
// rounds (blockGeneric), the form the paper timed, even on a CPU whose
// Digest runs SHA1RNDS4.
func ProfilePhases(dataLen, n int) *perf.Breakdown {
	b := perf.NewBreakdown()
	data := make([]byte, dataLen)
	digests := make([]*Digest, n)

	start := time.Now()
	for i := range digests {
		digests[i] = New()
		digests[i].shani = false
	}
	b.Add(PhaseInit, time.Since(start))

	start = time.Now()
	for i := range digests {
		digests[i].Write(data)
	}
	b.Add(PhaseUpdate, time.Since(start))

	start = time.Now()
	var sum []byte
	for i := range digests {
		sum = digests[i].Sum(sum[:0])
	}
	b.Add(PhaseFinal, time.Since(start))
	return b
}

// TraceBlock emits the abstract operation stream of one SHA-1
// compression into tr: the 64-word message expansion (3 XORs and a
// rotate each) plus 80 rounds of boolean function, five-term add
// chain, and two rotates — the xorl/roll-heavy mix of the paper's
// Table 12 SHA-1 column.
func TraceBlock(tr *perf.Trace) {
	// Message schedule: 16 loads + 64 expansions.
	tr.Emit(perf.OpLoad, 16)
	tr.Emit(perf.OpXor, 3*64)
	tr.Emit(perf.OpRotate, 64)
	tr.Emit(perf.OpLoad, 4*64) // w[i-3..i-16] reloads
	tr.Emit(perf.OpStore, 64)
	const rounds = 80
	// Boolean: Ch/Maj rounds use and/or/not, parity rounds use xor.
	tr.Emit(perf.OpAnd, 2*20+3*20)
	tr.Emit(perf.OpNot, 20)
	tr.Emit(perf.OpOr, 20+2*20)
	tr.Emit(perf.OpXor, 2*40)
	tr.Emit(perf.OpAdd, 4*rounds)
	tr.Emit(perf.OpRotate, 2*rounds)
	tr.Emit(perf.OpMove, rounds)
	tr.Emit(perf.OpLoad, rounds) // w[i]
	tr.Emit(perf.OpStore, 10)    // chaining update
	tr.Emit(perf.OpLoad, 10)
	tr.Emit(perf.OpAdd, 5)
	tr.Emit(perf.OpBranch, rounds/4)
	tr.Emit(perf.OpCmp, rounds/4)
	tr.Bytes += BlockSize
}

// TraceHash emits the operations of hashing n bytes (including
// padding) into tr.
func TraceHash(tr *perf.Trace, n uint64) {
	before := tr.Bytes
	blocks := (n + 8 + BlockSize) / BlockSize
	var one perf.Trace
	TraceBlock(&one)
	for i := uint64(0); i < blocks; i++ {
		tr.Add(&one)
	}
	tr.Bytes = before + n
}
