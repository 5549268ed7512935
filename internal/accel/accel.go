// Package accel models the three optimization classes the paper
// proposes in §6.2 and sketches in Figures 4–6:
//
//  1. ISA support — three-operand logical instructions (and wider
//     registers) that collapse the two-instruction sequences MD5 and
//     SHA-1 spend on their three-input boolean functions (Figure 4).
//  2. Hardware units — a table-lookup unit that executes all four
//     basic operations of an AES round in parallel (Figure 5).
//  3. Crypto engines — an engine that overlaps the AES encryption of
//     a record fragment with its MAC computation (Figure 6).
//
// The first two are latency models over the perf.Trace abstract
// instruction streams. The third is a model over two measured unit
// times (ModelOverlapSpeedup); the overlap itself ships as the record
// layer's stitched AES-CBC + SHA-1 seal (internal/aessha1), which
// sslanatomy -experiment fig6 times against the two-pass seal.
package accel

import (
	"time"

	"sslperf/internal/perf"
)

// ThreeOperandISA models Figure 4: every pair of dependent logical
// operations that implements a three-input function collapses into
// one instruction, and the register-pressure moves they forced
// disappear with them.
//
// For MD5: F/G/I rounds use (and,not,or) triples and H uses xor,xor —
// roughly half the logical ops merge away. The model removes 40% of
// xor/and/or/not ops and half as many moves (bounded by the available
// moves), returning the transformed trace.
func ThreeOperandISA(tr *perf.Trace) *perf.Trace {
	out := *tr
	var removedLogical uint64
	for _, op := range [...]perf.Op{perf.OpXor, perf.OpAnd, perf.OpOr, perf.OpNot} {
		remove := out.Count(op) * 2 / 5 // 40%: second instruction of each fused pair
		removedLogical += remove
		subtract(&out, op, remove)
	}
	// The fused sequences no longer spill intermediates.
	subtract(&out, perf.OpMove, removedLogical/2)
	return &out
}

// subtract removes n occurrences of op from tr, or all it has.
// perf.Trace has no decrement, so the counts are rebuilt.
func subtract(tr *perf.Trace, op perf.Op, n uint64) {
	nt := perf.Trace{Bytes: tr.Bytes}
	for o := perf.Op(0); int(o) < perf.NumOps; o++ {
		c := tr.Count(o)
		if o == op {
			c -= min(n, c)
		}
		nt.Emit(o, c)
	}
	*tr = nt
}

// Speedup compares two traces' modeled cycle counts.
func Speedup(before, after *perf.Trace) float64 {
	a := after.EstimatedCycles()
	if a == 0 {
		return 0
	}
	return before.EstimatedCycles() / a
}

// RoundUnitLatency is the modeled latency, in cycles, of the Figure 5
// AES round hardware unit: the four basic operations (four table
// reads + XOR tree each) execute in parallel, pipelined over a
// four-read SRAM; comparable published table-lookup units achieve a
// round in a few cycles.
const RoundUnitLatency = 4.0

// AESRoundUnit models Figure 5 applied to a whole block encryption:
// the software trace of one block is replaced by one RoundUnitLatency
// charge per round plus the load/store of the block and key, and the
// modeled cycle counts are returned as (software, hardware).
func AESRoundUnit(software *perf.Trace, rounds int) (swCycles, hwCycles float64) {
	swCycles = software.EstimatedCycles()
	// Hardware: per round one unit invocation; block and key traffic
	// still pays memory-op costs (8 loads + 4 stores, modeled at the
	// trace's per-op latencies via a small trace).
	var mem perf.Trace
	mem.Emit(perf.OpLoad, 8)
	mem.Emit(perf.OpStore, 4)
	hwCycles = float64(rounds)*RoundUnitLatency + mem.EstimatedCycles()
	return swCycles, hwCycles
}

// ModelOverlapSpeedup returns the Figure 6 engine speedup implied by
// the component times: serial = mac+aes, overlapped = max(mac, aes).
func ModelOverlapSpeedup(macTime, aesTime time.Duration) float64 {
	overlapped := max(macTime, aesTime)
	if overlapped == 0 {
		return 0
	}
	return float64(macTime+aesTime) / float64(overlapped)
}
