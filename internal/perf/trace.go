package perf

import (
	"fmt"
	"sort"
	"strings"
)

// Op is an abstract dynamic-operation class. The classes mirror the
// x86 instruction categories the paper reports in Tables 9 and 12,
// abstracted away from any particular ISA: a Load stands for a
// memory-read mov, a TableLookup for an indexed load from a constant
// table, AddC for add-with-carry, and so on. Counting kernels in the
// crypto packages emit these into a Trace; the perf package then
// reports path length (ops per byte), estimated CPI, and the dynamic
// mix, replacing the paper's SoftSDV instruction traces.
type Op int

// Abstract operation classes.
const (
	OpLoad   Op = iota // memory read (mov reg, mem)
	OpStore            // memory write (mov mem, reg)
	OpMove             // register-to-register move
	OpXor              // bitwise exclusive or
	OpAnd              // bitwise and
	OpOr               // bitwise or
	OpNot              // bitwise complement
	OpAdd              // integer add / sub / inc / dec / lea
	OpAddC             // add with carry (adc) / subtract with borrow
	OpMul              // widening multiply
	OpShift            // logical shift (shl/shr)
	OpRotate           // rotate (rol/ror)
	OpLookup           // table lookup: indexed load from a constant table
	OpBranch           // conditional or unconditional branch
	OpCmp              // compare / test
	opCount
)

var opNames = [...]string{
	OpLoad:   "load",
	OpStore:  "store",
	OpMove:   "move",
	OpXor:    "xor",
	OpAnd:    "and",
	OpOr:     "or",
	OpNot:    "not",
	OpAdd:    "add",
	OpAddC:   "adc",
	OpMul:    "mul",
	OpShift:  "shift",
	OpRotate: "rotate",
	OpLookup: "lookup",
	OpBranch: "branch",
	OpCmp:    "cmp",
}

// String returns the short mnemonic for the op class.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// NumOps is the number of distinct operation classes.
const NumOps = int(opCount)

// opLatency models per-class execution cost in cycles on a wide
// superscalar core, tuned so compute-bound kernels land in the
// 0.5–0.8 CPI band the paper reports (Table 11). L1-hitting loads and
// simple ALU ops retire below one cycle each on average thanks to
// superscalar issue; widening multiplies and carry chains are the
// expensive classes — exactly why the paper finds RSA has the highest
// CPI of the set.
var opLatency = [...]float64{
	OpLoad:   0.60,
	OpStore:  0.55,
	OpMove:   0.40,
	OpXor:    0.45,
	OpAnd:    0.45,
	OpOr:     0.45,
	OpNot:    0.45,
	OpAdd:    0.50,
	OpAddC:   1.00, // serializing carry chain
	OpMul:    2.50, // widening multiply
	OpShift:  0.55,
	OpRotate: 0.65,
	OpLookup: 0.70, // indexed L1 load
	OpBranch: 0.80,
	OpCmp:    0.45,
}

// A Trace accumulates abstract operation counts emitted by a counting
// kernel. The zero Trace is ready to use.
type Trace struct {
	counts [opCount]uint64
	// Bytes is the number of payload bytes the traced activity
	// processed; it is the denominator for path length.
	Bytes uint64
}

// Emit records n occurrences of op.
func (t *Trace) Emit(op Op, n uint64) { t.counts[op] += n }

// Count returns the number of recorded occurrences of op.
func (t *Trace) Count(op Op) uint64 { return t.counts[op] }

// Total returns the total dynamic operation count.
func (t *Trace) Total() uint64 {
	var sum uint64
	for _, c := range t.counts {
		sum += c
	}
	return sum
}

// Reset clears all counts and the byte tally.
func (t *Trace) Reset() {
	t.counts = [opCount]uint64{}
	t.Bytes = 0
}

// Add merges other's counts and bytes into t.
func (t *Trace) Add(other *Trace) {
	for i := range t.counts {
		t.counts[i] += other.counts[i]
	}
	t.Bytes += other.Bytes
}

// PathLength returns dynamic operations per processed byte
// (the paper's "path length, instructions per byte").
// It returns 0 when no bytes were recorded.
func (t *Trace) PathLength() float64 {
	if t.Bytes == 0 {
		return 0
	}
	return float64(t.Total()) / float64(t.Bytes)
}

// CPI estimates cycles per instruction from the per-class latency
// model. It returns 0 for an empty trace.
func (t *Trace) CPI() float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	var cycles float64
	for op, c := range t.counts {
		cycles += float64(c) * opLatency[op]
	}
	return cycles / float64(total)
}

// EstimatedCycles returns the modeled cycle cost of the whole trace.
func (t *Trace) EstimatedCycles() float64 {
	var cycles float64
	for op, c := range t.counts {
		cycles += float64(c) * opLatency[op]
	}
	return cycles
}

// ThroughputMBps estimates achievable throughput in megabytes per
// second at ModelGHz, from the modeled cycle cost.
func (t *Trace) ThroughputMBps() float64 {
	cyc := t.EstimatedCycles()
	if cyc == 0 || t.Bytes == 0 {
		return 0
	}
	cyclesPerByte := cyc / float64(t.Bytes)
	bytesPerSec := ModelGHz * 1e9 / cyclesPerByte
	return bytesPerSec / 1e6
}

// MixEntry is one row of a dynamic instruction-mix report.
type MixEntry struct {
	Op      Op
	Count   uint64
	Percent float64
}

// Mix returns the dynamic operation mix sorted by descending share.
func (t *Trace) Mix() []MixEntry {
	total := t.Total()
	out := make([]MixEntry, 0, opCount)
	for op, c := range t.counts {
		if c == 0 {
			continue
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(c) / float64(total)
		}
		out = append(out, MixEntry{Op: Op(op), Count: c, Percent: pct})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// TopMix returns at most n mix entries plus the percentage of all
// operations they jointly cover (the paper's "top ten instructions"
// tables report this coverage row).
func (t *Trace) TopMix(n int) ([]MixEntry, float64) {
	mix := t.Mix()
	if len(mix) > n {
		mix = mix[:n]
	}
	var covered float64
	for _, e := range mix {
		covered += e.Percent
	}
	return mix, covered
}

// String renders the mix as an aligned table.
func (t *Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %12s %8s\n", "op", "count", "%")
	for _, e := range t.Mix() {
		fmt.Fprintf(&sb, "%-8s %12d %7.2f%%\n", e.Op, e.Count, e.Percent)
	}
	fmt.Fprintf(&sb, "total ops %d, path length %.2f ops/B, est CPI %.2f\n",
		t.Total(), t.PathLength(), t.CPI())
	return sb.String()
}
