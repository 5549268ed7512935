// Package pathlen is the path-length observatory: the live analogue
// of the paper's Tables 11 and 12. Each connection's record keeps a
// Tally of the RecordCrypto and step events it saw — which already
// carry byte counts and durations — and folds it into the Collector
// once, when the connection closes; the Collector renders the sum as
// per-primitive and per-step cycles/byte, bytes/op, and, through
// perf's abstract-instruction CPI model, instructions/byte. A Tally is
// plain single-owner counters (no locks, no atomics, no allocation per
// event), so it costs a connection a few adds per record and the
// shared Collector nothing until the fold.
//
// The paper's identity ties the three numbers together:
//
//	cycles/byte = CPI × instructions/byte
//
// The tally measures cycles/byte from wall time at the model
// clock (perf.Cycles); the abstract-instruction kernels supply each
// primitive's CPI; dividing out yields a live instructions/byte that
// can be compared directly against the model's own path length and
// the paper's Table 11 column.
package pathlen

import (
	"sync"
	"time"

	"sslperf/internal/perf"
	"sslperf/internal/probe"
)

// Primitive row indexes. The set is fixed so the fold can use a flat
// array: every primitive the suite registry can name, plus a catchall
// for anything new that has not been given a row yet (visible, not
// silently dropped).
const (
	primRC4 = iota
	primAES
	primDES
	prim3DES
	primNULL
	primMD5
	primSHA1
	primOther
	numPrims
)

var primNames = [numPrims]string{"RC4", "AES", "DES", "3DES", "NULL", "MD5", "SHA-1", "other"}

// primIndex interns a primitive name onto its row. A linear scan over
// ≤8 entries beats a map on the hot path and needs no hashing.
func primIndex(name string) int {
	for i, n := range primNames {
		if n == name {
			return i
		}
	}
	return primOther
}

// numOps covers probe's four RecordOps.
const numOps = 4

// numSteps covers every probe.Step including StepNone (row 0 = bulk
// transfer).
const numSteps = int(probe.StepServerFlush) + 1

// opCell is one (primitive, operation) accumulator.
type opCell struct {
	ops, bytes, ns uint64
}

// stepCell accumulates one Table-2 step: wall time from StepExit,
// record-crypto time and bytes from in-step RecordCrypto events.
type stepCell struct {
	count, wallNs, cryptoNs, cryptoBytes uint64
}

// A Tally is one owner's path-length accumulation: a connection's
// record holds one and forwards its step-exit and record-crypto events
// to it; the Collector holds the sum of those that have folded. The
// zero value is empty. Not safe for concurrent use.
type Tally struct {
	prims [numPrims][numOps]opCell
	steps [numSteps]stepCell
}

// Emit implements probe.Sink for the two kinds a tally counts.
func (t *Tally) Emit(e probe.Event) {
	switch e.Kind {
	case probe.KindStepExit:
		if int(e.Step) < numSteps {
			st := &t.steps[e.Step]
			st.count++
			st.wallNs += uint64(e.Dur)
		}
	case probe.KindRecordCrypto:
		if int(e.Op) < numOps {
			cell := &t.prims[primIndex(e.Prim)][e.Op]
			cell.ops++
			cell.bytes += uint64(e.Bytes)
			cell.ns += uint64(e.Dur)
		}
		if int(e.Step) < numSteps {
			st := &t.steps[e.Step]
			st.cryptoNs += uint64(e.Dur)
			st.cryptoBytes += uint64(e.Bytes)
		}
	}
}

// Merge adds o into t.
func (t *Tally) Merge(o *Tally) {
	for p := range t.prims {
		for op := range t.prims[p] {
			cell, from := &t.prims[p][op], &o.prims[p][op]
			cell.ops += from.ops
			cell.bytes += from.bytes
			cell.ns += from.ns
		}
	}
	for i := range t.steps {
		st, from := &t.steps[i], &o.steps[i]
		st.count += from.count
		st.wallNs += from.wallNs
		st.cryptoNs += from.cryptoNs
		st.cryptoBytes += from.cryptoBytes
	}
}

// Live is the conn table as the collector reads it: connections fold
// their tally only when they close, so a read adds the open entries'
// running tallies, and between Lock and Unlock no connection is
// mid-fold (see telemetry.Live).
type Live interface {
	sync.Locker
	// LiveTally returns the sum of the open connections' tallies (by
	// value: the history tick reads through this interface and must
	// stay off the heap).
	LiveTally() Tally
}

// A Collector is the shared sum of every folded Tally. All methods are
// safe for concurrent use and no-ops (or zero reads) on a nil receiver.
type Collector struct {
	live Live

	mu     sync.Mutex
	folded Tally
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// SetLive names the conn table whose open connections every read adds
// in. Call it before the first connection.
func (c *Collector) SetLive(l Live) {
	if c != nil {
		c.live = l
	}
}

// Fold adds one closed connection's tally.
func (c *Collector) Fold(t *Tally) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.folded.Merge(t)
	c.mu.Unlock()
}

// Reset zeroes the sum so a drift window (one load run) can be
// measured from a clean slate.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.folded = Tally{}
	c.mu.Unlock()
}

// read copies the folded sum plus the open connections' tallies into t.
func (c *Collector) read(t *Tally) {
	if c == nil {
		return
	}
	if c.live != nil {
		c.live.Lock()
		defer c.live.Unlock()
	}
	c.mu.Lock()
	*t = c.folded
	c.mu.Unlock()
	if c.live != nil {
		open := c.live.LiveTally()
		t.Merge(&open)
	}
}

// OpStat is one (primitive, operation) cell of the snapshot.
type OpStat struct {
	Op    string `json:"op"`
	Ops   uint64 `json:"ops"`
	Bytes uint64 `json:"bytes"`
	Nanos uint64 `json:"nanos"`
}

// PrimRow is one live Table-11 row: a primitive's measured intensity
// with the model's CPI and path length alongside.
type PrimRow struct {
	Name  string `json:"name"`
	Ops   uint64 `json:"ops"`
	Bytes uint64 `json:"bytes"`
	Nanos uint64 `json:"nanos"`

	BytesPerOp    float64 `json:"bytes_per_op"`
	CyclesPerByte float64 `json:"cycles_per_byte"`
	MBps          float64 `json:"mbps"`

	// ModelCPI and ModelInstrPerByte come from the abstract-instruction
	// kernels; InstrPerByte is measured cycles/byte divided by the model
	// CPI — the live path length. Zero when no model covers the
	// primitive (NULL, other).
	ModelCPI          float64 `json:"model_cpi,omitempty"`
	ModelInstrPerByte float64 `json:"model_instr_per_byte,omitempty"`
	InstrPerByte      float64 `json:"instr_per_byte,omitempty"`

	Ops_ []OpStat `json:"by_op,omitempty"`
}

// StepRow is one live per-step attribution row: how many record-crypto
// bytes each Table-2 step (or the bulk phase) pushed and at what cost.
type StepRow struct {
	Name        string `json:"name"`
	Class       string `json:"class"`
	Count       uint64 `json:"count"`
	WallNanos   uint64 `json:"wall_nanos"`
	CryptoNanos uint64 `json:"crypto_nanos"`
	CryptoBytes uint64 `json:"crypto_bytes"`

	CyclesPerByte float64 `json:"cycles_per_byte,omitempty"`
}

// A Snapshot is the collector's current state: the continuous Tables
// 11/12 and per-step byte attribution. (The record-layer totals they
// reconcile with are /metrics' io section.)
type Snapshot struct {
	At       time.Time `json:"at"`
	ModelGHz float64   `json:"model_ghz"`

	Prims []PrimRow `json:"primitives,omitempty"`
	Steps []StepRow `json:"steps,omitempty"`
}

// Snapshot renders the collector's accumulated state. Rows with no
// traffic are omitted.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{At: time.Now(), ModelGHz: perf.ModelGHz()} // lint:allow-clock
	var t Tally
	c.read(&t)
	for p := 0; p < numPrims; p++ {
		row := PrimRow{Name: primNames[p]}
		for o := 0; o < numOps; o++ {
			cell := &t.prims[p][o]
			ops, bytes, ns := cell.ops, cell.bytes, cell.ns
			if ops == 0 {
				continue
			}
			row.Ops += ops
			row.Bytes += bytes
			row.Nanos += ns
			row.Ops_ = append(row.Ops_, OpStat{
				Op: probe.RecordOp(o).String(), Ops: ops, Bytes: bytes, Nanos: ns,
			})
		}
		if row.Ops == 0 {
			continue
		}
		row.BytesPerOp = float64(row.Bytes) / float64(row.Ops)
		if row.Bytes > 0 {
			row.CyclesPerByte = perf.Cycles(time.Duration(row.Nanos)) / float64(row.Bytes)
		}
		if row.Nanos > 0 {
			row.MBps = float64(row.Bytes) / 1e6 / (float64(row.Nanos) / 1e9)
		}
		if m, ok := ModelFor(row.Name); ok {
			row.ModelCPI = m.CPI
			row.ModelInstrPerByte = m.InstrPerByte
			if m.CPI > 0 {
				row.InstrPerByte = row.CyclesPerByte / m.CPI
			}
		}
		s.Prims = append(s.Prims, row)
	}
	for i := 0; i < numSteps; i++ {
		st := &t.steps[i]
		count, wall := st.count, st.wallNs
		cns, cbytes := st.cryptoNs, st.cryptoBytes
		if count == 0 && cns == 0 && cbytes == 0 {
			continue
		}
		row := StepRow{
			Name:        StepRowName(probe.Step(i)),
			Class:       StepClassOf(probe.Step(i)).String(),
			Count:       count,
			WallNanos:   wall,
			CryptoNanos: cns,
			CryptoBytes: cbytes,
		}
		if cbytes > 0 {
			row.CyclesPerByte = perf.Cycles(time.Duration(cns)) / float64(cbytes)
		}
		s.Steps = append(s.Steps, row)
	}
	return s
}

// Totals returns cumulative (bytes, nanos) across the cipher
// primitives (RC4, AES, DES, 3DES, NULL) and across the MAC primitives
// (MD5, SHA-1) without allocating, so a periodic sampler can
// difference successive reads into live windowed cycles/byte.
func (c *Collector) Totals() (cipherBytes, cipherNs, macBytes, macNs uint64) {
	var t Tally
	c.read(&t)
	for p := primRC4; p <= primSHA1; p++ {
		bytes, ns := &cipherBytes, &cipherNs
		if p >= primMD5 {
			bytes, ns = &macBytes, &macNs
		}
		for o := 0; o < numOps; o++ {
			*bytes += t.prims[p][o].bytes
			*ns += t.prims[p][o].ns
		}
	}
	return
}

// Prim returns the named primitive's row, if it saw traffic.
func (s Snapshot) Prim(name string) (PrimRow, bool) {
	for _, r := range s.Prims {
		if r.Name == name {
			return r, true
		}
	}
	return PrimRow{}, false
}

// Step returns the named step's row, if it saw traffic.
func (s Snapshot) Step(name string) (StepRow, bool) {
	for _, r := range s.Steps {
		if r.Name == name {
			return r, true
		}
	}
	return StepRow{}, false
}
