// Package pathlen is the path-length observatory: the live analogue
// of the paper's Tables 11 and 12. It folds the probe spine's
// RecordCrypto and step events — which already carry byte counts and
// durations — into per-primitive and per-step cycles/byte, bytes/op,
// and, through perf's abstract-instruction CPI model,
// instructions/byte. The fold is wait-free (fixed arrays of atomic
// counters, no locks, no allocation per event) so the collector can
// sit on every connection's bus under full load, the same discipline
// the anatomy profiler keeps.
//
// The paper's identity ties the three numbers together:
//
//	cycles/byte = CPI × instructions/byte
//
// The collector measures cycles/byte from wall time at the model
// clock (perf.Cycles); the abstract-instruction kernels supply each
// primitive's CPI; dividing out yields a live instructions/byte that
// can be compared directly against the model's own path length and
// the paper's Table 11 column.
package pathlen

import (
	"sync/atomic"
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
	ops   atomic.Uint64
	bytes atomic.Uint64
	ns    atomic.Uint64
}

// stepCell accumulates one Table-2 step: wall time from StepExit,
// record-crypto time and bytes from in-step RecordCrypto events.
type stepCell struct {
	count       atomic.Uint64
	wallNs      atomic.Uint64
	cryptoNs    atomic.Uint64
	cryptoBytes atomic.Uint64
}

// A Collector is a probe.Sink folding the spine into live path-length
// attribution. Emit is wait-free and safe from any number of
// goroutines; as a probe.Observer the one collector watches every
// connection.
type Collector struct {
	prims [numPrims][numOps]opCell
	steps [numSteps]stepCell

	recordsIn  atomic.Uint64
	recordsOut atomic.Uint64
	bytesIn    atomic.Uint64
	bytesOut   atomic.Uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Observe implements probe.Observer. A nil collector declines.
func (c *Collector) Observe() probe.Sink {
	if c == nil {
		return nil
	}
	return c
}

// Emit implements probe.Sink.
func (c *Collector) Emit(e probe.Event) {
	if c == nil {
		return
	}
	switch e.Kind {
	case probe.KindStepExit:
		if int(e.Step) < numSteps {
			st := &c.steps[e.Step]
			st.count.Add(1)
			st.wallNs.Add(uint64(e.Dur))
		}
	case probe.KindRecordCrypto:
		if int(e.Op) < numOps {
			cell := &c.prims[primIndex(e.Prim)][e.Op]
			cell.ops.Add(1)
			cell.bytes.Add(uint64(e.Bytes))
			cell.ns.Add(uint64(e.Dur))
		}
		if int(e.Step) < numSteps {
			st := &c.steps[e.Step]
			st.cryptoNs.Add(uint64(e.Dur))
			st.cryptoBytes.Add(uint64(e.Bytes))
		}
	case probe.KindRecordIO:
		if e.Written {
			c.recordsOut.Add(1)
			c.bytesOut.Add(uint64(e.Bytes))
		} else {
			c.recordsIn.Add(1)
			c.bytesIn.Add(uint64(e.Bytes))
		}
	}
}

// Reset zeroes every accumulator so a drift window (one load run) can
// be measured from a clean slate. Events folding concurrently land
// entirely before or after the cut per cell.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for p := range c.prims {
		for o := range c.prims[p] {
			cell := &c.prims[p][o]
			cell.ops.Store(0)
			cell.bytes.Store(0)
			cell.ns.Store(0)
		}
	}
	for s := range c.steps {
		st := &c.steps[s]
		st.count.Store(0)
		st.wallNs.Store(0)
		st.cryptoNs.Store(0)
		st.cryptoBytes.Store(0)
	}
	c.recordsIn.Store(0)
	c.recordsOut.Store(0)
	c.bytesIn.Store(0)
	c.bytesOut.Store(0)
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
// 11/12, per-step byte attribution, and record-layer totals.
type Snapshot struct {
	At       time.Time `json:"at"`
	ModelGHz float64   `json:"model_ghz"`

	Prims []PrimRow `json:"primitives,omitempty"`
	Steps []StepRow `json:"steps,omitempty"`

	RecordsIn  uint64 `json:"records_in"`
	RecordsOut uint64 `json:"records_out"`
	BytesIn    uint64 `json:"bytes_in"`
	BytesOut   uint64 `json:"bytes_out"`
}

// Snapshot renders the collector's accumulated state. Rows with no
// traffic are omitted.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{At: time.Now(), ModelGHz: perf.ModelGHz()}
	if c == nil {
		return s
	}
	for p := 0; p < numPrims; p++ {
		row := PrimRow{Name: primNames[p]}
		for o := 0; o < numOps; o++ {
			cell := &c.prims[p][o]
			ops, bytes, ns := cell.ops.Load(), cell.bytes.Load(), cell.ns.Load()
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
		st := &c.steps[i]
		count, wall := st.count.Load(), st.wallNs.Load()
		cns, cbytes := st.cryptoNs.Load(), st.cryptoBytes.Load()
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
	s.RecordsIn = c.recordsIn.Load()
	s.RecordsOut = c.recordsOut.Load()
	s.BytesIn = c.bytesIn.Load()
	s.BytesOut = c.bytesOut.Load()
	return s
}

// totalsFor sums (bytes, nanos) across all ops of the given primitive
// rows — the wait-free accessor behind the windowed cycles/byte
// series.
func (c *Collector) totalsFor(lo, hi int) (bytes, ns uint64) {
	if c == nil {
		return 0, 0
	}
	for p := lo; p <= hi; p++ {
		for o := 0; o < numOps; o++ {
			cell := &c.prims[p][o]
			bytes += cell.bytes.Load()
			ns += cell.ns.Load()
		}
	}
	return bytes, ns
}

// CipherTotals returns cumulative (bytes, nanos) across the cipher
// primitives (RC4, AES, DES, 3DES, NULL) without allocating, so a
// periodic sampler can difference successive reads into a live
// windowed cipher cycles/byte.
func (c *Collector) CipherTotals() (bytes, ns uint64) {
	return c.totalsFor(primRC4, primNULL)
}

// MACTotals is CipherTotals for the MAC primitives (MD5, SHA-1).
func (c *Collector) MACTotals() (bytes, ns uint64) {
	return c.totalsFor(primMD5, primSHA1)
}

// IOTotals returns the record-layer cumulative counters without
// allocating.
func (c *Collector) IOTotals() (recordsIn, recordsOut, bytesIn, bytesOut uint64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	return c.recordsIn.Load(), c.recordsOut.Load(), c.bytesIn.Load(), c.bytesOut.Load()
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
