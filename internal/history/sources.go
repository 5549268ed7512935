package history

import (
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/pathlen"
	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/slo"
	"sslperf/internal/telemetry"
	"sslperf/internal/trace"
)

// This file binds every observatory surface to the ring layer. Each
// source's Sample reads the surface's allocation-free accessor
// (telemetry.Counts, slo.Stats, lifecycle.Counts, pathlen totals,
// trace.SharesInto) so the whole tick stays off the heap.

// TelemetrySource samples the record/handshake counters as counter
// series, which the snapshot renders as rates (handshakes/s, bytes/s —
// the paper's throughput axes).
type TelemetrySource struct {
	reg *telemetry.Registry
}

// NewTelemetrySource wraps reg.
func NewTelemetrySource(reg *telemetry.Registry) *TelemetrySource {
	return &TelemetrySource{reg: reg}
}

var telemetryDefs = []SeriesDef{
	{Name: "connections", Unit: "conn/s", Kind: KindCounter},
	{Name: "handshakes.full", Unit: "hs/s", Kind: KindCounter},
	{Name: "handshakes.resumed", Unit: "hs/s", Kind: KindCounter},
	{Name: "handshakes.failed", Unit: "hs/s", Kind: KindCounter},
	{Name: "records.in", Unit: "rec/s", Kind: KindCounter},
	{Name: "records.out", Unit: "rec/s", Kind: KindCounter},
	{Name: "bytes.in", Unit: "B/s", Kind: KindCounter},
	{Name: "bytes.out", Unit: "B/s", Kind: KindCounter},
	{Name: "alerts.in", Unit: "alerts/s", Kind: KindCounter},
	{Name: "alerts.out", Unit: "alerts/s", Kind: KindCounter},
}

// Series implements Source.
func (s *TelemetrySource) Series() []SeriesDef { return telemetryDefs }

// Sample implements Source.
func (s *TelemetrySource) Sample(vals []float64) {
	c := s.reg.Counts()
	vals[0] = float64(c.Connections)
	vals[1] = float64(c.HandshakesFull)
	vals[2] = float64(c.HandshakesResumed)
	vals[3] = float64(c.HandshakesFailed)
	vals[4] = float64(c.RecordsIn)
	vals[5] = float64(c.RecordsOut)
	vals[6] = float64(c.BytesIn)
	vals[7] = float64(c.BytesOut)
	vals[8] = float64(c.AlertsIn)
	vals[9] = float64(c.AlertsOut)
}

// RuntimeSource samples the Go runtime gauges through a reusable
// runtime/metrics buffer (allocation-free after the first read).
type RuntimeSource struct {
	sampler *telemetry.RuntimeSampler
}

// NewRuntimeSource returns a runtime source with its own sampler (the
// sampler is not safe for concurrent use; the history serializes
// Sample calls under its lock).
func NewRuntimeSource() *RuntimeSource {
	return &RuntimeSource{sampler: telemetry.NewRuntimeSampler()}
}

var runtimeDefs = []SeriesDef{
	{Name: "runtime.goroutines", Unit: "goroutines", Kind: KindGauge},
	{Name: "runtime.heap_inuse_bytes", Unit: "B", Kind: KindGauge},
	{Name: "runtime.gc_pause_p99_us", Unit: "us", Kind: KindGauge},
	{Name: "runtime.sched_lat_p99_us", Unit: "us", Kind: KindGauge},
}

// Series implements Source.
func (s *RuntimeSource) Series() []SeriesDef { return runtimeDefs }

// Sample implements Source.
func (s *RuntimeSource) Sample(vals []float64) {
	rs := s.sampler.Read()
	vals[0] = float64(rs.Goroutines)
	vals[1] = float64(rs.HeapInuseBytes)
	vals[2] = float64(rs.GCPauseP99) / 1e3
	vals[3] = float64(rs.SchedLatP99) / 1e3
}

// SLOSource samples the short (10s) SLO window each tick: p99, error
// rate, burn rate, in-flight handshakes, and queue-delay mean — the
// overload early-warning gauges.
type SLOSource struct {
	tracker *slo.Tracker
}

// NewSLOSource wraps tracker.
func NewSLOSource(tracker *slo.Tracker) *SLOSource {
	return &SLOSource{tracker: tracker}
}

var sloDefs = []SeriesDef{
	{Name: "slo.p99_us", Unit: "us", Kind: KindGauge},
	{Name: "slo.error_rate", Unit: "frac", Kind: KindGauge},
	{Name: "slo.burn", Unit: "x", Kind: KindGauge},
	{Name: "slo.inflight", Unit: "hs", Kind: KindGauge},
	{Name: "slo.queue_mean_us", Unit: "us", Kind: KindGauge},
}

// Series implements Source.
func (s *SLOSource) Series() []SeriesDef { return sloDefs }

// Sample implements Source.
func (s *SLOSource) Sample(vals []float64) {
	ws := s.tracker.Stats(10)
	vals[0] = ws.P99Us
	vals[1] = ws.ErrorRate
	vals[2] = ws.BurnRate
	vals[3] = float64(s.tracker.InFlight())
	vals[4] = ws.QueueMeanUs
}

// LifecycleSource samples the connection table: live per-state gauges,
// opened/closed/failed counters, and one counter per canonical failure
// class (fail.<tag>), so ssltop's fail-class top-K reads straight from
// the history endpoint.
type LifecycleSource struct {
	table *lifecycle.Table
	defs  []SeriesDef
}

// NewLifecycleSource wraps table.
func NewLifecycleSource(table *lifecycle.Table) *LifecycleSource {
	defs := []SeriesDef{
		{Name: "conns.live", Unit: "conns", Kind: KindGauge},
		{Name: "conns.accepted", Unit: "conns", Kind: KindGauge},
		{Name: "conns.handshaking", Unit: "conns", Kind: KindGauge},
		{Name: "conns.suspended", Unit: "conns", Kind: KindGauge},
		{Name: "conns.established", Unit: "conns", Kind: KindGauge},
		{Name: "conns.opened", Unit: "conn/s", Kind: KindCounter},
		{Name: "conns.closed", Unit: "conn/s", Kind: KindCounter},
		{Name: "conns.failed", Unit: "conn/s", Kind: KindCounter},
	}
	// One series per canonical class, skipping FailNone (successful
	// closes are already conns.closed).
	for class := probe.FailClass(1); class <= probe.FailInternal; class++ {
		defs = append(defs, SeriesDef{
			Name: "fail." + class.Name(),
			Unit: "fail/s",
			Kind: KindCounter,
		})
	}
	return &LifecycleSource{table: table, defs: defs}
}

// Series implements Source.
func (s *LifecycleSource) Series() []SeriesDef { return s.defs }

// Sample implements Source.
func (s *LifecycleSource) Sample(vals []float64) {
	c := s.table.Counts()
	vals[0] = float64(c.Live)
	vals[1] = float64(c.Accepted)
	vals[2] = float64(c.Handshaking)
	vals[3] = float64(c.Suspended)
	vals[4] = float64(c.Established)
	vals[5] = float64(c.Opened)
	vals[6] = float64(c.Closed)
	vals[7] = float64(c.Failed)
	for class := 1; class <= int(probe.FailInternal); class++ {
		vals[7+class] = float64(c.FailByClass[class])
	}
}

// PathlenSource samples windowed cipher and MAC cycles/byte: it keeps
// the previous cumulative (bytes, nanos) totals and renders the delta
// window's intensity, so the gauge tracks the *current* mix (an RC4 to
// AES suite shift moves it within one tick, where the cumulative
// Table-11 view only drifts).
type PathlenSource struct {
	collector *pathlen.Collector

	prevCipherBytes, prevCipherNs uint64
	prevMACBytes, prevMACNs       uint64
}

// NewPathlenSource wraps collector.
func NewPathlenSource(collector *pathlen.Collector) *PathlenSource {
	return &PathlenSource{collector: collector}
}

var pathlenDefs = []SeriesDef{
	{Name: "pathlen.cipher_cyc_b", Unit: "cyc/B", Kind: KindGauge},
	{Name: "pathlen.mac_cyc_b", Unit: "cyc/B", Kind: KindGauge},
}

// Series implements Source.
func (s *PathlenSource) Series() []SeriesDef { return pathlenDefs }

// Sample implements Source.
func (s *PathlenSource) Sample(vals []float64) {
	cb, cn := s.collector.CipherTotals()
	mb, mn := s.collector.MACTotals()
	vals[0] = windowedCycPerByte(cb, cn, &s.prevCipherBytes, &s.prevCipherNs)
	vals[1] = windowedCycPerByte(mb, mn, &s.prevMACBytes, &s.prevMACNs)
}

// windowedCycPerByte differences cumulative totals against the
// previous tick and returns the window's cycles/byte (0 when the
// window saw no bytes, or after a reset rewound the counters).
func windowedCycPerByte(bytes, ns uint64, prevBytes, prevNs *uint64) float64 {
	db, dn := bytes-*prevBytes, ns-*prevNs
	if bytes < *prevBytes || ns < *prevNs {
		// Counters rewound (/debug/reset): treat the new totals as the
		// window.
		db, dn = bytes, ns
	}
	*prevBytes, *prevNs = bytes, ns
	if db == 0 {
		return 0
	}
	return perf.Cycles(time.Duration(dn)) / float64(db)
}

// AnatomySource samples the profiler's live Table-2 step shares
// (anatomy.share.<step>, percent of total step time) and the crypto
// share of handshake cost — the paper's headline split — as gauges.
type AnatomySource struct {
	profiler *trace.Profiler
	defs     []SeriesDef
	names    []string  // step names, parallel to defs[:len(names)]
	shares   []float64 // scratch for SharesInto
}

// NewAnatomySource wraps profiler.
func NewAnatomySource(profiler *trace.Profiler) *AnatomySource {
	steps := probe.Steps()
	s := &AnatomySource{
		profiler: profiler,
		names:    make([]string, len(steps)),
		shares:   make([]float64, len(steps)),
	}
	for i, step := range steps {
		s.names[i] = step.Name()
		s.defs = append(s.defs, SeriesDef{
			Name: "anatomy.share." + s.names[i],
			Unit: "%",
			Kind: KindGauge,
		})
	}
	s.defs = append(s.defs, SeriesDef{Name: "anatomy.crypto_share", Unit: "%", Kind: KindGauge})
	return s
}

// Series implements Source.
func (s *AnatomySource) Series() []SeriesDef { return s.defs }

// Sample implements Source.
func (s *AnatomySource) Sample(vals []float64) {
	crypto := s.profiler.SharesInto(s.names, s.shares)
	copy(vals, s.shares)
	vals[len(s.names)] = crypto
}

// Sources bundles the standard observatory surfaces for
// AddStandardSources. Nil fields (and false Runtime) are skipped.
type Sources struct {
	Telemetry *telemetry.Registry
	Runtime   bool
	SLO       *slo.Tracker
	Lifecycle *lifecycle.Table
	Pathlen   *pathlen.Collector
	Anatomy   *trace.Profiler
}

// AddStandardSources registers a source per populated surface, in a
// fixed order (telemetry, runtime, slo, conns, pathlen, anatomy).
func AddStandardSources(h *History, s Sources) {
	if s.Telemetry != nil {
		h.AddSource(NewTelemetrySource(s.Telemetry))
	}
	if s.Runtime {
		h.AddSource(NewRuntimeSource())
	}
	if s.SLO != nil {
		h.AddSource(NewSLOSource(s.SLO))
	}
	if s.Lifecycle != nil {
		h.AddSource(NewLifecycleSource(s.Lifecycle))
	}
	if s.Pathlen != nil {
		h.AddSource(NewPathlenSource(s.Pathlen))
	}
	if s.Anatomy != nil {
		h.AddSource(NewAnatomySource(s.Anatomy))
	}
}
