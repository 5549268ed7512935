// Package telemetry is the aggregate half of the live observability
// layer: the counters, latency distributions and keyed tallies behind
// /metrics, the one Histogram type every distribution in the
// observatory uses, and the shapes a connection's record (package
// lifecycle) hands over when it folds.
//
// Where internal/perf is the paper's offline measurement substrate,
// telemetry is the always-on production instrument. Nothing here rides
// a connection's probe bus: the conn table folds each connection into
// the Registry once when its handshake ends and once when it closes,
// so the registry's lock is taken twice per connection, never per step
// or per record.
package telemetry

import (
	"fmt"
	"sync"
	"time"

	"sslperf/internal/probe"
)

// StepTiming is one completed handshake step on a connection's
// timeline: when it was entered and the active time it took (parked
// intervals excluded, as the spine reports it).
type StepTiming struct {
	Step  probe.Step
	Start time.Time
	Dur   time.Duration
}

// A Call is one timed item of a connection's detail: an attributed
// crypto call, a bulk-phase record cipher/MAC pass, an application
// read or write, or a connection-level mark such as the accept. Kind
// is the category the Chrome export files it under (trace.Cat*).
type Call struct {
	Kind  string
	Name  string
	Step  probe.Step // enclosing handshake step, StepNone outside one
	At    time.Time
	Dur   time.Duration
	Bytes int
}

// A Handshake is one connection's finished handshake as its record
// folds it into the aggregates.
type Handshake struct {
	Suite   string
	Version uint16
	Resumed bool
	Failed  bool
	FailTag string
	Dur     time.Duration
	Steps   []StepTiming
	// Calls is the connection's detail so far; nil unless the sampler
	// picked the connection.
	Calls []Call
}

// IOCounts is the record-layer section of a snapshot, and what one
// closing connection adds to it.
type IOCounts struct {
	RecordsIn      uint64 `json:"records_in"`
	RecordsOut     uint64 `json:"records_out"`
	BytesIn        uint64 `json:"bytes_in"`
	BytesOut       uint64 `json:"bytes_out"`
	AlertsReceived uint64 `json:"alerts_received"`
	AlertsSent     uint64 `json:"alerts_sent"`
}

// Add accumulates o into c.
func (c *IOCounts) Add(o IOCounts) {
	c.RecordsIn += o.RecordsIn
	c.RecordsOut += o.RecordsOut
	c.BytesIn += o.BytesIn
	c.BytesOut += o.BytesOut
	c.AlertsReceived += o.AlertsReceived
	c.AlertsSent += o.AlertsSent
}

// Sub returns c minus o, field by field.
func (c IOCounts) Sub(o IOCounts) IOCounts {
	return IOCounts{
		RecordsIn:      c.RecordsIn - o.RecordsIn,
		RecordsOut:     c.RecordsOut - o.RecordsOut,
		BytesIn:        c.BytesIn - o.BytesIn,
		BytesOut:       c.BytesOut - o.BytesOut,
		AlertsReceived: c.AlertsReceived - o.AlertsReceived,
		AlertsSent:     c.AlertsSent - o.AlertsSent,
	}
}

// Counts is the registry's cumulative counters — the cheap,
// allocation-free read the history sampler takes every second, where
// Snapshot would build maps and slices per call.
type Counts struct {
	Connections       uint64
	HandshakesFull    uint64
	HandshakesResumed uint64
	HandshakesFailed  uint64
	IOCounts
}

// ObservatoryStats is the observatory reporting on itself — the
// answers to "why is connection N not on /debug/trace": closed records
// the ring holds and has evicted, connections that kept no detail (the
// sampler passed them over, or its rate limit refused them) or had it
// cut at the per-record cap, close-log lines sampling suppressed.
type ObservatoryStats struct {
	RecordsRetained    int    `json:"records_retained"`
	RecordsEvicted     uint64 `json:"records_evicted"`
	DetailSampledOut   uint64 `json:"detail_sampled_out"`
	DetailRateLimited  uint64 `json:"detail_rate_limited"`
	DetailTruncated    uint64 `json:"detail_truncated"`
	CloseLogSuppressed uint64 `json:"close_log_suppressed"`
}

// Live is the conn table as the registry reads it. Connections fold
// their record/byte totals only when they close, so a read adds the
// open entries' running totals: between Lock and Unlock no connection
// is mid-fold, so folded plus live counts each exactly once.
type Live interface {
	sync.Locker
	// LiveCounts returns the open connections' count and running
	// record/byte totals (by value: the history tick reads through
	// this interface and must stay off the heap).
	LiveCounts() Counts
	Observatory() ObservatoryStats
}

// numSteps covers every probe.Step including StepNone.
const numSteps = int(probe.StepServerFlush) + 1

// A Registry aggregates the SSL stack's live metrics, fed by the conn
// table's folds and by ObserveEngine from background engines. All
// methods are safe for concurrent use and no-ops on a nil receiver.
type Registry struct {
	start time.Time
	live  Live

	fullLatency    Histogram
	resumedLatency Histogram
	// steps is the live, cross-connection mirror of Table 2's rows,
	// indexed by probe.Step.
	steps [numSteps]Histogram

	mu          sync.Mutex
	counts      Counts // folded connections only; see Live
	bySuite     map[string]uint64
	byVersion   map[string]uint64
	failReasons map[string]uint64

	// Named engine histograms: open vocabulary for subsystems like the
	// RSA batch engine, which emits queue-depth, batch-size, and
	// linger-latency distributions here.
	engine      map[string]*engineHist
	engineOrder []string
}

// engineHist is one named engine distribution: a timed region in
// nanoseconds (timer) or a dimensionless value.
type engineHist struct {
	Histogram
	timer bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:       time.Now(), // lint:allow-clock
		bySuite:     make(map[string]uint64),
		byVersion:   make(map[string]uint64),
		failReasons: make(map[string]uint64),
		engine:      make(map[string]*engineHist),
	}
}

// SetLive names the conn table whose open connections Counts and
// Snapshot add in. Call it before the first connection.
func (r *Registry) SetLive(l Live) {
	if r != nil {
		r.live = l
	}
}

// Reset zeroes every metric but the connection count, so a drift
// window can be scoped to a load run; the start time is preserved.
// Concurrent folds may land on either side of the cut.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.fullLatency.Reset()
	r.resumedLatency.Reset()
	for i := range r.steps {
		r.steps[i].Reset()
	}
	r.mu.Lock()
	r.counts = Counts{Connections: r.counts.Connections}
	r.bySuite = make(map[string]uint64)
	r.byVersion = make(map[string]uint64)
	r.failReasons = make(map[string]uint64)
	// Named histograms are reset in place, not dropped: an emitter
	// that grabbed one before the cut keeps feeding the same (now
	// zeroed) histogram, so no observation is lost to a stale pointer.
	for _, h := range r.engine {
		h.Reset()
	}
	r.mu.Unlock()
}

// VersionName names a wire version for metric keys and renderings.
func VersionName(v uint16) string {
	switch v {
	case 0x0300:
		return "SSLv3"
	case 0x0301:
		return "TLSv1.0"
	}
	return fmt.Sprintf("%#04x", v)
}

// FoldHandshake counts one finished handshake — by outcome, and for a
// success by cipher suite and version, with its latency in the full or
// resumed histogram, matching the paper's split — and observes every
// step it completed, failed handshakes included.
func (r *Registry) FoldHandshake(h *Handshake) {
	if r == nil {
		return
	}
	for _, st := range h.Steps {
		if int(st.Step) < numSteps {
			r.steps[st.Step].Observe(int64(st.Dur))
		}
	}
	lat := &r.fullLatency
	r.mu.Lock()
	if h.Failed {
		r.counts.HandshakesFailed++
		reason := h.FailTag
		if reason == "" {
			reason = "unknown"
		}
		r.failReasons[reason]++
	} else {
		if h.Resumed {
			r.counts.HandshakesResumed++
			lat = &r.resumedLatency
		} else {
			r.counts.HandshakesFull++
		}
		r.bySuite[h.Suite]++
		r.byVersion[VersionName(h.Version)]++
	}
	r.mu.Unlock()
	if !h.Failed {
		lat.Observe(int64(h.Dur))
	}
}

// FoldClose counts one closed connection and the records, bytes and
// alerts it moved.
func (r *Registry) FoldClose(io IOCounts) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts.Connections++
	r.counts.IOCounts.Add(io)
	r.mu.Unlock()
}

// ObserveEngine records one engine sample under its metric name: a
// timed region in nanoseconds (timer) or a dimensionless value such as
// a queue depth or batch size.
func (r *Registry) ObserveEngine(name string, timer bool, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.engine[name]
	if h == nil {
		h = &engineHist{timer: timer}
		r.engine[name] = h
		r.engineOrder = append(r.engineOrder, name)
	}
	r.mu.Unlock()
	h.Observe(v)
}

// Counts reads the cumulative counters, open connections included,
// without allocating. A nil registry reads all zeros.
func (r *Registry) Counts() Counts {
	if r == nil {
		return Counts{}
	}
	if r.live != nil {
		r.live.Lock()
		defer r.live.Unlock()
	}
	r.mu.Lock()
	c := r.counts
	r.mu.Unlock()
	if r.live != nil {
		open := r.live.LiveCounts()
		c.Connections += open.Connections
		c.IOCounts.Add(open.IOCounts)
	}
	return c
}

// HandshakeCounts is the handshake section of a snapshot.
type HandshakeCounts struct {
	Full        uint64            `json:"full"`
	Resumed     uint64            `json:"resumed"`
	Failed      uint64            `json:"failed"`
	BySuite     map[string]uint64 `json:"by_suite,omitempty"`
	ByVersion   map[string]uint64 `json:"by_version,omitempty"`
	FailReasons map[string]uint64 `json:"fail_reasons,omitempty"`
}

// StepSnapshot is one handshake step's or engine timer's latency
// distribution, in nanoseconds.
type StepSnapshot struct {
	Name    string            `json:"name"`
	Latency HistogramSnapshot `json:"latency"`
}

// ValueSnapshot is one named engine value's distribution.
type ValueSnapshot struct {
	Name   string            `json:"name"`
	Values HistogramSnapshot `json:"values"`
}

// A Snapshot is a copy of every metric for rendering; counters may
// advance between individual loads but each value is a real point on
// its own timeline. Latencies are in nanoseconds.
type Snapshot struct {
	At             time.Time         `json:"at"`
	UptimeSeconds  float64           `json:"uptime_seconds"`
	Connections    uint64            `json:"connections"`
	Handshakes     HandshakeCounts   `json:"handshakes"`
	IO             IOCounts          `json:"io"`
	FullLatency    HistogramSnapshot `json:"full_handshake_latency"`
	ResumedLatency HistogramSnapshot `json:"resumed_handshake_latency"`
	Steps          []StepSnapshot    `json:"steps,omitempty"`
	Timers         []StepSnapshot    `json:"timers,omitempty"`
	Values         []ValueSnapshot   `json:"values,omitempty"`
	Observatory    ObservatoryStats  `json:"observatory"`
	Runtime        RuntimeSnapshot   `json:"runtime"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	now := time.Now() // lint:allow-clock
	c := r.Counts()
	s := Snapshot{
		At:            now,
		UptimeSeconds: now.Sub(r.start).Seconds(),
		Connections:   c.Connections,
		Handshakes: HandshakeCounts{
			Full:    c.HandshakesFull,
			Resumed: c.HandshakesResumed,
			Failed:  c.HandshakesFailed,
		},
		IO:             c.IOCounts,
		FullLatency:    r.fullLatency.Snapshot(),
		ResumedLatency: r.resumedLatency.Snapshot(),
		Runtime:        ReadRuntime(),
	}
	if r.live != nil {
		s.Observatory = r.live.Observatory()
	}
	// Steps come out in Table 2 order; a step no handshake ran is left
	// out.
	for _, st := range probe.Steps() {
		if h := r.steps[st].Snapshot(); h.Count > 0 {
			s.Steps = append(s.Steps, StepSnapshot{Name: st.Name(), Latency: h})
		}
	}
	r.mu.Lock()
	s.Handshakes.BySuite = copyMap(r.bySuite)
	s.Handshakes.ByVersion = copyMap(r.byVersion)
	s.Handshakes.FailReasons = copyMap(r.failReasons)
	for _, name := range r.engineOrder {
		if h := r.engine[name]; h.timer {
			s.Timers = append(s.Timers, StepSnapshot{Name: name, Latency: h.Snapshot()})
		} else {
			s.Values = append(s.Values, ValueSnapshot{Name: name, Values: h.Snapshot()})
		}
	}
	r.mu.Unlock()
	return s
}

func copyMap(m map[string]uint64) map[string]uint64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
