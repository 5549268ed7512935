// Package telemetry is the live observability layer for the SSL
// stack: concurrency-safe counters and histograms that every active
// connection emits into, plus a fixed-size flight recorder of
// structured per-connection events.
//
// Where internal/perf is the paper's offline measurement substrate
// (single-owner breakdowns rendered after a run), telemetry is the
// always-on production instrument the multi-core follow-up work
// assumes: counters are atomic, histograms are wait-free, and the
// whole layer has a nil fast path — a nil *Registry declines every
// connection it is offered, so a server without telemetry runs the
// sink-free probe bus.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sslperf/internal/probe"
)

// A Registry aggregates the SSL stack's live metrics. It is a
// probe.Observer whose sink is the registry itself: every connection
// (and every engine bus) emits into the one Registry, which keys its
// flight-recorder entries by the connection ID the events carry. Emit
// is safe for concurrent use; the read side is a no-op on a nil
// receiver.
type Registry struct {
	start time.Time

	conns atomic.Uint64

	handshakesFull    atomic.Uint64
	handshakesResumed atomic.Uint64
	handshakesFailed  atomic.Uint64

	recordsIn  atomic.Uint64
	recordsOut atomic.Uint64
	bytesIn    atomic.Uint64
	bytesOut   atomic.Uint64
	alertsIn   atomic.Uint64
	alertsOut  atomic.Uint64

	fullLatency    Histogram
	resumedLatency Histogram

	// Low-rate keyed counters (one touch per handshake, not per
	// record) share a mutex; the maps are tiny and bounded by the
	// suite/version/reason vocabulary.
	mu          sync.Mutex
	bySuite     map[string]uint64
	byVersion   map[string]uint64
	failReasons map[string]uint64
	steps       map[string]*Histogram
	stepOrder   []string

	// Named engine histograms (ObserveTimer / ObserveValue): open
	// vocabulary for subsystems like the RSA batch engine, which
	// emits queue-depth, batch-size, and linger-latency
	// distributions here.
	timers     map[string]*Histogram
	timerOrder []string
	values     map[string]*ValueHistogram
	valueOrder []string

	recorder *FlightRecorder
}

// NewRegistry returns a registry with a DefaultFlightRecorderSize
// flight recorder.
func NewRegistry() *Registry { return NewRegistrySize(DefaultFlightRecorderSize) }

// NewRegistrySize returns a registry whose flight recorder keeps the
// last events entries.
func NewRegistrySize(events int) *Registry {
	return &Registry{
		start:       time.Now(),
		bySuite:     make(map[string]uint64),
		byVersion:   make(map[string]uint64),
		failReasons: make(map[string]uint64),
		steps:       make(map[string]*Histogram),
		timers:      make(map[string]*Histogram),
		values:      make(map[string]*ValueHistogram),
		recorder:    NewFlightRecorder(events),
	}
}

// Reset zeroes every metric and drops the retained flight-recorder
// events, so a drift window can be scoped to a load run instead of
// the process lifetime. The connection count and the start time are
// preserved, so uptime keeps meaning "since process start".
// Concurrent emissions may land on either side of the cut.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.handshakesFull.Store(0)
	r.handshakesResumed.Store(0)
	r.handshakesFailed.Store(0)
	r.recordsIn.Store(0)
	r.recordsOut.Store(0)
	r.bytesIn.Store(0)
	r.bytesOut.Store(0)
	r.alertsIn.Store(0)
	r.alertsOut.Store(0)
	r.fullLatency.Reset()
	r.resumedLatency.Reset()
	r.mu.Lock()
	r.bySuite = make(map[string]uint64)
	r.byVersion = make(map[string]uint64)
	r.failReasons = make(map[string]uint64)
	// Named histograms are reset in place, not dropped: an emitter
	// that grabbed one before the cut keeps feeding the same (now
	// zeroed) histogram, so no observation is lost to a stale pointer.
	for _, h := range r.steps {
		h.Reset()
	}
	for _, h := range r.timers {
		h.Reset()
	}
	for _, h := range r.values {
		h.Reset()
	}
	r.mu.Unlock()
	r.recorder.Reset()
}

// Recorder exposes the flight recorder (nil on a nil registry).
func (r *Registry) Recorder() *FlightRecorder {
	if r == nil {
		return nil
	}
	return r.recorder
}

// Observe implements probe.Observer. A nil registry declines, so it
// can be wired unconditionally.
func (r *Registry) Observe() probe.Sink {
	if r == nil {
		return nil
	}
	return r
}

// Emit implements probe.Sink: lifecycle, step and crypto events become
// flight-recorder entries under the event's connection ID; handshake
// outcomes, step exits, record I/O and engine samples feed the
// counters and histograms.
func (r *Registry) Emit(e probe.Event) {
	switch e.Kind {
	case probe.KindConnOpen:
		r.conns.Add(1)
	case probe.KindHandshakeStart:
		r.event(e, EventHandshakeStart, "", e.Fn)
	case probe.KindStepEnter:
		r.event(e, EventStepStart, e.Step.Name(), e.Step.Desc())
	case probe.KindStepExit:
		// The live, cross-connection mirror of Table 2's rows.
		r.histogram(r.steps, &r.stepOrder, e.Step.Name()).Observe(e.Dur)
		r.event(e, EventStepEnd, e.Step.Name(), "")
	case probe.KindCrypto:
		r.event(e, EventCrypto, e.Fn, e.Step.Name())
	case probe.KindRecordCrypto:
		// Record-layer work inside a handshake step lands in the
		// flight recorder under its Table 2 row name; bulk-phase work
		// is covered by the I/O counters alone (per-op events would
		// flood the ring).
		if e.Step != probe.StepNone {
			r.event(e, EventCrypto, e.Op.StepFn(), e.Step.Name())
		}
	case probe.KindRecordIO:
		r.recordIO(e)
	case probe.KindHandshakeDone:
		r.handshakeDone(e)
	case probe.KindHandshakeFail:
		r.handshakesFailed.Add(1)
		reason := e.Fn
		if reason == "" {
			reason = "unknown"
		}
		r.mu.Lock()
		r.failReasons[reason]++
		r.mu.Unlock()
		r.event(e, EventHandshakeFail, e.Fn, e.Detail)
	case probe.KindConnClose:
		r.event(e, EventClose, "", "")
	case probe.KindEngineValue:
		r.mu.Lock()
		h := r.values[e.Fn]
		if h == nil {
			h = &ValueHistogram{}
			r.values[e.Fn] = h
			r.valueOrder = append(r.valueOrder, e.Fn)
		}
		r.mu.Unlock()
		h.Observe(e.Value)
	case probe.KindEngineTimer:
		r.histogram(r.timers, &r.timerOrder, e.Fn).Observe(e.Dur)
	}
}

// event records a flight-recorder entry for e's connection, keeping
// the spine's stamp.
func (r *Registry) event(e probe.Event, kind EventKind, name, detail string) {
	r.recorder.Record(Event{Conn: e.Conn, At: e.At, Kind: kind, Name: name, Detail: detail, Elapsed: e.Dur})
}

// versionName names a wire version for metric keys.
func versionName(v uint16) string {
	switch v {
	case 0x0300:
		return "SSLv3"
	case 0x0301:
		return "TLSv1.0"
	}
	return fmt.Sprintf("%#04x", v)
}

// handshakeDone counts one successful handshake, keyed by cipher suite
// and version, and observes its latency (full and resumed handshakes
// get separate histograms, matching the paper's split).
func (r *Registry) handshakeDone(e probe.Event) {
	detail := e.Fn
	if e.Resumed {
		r.handshakesResumed.Add(1)
		r.resumedLatency.Observe(e.Dur)
		detail += " resumed"
	} else {
		r.handshakesFull.Add(1)
		r.fullLatency.Observe(e.Dur)
	}
	r.mu.Lock()
	r.bySuite[e.Fn]++
	r.byVersion[versionName(e.Version)]++
	r.mu.Unlock()
	r.event(e, EventHandshakeDone, "", detail)
}

// histogram returns the named latency histogram of one family (the
// handshake steps, or the engines' open timer vocabulary), creating
// it on first use and remembering first-observed order.
func (r *Registry) histogram(family map[string]*Histogram, order *[]string, name string) *Histogram {
	r.mu.Lock()
	h := family[name]
	if h == nil {
		h = &Histogram{}
		family[name] = h
		*order = append(*order, name)
	}
	r.mu.Unlock()
	return h
}

// recordIO counts one framed record moving through the record layer
// (the per-record hot path: three atomic adds) and flight-records an
// alert.
func (r *Registry) recordIO(e probe.Event) {
	if e.Written {
		r.recordsOut.Add(1)
		r.bytesOut.Add(uint64(e.Bytes))
	} else {
		r.recordsIn.Add(1)
		r.bytesIn.Add(uint64(e.Bytes))
	}
	if !e.Alert {
		return
	}
	if e.Written {
		r.alertsOut.Add(1)
		r.event(e, EventAlertSent, "", "")
	} else {
		r.alertsIn.Add(1)
		r.event(e, EventAlertReceived, "", "")
	}
}

// Counts is the registry's raw cumulative counters — the cheap,
// allocation-free read the history sampler takes every second, where
// Snapshot would build maps and slices per call. Each value is one
// atomic load.
type Counts struct {
	Connections       uint64
	HandshakesFull    uint64
	HandshakesResumed uint64
	HandshakesFailed  uint64
	RecordsIn         uint64
	RecordsOut        uint64
	BytesIn           uint64
	BytesOut          uint64
	AlertsIn          uint64
	AlertsOut         uint64
}

// Counts reads the cumulative counters without allocating. A nil
// registry reads all zeros.
func (r *Registry) Counts() Counts {
	if r == nil {
		return Counts{}
	}
	return Counts{
		Connections:       r.conns.Load(),
		HandshakesFull:    r.handshakesFull.Load(),
		HandshakesResumed: r.handshakesResumed.Load(),
		HandshakesFailed:  r.handshakesFailed.Load(),
		RecordsIn:         r.recordsIn.Load(),
		RecordsOut:        r.recordsOut.Load(),
		BytesIn:           r.bytesIn.Load(),
		BytesOut:          r.bytesOut.Load(),
		AlertsIn:          r.alertsIn.Load(),
		AlertsOut:         r.alertsOut.Load(),
	}
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

// IOCounts is the record-layer section of a snapshot.
type IOCounts struct {
	RecordsIn      uint64 `json:"records_in"`
	RecordsOut     uint64 `json:"records_out"`
	BytesIn        uint64 `json:"bytes_in"`
	BytesOut       uint64 `json:"bytes_out"`
	AlertsReceived uint64 `json:"alerts_received"`
	AlertsSent     uint64 `json:"alerts_sent"`
}

// StepSnapshot is one handshake step's latency distribution.
type StepSnapshot struct {
	Name    string            `json:"name"`
	Latency HistogramSnapshot `json:"latency"`
}

// ValueSnapshot is one named value histogram's distribution.
type ValueSnapshot struct {
	Name   string                 `json:"name"`
	Values ValueHistogramSnapshot `json:"values"`
}

// A Snapshot is a self-consistent-enough copy of every metric for
// rendering; counters may advance between individual loads but each
// value is a real point on its own timeline.
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
	EventsRecorded uint64            `json:"events_recorded"`
	EventsRetained int               `json:"events_retained"`
	Runtime        RuntimeSnapshot   `json:"runtime"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	now := time.Now()
	s := Snapshot{
		At:            now,
		UptimeSeconds: now.Sub(r.start).Seconds(),
		Connections:   r.conns.Load(),
		Handshakes: HandshakeCounts{
			Full:    r.handshakesFull.Load(),
			Resumed: r.handshakesResumed.Load(),
			Failed:  r.handshakesFailed.Load(),
		},
		IO: IOCounts{
			RecordsIn:      r.recordsIn.Load(),
			RecordsOut:     r.recordsOut.Load(),
			BytesIn:        r.bytesIn.Load(),
			BytesOut:       r.bytesOut.Load(),
			AlertsReceived: r.alertsIn.Load(),
			AlertsSent:     r.alertsOut.Load(),
		},
		FullLatency:    r.fullLatency.Snapshot(),
		ResumedLatency: r.resumedLatency.Snapshot(),
		EventsRecorded: r.recorder.Total(),
		EventsRetained: r.recorder.Len(),
		Runtime:        ReadRuntime(),
	}
	r.mu.Lock()
	s.Handshakes.BySuite = copyMap(r.bySuite)
	s.Handshakes.ByVersion = copyMap(r.byVersion)
	s.Handshakes.FailReasons = copyMap(r.failReasons)
	order := append([]string(nil), r.stepOrder...)
	hists := make([]*Histogram, len(order))
	for i, name := range order {
		hists[i] = r.steps[name]
	}
	tOrder := append([]string(nil), r.timerOrder...)
	tHists := make([]*Histogram, len(tOrder))
	for i, name := range tOrder {
		tHists[i] = r.timers[name]
	}
	vOrder := append([]string(nil), r.valueOrder...)
	vHists := make([]*ValueHistogram, len(vOrder))
	for i, name := range vOrder {
		vHists[i] = r.values[name]
	}
	r.mu.Unlock()
	// Steps keep first-observed order, which is Table 2 order when the
	// handshake FSM is the only emitter.
	for i, name := range order {
		s.Steps = append(s.Steps, StepSnapshot{Name: name, Latency: hists[i].Snapshot()})
	}
	for i, name := range tOrder {
		s.Timers = append(s.Timers, StepSnapshot{Name: name, Latency: tHists[i].Snapshot()})
	}
	for i, name := range vOrder {
		s.Values = append(s.Values, ValueSnapshot{Name: name, Values: vHists[i].Snapshot()})
	}
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
