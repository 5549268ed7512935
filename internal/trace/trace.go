// Package trace is the per-connection span tracing pipeline for the
// SSL stack: the live, always-on counterpart of the one-shot anatomy
// harness (internal/core's Table 2/3 experiments).
//
// Every sampled connection gets a trace ID; spans cover the TCP
// accept, the handshake and each of its ten steps, the individual
// crypto calls inside them, record-layer seal/open work, and
// application I/O — all built from the connection's probe events (a
// Tracer is a probe.Observer, a ConnTrace the per-connection sink).
// The batch RSA engine emits engine spans *linked* to the handshake
// spans they served, so cross-connection batching causality stays
// visible.
//
// Overhead is bounded by design: sampling is probabilistic (1-in-N)
// plus rate-limited, completed traces land in a lock-free ring of
// atomic pointers, and a nil *Tracer (or an unsampled connection's
// nil *ConnTrace) declines the connection, which then never builds a
// probe bus for it.
//
// Exports are Chrome trace-event JSON (chrome://tracing / Perfetto)
// and the continuous anatomy profiler, which folds sampled spans
// online into live equivalents of the paper's Tables 2 and 3.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"sslperf/internal/probe"
)

// Span categories used by the SSL stack. Category strings become the
// "cat" field of exported Chrome trace events.
const (
	CatConn   = "conn"   // connection lifecycle (accept, handshake, close)
	CatStep   = "step"   // one of the ten handshake steps
	CatCrypto = "crypto" // a crypto call attributed inside a step
	CatRecord = "record" // record-layer cipher/MAC work
	CatIO     = "io"     // application Read/Write
	CatEngine = "engine" // cross-connection engine work (e.g. RSA batches)
)

// A Ref names a span in some trace: the link target for cross-trace
// causality (a batch span pointing at the handshake spans it served).
// The zero Ref means "no link". It is the probe spine's SpanRef, so
// engines can carry links without importing this package.
type Ref = probe.SpanRef

// A Span is one timed region. IDs are globally unique across the
// tracer so Links are unambiguous.
type Span struct {
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Category string        `json:"cat"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"dur_ns"`
	// Detail carries one free-form attribute (suite name, batch size).
	Detail string `json:"detail,omitempty"`
	// Links point at spans in other traces that this span served.
	Links []Ref `json:"links,omitempty"`
}

// A TraceData is one completed connection trace.
type TraceData struct {
	ID      uint64    `json:"id"`
	Conn    uint64    `json:"conn"` // the spine's connection ID
	Role    string    `json:"role"` // "server" or "client"
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Outcome string    `json:"outcome"` // "ok", "resumed", or a failure reason
	Spans   []Span    `json:"spans"`
}

// Config tunes a Tracer. The zero value samples every connection with
// the default ring sizes and no rate limit.
type Config struct {
	// SampleEvery samples one connection in N (1 or 0 = every
	// connection). Sampling is modular over the arrival counter so a
	// steady load sees an unbiased 1/N cross-section.
	SampleEvery int

	// MaxPerSec caps sampled traces per second on top of SampleEvery
	// (0 = unlimited). The cap bounds tracing cost under connection
	// floods regardless of the sampling ratio.
	MaxPerSec int

	// RingSize is how many completed connection traces are retained
	// for /debug/trace (default 256).
	RingSize int

	// EngineRingSize is how many completed engine spans (batch spans)
	// are retained (default 1024).
	EngineRingSize int

	// MaxSpans bounds one trace's span count; a trace that fills up is
	// finished early so a chatty bulk transfer cannot grow without
	// bound (default 512).
	MaxSpans int
}

func (c Config) withDefaults() Config {
	if c.SampleEvery < 1 {
		c.SampleEvery = 1
	}
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	if c.EngineRingSize <= 0 {
		c.EngineRingSize = 1024
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 512
	}
	return c
}

// Stats counts tracer activity.
type Stats struct {
	Seen        uint64 `json:"seen"`         // connections offered to the sampler
	Sampled     uint64 `json:"sampled"`      // traces started
	RateLimited uint64 `json:"rate_limited"` // sampling hits dropped by MaxPerSec
	Finished    uint64 `json:"finished"`     // traces completed into the ring
	EngineSpans uint64 `json:"engine_spans"` // engine spans recorded
}

// A Tracer samples connections and retains their completed traces.
// All methods are safe for concurrent use and no-ops on nil.
type Tracer struct {
	cfg Config

	seen        atomic.Uint64 // arrival counter (sampling modulus)
	traceSeq    atomic.Uint64 // trace IDs
	spanSeq     atomic.Uint64 // span IDs, global across traces
	sampled     atomic.Uint64
	rateLimited atomic.Uint64
	finished    atomic.Uint64
	engineCount atomic.Uint64

	// Token bucket for MaxPerSec, refilled a second at a time.
	tokens     atomic.Int64
	lastRefill atomic.Int64 // unix nanos of the last refill

	// Lock-free rings of completed work: writers claim a slot with an
	// atomic counter and publish with an atomic pointer store, so the
	// hot path never takes a lock and readers always see whole values.
	ring     []atomic.Pointer[TraceData]
	ringNext atomic.Uint64

	engine     []atomic.Pointer[Span]
	engineNext atomic.Uint64

	prof *Profiler
}

// NewTracer returns a tracer with cfg's sampling and retention.
func NewTracer(cfg Config) *Tracer {
	c := cfg.withDefaults()
	t := &Tracer{
		cfg:    c,
		ring:   make([]atomic.Pointer[TraceData], c.RingSize),
		engine: make([]atomic.Pointer[Span], c.EngineRingSize),
		prof:   NewProfiler(),
	}
	t.lastRefill.Store(time.Now().UnixNano())
	t.tokens.Store(int64(c.MaxPerSec))
	return t
}

// Profiler returns the online anatomy profiler fed by every finished
// trace (nil on a nil tracer).
func (t *Tracer) Profiler() *Profiler {
	if t == nil {
		return nil
	}
	return t.prof
}

// Stats snapshots the tracer counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Seen:        t.seen.Load(),
		Sampled:     t.sampled.Load(),
		RateLimited: t.rateLimited.Load(),
		Finished:    t.finished.Load(),
		EngineSpans: t.engineCount.Load(),
	}
}

// allow consumes a rate-limit token, refilling the bucket once per
// second. Lock-free: a lost refill race just delays the refill to the
// next caller.
func (t *Tracer) allow() bool {
	if t.cfg.MaxPerSec <= 0 {
		return true
	}
	now := time.Now().UnixNano()
	last := t.lastRefill.Load()
	if now-last >= int64(time.Second) && t.lastRefill.CompareAndSwap(last, now) {
		t.tokens.Store(int64(t.cfg.MaxPerSec))
	}
	return t.tokens.Add(-1) >= 0
}

// Observe implements probe.Observer: it offers the connection to the
// sampler and answers with its trace, or nil when passed over.
func (t *Tracer) Observe() probe.Sink { return t.ConnBegin().Observe() }

// ConnBegin offers one connection to the sampler ahead of its open
// event, for callers with something to put on the trace first (the
// accept span, a batch-RSA link target); they then hand the trace to
// the connection as its observer. It returns nil for unsampled
// connections — and a nil *ConnTrace is itself a valid no-op recorder
// and a declining observer, so callers thread the result through
// unconditionally. The connection's ID and role arrive with its open
// event.
func (t *Tracer) ConnBegin() *ConnTrace {
	if t == nil {
		return nil
	}
	n := t.seen.Add(1)
	if t.cfg.SampleEvery > 1 && n%uint64(t.cfg.SampleEvery) != 0 {
		return nil
	}
	if !t.allow() {
		t.rateLimited.Add(1)
		return nil
	}
	t.sampled.Add(1)
	return &ConnTrace{
		t:    t,
		data: TraceData{ID: t.traceSeq.Add(1), Start: time.Now()},
	}
}

// EngineSpan records one cross-connection engine span (e.g. an RSA
// batch) with links to the handshake spans it served.
func (t *Tracer) EngineSpan(name, detail string, start time.Time, d time.Duration, links []Ref) {
	if t == nil {
		return
	}
	sp := &Span{
		ID:       t.spanSeq.Add(1),
		Name:     name,
		Category: CatEngine,
		Start:    start,
		Duration: d,
		Detail:   detail,
		Links:    links,
	}
	t.engineCount.Add(1)
	i := t.engineNext.Add(1) - 1
	t.engine[i%uint64(len(t.engine))].Store(sp)
}

// publish retires a finished trace into the ring.
func (t *Tracer) publish(td *TraceData) {
	t.finished.Add(1)
	i := t.ringNext.Add(1) - 1
	t.ring[i%uint64(len(t.ring))].Store(td)
}

// Traces returns the retained completed traces, oldest-first.
func (t *Tracer) Traces() []*TraceData {
	if t == nil {
		return nil
	}
	return ringSnapshot(t.ring, t.ringNext.Load())
}

// EngineSpans returns the retained engine spans, oldest-first.
func (t *Tracer) EngineSpans() []*Span {
	if t == nil {
		return nil
	}
	return ringSnapshot(t.engine, t.engineNext.Load())
}

// ringSnapshot copies a pointer ring oldest-first. Writers may lap the
// read, but every loaded pointer is a complete published value.
func ringSnapshot[T any](ring []atomic.Pointer[T], next uint64) []*T {
	n := uint64(len(ring))
	out := make([]*T, 0, len(ring))
	start := uint64(0)
	if next > n {
		start = next - n
	}
	for i := start; i < next; i++ {
		if v := ring[i%n].Load(); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// A ConnTrace records one sampled connection's spans. The handshake
// runs on a single goroutine but record and I/O spans can arrive from
// whichever goroutine drives the connection afterwards, so the span
// buffer is guarded by a mutex — paid only by sampled connections.
// All methods but Emit are no-ops on a nil receiver.
type ConnTrace struct {
	t *Tracer

	// Emit's cursor, touched only by the connection's goroutine: the
	// top-level handshake span, the open step span, and the outcome
	// the close will publish.
	hs, cur uint64
	outcome string

	mu       sync.Mutex
	data     TraceData
	open     map[uint64]int // span ID -> index in data.Spans
	curTrace Ref            // current step span, for engine linking
	folded   bool           // already contributed to the profiler
	done     bool
}

// TraceID returns the trace's ID (0 on nil).
func (ct *ConnTrace) TraceID() uint64 {
	if ct == nil {
		return 0
	}
	return ct.data.ID
}

// Observe implements probe.Observer for a trace begun ahead of its
// connection: the trace is that connection's sink. A nil trace
// declines.
func (ct *ConnTrace) Observe() probe.Sink {
	if ct == nil {
		return nil
	}
	return ct
}

// Emit implements probe.Sink, turning the connection's events into
// spans: the handshake is a top-level span, step enter/exit become
// step spans under it, crypto calls become crypto events inside the
// open step, record-layer work becomes either a Table 2 crypto event
// (inside a step) or a record span (bulk phase), application reads
// and writes become io spans. A failed handshake finishes the trace at
// once; a successful one folds into the anatomy profiler immediately
// and publishes at close, so application I/O is on it.
func (ct *ConnTrace) Emit(e probe.Event) {
	switch e.Kind {
	case probe.KindConnOpen:
		ct.mu.Lock()
		ct.data.Conn, ct.data.Role = e.Conn, e.Fn
		ct.mu.Unlock()
	case probe.KindHandshakeStart:
		ct.hs = ct.Begin("handshake", CatConn, 0)
	case probe.KindStepEnter:
		ct.cur = ct.Begin(e.Step.Name(), CatStep, ct.hs)
	case probe.KindStepExit:
		// The spine reports cumulative in-step time, which excludes
		// I/O waits the wall clock would charge; pass it through.
		ct.End(ct.cur, e.Dur)
		ct.cur = 0
	case probe.KindCrypto:
		ct.Event(e.Fn, CatCrypto, ct.cur, e.At, e.Dur)
	case probe.KindRecordCrypto:
		if e.Step != probe.StepNone {
			// Finished-message work inside a step: the same Table 2
			// rows (pri_encryption/pri_decryption/mac) the offline
			// anatomy reports.
			ct.Event(e.Op.StepFn(), CatCrypto, ct.cur, e.At, e.Dur)
		} else {
			ct.Event(e.Op.String(), CatRecord, 0, e.At, e.Dur)
		}
	case probe.KindHandshakeDone:
		ct.End(ct.hs, -1)
		ct.outcome = "ok"
		detail := e.Fn
		if e.Resumed {
			ct.outcome = "resumed"
			detail += " resumed"
		}
		ct.setDetail(ct.hs, detail)
		ct.fold()
	case probe.KindHandshakeFail:
		ct.End(ct.hs, -1)
		ct.Finish(e.Fn)
	case probe.KindAppIO:
		name := "read"
		if e.Written {
			name = "write"
		}
		ct.Event(name, CatIO, ct.hs, e.At, e.Dur)
	case probe.KindConnClose:
		if ct.outcome == "" {
			ct.outcome = "closed_before_handshake"
		}
		ct.Finish(ct.outcome)
	}
}

// Begin opens a span and returns its ID for End. Parent 0 means
// top-level.
func (ct *ConnTrace) Begin(name, category string, parent uint64) uint64 {
	if ct == nil {
		return 0
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.done {
		return 0
	}
	id := ct.t.spanSeq.Add(1)
	ct.data.Spans = append(ct.data.Spans, Span{
		ID: id, Parent: parent, Name: name, Category: category, Start: time.Now(),
	})
	if ct.open == nil {
		ct.open = make(map[uint64]int, 16)
	}
	ct.open[id] = len(ct.data.Spans) - 1
	if category == CatStep {
		ct.curTrace = Ref{Trace: ct.data.ID, Span: id}
	}
	return id
}

// End closes an open span. A non-negative elapsed overrides the
// wall-clock duration (the step observer reports cumulative elapsed
// time that excludes I/O waits).
func (ct *ConnTrace) End(id uint64, elapsed time.Duration) {
	if ct == nil || id == 0 {
		return
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	i, ok := ct.open[id]
	if !ok {
		return
	}
	delete(ct.open, id)
	sp := &ct.data.Spans[i]
	if elapsed >= 0 {
		sp.Duration = elapsed
	} else {
		sp.Duration = time.Since(sp.Start)
	}
}

// setDetail attaches the free-form attribute to an open or closed
// span.
func (ct *ConnTrace) setDetail(id uint64, detail string) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for i := range ct.data.Spans {
		if ct.data.Spans[i].ID == id {
			ct.data.Spans[i].Detail = detail
			return
		}
	}
}

// Event records a completed span with explicit timing — the shape the
// after-the-fact observer callbacks (crypto calls, record ops) emit.
// A full trace finishes itself so span growth stays bounded.
func (ct *ConnTrace) Event(name, category string, parent uint64, start time.Time, d time.Duration) {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	if ct.done {
		ct.mu.Unlock()
		return
	}
	ct.data.Spans = append(ct.data.Spans, Span{
		ID: ct.t.spanSeq.Add(1), Parent: parent, Name: name,
		Category: category, Start: start, Duration: d,
	})
	full := len(ct.data.Spans) >= ct.t.cfg.MaxSpans
	ct.mu.Unlock()
	if full {
		ct.Finish("span_limit")
	}
}

// Ref returns a link target for engine spans: the current handshake
// step span when one is open, else the trace itself. Safe to call
// from the connection's goroutine while workers resolve the link
// concurrently.
func (ct *ConnTrace) Ref() Ref {
	if ct == nil {
		return Ref{}
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.curTrace != (Ref{}) {
		return ct.curTrace
	}
	return Ref{Trace: ct.data.ID}
}

// fold contributes the spans recorded so far to the anatomy profiler
// without finishing the trace, the moment the handshake completes, so
// /debug/anatomy reflects a handshake as soon as it is done rather
// than when its connection finally closes; the later Finish will not
// fold again. Spans recorded after fold still reach the trace ring
// but not the profiler — by construction those are I/O and record
// spans, which the profiler ignores anyway.
func (ct *ConnTrace) fold() {
	ct.mu.Lock()
	if ct.done || ct.folded {
		ct.mu.Unlock()
		return
	}
	ct.folded = true
	td := ct.data // the spans folded are immutable once recorded
	ct.mu.Unlock()
	ct.t.prof.fold(&td)
}

// Finish completes the trace: closes any spans left open, stamps the
// outcome, publishes into the tracer's ring, and (unless fold already
// ran) folds the trace into the anatomy profiler. Finish is
// idempotent; the first outcome wins.
func (ct *ConnTrace) Finish(outcome string) {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	if ct.done {
		ct.mu.Unlock()
		return
	}
	ct.done = true
	now := time.Now()
	for id, i := range ct.open {
		sp := &ct.data.Spans[i]
		sp.Duration = now.Sub(sp.Start)
		delete(ct.open, id)
	}
	ct.data.End = now
	ct.data.Outcome = outcome
	folded := ct.folded
	td := ct.data
	ct.mu.Unlock()
	if !folded {
		ct.t.prof.fold(&td)
	}
	ct.t.publish(&td)
}
