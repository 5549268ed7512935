// Package trace decides which connections keep their detail and folds
// that detail into the live anatomy: the always-on counterpart of the
// one-shot anatomy harness (internal/core's Table 2/3 experiments).
//
// A connection's record (package lifecycle) always keeps its step
// timeline and totals; the crypto calls, record-layer passes and
// application I/O between them are kept only for the connections the
// Tracer's sampler picks — 1 in N, under a per-second cap — so the
// cost of detail is bounded. A sampled connection's finished handshake
// folds into the Profiler, the continuous Tables 2 and 3. The Tracer
// also retains the spans of cross-connection engine work (RSA
// batches), each linked to the handshake steps it served.
package trace

import (
	"sync/atomic"
	"time"

	"sslperf/internal/probe"
)

// Span categories used by the SSL stack. Category strings become the
// "cat" field of exported Chrome trace events.
const (
	CatConn   = "conn"   // connection lifecycle (accept, handshake)
	CatStep   = "step"   // one of the ten handshake steps
	CatCrypto = "crypto" // a crypto call attributed inside a step
	CatRecord = "record" // record-layer cipher/MAC work
	CatIO     = "io"     // application Read/Write
	CatEngine = "engine" // cross-connection engine work (e.g. RSA batches)
)

// What a connection's record keeps beyond its step timeline and
// totals, as the record reports it. The zero value "" means nobody
// asked: the table has no tracer.
const (
	DetailFull        = "full"
	DetailSampledOut  = "sampled_out"  // the 1-in-N sampler passed it over
	DetailRateLimited = "rate_limited" // picked, but over the per-second cap
	DetailTruncated   = "truncated"    // kept, then cut at the per-record cap
)

// A Ref names a step of some connection — Trace is the connection's
// ID, Span the step — the link a batch span carries to each handshake
// step it served. The zero Ref means "no link". It is the probe spine's
// SpanRef, so engines carry links without importing this package.
type Ref = probe.SpanRef

// A Span is one timed region of engine work.
type Span struct {
	ID       uint64        `json:"id"`
	Name     string        `json:"name"`
	Category string        `json:"cat"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"dur_ns"`
	// Detail carries one free-form attribute (batch size).
	Detail string `json:"detail,omitempty"`
	// Links point at the handshake steps this span served.
	Links []Ref `json:"links,omitempty"`
}

// Config tunes a Tracer. The zero value samples every connection with
// the default engine ring and no rate limit.
type Config struct {
	// SampleEvery samples one connection in N (1 or 0 = every
	// connection). Sampling is modular over the arrival counter so a
	// steady load sees an unbiased 1/N cross-section.
	SampleEvery int

	// MaxPerSec caps sampled connections per second on top of
	// SampleEvery (0 = unlimited). The cap bounds the cost of detail
	// under connection floods regardless of the sampling ratio.
	MaxPerSec int

	// EngineRingSize is how many completed engine spans (batch spans)
	// are retained (default 1024).
	EngineRingSize int
}

// Stats counts tracer activity.
type Stats struct {
	Seen        uint64 `json:"seen"`         // connections offered to the sampler
	Sampled     uint64 `json:"sampled"`      // connections keeping detail
	RateLimited uint64 `json:"rate_limited"` // sampling hits dropped by MaxPerSec
	EngineSpans uint64 `json:"engine_spans"` // engine spans recorded
}

// A Tracer samples connections and retains engine spans. All methods
// are safe for concurrent use and no-ops on nil.
type Tracer struct {
	cfg Config

	seen        atomic.Uint64 // arrival counter (sampling modulus)
	sampled     atomic.Uint64
	rateLimited atomic.Uint64

	// Token bucket for MaxPerSec, refilled a second at a time.
	tokens     atomic.Int64
	lastRefill atomic.Int64 // unix nanos of the last refill

	// Lock-free ring of engine spans: writers claim a slot with an
	// atomic counter and publish with an atomic pointer store, so
	// engines never take a lock and readers always see whole values.
	engine     []atomic.Pointer[Span]
	engineNext atomic.Uint64

	prof *Profiler
}

// NewTracer returns a tracer with cfg's sampling and retention.
func NewTracer(cfg Config) *Tracer {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.EngineRingSize <= 0 {
		cfg.EngineRingSize = 1024
	}
	t := &Tracer{
		cfg:    cfg,
		engine: make([]atomic.Pointer[Span], cfg.EngineRingSize),
		prof:   NewProfiler(),
	}
	t.lastRefill.Store(time.Now().UnixNano()) // lint:allow-clock
	t.tokens.Store(int64(cfg.MaxPerSec))
	return t
}

// Profiler returns the online anatomy profiler sampled connections
// fold into (nil on a nil tracer).
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
		EngineSpans: t.engineNext.Load(),
	}
}

// allow consumes a rate-limit token, refilling the bucket once per
// second. Lock-free: a lost refill race just delays the refill to the
// next caller.
func (t *Tracer) allow() bool {
	if t.cfg.MaxPerSec <= 0 {
		return true
	}
	// The sampler runs when a connection is offered, ahead of its bus.
	now := time.Now().UnixNano() // lint:allow-clock
	last := t.lastRefill.Load()
	if now-last >= int64(time.Second) && t.lastRefill.CompareAndSwap(last, now) {
		t.tokens.Store(int64(t.cfg.MaxPerSec))
	}
	return t.tokens.Add(-1) >= 0
}

// Sample offers one connection to the sampler and answers with what
// its record keeps: DetailFull, DetailSampledOut or DetailRateLimited
// ("" on a nil tracer).
func (t *Tracer) Sample() string {
	if t == nil {
		return ""
	}
	n := t.seen.Add(1)
	if n%uint64(t.cfg.SampleEvery) != 0 {
		return DetailSampledOut
	}
	if !t.allow() {
		t.rateLimited.Add(1)
		return DetailRateLimited
	}
	t.sampled.Add(1)
	return DetailFull
}

// EngineSpan records one cross-connection engine span (e.g. an RSA
// batch) with links to the handshake steps it served.
func (t *Tracer) EngineSpan(name, detail string, start time.Time, d time.Duration, links []Ref) {
	if t == nil {
		return
	}
	i := t.engineNext.Add(1)
	t.engine[(i-1)%uint64(len(t.engine))].Store(&Span{
		ID: i, Name: name, Category: CatEngine,
		Start: start, Duration: d, Detail: detail, Links: links,
	})
}

// EngineSpans returns the retained engine spans, oldest-first. Writers
// may lap the read, but every loaded pointer is a complete published
// value.
func (t *Tracer) EngineSpans() []*Span {
	if t == nil {
		return nil
	}
	next, n := t.engineNext.Load(), uint64(len(t.engine))
	out := make([]*Span, 0, min(next, n))
	for i := next - min(next, n); i < next; i++ {
		if sp := t.engine[i%n].Load(); sp != nil {
			out = append(out, sp)
		}
	}
	return out
}
