// Package trace decides which connections keep their detail.
//
// A connection's record (package lifecycle) always keeps its step
// timeline and totals; the crypto calls, record-layer passes and
// application I/O between them are kept only for the connections the
// Tracer's sampler picks — 1 in N, under a per-second cap — so the
// cost of detail is bounded. A sampled connection's finished handshake
// carries its crypto calls into the metrics registry's Table 2/3 rows
// (telemetry.Registry.Anatomy, which internal/core's Table 2/3
// experiments render too).
package trace

import (
	"sync/atomic"
	"time"
)

// Span categories used by the SSL stack. Category strings become the
// "cat" field of exported Chrome trace events.
const (
	CatConn   = "conn"   // connection lifecycle (accept, handshake)
	CatStep   = "step"   // one of the ten handshake steps
	CatCrypto = "crypto" // a crypto call attributed inside a step
	CatRecord = "record" // record-layer cipher/MAC work
	CatIO     = "io"     // application Read/Write
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

// Config tunes a Tracer. The zero value samples every connection with
// no rate limit.
type Config struct {
	// SampleEvery samples one connection in N (1 or 0 = every
	// connection). Sampling is modular over the arrival counter so a
	// steady load sees an unbiased 1/N cross-section.
	SampleEvery int

	// MaxPerSec caps sampled connections per second on top of
	// SampleEvery (0 = unlimited). The cap bounds the cost of detail
	// under connection floods regardless of the sampling ratio.
	MaxPerSec int
}

// Stats counts tracer activity.
type Stats struct {
	Seen        uint64 `json:"seen"`         // connections offered to the sampler
	Sampled     uint64 `json:"sampled"`      // connections keeping detail
	RateLimited uint64 `json:"rate_limited"` // sampling hits dropped by MaxPerSec
}

// A Tracer samples connections. All methods
// are safe for concurrent use and no-ops on nil.
type Tracer struct {
	cfg Config

	seen        atomic.Uint64 // arrival counter (sampling modulus)
	sampled     atomic.Uint64
	rateLimited atomic.Uint64

	// Token bucket for MaxPerSec, refilled a second at a time.
	tokens     atomic.Int64
	lastRefill atomic.Int64 // unix nanos of the last refill
}

// NewTracer returns a tracer with cfg's sampling.
func NewTracer(cfg Config) *Tracer {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	t := &Tracer{cfg: cfg}
	t.lastRefill.Store(time.Now().UnixNano()) // lint:allow-clock
	t.tokens.Store(int64(cfg.MaxPerSec))
	return t
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
