// Package slo tracks the server's handshake service-level objective
// live: rolling multi-window (10s/1m/5m) handshake-latency and
// error-rate windows, burn rate against a configurable latency target
// and error budget, and the overload gauges the admission-control
// front end reads — in-flight handshake count and accept-to-first-step
// queue delay.
//
// The burn-rate model is the standard multi-window one: an event is
// "bad" when its handshake failed or finished slower than the target;
// the burn rate is the bad fraction divided by the error budget, so
// 1.0 means "consuming exactly the allowed budget", 10 means "ten
// times too fast — the 10s window will page before the 5m window
// confirms". A fleet under overload shows the short window spiking
// first, which is precisely the early signal load shedding needs
// before queues reach the RSA step.
package slo

import (
	"sync"
	"sync/atomic"
	"time"

	"sslperf/internal/telemetry"
)

// Window lengths reported by Snapshot, shortest first.
var windows = []struct {
	name string
	secs int64
}{
	{"10s", 10},
	{"1m", 60},
	{"5m", 300},
}

// bucketCount is the ring length: one bucket per second, sized to the
// longest window.
const bucketCount = 300

// bucket accumulates one wall-clock second of observations.
type bucket struct {
	sec    int64 // unix second this bucket currently holds
	total  uint64
	failed uint64
	slow   uint64              // successes over the latency target
	lat    telemetry.Histogram // handshake latency, nanoseconds

	queueDelays uint64
	queueSumNs  uint64
	queueMaxNs  uint64
}

func (b *bucket) reset(sec int64) {
	*b = bucket{sec: sec}
}

// Config parameterizes a Tracker.
type Config struct {
	// TargetP99 is the handshake-latency objective: a success slower
	// than this is a "bad" event against the budget. Default 50ms.
	TargetP99 time.Duration
	// ErrorBudget is the allowed bad-event fraction (0.01 = 99% of
	// handshakes fast and successful). Default 0.01.
	ErrorBudget float64
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

// A Tracker maintains the rolling windows. All methods are safe for
// concurrent use and no-ops on a nil receiver, matching the telemetry
// layer's discipline.
type Tracker struct {
	target   time.Duration
	budget   float64
	now      func() time.Time
	inflight atomic.Int64

	mu      sync.Mutex
	buckets [bucketCount]bucket
}

// New returns a tracker with cfg's objective.
func New(cfg Config) *Tracker {
	if cfg.TargetP99 <= 0 {
		cfg.TargetP99 = 50 * time.Millisecond
	}
	if cfg.ErrorBudget <= 0 {
		cfg.ErrorBudget = 0.01
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Tracker{target: cfg.TargetP99, budget: cfg.ErrorBudget, now: cfg.Now}
}

// Target returns the latency objective.
func (t *Tracker) Target() time.Duration {
	if t == nil {
		return 0
	}
	return t.target
}

// bucketFor returns the ring bucket for sec, resetting it when it
// still holds an older second. Callers hold t.mu.
func (t *Tracker) bucketFor(sec int64) *bucket {
	b := &t.buckets[sec%bucketCount]
	if b.sec != sec {
		b.reset(sec)
	}
	return b
}

// HandshakeBegin counts a handshake entering flight.
func (t *Tracker) HandshakeBegin() {
	if t == nil {
		return
	}
	t.inflight.Add(1)
}

// HandshakeEnd records one handshake outcome and releases its
// in-flight slot. queueDelay is the connection's accept-to-first-step
// delay — how long it waited before the handshake FSM touched it, the
// queue-pressure gauge — or negative when no step ever ran.
func (t *Tracker) HandshakeEnd(d time.Duration, failed bool, queueDelay time.Duration) {
	if t == nil {
		return
	}
	t.inflight.Add(-1)
	d = max(d, 0)
	t.mu.Lock()
	b := t.bucketFor(t.now().Unix())
	b.total++
	b.lat.Observe(int64(d))
	if failed {
		b.failed++
	} else if d > t.target {
		b.slow++
	}
	if queueDelay >= 0 {
		b.queueDelays++
		b.queueSumNs += uint64(queueDelay)
		b.queueMaxNs = max(b.queueMaxNs, uint64(queueDelay))
	}
	t.mu.Unlock()
}

// InFlight returns the current in-flight handshake count.
func (t *Tracker) InFlight() int64 {
	if t == nil {
		return 0
	}
	return t.inflight.Load()
}

// Reset zeroes every window (the in-flight gauge is live state and is
// preserved).
func (t *Tracker) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.buckets {
		t.buckets[i] = bucket{}
	}
	t.mu.Unlock()
}

// WindowStats is one window's aggregated view.
type WindowStats struct {
	Window  string `json:"window"`
	Seconds int64  `json:"seconds"`

	Handshakes uint64 `json:"handshakes"`
	Failed     uint64 `json:"failed"`
	Slow       uint64 `json:"slow"` // successes over target

	ErrorRate float64 `json:"error_rate"`
	BadRate   float64 `json:"bad_rate"` // (failed+slow)/handshakes
	// BurnRate is BadRate over the error budget: 1.0 consumes the
	// budget exactly, >1 burns it down.
	BurnRate float64 `json:"burn_rate"`

	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`

	QueueDelays   uint64  `json:"queue_delays"`
	QueueMeanUs   float64 `json:"queue_mean_us"`
	QueueMaxUs    float64 `json:"queue_max_us"`
	HandshakeRate float64 `json:"handshakes_per_sec"`
}

// A Snapshot is the /debug/slo body.
type Snapshot struct {
	At          time.Time     `json:"at"`
	TargetP99Ms float64       `json:"target_p99_ms"`
	ErrorBudget float64       `json:"error_budget"`
	InFlight    int64         `json:"inflight_handshakes"`
	Windows     []WindowStats `json:"windows"`
}

// Snapshot aggregates the ring into the three windows.
func (t *Tracker) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	now := t.now()
	nowSec := now.Unix()
	snap := Snapshot{
		At:          now,
		TargetP99Ms: float64(t.target) / float64(time.Millisecond),
		ErrorBudget: t.budget,
		InFlight:    t.inflight.Load(),
	}
	t.mu.Lock()
	for _, w := range windows {
		snap.Windows = append(snap.Windows, t.statsLocked(nowSec, w.name, w.secs))
	}
	t.mu.Unlock()
	return snap
}

// statsLocked aggregates one window from the ring. Callers hold t.mu.
func (t *Tracker) statsLocked(nowSec int64, name string, secs int64) WindowStats {
	ws := WindowStats{Window: name, Seconds: secs}
	var lat telemetry.Histogram
	var qSumNs, qMaxNs uint64
	for i := range t.buckets {
		b := &t.buckets[i]
		// The current second is included; stale slots (sec outside
		// the window) are skipped rather than reset, so Snapshot
		// never disturbs writer state.
		if b.sec > nowSec-secs && b.sec <= nowSec {
			ws.Handshakes += b.total
			ws.Failed += b.failed
			ws.Slow += b.slow
			if b.total > 0 {
				lat.Merge(&b.lat)
			}
			ws.QueueDelays += b.queueDelays
			qSumNs += b.queueSumNs
			if b.queueMaxNs > qMaxNs {
				qMaxNs = b.queueMaxNs
			}
		}
	}
	if ws.Handshakes > 0 {
		ws.ErrorRate = float64(ws.Failed) / float64(ws.Handshakes)
		ws.BadRate = float64(ws.Failed+ws.Slow) / float64(ws.Handshakes)
		ws.BurnRate = ws.BadRate / t.budget
		ws.MeanUs = float64(lat.Sum()) / float64(ws.Handshakes) / 1e3
		ws.P50Us = float64(lat.Quantile(0.50)) / 1e3
		ws.P99Us = float64(lat.Quantile(0.99)) / 1e3
		ws.HandshakeRate = float64(ws.Handshakes) / float64(secs)
	}
	if ws.QueueDelays > 0 {
		ws.QueueMeanUs = float64(qSumNs) / float64(ws.QueueDelays) / 1e3
		ws.QueueMaxUs = float64(qMaxNs) / 1e3
	}
	return ws
}

// Stats aggregates the trailing seconds-long window without
// allocating — the accessor the history sampler reads each tick where
// Snapshot would build the full three-window slice. The Window name
// field is left empty (naming it would allocate). A nil tracker reads
// zero stats.
func (t *Tracker) Stats(seconds int64) WindowStats {
	if t == nil {
		return WindowStats{}
	}
	if seconds <= 0 {
		seconds = windows[0].secs
	}
	if seconds > bucketCount {
		seconds = bucketCount
	}
	nowSec := t.now().Unix()
	t.mu.Lock()
	ws := t.statsLocked(nowSec, "", seconds)
	t.mu.Unlock()
	return ws
}

// Window returns the named window's stats from s (zero stats when the
// name is unknown).
func (s Snapshot) Window(name string) WindowStats {
	for _, w := range s.Windows {
		if w.Window == name {
			return w
		}
	}
	return WindowStats{}
}
