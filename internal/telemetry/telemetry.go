// Package telemetry is the aggregate half of the live observability
// layer: the counters, latency distributions and keyed tallies behind
// /metrics, the Tables 2/3 behind /debug/anatomy and Table 11 behind
// /debug/pathlength, the one Histogram type every distribution in the
// observatory uses, and the shapes a connection's record (package
// lifecycle) hands over when it folds.
//
// Where internal/perf is the paper's offline measurement substrate,
// telemetry is the always-on production instrument, and the offline
// table2/table3 experiments read their Tables 2/3 from it too. Nothing
// here rides a connection's probe bus: the conn table folds each
// connection into the Registry once when its handshake ends and once
// when it closes, so the registry's lock is taken twice per
// connection, never per step or per record.
package telemetry

import (
	"fmt"
	"sync"
	"time"

	"sslperf/internal/probe"
)

// StepTiming is one completed handshake step on a connection's
// timeline: when it was entered, the active time it took (parked
// intervals excluded, as the spine reports it) and the record crypto
// that ran inside it.
type StepTiming struct {
	Step   probe.Step
	Start  time.Time
	Dur    time.Duration
	Crypto CryptoCell
}

// A Call is one timed item of a connection's detail: an attributed
// crypto call, a bulk-phase record cipher/MAC pass, an application
// read or write, or a connection-level mark such as the accept. Kind
// is the category the Chrome export files it under (Cat*).
type Call struct {
	Kind  string
	Name  string
	Step  probe.Step // enclosing handshake step, StepNone outside one
	At    time.Time
	Dur   time.Duration
	Bytes int
}

// Call kinds, and the Chrome export's categories for a record's spans.
const (
	CatConn   = "conn"   // connection lifecycle (accept, handshake)
	CatStep   = "step"   // one of the ten handshake steps
	CatCrypto = "crypto" // a crypto call attributed inside a step
	CatRecord = "record" // record-layer cipher/MAC work
	CatIO     = "io"     // application Read/Write
)

// A Handshake is one connection's finished handshake as its record
// folds it into the aggregates.
type Handshake struct {
	Suite   string
	Version uint16
	Resumed bool
	Failed  bool
	FailTag string
	Dur     time.Duration
	// QueueDelay is the accept-to-first-step wait, negative when no
	// step ran.
	QueueDelay time.Duration
	Steps      []StepTiming
	// Sampled reports that the table's sampler kept the connection in
	// detail: Calls is its detail so far (nil otherwise), and its crypto
	// calls fold into the anatomy's Table 3 rows.
	Sampled bool
	Calls   []Call
}

// IOCounts is the record-layer section of a snapshot, and what one
// closing connection adds to it. Crypto is rendered by
// /debug/pathlength, not with the byte counters.
type IOCounts struct {
	RecordsIn      uint64       `json:"records_in"`
	RecordsOut     uint64       `json:"records_out"`
	BytesIn        uint64       `json:"bytes_in"`
	BytesOut       uint64       `json:"bytes_out"`
	AlertsReceived uint64       `json:"alerts_received"`
	AlertsSent     uint64       `json:"alerts_sent"`
	Crypto         CryptoCounts `json:"-"`
}

// Add accumulates o into c.
func (c *IOCounts) Add(o IOCounts) {
	c.RecordsIn += o.RecordsIn
	c.RecordsOut += o.RecordsOut
	c.BytesIn += o.BytesIn
	c.BytesOut += o.BytesOut
	c.AlertsReceived += o.AlertsReceived
	c.AlertsSent += o.AlertsSent
	c.Crypto.add(&o.Crypto)
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
		Crypto:         c.Crypto.sub(&o.Crypto),
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
	// HandshakesSlow counts the successes slower than the SLO target,
	// and HandshakeTime sums every success's latency.
	HandshakesSlow uint64
	HandshakeTime  time.Duration
	// QueueDelays counts the handshakes that entered a step, and
	// QueueDelay sums their accept-to-first-step waits.
	QueueDelays uint64
	QueueDelay  time.Duration
	IOCounts
}

// ObservatoryStats is the observatory reporting on itself — the
// answers to "why is connection N not on /debug/trace": closed records
// the ring holds and has evicted, connections that kept no detail (the
// sampler passed them over) or had it cut at the per-record cap,
// close-log lines sampling suppressed.
type ObservatoryStats struct {
	RecordsRetained    int    `json:"records_retained"`
	RecordsEvicted     uint64 `json:"records_evicted"`
	DetailSampledOut   uint64 `json:"detail_sampled_out"`
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
// table's folds. All methods are safe for concurrent use and no-ops on
// a nil receiver.
type Registry struct {
	start     time.Time
	live      Live
	sloTarget time.Duration

	fullLatency    Histogram
	resumedLatency Histogram
	queueDelay     Histogram
	// steps is the live, cross-connection mirror of Table 2's rows,
	// indexed by probe.Step: every handshake's timeline folds here.
	steps [numSteps]Histogram

	mu          sync.Mutex
	counts      Counts // folded connections only; see Live
	bySuite     map[string]uint64
	byVersion   map[string]uint64
	failReasons map[string]uint64
	// stepped counts the handshakes that folded a step timeline, and
	// stepCrypto their in-step record crypto by step. The rest is from
	// sampled handshakes only (anatomy.go): their crypto calls by step
	// and function in first-seen order, their count and their summed
	// step time.
	stepped         uint64
	stepCrypto      [numSteps]CryptoCell
	fns             map[cryptoKey]*cryptoStat
	fnOrder         []cryptoKey
	sampled         uint64
	sampledStepTime time.Duration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:       time.Now(), // lint:allow-clock
		sloTarget:   DefaultSLOTarget,
		bySuite:     make(map[string]uint64),
		byVersion:   make(map[string]uint64),
		failReasons: make(map[string]uint64),
		fns:         make(map[cryptoKey]*cryptoStat),
	}
}

// SetLive names the conn table whose open connections Counts and
// Snapshot add in. Call it before the first connection.
func (r *Registry) SetLive(l Live) {
	if r != nil {
		r.live = l
	}
}

// DefaultSLOTarget is the handshake-latency objective a registry
// starts with.
const DefaultSLOTarget = 50 * time.Millisecond

// SetSLOTarget sets the handshake-latency objective: a success slower
// than d counts as slow. A d of 0 or less means DefaultSLOTarget. Call
// it before the first connection.
func (r *Registry) SetSLOTarget(d time.Duration) {
	if r == nil {
		return
	}
	if d <= 0 {
		d = DefaultSLOTarget
	}
	r.sloTarget = d
}

// SLOTarget returns the handshake-latency objective.
func (r *Registry) SLOTarget() time.Duration {
	if r == nil {
		return 0
	}
	return r.sloTarget
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
	r.queueDelay.Reset()
	for i := range r.steps {
		r.steps[i].Reset()
	}
	r.mu.Lock()
	r.counts = Counts{Connections: r.counts.Connections}
	r.bySuite = make(map[string]uint64)
	r.byVersion = make(map[string]uint64)
	r.failReasons = make(map[string]uint64)
	r.stepped, r.sampled, r.sampledStepTime = 0, 0, 0
	r.stepCrypto = [numSteps]CryptoCell{}
	r.fns, r.fnOrder = make(map[cryptoKey]*cryptoStat), nil
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
// resumed histogram, matching the paper's split, and as slow when it
// missed the SLO target — and observes its queue delay and every step
// it completed with the record crypto inside it, failed handshakes
// included. A sampled handshake's crypto calls fold too.
func (r *Registry) FoldHandshake(h *Handshake) {
	if r == nil {
		return
	}
	var stepTime time.Duration
	lat := &r.fullLatency
	r.mu.Lock()
	for _, st := range h.Steps {
		if int(st.Step) < numSteps {
			r.steps[st.Step].Observe(int64(st.Dur))
			r.stepCrypto[st.Step].add(st.Crypto)
			stepTime += st.Dur
		}
	}
	if len(h.Steps) > 0 {
		r.stepped++
		if h.Sampled {
			r.foldSampled(h, stepTime)
		}
	}
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
		if h.Dur > r.sloTarget {
			r.counts.HandshakesSlow++
		}
		r.counts.HandshakeTime += h.Dur
		r.bySuite[h.Suite]++
		r.byVersion[VersionName(h.Version)]++
	}
	if h.QueueDelay >= 0 {
		r.counts.QueueDelays++
		r.counts.QueueDelay += h.QueueDelay
		r.queueDelay.Observe(int64(h.QueueDelay))
	}
	r.mu.Unlock()
	if !h.Failed {
		lat.Observe(int64(h.Dur))
	}
}

// FoldClose counts one closed connection and the records, bytes,
// alerts and record crypto it moved.
func (r *Registry) FoldClose(io IOCounts) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts.Connections++
	r.counts.IOCounts.Add(io)
	r.mu.Unlock()
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

// Tick reads the handshakes folded since the previous call with the
// same ticks: the p99 of the successes' latency and the largest queue
// delay. A nil registry reads zeros.
func (r *Registry) Tick(lat, queue *Tick) (p99, queueMax time.Duration) {
	if r == nil {
		return 0, 0
	}
	return time.Duration(lat.next(0.99, &r.fullLatency, &r.resumedLatency)),
		time.Duration(queue.next(1, &r.queueDelay))
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
	r.mu.Lock()
	s.Handshakes.BySuite = copyMap(r.bySuite)
	s.Handshakes.ByVersion = copyMap(r.byVersion)
	s.Handshakes.FailReasons = copyMap(r.failReasons)
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
