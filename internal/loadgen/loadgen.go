// Package loadgen is the closed-loop measurement driver the paper's
// methodology assumes but our reproduction never had: a load
// generator over our own internal/ssl client that drives HTTPS-like
// transactions against sslserver and records per-phase latency
// without coordinated omission.
//
// Two modes:
//
//   - Open loop (Rate > 0): arrivals follow a fixed schedule —
//     connection i is *intended* to start at start + i/Rate whether
//     or not earlier connections finished. Latency is recorded from
//     the intended start, so a stalled server inflates the recorded
//     tail instead of silently slowing the arrival rate (the
//     coordinated-omission trap single-threaded clients fall into).
//   - Closed loop (Rate == 0): Concurrency workers run back-to-back
//     transactions, the classic fixed-concurrency benchmark; intended
//     and actual start coincide by construction.
//
// Warmup-phase transactions run but are discarded from the recorded
// distributions. Phases (connect / handshake / first-byte / total)
// land in log-bucketed telemetry.Histograms in microseconds; the
// Result renders as text or marshals as JSON, and Check holds its
// internal consistency conditions.
package loadgen

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/record"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/telemetry"
)

// A SuiteWeight is one entry of the cipher-suite mix: connections
// offer exactly this suite with probability Weight / sum(Weights).
type SuiteWeight struct {
	Name   string
	ID     suite.ID
	Weight float64
}

// ParseSuiteMix parses "RC4-MD5:3,DES-CBC3-SHA:1" (weights optional,
// default 1) into a suite mix.
func ParseSuiteMix(s string) ([]SuiteWeight, error) {
	if s == "" {
		return nil, nil
	}
	var mix []SuiteWeight
	for _, part := range strings.Split(s, ",") {
		name, weightStr, hasWeight := strings.Cut(strings.TrimSpace(part), ":")
		w := 1.0
		if hasWeight {
			var err error
			if w, err = strconv.ParseFloat(weightStr, 64); err != nil || w <= 0 {
				return nil, fmt.Errorf("loadgen: bad suite weight %q", part)
			}
		}
		sp, err := suite.ByName(name)
		if err != nil {
			return nil, err
		}
		mix = append(mix, SuiteWeight{Name: sp.Name, ID: sp.ID, Weight: w})
	}
	return mix, nil
}

// Config parameterizes one load run.
type Config struct {
	// Addr is the target server; ignored when Dial is set.
	Addr string

	// Dial overrides the transport (tests drive an in-process server
	// through it). Default: net.Dial("tcp", Addr).
	Dial func() (io.ReadWriteCloser, error)

	// Rate selects open-loop mode when > 0: intended arrivals per
	// second. Zero means closed loop.
	Rate float64

	// Concurrency is the closed-loop worker count, and in open loop
	// the in-flight connection cap (arrivals blocked on the cap stay
	// charged to their intended start). Default 1 closed / 256 open.
	Concurrency int

	// Duration is the measured window; Warmup runs before it and is
	// discarded. Total wall time is Warmup + Duration.
	Duration time.Duration
	Warmup   time.Duration

	// Requests per connection (default 1).
	Requests int

	// ResumeFraction of connections attempt session resumption from
	// the shared pool of sessions earlier connections established.
	ResumeFraction float64

	// Mix is the weighted cipher-suite mix; empty offers every suite.
	Mix []SuiteWeight

	// TLS offers TLS 1.0 instead of SSL 3.0.
	TLS bool

	// Seed makes the run deterministic modulo scheduling (0 =
	// time-based).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Dial == nil {
		addr := c.Addr
		c.Dial = func() (io.ReadWriteCloser, error) {
			d := net.Dialer{Timeout: 10 * time.Second}
			return d.Dial("tcp", addr)
		}
	}
	if c.Concurrency <= 0 {
		if c.Rate > 0 {
			c.Concurrency = 256
		} else {
			c.Concurrency = 1
		}
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Requests <= 0 {
		c.Requests = 1
	}
	if c.Seed == 0 {
		c.Seed = uint64(time.Now().UnixNano())
	}
	return c
}

// Phase names, in report order.
const (
	PhaseConnect   = "connect"
	PhaseHandshake = "handshake"
	PhaseFirstByte = "first_byte"
	PhaseTotal     = "total"
	// PhaseTotalCorrected measures from the *intended* start — the
	// coordinated-omission-safe number (open loop only).
	PhaseTotalCorrected = "total_corrected"
	// PhaseSchedLag is actual minus intended start: how far the
	// generator itself fell behind its schedule (open loop only).
	PhaseSchedLag = "sched_lag"
)

// PhaseStats is one phase's recorded distribution (microseconds).
type PhaseStats struct {
	Name string                      `json:"name"`
	Hist telemetry.HistogramSnapshot `json:"hist"`
}

// A Result is one completed load run.
type Result struct {
	Mode        string        `json:"mode"` // "open" or "closed"
	Rate        float64       `json:"rate,omitempty"`
	Concurrency int           `json:"concurrency"`
	Duration    time.Duration `json:"duration_ns"`
	Warmup      time.Duration `json:"warmup_ns"`
	Elapsed     time.Duration `json:"elapsed_ns"` // measured window wall time

	Started         uint64 `json:"started"`
	Done            uint64 `json:"done"`
	Failed          uint64 `json:"failed"`
	Resumed         uint64 `json:"resumed"`
	Requests        uint64 `json:"requests"`
	Bytes           uint64 `json:"bytes"`
	WarmupDiscarded uint64 `json:"warmup_discarded"`

	Phases []PhaseStats      `json:"phases"`
	Errors map[string]uint64 `json:"errors,omitempty"`

	BySuite map[string]uint64 `json:"by_suite,omitempty"`
}

// runner is the shared state of one run.
type runner struct {
	cfg       Config
	warmupEnd time.Time
	deadline  time.Time

	connect, handshake, firstByte  telemetry.Histogram
	total, corrected, schedLag     telemetry.Histogram
	started, done, failed, resumed atomic.Uint64
	requests, bytes, warmupDiscard atomic.Uint64
	totalWeight                    float64

	sessions chan *handshake.Session

	mu      sync.Mutex
	errs    map[string]uint64
	bySuite map[string]uint64
}

// Run executes one load run to completion and returns its result.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.ResumeFraction < 0 || cfg.ResumeFraction > 1 {
		return nil, errors.New("loadgen: resume fraction must be in [0,1]")
	}
	r := &runner{
		cfg:      cfg,
		sessions: make(chan *handshake.Session, 4096),
		errs:     make(map[string]uint64),
		bySuite:  make(map[string]uint64),
	}
	for _, m := range cfg.Mix {
		r.totalWeight += m.Weight
	}

	start := time.Now()
	r.warmupEnd = start.Add(cfg.Warmup)
	r.deadline = r.warmupEnd.Add(cfg.Duration)

	if cfg.Rate > 0 {
		r.openLoop(start)
	} else {
		r.closedLoop()
	}
	// Tail transactions may finish past the deadline; throughput uses
	// the real span of measured work, not the nominal duration.
	return r.result(time.Since(r.warmupEnd)), nil
}

// openLoop dispatches arrivals on the fixed schedule. The slot
// channel caps in-flight connections; an arrival that waits for a
// slot keeps its original intended time, so the wait shows up in
// total_corrected — exactly the latency a real user would see.
func (r *runner) openLoop(start time.Time) {
	interval := time.Duration(float64(time.Second) / r.cfg.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	slots := make(chan struct{}, r.cfg.Concurrency)
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		intended := start.Add(time.Duration(i) * interval)
		if intended.After(r.deadline) {
			break
		}
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		wg.Add(1)
		go func(i int, intended time.Time) {
			defer wg.Done()
			defer func() { <-slots }()
			r.transaction(uint64(i), intended)
		}(i, intended)
	}
	wg.Wait()
}

// closedLoop runs Concurrency workers back-to-back until the
// deadline. Each worker's connections chain sessions like a browser
// would, so ResumeFraction behaves the same in both modes.
func (r *runner) closedLoop() {
	var wg sync.WaitGroup
	var seq atomic.Uint64
	for w := 0; w < r.cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(r.deadline) {
				i := seq.Add(1)
				r.transaction(i, time.Now())
			}
		}()
	}
	wg.Wait()
}

// roll returns a deterministic uniform [0,1) for decision i/salt.
func (r *runner) roll(i, salt uint64) float64 {
	x := r.cfg.Seed + i*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 27
	return float64(x>>11) / float64(1<<53)
}

// pickSuite draws from the weighted mix (nil = offer everything).
func (r *runner) pickSuite(i uint64) []suite.ID {
	if len(r.cfg.Mix) == 0 {
		return nil
	}
	target := r.roll(i, 1) * r.totalWeight
	for _, m := range r.cfg.Mix {
		if target < m.Weight {
			return []suite.ID{m.ID}
		}
		target -= m.Weight
	}
	return []suite.ID{r.cfg.Mix[len(r.cfg.Mix)-1].ID}
}

// transaction runs one connection: dial, handshake (maybe resumed),
// Requests request/response exchanges, close — recording each phase
// unless it started inside the warmup window.
func (r *runner) transaction(i uint64, intended time.Time) {
	r.started.Add(1)
	measured := !intended.Before(r.warmupEnd)
	if !measured {
		r.warmupDiscard.Add(1)
	}

	var session *handshake.Session
	if r.cfg.ResumeFraction > 0 && r.roll(i, 2) < r.cfg.ResumeFraction {
		select {
		case session = <-r.sessions:
		default:
		}
	}

	cfg := &ssl.Config{
		Rand:               ssl.NewPRNG(r.cfg.Seed + 7919*i),
		InsecureSkipVerify: true,
		Suites:             r.pickSuite(i),
		Session:            session,
	}
	if r.cfg.TLS {
		cfg.Version = record.VersionTLS10
	}

	actualStart := time.Now()
	tc, err := r.cfg.Dial()
	if err != nil {
		r.fail(measured, "dial: "+err.Error())
		return
	}
	connected := time.Now()

	conn := ssl.ClientConn(tc, cfg)
	defer conn.Close()
	if err := conn.Handshake(); err != nil {
		r.fail(measured, "handshake: "+ssl.FailureReason(err))
		return
	}
	handshaken := time.Now()
	state, _ := conn.ConnectionState()

	br := bufio.NewReader(conn)
	var firstByteAt time.Time
	var bytes uint64
	for j := 0; j < r.cfg.Requests; j++ {
		if _, err := conn.Write([]byte("GET /\n")); err != nil {
			r.fail(measured, "write: "+err.Error())
			return
		}
		line, err := br.ReadString('\n')
		if err != nil {
			r.fail(measured, "read: "+err.Error())
			return
		}
		if j == 0 {
			firstByteAt = time.Now()
		}
		size, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "LEN ")))
		if err != nil {
			r.fail(measured, "bad response header")
			return
		}
		if _, err := io.CopyN(io.Discard, br, int64(size)); err != nil {
			r.fail(measured, "read body: "+err.Error())
			return
		}
		bytes += uint64(size) + uint64(len(line))
		r.requests.Add(1)
	}
	if s, err := conn.Session(); err == nil && s != nil {
		select {
		case r.sessions <- s:
		default:
		}
	}
	end := time.Now()

	r.done.Add(1)
	if state.Resumed {
		r.resumed.Add(1)
	}
	r.bytes.Add(bytes)
	if !measured {
		return
	}
	us := func(d time.Duration) int64 {
		if d < 0 {
			d = 0
		}
		return d.Microseconds()
	}
	r.connect.Observe(us(connected.Sub(actualStart)))
	r.handshake.Observe(us(handshaken.Sub(connected)))
	r.firstByte.Observe(us(firstByteAt.Sub(handshaken)))
	r.total.Observe(us(end.Sub(actualStart)))
	if r.cfg.Rate > 0 {
		r.corrected.Observe(us(end.Sub(intended)))
		r.schedLag.Observe(us(actualStart.Sub(intended)))
	}
	r.mu.Lock()
	name := state.Suite.Name
	if state.Resumed {
		name += " (resumed)"
	}
	r.bySuite[name]++
	r.mu.Unlock()
}

func (r *runner) fail(measured bool, reason string) {
	r.failed.Add(1)
	if !measured {
		return
	}
	r.mu.Lock()
	r.errs[reason]++
	r.mu.Unlock()
}

func (r *runner) result(elapsed time.Duration) *Result {
	res := &Result{
		Mode:            "closed",
		Rate:            r.cfg.Rate,
		Concurrency:     r.cfg.Concurrency,
		Duration:        r.cfg.Duration,
		Warmup:          r.cfg.Warmup,
		Elapsed:         elapsed,
		Started:         r.started.Load(),
		Done:            r.done.Load(),
		Failed:          r.failed.Load(),
		Resumed:         r.resumed.Load(),
		Requests:        r.requests.Load(),
		Bytes:           r.bytes.Load(),
		WarmupDiscarded: r.warmupDiscard.Load(),
	}
	if r.cfg.Rate > 0 {
		res.Mode = "open"
	}
	add := func(name string, h *telemetry.Histogram) {
		res.Phases = append(res.Phases, PhaseStats{Name: name, Hist: h.Snapshot()})
	}
	add(PhaseConnect, &r.connect)
	add(PhaseHandshake, &r.handshake)
	add(PhaseFirstByte, &r.firstByte)
	add(PhaseTotal, &r.total)
	if r.cfg.Rate > 0 {
		add(PhaseTotalCorrected, &r.corrected)
		add(PhaseSchedLag, &r.schedLag)
	}
	r.mu.Lock()
	if len(r.errs) > 0 {
		res.Errors = make(map[string]uint64, len(r.errs))
		for k, v := range r.errs {
			res.Errors[k] = v
		}
	}
	if len(r.bySuite) > 0 {
		res.BySuite = make(map[string]uint64, len(r.bySuite))
		for k, v := range r.bySuite {
			res.BySuite[k] = v
		}
	}
	r.mu.Unlock()
	return res
}
