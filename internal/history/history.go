// Package history is the time-series half of the observatory: where
// every surface built so far (telemetry counters and the live anatomy,
// path-length folds, the lifecycle table) answers
// "what is true right now", this layer answers "what happened over the
// last five minutes as load ramped past saturation" — the trajectory
// view the paper's whole method implies (Table 2 shares and the
// ~70%-in-libcrypto split only mean something as load and suite mix
// vary).
//
// A sampler goroutine ticks at a fine interval (1s by default) and
// reads every registered Source into fixed-size ring buffers at two
// resolutions: fine (1s × 300 — five minutes at full detail) and
// coarse (10s × 3600 — ten hours of context). Counter series store
// per-tick deltas, so rates (handshakes/s, bytes/s) are first-class
// and the sum of a window's deltas reconciles exactly against the
// underlying cumulative counter; gauge series store the sampled value,
// with the coarse ring holding per-window means. The SLO's 10s/1m/5m
// burn-rate windows (/debug/slo) are sums over the fine ring, taken at
// read time.
//
// The sampling path is zero-allocation in steady state: sources fill
// preallocated scratch slices from wait-free accessors
// (telemetry.Registry.Counts, Tick and SharesInto,
// lifecycle.Table.Counts), and ring writes are plain stores under one
// mutex. TestSampleNowZeroAlloc pins the 0
// allocs/tick; BenchmarkHistorySample times the tick (a few µs, far
// under 1% of a CPU at 1s resolution).
package history

import (
	"sync"
	"time"
)

// Kind classifies how a series' samples accumulate.
type Kind uint8

const (
	// KindGauge samples are instantaneous values (inflight, p99, a
	// share percentage); the ring stores them as-is and the coarse
	// ring stores window means.
	KindGauge Kind = iota
	// KindCounter samples are cumulative, monotonically nondecreasing
	// counts; the ring stores per-tick deltas, rendered as rates.
	KindCounter
)

// String names the kind for JSON.
func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// A SeriesDef declares one series a Source samples: a dotted name
// (unique across the history), the unit its rendered points carry
// (for counters, the unit of the derived rate, e.g. "hs/s"), and the
// kind.
type SeriesDef struct {
	Name string
	Unit string
	Kind Kind
}

// A Source is one group of series sampled together each tick. Series
// must return the same defs on every call (the set is fixed at
// AddSource); Sample must fill vals[i] with the current value of
// Series()[i] without allocating — it runs on the sampler's hot path.
type Source interface {
	Series() []SeriesDef
	Sample(vals []float64)
}

// Config parameterizes a History.
type Config struct {
	// Interval is the fine resolution (default 1s).
	Interval time.Duration
	// FineSlots is the fine ring length (default 300 — five minutes
	// at the default interval).
	FineSlots int
	// CoarseSlots is the coarse ring length (default 3600 — ten hours
	// at the defaults).
	CoarseSlots int
	// CoarseEvery is how many fine ticks aggregate into one coarse
	// slot (default 10).
	CoarseEvery int
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

// seriesState is one series' rings and sampling state.
type seriesState struct {
	def    SeriesDef
	fine   []float64
	coarse []float64

	lastRaw float64 // counters: previous cumulative sample
	haveRaw bool

	acc  float64 // coarse accumulator: sum of deltas (counter) or values (gauge)
	accN int
}

// sourceState pairs a source with its preallocated scratch and slots.
type sourceState struct {
	src     Source
	scratch []float64
	series  []*seriesState
}

// A History holds the rings and drives the sampler. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type History struct {
	interval    time.Duration
	fineSlots   int
	coarseSlots int
	coarseEvery int
	now         func() time.Time

	mu      sync.Mutex
	sources []sourceState
	series  []*seriesState
	byName  map[string]*seriesState

	seq           uint64 // fine samples taken
	fineFirst     uint64 // first fine sample still valid (advanced by Reset)
	coarseSeq     uint64 // coarse samples taken
	coarseFirst   uint64
	ticksInCoarse int
	lastAt        time.Time

	running bool
	stop    chan struct{}
	done    chan struct{}
}

// New returns an empty history with cfg's geometry.
func New(cfg Config) *History {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.FineSlots <= 0 {
		cfg.FineSlots = 300
	}
	if cfg.CoarseSlots <= 0 {
		cfg.CoarseSlots = 3600
	}
	if cfg.CoarseEvery <= 0 {
		cfg.CoarseEvery = 10
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &History{
		interval:    cfg.Interval,
		fineSlots:   cfg.FineSlots,
		coarseSlots: cfg.CoarseSlots,
		coarseEvery: cfg.CoarseEvery,
		now:         cfg.Now,
		byName:      make(map[string]*seriesState),
	}
}

// Interval returns the fine resolution.
func (h *History) Interval() time.Duration {
	if h == nil {
		return 0
	}
	return h.interval
}

// AddSource registers a source. Call before Start (concurrent
// registration is safe but samples taken before registration will not
// cover the new series). Series whose names collide with already
// registered ones are skipped, keeping the first registration.
func (h *History) AddSource(src Source) {
	if h == nil || src == nil {
		return
	}
	defs := src.Series()
	h.mu.Lock()
	defer h.mu.Unlock()
	ss := sourceState{src: src, scratch: make([]float64, len(defs))}
	for _, def := range defs {
		if _, dup := h.byName[def.Name]; dup {
			ss.series = append(ss.series, nil)
			continue
		}
		st := &seriesState{
			def:    def,
			fine:   make([]float64, h.fineSlots),
			coarse: make([]float64, h.coarseSlots),
		}
		h.byName[def.Name] = st
		h.series = append(h.series, st)
		ss.series = append(ss.series, st)
	}
	h.sources = append(h.sources, ss)
}

// Seq returns the number of fine samples taken so far — the watch
// cursor.
func (h *History) Seq() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// SampleNow takes one fine sample synchronously: every source fills
// its scratch, deltas/values land in the fine rings, and every
// CoarseEvery-th tick flushes the coarse accumulators. This is the
// ticker's body and the test/benchmark entry point; it allocates
// nothing in steady state.
func (h *History) SampleNow() {
	if h == nil {
		return
	}
	now := h.now()
	h.mu.Lock()
	defer h.mu.Unlock()
	slot := int(h.seq % uint64(h.fineSlots))
	for si := range h.sources {
		ss := &h.sources[si]
		ss.src.Sample(ss.scratch)
		for i, st := range ss.series {
			if st == nil {
				continue
			}
			v := ss.scratch[i]
			var point float64
			if st.def.Kind == KindCounter {
				delta := v - st.lastRaw
				if !st.haveRaw {
					delta = 0
				} else if delta < 0 {
					// The counter restarted (a /debug/reset upstream):
					// re-baseline, crediting the new count since zero.
					delta = v
				}
				st.lastRaw = v
				st.haveRaw = true
				point = delta
			} else {
				st.lastRaw = v
				st.haveRaw = true
				point = v
			}
			st.fine[slot] = point
			st.acc += point
			st.accN++
		}
	}
	h.seq++
	h.lastAt = now
	h.ticksInCoarse++
	if h.ticksInCoarse >= h.coarseEvery {
		cslot := int(h.coarseSeq % uint64(h.coarseSlots))
		for _, st := range h.series {
			switch {
			case st.def.Kind == KindCounter:
				st.coarse[cslot] = st.acc
			case st.accN > 0:
				st.coarse[cslot] = st.acc / float64(st.accN)
			default:
				st.coarse[cslot] = 0
			}
			st.acc = 0
			st.accN = 0
		}
		h.coarseSeq++
		h.ticksInCoarse = 0
	}
}

// Start launches the sampler goroutine. Safe to call once; subsequent
// calls while running are no-ops.
func (h *History) Start() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.running {
		h.mu.Unlock()
		return
	}
	h.running = true
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	stop, done := h.stop, h.done
	h.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(h.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				h.SampleNow()
			}
		}
	}()
}

// Stop halts the sampler goroutine and waits for it to exit. The
// rings keep their contents; Start may be called again.
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if !h.running {
		h.mu.Unlock()
		return
	}
	h.running = false
	stop, done := h.stop, h.done
	h.mu.Unlock()
	close(stop)
	<-done
}

// Reset zeroes every ring and re-baselines every counter, so a drift
// window (one load run) can be observed from a clean slate. The
// sample sequence keeps counting — watch cursors stay monotonic across
// the cut.
func (h *History) Reset() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, st := range h.series {
		for i := range st.fine {
			st.fine[i] = 0
		}
		for i := range st.coarse {
			st.coarse[i] = 0
		}
		st.haveRaw = false
		st.lastRaw = 0
		st.acc = 0
		st.accN = 0
	}
	h.fineFirst = h.seq
	h.coarseFirst = h.coarseSeq
	h.ticksInCoarse = 0
}

// SnapshotOptions select what a Snapshot returns.
type SnapshotOptions struct {
	// Series restricts output to these names (nil = every series).
	// Unknown names are skipped.
	Series []string
	// Coarse selects the coarse ring instead of the fine one.
	Coarse bool
	// Last caps the points returned per series (0 = the whole ring's
	// valid extent).
	Last int
}

// SeriesData is one series' window in a snapshot. Points are oldest
// first; for counters they are rates (delta over the step), so their
// sum times the step reconciles with the cumulative counter — that
// exact total is also in Sum.
type SeriesData struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Unit string `json:"unit,omitempty"`

	// Last is the most recent point (rate for counters).
	Last float64 `json:"last"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	// Sum is the total counter delta across the returned points
	// (zero for gauges) — the reconciliation hook.
	Sum float64 `json:"sum,omitempty"`
	// LatestRaw is the counter's current cumulative value.
	LatestRaw float64 `json:"latest_raw,omitempty"`

	Points []float64 `json:"points"`
}

// A Snapshot is the /debug/history body.
type Snapshot struct {
	At       time.Time    `json:"at"`
	Res      string       `json:"res"`
	StepSecs float64      `json:"step_secs"`
	Seq      uint64       `json:"seq"`
	Series   []SeriesData `json:"series"`

	// baseline reports that the points start at the samples' baseline
	// (the first after start or a Reset), where every counter reads 0.
	baseline bool
}

// Snapshot copies the selected window out of the rings.
func (h *History) Snapshot(opts SnapshotOptions) Snapshot {
	if h == nil {
		return Snapshot{At: time.Now()}
	}
	h.mu.Lock()
	defer h.mu.Unlock()

	step := h.interval
	seq, first, slots := h.seq, h.fineFirst, h.fineSlots
	if opts.Coarse {
		step *= time.Duration(h.coarseEvery)
		seq, first, slots = h.coarseSeq, h.coarseFirst, h.coarseSlots
	}
	snap := Snapshot{
		At:       h.lastAt,
		Res:      step.String(),
		StepSecs: step.Seconds(),
		Seq:      h.seq,
	}
	if snap.At.IsZero() {
		snap.At = h.now()
	}

	start := validStart(first, seq, slots)
	if opts.Last > 0 && seq-start > uint64(opts.Last) {
		start = seq - uint64(opts.Last)
	}
	n := int(seq - start)
	snap.baseline = n > 0 && start == first

	stepSecs := step.Seconds()
	for _, st := range h.pick(opts.Series) {
		ring := st.fine
		if opts.Coarse {
			ring = st.coarse
		}
		sd := SeriesData{
			Name:   st.def.Name,
			Kind:   st.def.Kind.String(),
			Unit:   st.def.Unit,
			Points: make([]float64, 0, n),
		}
		var sum float64
		for s := start; s < seq; s++ {
			v := ring[s%uint64(slots)]
			if st.def.Kind == KindCounter {
				sum += v
				v /= stepSecs // delta -> rate
			}
			sd.Points = append(sd.Points, v)
		}
		if len(sd.Points) > 0 {
			sd.Last = sd.Points[len(sd.Points)-1]
			sd.Min, sd.Max = sd.Points[0], sd.Points[0]
			var total float64
			for _, v := range sd.Points {
				if v < sd.Min {
					sd.Min = v
				}
				if v > sd.Max {
					sd.Max = v
				}
				total += v
			}
			sd.Mean = total / float64(len(sd.Points))
		}
		if st.def.Kind == KindCounter {
			sd.Sum = sum
			sd.LatestRaw = st.lastRaw
		}
		snap.Series = append(snap.Series, sd)
	}
	return snap
}

// validStart is the first sample of a ring's valid extent, samples
// [start, seq): from first (the Reset cut), bounded by the ring size.
func validStart(first, seq uint64, slots int) uint64 {
	if seq > uint64(slots) {
		return max(first, seq-uint64(slots))
	}
	return first
}

// pick returns the named series that exist, or every series when names
// is nil. Callers hold h.mu.
func (h *History) pick(names []string) []*seriesState {
	if names == nil {
		return h.series
	}
	var out []*seriesState
	for _, name := range names {
		if st := h.byName[name]; st != nil {
			out = append(out, st)
		}
	}
	return out
}

// A Delta is one fine tick's values for the selected series — one
// line of the /debug/watch stream.
type Delta struct {
	Seq    uint64             `json:"seq"`
	At     time.Time          `json:"at"`
	Values map[string]float64 `json:"values"`
}

// DeltasSince returns every fine tick after cursor (capped to the
// ring's valid extent), oldest first, with counter values rendered as
// rates. names nil selects every series. The returned cursor is the
// new watch position (equal to Seq at the time of the call).
func (h *History) DeltasSince(cursor uint64, names []string) ([]Delta, uint64) {
	if h == nil {
		return nil, cursor
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	start := validStart(max(cursor, h.fineFirst), h.seq, h.fineSlots)
	if start >= h.seq {
		return nil, h.seq
	}
	pick := h.pick(names)
	stepSecs := h.interval.Seconds()
	out := make([]Delta, 0, h.seq-start)
	for s := start; s < h.seq; s++ {
		d := Delta{
			Seq:    s + 1,
			At:     h.lastAt.Add(-time.Duration(h.seq-s-1) * h.interval),
			Values: make(map[string]float64, len(pick)),
		}
		for _, st := range pick {
			v := st.fine[s%uint64(h.fineSlots)]
			if st.def.Kind == KindCounter {
				v /= stepSecs
			}
			d.Values[st.def.Name] = v
		}
		out = append(out, d)
	}
	return out, h.seq
}

// Series returns the named series' data, with ok reporting presence.
func (s Snapshot) Get(name string) (SeriesData, bool) {
	for i := range s.Series {
		if s.Series[i].Name == name {
			return s.Series[i], true
		}
	}
	return SeriesData{}, false
}
