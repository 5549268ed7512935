// Package lifecycle holds the one record the observatory keeps per
// connection, and the live table of them.
//
// A Table is the only probe.Observer a server attaches and each entry
// the only sink on its connection's bus. The entry accumulates the
// open/handshake/close facts, the Table-2 step timeline with each
// step's record crypto, plain record/byte and per-primitive crypto
// totals, and, for the connections its 1-in-N sampler picks, the
// crypto calls and application I/O in detail. It is folded into the
// shared aggregates once when its handshake ends (metrics registry,
// the live Tables 2/3 and the SLO's slow and queue-delay counts) and
// once when it closes (record/byte and crypto totals, the live Table
// 11), then retired into one ring of closed records. The /debug/conns
// row, the /debug/flightrecorder event list, the /debug/trace Chrome
// spans and the close-log line are renderers of that record, so they
// cannot disagree. Nothing shared is written per step or per record; readers
// that must see a connection while it lives add the open entries'
// running totals at read time (telemetry.Live).
//
// The table is sharded 64 ways by connection ID and entries are
// pooled, so opening, transitioning, and closing a connection is
// allocation-free steady-state and a million live entries do not
// contend on one lock (TestConnTableZeroAlloc pins the 0 allocs/op,
// BenchmarkConnTable times the hot path).
package lifecycle

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
)

// State is a connection's position in its lifecycle, by its snake_case
// name.
type State string

// Lifecycle states, in the order a healthy connection passes through
// them. Failed replaces Established..Closed on a handshake error. A
// sans-IO connection parked on ErrWouldBlock mid-handshake is still
// Handshaking, with its open step.
const (
	StateAccepted    State = "accepted"
	StateHandshaking State = "handshaking"
	StateEstablished State = "established"
	StateClosed      State = "closed"
	StateFailed      State = "failed"
)

// Name returns the state's name.
func (s State) Name() string { return string(s) }

// StateByName resolves a state name (the /debug/conns?state= filter);
// ok is false for unknown names.
func StateByName(name string) (State, bool) {
	switch s := State(name); s {
	case StateAccepted, StateHandshaking, StateEstablished, StateClosed, StateFailed:
		return s, true
	}
	return "", false
}

const (
	// maxTimeline bounds the per-conn step timeline: the longest path
	// (a full DHE handshake) completes 11 steps, so 16 leaves slack
	// without ever reallocating.
	maxTimeline = 16
	// maxCalls bounds a sampled connection's detail, so a chatty bulk
	// transfer cannot grow its record without bound; a record that
	// fills up reports its detail as truncated.
	maxCalls = 256
)

// What a connection's record keeps beyond its step timeline and
// totals, as the record reports it. The zero value "" means nobody
// asked: the table's SampleEvery is 0.
const (
	DetailFull       = "full"
	DetailSampledOut = "sampled_out" // the 1-in-N sampler passed it over
	DetailTruncated  = "truncated"   // kept, then cut at the per-record cap
)

// A Conn is one connection's record: a live table entry until the
// connection closes, then one slot of the closed-record ring. It is the
// probe.Sink on its connection's bus, emitted into by the connection's
// goroutine only.
type Conn struct {
	tab *Table

	// Set by the open event, immutable afterwards.
	ID     uint64
	Remote string
	Opened time.Time
	role   string

	// mu guards everything below against snapshot readers.
	mu sync.Mutex

	// detail is what the sampler let this record keep (Detail*).
	detail string

	state        State
	step         probe.Step // open step while handshaking
	stepStart    time.Time
	lastActivity time.Time
	closed       time.Time

	suite      string
	version    uint16
	resumed    bool
	hsStart    time.Time
	hsDur      time.Duration
	queueDelay time.Duration // accept to first step enter, -1 before it
	failClass  probe.FailClass
	failTag    string
	failDetail string

	timeline  [maxTimeline]telemetry.StepTiming
	timelineN int
	// stepCrypto is the open step's record crypto so far.
	stepCrypto telemetry.CryptoCell
	calls      []telemetry.Call

	// Running totals, folded into the registry when the connection
	// closes. ioBase is what a table Reset has already written off.
	io, ioBase telemetry.IOCounts
}

// shardCount stripes the table; must be a power of two.
const shardCount = 64

type shard struct {
	mu    sync.Mutex
	conns map[uint64]*Conn
}

// Options names what a Table folds into; every field may be zero.
type Options struct {
	// Registry receives each handshake outcome with its step timeline
	// (and, when sampled, its crypto calls), and each closed
	// connection's record/byte and record-crypto totals.
	Registry *telemetry.Registry
	// SampleEvery keeps 1 in N connections in detail, by arrival
	// order, so a steady load sees an unbiased 1/N cross-section (0 =
	// none, 1 = every connection).
	SampleEvery int
	// CloseLog writes one line per connection close.
	CloseLog *CloseLog
	// Ring is how many closed records are retained (0 = none).
	Ring int
}

// A Table is the live connection table plus the ring of closed
// records. All methods are safe for concurrent use; a nil *Table no-ops
// everywhere so callers can wire it unconditionally.
type Table struct {
	o      Options
	shards [shardCount]shard
	pool   sync.Pool

	// folds excludes closing connections (read side: unlink from the
	// table and fold the totals) from live reads (write side: load the
	// aggregates and walk the table), so a reader counts every
	// connection exactly once. Taken once per connection, never per
	// record.
	folds sync.RWMutex

	// mu guards the cumulative totals and the ring of closed records:
	// a connection takes it once when it opens and once when it closes.
	// ring holds the last len(ring) closed records, ringNext counts
	// every record ever retired; an evicted entry returns to the pool.
	mu       sync.Mutex
	totals   Totals
	ring     []*Conn
	ringNext uint64

	arrivals   atomic.Uint64 // connections offered to the sampler
	sampledOut atomic.Uint64 // records the sampler passed over
	truncated  atomic.Uint64 // records whose detail hit maxCalls
}

// numFailClasses covers every probe.FailClass including FailNone.
const numFailClasses = int(probe.FailInternal) + 1

// Totals is the table's cumulative counters: connections opened,
// closed, and closed failed, the last also by canonical class (refined
// tags like peer_alert:<name> collapse onto their class; /metrics'
// fail_reasons keeps them apart).
type Totals struct {
	Opened uint64 `json:"total_opened"`
	Closed uint64 `json:"total_closed"`
	Failed uint64 `json:"total_failed"`
	// FailByClass is indexed by probe.FailClass.
	FailByClass [numFailClasses]uint64 `json:"-"`
}

// NewTable returns an empty table folding into opts' aggregates.
func NewTable(opts Options) *Table {
	t := &Table{o: opts, ring: make([]*Conn, max(opts.Ring, 0))}
	t.pool.New = func() any { return new(Conn) }
	for i := range t.shards {
		t.shards[i].conns = make(map[uint64]*Conn)
	}
	opts.Registry.SetLive(live{t})
	return t
}

// Observe implements probe.Observer: every connection gets a pooled
// entry, which joins the table when the open event names it. A nil
// table declines, so callers can wire it unconditionally.
func (t *Table) Observe() probe.Sink {
	if c := t.Begin(); c != nil {
		return c
	}
	return nil
}

// Begin takes one connection's entry ahead of the connection, for
// callers with something to put on the record first (the accept mark);
// the entry is then the connection's only observer. A nil table
// returns a nil *Conn, itself a declining observer whose Mark no-ops.
func (t *Table) Begin() *Conn {
	if t == nil {
		return nil
	}
	c := t.pool.Get().(*Conn)
	*c = Conn{tab: t, state: StateAccepted, queueDelay: -1, calls: c.calls[:0], detail: t.sample()}
	return c
}

// sample offers one connection to the sampler and answers with what
// its record keeps: DetailFull for 1 in SampleEvery arrivals,
// DetailSampledOut for the rest, "" when the table keeps no detail.
func (t *Table) sample() string {
	if t.o.SampleEvery <= 0 {
		return ""
	}
	if t.arrivals.Add(1)%uint64(t.o.SampleEvery) != 0 {
		t.sampledOut.Add(1)
		return DetailSampledOut
	}
	return DetailFull
}

// Observe implements probe.Observer for an entry begun ahead of its
// connection: the entry is that connection's sink.
func (c *Conn) Observe() probe.Sink {
	if c == nil {
		return nil
	}
	return c
}

// Reset zeroes the totals and the ring and writes off what the open
// connections have counted so far (the /debug/reset hook); they stay in
// the table.
func (t *Table) Reset() {
	if t == nil {
		return
	}
	t.each(func(c *Conn) { c.ioBase = c.io })
	t.mu.Lock()
	clear(t.ring)
	t.ringNext, t.totals = 0, Totals{}
	t.mu.Unlock()
	t.sampledOut.Store(0)
	t.truncated.Store(0)
	t.o.CloseLog.resetCounts()
}

// each calls fn on every open entry, holding the entry's lock.
func (t *Table) each(fn func(c *Conn)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, c := range sh.conns {
			c.mu.Lock()
			fn(c)
			c.mu.Unlock()
		}
		sh.mu.Unlock()
	}
}

// live is the table as the registry reads it (telemetry.Live).
type live struct{ t *Table }

func (l live) Lock()   { l.t.folds.Lock() }
func (l live) Unlock() { l.t.folds.Unlock() }

func (l live) LiveCounts() (c telemetry.Counts) {
	l.t.each(func(conn *Conn) {
		c.Connections++
		c.IOCounts.Add(conn.io.Sub(conn.ioBase))
	})
	return c
}

func (l live) Observatory() telemetry.ObservatoryStats {
	t := l.t
	t.mu.Lock()
	retained := min(t.ringNext, uint64(len(t.ring)))
	evicted := t.ringNext - retained
	t.mu.Unlock()
	return telemetry.ObservatoryStats{
		RecordsRetained:    int(retained),
		RecordsEvicted:     evicted,
		DetailSampledOut:   t.sampledOut.Load(),
		DetailTruncated:    t.truncated.Load(),
		CloseLogSuppressed: t.o.CloseLog.Counts().Suppressed,
	}
}

// Counts is the table's cheap gauge/counter readout: live entries by
// state and the cumulative totals — everything the history sampler
// needs each second, with no maps, rows, or allocations built.
type Counts struct {
	Live        int
	Accepted    int
	Handshaking int
	Established int
	Totals
}

// Counts reads the table without allocating. Live states are counted
// under the shard locks (O(live entries), no rows materialized). A nil
// table reads all zeros.
func (t *Table) Counts() Counts {
	var c Counts
	if t == nil {
		return c
	}
	t.each(func(conn *Conn) {
		c.Live++
		switch conn.state {
		case StateAccepted:
			c.Accepted++
		case StateHandshaking:
			c.Handshaking++
		case StateEstablished:
			c.Established++
		}
	})
	t.mu.Lock()
	c.Totals = t.totals
	t.mu.Unlock()
	return c
}

// Emit implements probe.Sink: the entry rides its connection's bus and
// accumulates the whole life out of the one event stream.
func (c *Conn) Emit(e probe.Event) {
	switch e.Kind {
	case probe.KindConnOpen:
		c.ID, c.Remote, c.Opened, c.role = e.Conn, e.Detail, e.At, e.Fn
		c.lastActivity = e.At
		c.tab.mu.Lock()
		c.tab.totals.Opened++
		c.tab.mu.Unlock()
		sh := &c.tab.shards[c.ID%shardCount]
		sh.mu.Lock()
		sh.conns[c.ID] = c
		sh.mu.Unlock()
		return
	case probe.KindHandshakeDone, probe.KindHandshakeFail:
		c.handshakeEnd(e)
		return
	case probe.KindConnClose:
		c.close(e.At)
		return
	}
	c.mu.Lock()
	switch e.Kind {
	case probe.KindHandshakeStart:
		c.hsStart = e.At
		c.setState(StateAccepted, StateHandshaking)
	case probe.KindStepEnter:
		c.step, c.stepStart, c.lastActivity = e.Step, e.At, e.At
		c.stepCrypto = telemetry.CryptoCell{}
		if c.queueDelay < 0 {
			c.queueDelay = max(e.At.Sub(c.Opened), 0)
		}
	case probe.KindStepExit:
		c.step, c.lastActivity = probe.StepNone, e.At
		if c.timelineN < maxTimeline {
			c.timeline[c.timelineN] = telemetry.StepTiming{
				Step: e.Step, Start: c.stepStart, Dur: e.Dur, Crypto: c.stepCrypto,
			}
			c.timelineN++
		}
	case probe.KindCrypto:
		c.call(telemetry.CatCrypto, e.Fn, e)
	case probe.KindRecordCrypto:
		c.io.Crypto.Count(e)
		if e.Step != probe.StepNone {
			c.stepCrypto.Count(e)
			// Finished-message work inside a step: Table 2's
			// pri_encryption/pri_decryption/mac rows.
			c.call(telemetry.CatCrypto, e.Op.StepFn(), e)
		} else {
			c.call(telemetry.CatRecord, e.Op.String(), e)
		}
	case probe.KindRecordIO:
		if e.Written {
			c.io.RecordsOut++
			c.io.BytesOut += uint64(e.Bytes)
		} else {
			c.io.RecordsIn++
			c.io.BytesIn += uint64(e.Bytes)
		}
		if e.Alert {
			if e.Written {
				c.io.AlertsSent++
			} else {
				c.io.AlertsReceived++
			}
		}
	case probe.KindAppIO:
		c.lastActivity = e.At.Add(e.Dur)
		name := "read"
		if e.Written {
			name = "write"
		}
		c.call(telemetry.CatIO, name, e)
	}
	c.mu.Unlock()
}

// setState moves the entry from one state to the next, and nowhere
// from any other, so a late event never clobbers a terminal state.
// Callers hold c.mu.
func (c *Conn) setState(from, to State) {
	if c.state == from {
		c.state = to
	}
}

// call appends one timed item to a sampled connection's detail.
// Callers hold c.mu.
func (c *Conn) call(kind, name string, e probe.Event) {
	if c.detail != DetailFull {
		return
	}
	if len(c.calls) >= maxCalls {
		c.detail = DetailTruncated
		c.tab.truncated.Add(1)
		return
	}
	c.calls = append(c.calls, telemetry.Call{
		Kind: kind, Name: name, Step: e.Step, At: e.At, Dur: e.Dur, Bytes: e.Bytes,
	})
}

// Mark puts one connection-level item (the accept) on a sampled
// connection's detail. No-op on a nil entry.
func (c *Conn) Mark(name string, at time.Time, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.call(telemetry.CatConn, name, probe.Event{At: at, Dur: d})
	c.mu.Unlock()
}

// handshakeEnd records the handshake's outcome and folds it, with the
// step timeline and (when sampled) the calls so far — the first of the
// record's two folds, and the only one of its handshake.
func (c *Conn) handshakeEnd(e probe.Event) {
	failed := e.Kind == probe.KindHandshakeFail
	c.mu.Lock()
	c.step, c.hsDur, c.lastActivity = probe.StepNone, e.Dur, e.At
	if failed {
		c.state = StateFailed
		c.failClass, c.failTag, c.failDetail = e.Class, e.Fn, e.Detail
	} else {
		c.state = StateEstablished
		c.suite, c.version, c.resumed = e.Fn, e.Version, e.Resumed
	}
	h := telemetry.Handshake{
		Suite: c.suite, Version: c.version, Resumed: c.resumed,
		Failed: failed, FailTag: c.failTag, Dur: e.Dur, QueueDelay: c.queueDelay,
		Steps:   c.timeline[:c.timelineN],
		Sampled: c.detail == DetailFull || c.detail == DetailTruncated,
	}
	if h.Sampled {
		h.Calls = c.calls
	}
	c.mu.Unlock()
	c.tab.o.Registry.FoldHandshake(&h)
}

// close logs the record, unlinks it from the table and folds its
// totals (the second fold), then retires it into the ring. The entry
// must not be used afterwards.
func (c *Conn) close(at time.Time) {
	t := c.tab
	c.mu.Lock()
	if c.state != StateFailed {
		c.state = StateClosed
	}
	c.closed = at
	failed, class := c.state == StateFailed, c.failClass
	io := c.io.Sub(c.ioBase)
	c.mu.Unlock()

	t.o.CloseLog.observe(c, failed)
	sh := &t.shards[c.ID%shardCount]
	t.folds.RLock()
	sh.mu.Lock()
	delete(sh.conns, c.ID)
	sh.mu.Unlock()
	t.o.Registry.FoldClose(io)
	t.folds.RUnlock()

	evicted := c
	t.mu.Lock()
	t.totals.Closed++
	if failed {
		t.totals.Failed++
		t.totals.FailByClass[min(int(class), numFailClasses-1)]++
	}
	if len(t.ring) > 0 {
		slot := &t.ring[t.ringNext%uint64(len(t.ring))]
		evicted, *slot = *slot, c
		t.ringNext++
	}
	t.mu.Unlock()
	if evicted != nil {
		t.pool.Put(evicted)
	}
}

// SnapshotOptions filter a table snapshot.
type SnapshotOptions struct {
	// State restricts rows to one state name ("" = all).
	State string
	// Limit caps the rows returned (0 = no cap). Counts and the
	// by-state histogram still cover the whole table.
	Limit int
}

// A Snapshot is the /debug/conns body.
type Snapshot struct {
	At   time.Time `json:"at"`
	Live int       `json:"live"`
	Totals

	ByState     map[string]int    `json:"by_state,omitempty"`
	FailClasses map[string]uint64 `json:"fail_classes,omitempty"`

	CloseLog CloseLogCounts `json:"close_log"`

	Truncated int      `json:"truncated,omitempty"` // rows dropped by Limit
	Conns     []Record `json:"conns"`
}

// Snapshot copies the live table. Rows are ordered by connection ID
// and carry the step timeline but not the sampled detail.
func (t *Table) Snapshot(opts SnapshotOptions) Snapshot {
	now := time.Now() // lint:allow-clock
	snap := Snapshot{At: now, ByState: make(map[string]int)}
	if t == nil {
		return snap
	}
	snap.CloseLog = t.o.CloseLog.Counts()
	var rows []Record
	t.each(func(c *Conn) {
		snap.Live++
		snap.ByState[c.state.Name()]++
		if opts.State == "" || c.state.Name() == opts.State {
			rows = append(rows, c.record(now, false))
		}
	})
	t.mu.Lock()
	snap.Totals = t.totals
	t.mu.Unlock()
	for class, n := range snap.FailByClass {
		if n > 0 {
			if snap.FailClasses == nil {
				snap.FailClasses = make(map[string]uint64)
			}
			snap.FailClasses[probe.FailClass(class).Name()] = n
		}
	}
	sortRecords(rows)
	if opts.Limit > 0 && len(rows) > opts.Limit {
		snap.Truncated = len(rows) - opts.Limit
		rows = rows[:opts.Limit]
	}
	snap.Conns = rows
	return snap
}

// Records snapshots, in full, the retained closed records and the open
// entries — or just connection conn's when conn is non-zero — ordered
// by connection ID: what /debug/flightrecorder and /debug/trace render.
func (t *Table) Records(conn uint64) []Record {
	if t == nil {
		return nil
	}
	now := time.Now() // lint:allow-clock
	var recs []Record
	t.mu.Lock()
	for _, c := range t.ring {
		if c != nil && (conn == 0 || c.ID == conn) {
			c.mu.Lock()
			recs = append(recs, c.record(now, true))
			c.mu.Unlock()
		}
	}
	t.mu.Unlock()
	t.each(func(c *Conn) {
		if conn == 0 || c.ID == conn {
			recs = append(recs, c.record(now, true))
		}
	})
	sortRecords(recs)
	return recs
}

func sortRecords(rows []Record) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
}
