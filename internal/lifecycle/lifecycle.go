// Package lifecycle is the live connection observatory: a lock-striped
// table of every observed connection, tracked from accept through the
// handshake's Table-2 steps to established/closed, with the
// canonical probe.FailClass taxonomy on failures and a structured
// close-log (one JSON line per connection close) that makes per-conn
// anatomy greppable offline.
//
// Where internal/telemetry answers "how many, how fast" in aggregate,
// this package answers the triage questions aggregates cannot: which
// connections are stuck in step get_client_kx right now, why did the
// last 500 handshakes fail, what did connection 123's life look like.
// The table is a probe.Observer and each entry the sink on its
// connection's bus: the whole life — open, handshake start, park and
// resume, outcome, close — arrives as probe events, so the states, the
// step cursor and the byte counters here cannot disagree with the
// anatomy or telemetry surfaces, and an entry's ID is the spine's
// connection ID, the same number the flight recorder and the span
// traces carry.
//
// The table is sharded 64 ways by connection ID and entries are
// pooled, so opening, transitioning, and closing a connection is
// allocation-free steady-state and a million live entries do not
// contend on one lock (TestConnTableZeroAlloc pins the 0 allocs/op,
// BenchmarkConnTable times the hot path).
package lifecycle

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/slo"
)

// State is a connection's position in its lifecycle.
type State uint8

// Lifecycle states, in the order a healthy connection passes through
// them. Failed replaces Established..Closed on a handshake error.
// Suspended is the event-loop variant of Handshaking: the non-blocking
// core hit WouldBlock mid-handshake and the connection is parked
// waiting for transport readiness, holding buffers but no goroutine.
const (
	StateAccepted State = iota
	StateHandshaking
	StateSuspended
	StateEstablished
	StateClosed
	StateFailed

	stateCount
)

var stateNames = [stateCount]string{
	StateAccepted:    "accepted",
	StateHandshaking: "handshaking",
	StateSuspended:   "suspended",
	StateEstablished: "established",
	StateClosed:      "closed",
	StateFailed:      "failed",
}

// Name returns the state's snake_case name.
func (s State) Name() string {
	if s >= stateCount {
		return fmt.Sprintf("state(%d)", uint8(s))
	}
	return stateNames[s]
}

// String implements fmt.Stringer.
func (s State) String() string { return s.Name() }

// StateByName resolves a state name (the /debug/conns?state= filter);
// ok is false for unknown names.
func StateByName(name string) (State, bool) {
	for s := State(0); s < stateCount; s++ {
		if stateNames[s] == name {
			return s, true
		}
	}
	return 0, false
}

// StepTiming is one completed handshake step on a connection's
// timeline.
type StepTiming struct {
	Step probe.Step
	Dur  time.Duration
}

// maxTimeline bounds the per-conn step timeline: the longest path (a
// full DHE handshake) completes 11 steps, so 16 leaves slack without
// ever reallocating.
const maxTimeline = 16

// A Conn is one live table entry. It implements probe.Sink: attached
// to its connection's bus it maintains the state, the current-step
// cursor, the step timeline, and the byte/record counters from the
// same event stream every other surface reads.
type Conn struct {
	tab *Table

	// Set by the open event, immutable afterwards.
	ID     uint64
	Remote string
	Opened time.Time

	// Single-writer counters (the connection's goroutine), read by
	// snapshots without the lock.
	lastActivity          atomic.Int64 // unix nanos
	bytesIn, bytesOut     atomic.Uint64
	recordsIn, recordsOut atomic.Uint64

	// mu guards the mutable fields below against snapshot readers.
	mu         sync.Mutex
	state      State
	step       probe.Step // open step while handshaking
	suite      string
	version    uint16
	resumed    bool
	hsDur      time.Duration
	queueDelay time.Duration // accept to first step enter
	sawStep    bool
	timeline   [maxTimeline]StepTiming
	timelineN  int
	failClass  probe.FailClass
	failTag    string
	failDetail string
}

// shardCount stripes the table; must be a power of two.
const shardCount = 64

type shard struct {
	mu    sync.Mutex
	conns map[uint64]*Conn
}

// Options configures a Table.
type Options struct {
	// SLO, when non-nil, receives handshake outcomes, in-flight
	// transitions, and queue delays from every observed connection.
	SLO *slo.Tracker
	// CloseLog, when non-nil, receives one structured record per
	// connection close.
	CloseLog *CloseLog
}

// A Table is the live connection table. All methods are safe for
// concurrent use; a nil *Table no-ops everywhere so callers can wire
// it unconditionally.
type Table struct {
	shards [shardCount]shard
	pool   sync.Pool

	slo      *slo.Tracker
	closeLog *CloseLog

	opened atomic.Uint64
	closed atomic.Uint64
	failed atomic.Uint64

	// failClasses counts terminal failures by tag — the taxonomy
	// summary /debug/conns renders. One touch per failed connection.
	failMu      sync.Mutex
	failClasses map[string]uint64

	// failByClass mirrors failClasses at canonical-class granularity
	// in a fixed wait-free array (refined tags like peer_alert:<name>
	// collapse onto their class), so the history sampler can read
	// per-class counters without taking failMu or allocating.
	failByClass [numFailClasses]atomic.Uint64
}

// numFailClasses covers every probe.FailClass including FailNone.
const numFailClasses = int(probe.FailInternal) + 1

// NewTable returns an empty table.
func NewTable(opts Options) *Table {
	t := &Table{slo: opts.SLO, closeLog: opts.CloseLog, failClasses: make(map[string]uint64)}
	t.pool.New = func() any { return new(Conn) }
	for i := range t.shards {
		t.shards[i].conns = make(map[uint64]*Conn)
	}
	return t
}

// SLO returns the tracker the table feeds (nil when none).
func (t *Table) SLO() *slo.Tracker {
	if t == nil {
		return nil
	}
	return t.slo
}

// CloseLog returns the table's close-log sink (nil when none).
func (t *Table) CloseLog() *CloseLog {
	if t == nil {
		return nil
	}
	return t.closeLog
}

// Observe implements probe.Observer: every connection gets a pooled
// entry, which joins the table when the open event names it. A nil
// table declines, so callers can wire it unconditionally.
func (t *Table) Observe() probe.Sink {
	if t == nil {
		return nil
	}
	c := t.pool.Get().(*Conn)
	*c = Conn{tab: t}
	return c
}

// Len reports the live entry count.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.conns)
		sh.mu.Unlock()
	}
	return n
}

// Reset drops every live entry (without close-logging them) and
// zeroes the cumulative counters — the /debug/reset hook. Any
// still-open *Conn keeps working (its close finds the entry already
// gone and skips the table bookkeeping).
func (t *Table) Reset() {
	if t == nil {
		return
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		// Entries are dropped, not recycled: their owning connections
		// may still emit into them.
		sh.conns = make(map[uint64]*Conn)
		sh.mu.Unlock()
	}
	t.opened.Store(0)
	t.closed.Store(0)
	t.failed.Store(0)
	t.failMu.Lock()
	t.failClasses = make(map[string]uint64)
	t.failMu.Unlock()
	for i := range t.failByClass {
		t.failByClass[i].Store(0)
	}
	t.closeLog.resetCounts()
}

// Counts is the table's cheap gauge/counter readout: live entries by
// state, the cumulative open/close/fail counters, and failures by
// canonical class — everything the history sampler needs each second,
// with no maps, rows, or allocations built.
type Counts struct {
	Live        int
	Accepted    int
	Handshaking int
	Suspended   int
	Established int

	Opened uint64
	Closed uint64
	Failed uint64

	// FailByClass is indexed by probe.FailClass.
	FailByClass [numFailClasses]uint64
}

// Counts reads the table without allocating. Live states are counted
// under the shard locks (O(live entries), no rows materialized). A nil
// table reads all zeros.
func (t *Table) Counts() Counts {
	var c Counts
	if t == nil {
		return c
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, conn := range sh.conns {
			conn.mu.Lock()
			st := conn.state
			conn.mu.Unlock()
			c.Live++
			switch st {
			case StateAccepted:
				c.Accepted++
			case StateHandshaking:
				c.Handshaking++
			case StateSuspended:
				c.Suspended++
			case StateEstablished:
				c.Established++
			}
		}
		sh.mu.Unlock()
	}
	c.Opened = t.opened.Load()
	c.Closed = t.closed.Load()
	c.Failed = t.failed.Load()
	for i := range t.failByClass {
		c.FailByClass[i] = t.failByClass[i].Load()
	}
	return c
}

// Emit implements probe.Sink: the table entry rides its connection's
// bus, folding the lifecycle, step boundaries, record I/O, and
// activity out of the same event stream every other sink sees. Called
// on the connection's goroutine only.
func (c *Conn) Emit(e probe.Event) {
	switch e.Kind {
	case probe.KindConnOpen:
		c.ID, c.Remote, c.Opened = e.Conn, e.Detail, e.At
		c.lastActivity.Store(e.At.UnixNano())
		c.tab.opened.Add(1)
		sh := &c.tab.shards[c.ID%shardCount]
		sh.mu.Lock()
		sh.conns[c.ID] = c
		sh.mu.Unlock()
	case probe.KindHandshakeStart:
		c.setState(StateAccepted, StateHandshaking)
		c.tab.slo.HandshakeBegin()
	case probe.KindHandshakeSuspend:
		// The non-blocking core returned WouldBlock and the connection
		// is parked on an event loop until the transport is ready.
		c.setState(StateHandshaking, StateSuspended)
	case probe.KindHandshakeResume:
		c.setState(StateSuspended, StateHandshaking)
	case probe.KindHandshakeDone:
		c.mu.Lock()
		c.state = StateEstablished
		c.step = probe.StepNone
		c.suite = e.Fn
		c.version = e.Version
		c.resumed = e.Resumed
		c.hsDur = e.Dur
		c.mu.Unlock()
		c.tab.slo.HandshakeEnd(e.Dur, false)
	case probe.KindHandshakeFail:
		c.mu.Lock()
		c.state = StateFailed
		c.step = probe.StepNone
		c.hsDur = e.Dur
		c.failClass = e.Class
		c.failTag = e.Fn
		c.failDetail = e.Detail
		c.mu.Unlock()
		c.tab.slo.HandshakeEnd(e.Dur, true)
	case probe.KindConnClose:
		c.close()
	case probe.KindStepEnter:
		c.mu.Lock()
		c.step = e.Step
		if !c.sawStep {
			c.sawStep = true
			c.queueDelay = e.At.Sub(c.Opened)
			c.tab.slo.ObserveQueueDelay(c.queueDelay)
		}
		c.mu.Unlock()
		c.lastActivity.Store(e.At.UnixNano())
	case probe.KindStepExit:
		c.mu.Lock()
		c.step = probe.StepNone
		if c.timelineN < maxTimeline {
			c.timeline[c.timelineN] = StepTiming{Step: e.Step, Dur: e.Dur}
			c.timelineN++
		}
		c.mu.Unlock()
		c.lastActivity.Store(e.At.UnixNano())
	case probe.KindRecordIO:
		if e.Written {
			c.recordsOut.Add(1)
			c.bytesOut.Add(uint64(e.Bytes))
		} else {
			c.recordsIn.Add(1)
			c.bytesIn.Add(uint64(e.Bytes))
		}
		c.lastActivity.Store(time.Now().UnixNano())
	}
}

// setState moves the entry from one state to the next, and nowhere
// from any other, so a late event never clobbers a terminal state.
func (c *Conn) setState(from, to State) {
	c.mu.Lock()
	if c.state == from {
		c.state = to
	}
	c.mu.Unlock()
}

// close finalizes the entry: emits the close-log record, removes the
// entry from the table, and recycles it. The entry must not be used
// afterwards.
func (c *Conn) close() {
	t := c.tab
	c.mu.Lock()
	if c.state != StateFailed {
		c.state = StateClosed
	}
	rec := c.closeRecordLocked()
	failed := c.state == StateFailed
	class := c.failClass
	c.mu.Unlock()

	t.closeLog.observe(rec)
	t.closed.Add(1)
	if failed {
		t.failed.Add(1)
		t.failMu.Lock()
		t.failClasses[rec.FailTag]++
		t.failMu.Unlock()
		if int(class) < numFailClasses {
			t.failByClass[class].Add(1)
		}
	}

	sh := &t.shards[c.ID%shardCount]
	sh.mu.Lock()
	live := sh.conns[c.ID] == c
	if live {
		delete(sh.conns, c.ID)
	}
	sh.mu.Unlock()
	if live {
		// Only entries still owned by the table are recycled; a Reset
		// may have dropped this one while its connection lived on.
		t.pool.Put(c)
	}
}

// versionName names a wire version for rendering (matching the
// telemetry registry's keys).
func versionName(v uint16) string {
	switch v {
	case 0x0300:
		return "SSLv3"
	case 0x0301:
		return "TLSv1.0"
	case 0:
		return ""
	}
	return fmt.Sprintf("%#04x", v)
}

// ConnInfo is one entry's snapshot row.
type ConnInfo struct {
	ID      uint64 `json:"id"`
	Remote  string `json:"remote,omitempty"`
	State   string `json:"state"`
	Step    string `json:"step,omitempty"` // open Table-2 step while handshaking
	Suite   string `json:"suite,omitempty"`
	Version string `json:"version,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`

	AgeMs  float64 `json:"age_ms"`
	IdleMs float64 `json:"idle_ms"`

	HandshakeUs  float64 `json:"handshake_us,omitempty"`
	QueueDelayUs float64 `json:"queue_delay_us,omitempty"`

	BytesIn    uint64 `json:"bytes_in"`
	BytesOut   uint64 `json:"bytes_out"`
	RecordsIn  uint64 `json:"records_in"`
	RecordsOut uint64 `json:"records_out"`

	FailClass string `json:"fail_class,omitempty"`
	FailTag   string `json:"fail_tag,omitempty"`
}

// info snapshots the entry. Callers must not hold c.mu.
func (c *Conn) info(now time.Time) ConnInfo {
	c.mu.Lock()
	ci := ConnInfo{
		ID:      c.ID,
		Remote:  c.Remote,
		State:   c.state.Name(),
		Suite:   c.suite,
		Version: versionName(c.version),
		Resumed: c.resumed,
		AgeMs:   float64(now.Sub(c.Opened)) / float64(time.Millisecond),
	}
	if (c.state == StateHandshaking || c.state == StateSuspended) && c.step != probe.StepNone {
		ci.Step = c.step.Name()
	}
	if c.hsDur > 0 {
		ci.HandshakeUs = float64(c.hsDur) / float64(time.Microsecond)
	}
	if c.sawStep {
		ci.QueueDelayUs = float64(c.queueDelay) / float64(time.Microsecond)
	}
	if c.state == StateFailed {
		ci.FailClass = c.failClass.Name()
		ci.FailTag = c.failTag
	}
	c.mu.Unlock()
	ci.IdleMs = float64(now.UnixNano()-c.lastActivity.Load()) / float64(time.Millisecond)
	if ci.IdleMs < 0 {
		ci.IdleMs = 0
	}
	ci.BytesIn = c.bytesIn.Load()
	ci.BytesOut = c.bytesOut.Load()
	ci.RecordsIn = c.recordsIn.Load()
	ci.RecordsOut = c.recordsOut.Load()
	return ci
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

	Opened uint64 `json:"total_opened"`
	Closed uint64 `json:"total_closed"`
	Failed uint64 `json:"total_failed"`

	ByState     map[string]int    `json:"by_state,omitempty"`
	FailClasses map[string]uint64 `json:"fail_classes,omitempty"`

	CloseLog CloseLogCounts `json:"close_log"`

	Truncated int        `json:"truncated,omitempty"` // rows dropped by Limit
	Conns     []ConnInfo `json:"conns"`
}

// Snapshot copies the live table. Rows are ordered by connection ID.
func (t *Table) Snapshot(opts SnapshotOptions) Snapshot {
	now := time.Now()
	snap := Snapshot{At: now, ByState: make(map[string]int)}
	if t == nil {
		return snap
	}
	snap.Opened = t.opened.Load()
	snap.Closed = t.closed.Load()
	snap.Failed = t.failed.Load()
	snap.CloseLog = t.closeLog.Counts()
	var rows []ConnInfo
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, c := range sh.conns {
			ci := c.info(now)
			snap.Live++
			snap.ByState[ci.State]++
			if opts.State != "" && ci.State != opts.State {
				continue
			}
			rows = append(rows, ci)
		}
		sh.mu.Unlock()
	}
	t.failMu.Lock()
	if len(t.failClasses) > 0 {
		snap.FailClasses = make(map[string]uint64, len(t.failClasses))
		for k, v := range t.failClasses {
			snap.FailClasses[k] = v
		}
	}
	t.failMu.Unlock()
	sortConns(rows)
	if opts.Limit > 0 && len(rows) > opts.Limit {
		snap.Truncated = len(rows) - opts.Limit
		rows = rows[:opts.Limit]
	}
	snap.Conns = rows
	return snap
}

func sortConns(rows []ConnInfo) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
}
