package lifecycle

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/slo"
)

// testConns numbers the connections these tests open, standing in for
// the spine's connection-ID sequence.
var testConns uint64

// open observes one connection on tab and opens it the way the
// connection's bus would; nil on a nil table.
func open(tab *Table, remote string) *Conn {
	c, _ := tab.Observe().(*Conn)
	if c != nil {
		testConns++
		c.Emit(probe.Event{Kind: probe.KindConnOpen, Conn: testConns, Detail: remote, At: time.Now()})
	}
	return c
}

// The lifecycle events a connection emits.
func (c *Conn) start() { c.Emit(probe.Event{Kind: probe.KindHandshakeStart}) }
func (c *Conn) end()   { c.Emit(probe.Event{Kind: probe.KindConnClose}) }

func (c *Conn) established(suite string, version uint16, resumed bool, d time.Duration) {
	c.Emit(probe.Event{Kind: probe.KindHandshakeDone, Fn: suite, Version: version, Resumed: resumed, Dur: d})
}

func (c *Conn) failed(class probe.FailClass, tag, detail string, d time.Duration) {
	c.Emit(probe.Event{Kind: probe.KindHandshakeFail, Class: class, Fn: tag, Detail: detail, Dur: d})
}

// drive walks one entry through a full successful life via the same
// events ssl.Conn emits.
func drive(c *Conn) {
	c.start()
	now := time.Now()
	c.Emit(probe.Event{Kind: probe.KindStepEnter, Step: probe.StepGetClientHello, At: now})
	c.Emit(probe.Event{Kind: probe.KindStepExit, Step: probe.StepGetClientHello, At: now, Dur: 100 * time.Microsecond})
	c.Emit(probe.Event{Kind: probe.KindStepEnter, Step: probe.StepGetClientKX, At: now})
	c.Emit(probe.Event{Kind: probe.KindStepExit, Step: probe.StepGetClientKX, At: now, Dur: 900 * time.Microsecond})
	c.Emit(probe.Event{Kind: probe.KindRecordIO, Bytes: 120, Written: false})
	c.Emit(probe.Event{Kind: probe.KindRecordIO, Bytes: 800, Written: true})
	c.established("RC4-MD5", 0x0300, false, 2*time.Millisecond)
}

func TestLifecycleStates(t *testing.T) {
	tr := slo.New(slo.Config{TargetP99: time.Second})
	tab := NewTable(Options{SLO: tr})
	c := open(tab, "10.0.0.1:5555")
	if c == nil {
		t.Fatal("Observe returned nil")
	}

	wantState := func(want State) {
		t.Helper()
		snap := tab.Snapshot(SnapshotOptions{})
		if len(snap.Conns) != 1 {
			t.Fatalf("snapshot has %d conns, want 1", len(snap.Conns))
		}
		if got := snap.Conns[0].State; got != want.Name() {
			t.Fatalf("state %q, want %q", got, want.Name())
		}
	}

	wantState(StateAccepted)
	c.start()
	wantState(StateHandshaking)
	if got := tr.InFlight(); got != 1 {
		t.Fatalf("inflight %d during handshake, want 1", got)
	}

	now := time.Now()
	c.Emit(probe.Event{Kind: probe.KindStepEnter, Step: probe.StepGetClientKX, At: now})
	snap := tab.Snapshot(SnapshotOptions{})
	if got := snap.Conns[0].Step; got != probe.StepGetClientKX.Name() {
		t.Fatalf("open step %q, want %q", got, probe.StepGetClientKX.Name())
	}
	c.Emit(probe.Event{Kind: probe.KindStepExit, Step: probe.StepGetClientKX, At: now, Dur: time.Millisecond})

	c.established("RC4-MD5", 0x0300, true, 3*time.Millisecond)
	wantState(StateEstablished)
	if got := tr.InFlight(); got != 0 {
		t.Fatalf("inflight %d after handshake, want 0", got)
	}
	snap = tab.Snapshot(SnapshotOptions{})
	ci := snap.Conns[0]
	if ci.Suite != "RC4-MD5" || !ci.Resumed || ci.Version != "SSLv3" {
		t.Fatalf("snapshot row %+v lost negotiation state", ci)
	}
	if ci.Step != "" {
		t.Fatalf("established row still shows step %q", ci.Step)
	}

	c.end()
	snap = tab.Snapshot(SnapshotOptions{})
	if snap.Live != 0 || len(snap.Conns) != 0 {
		t.Fatalf("table not empty after close: live=%d rows=%d", snap.Live, len(snap.Conns))
	}
	if snap.Opened != 1 || snap.Closed != 1 || snap.Failed != 0 {
		t.Fatalf("counters opened=%d closed=%d failed=%d, want 1/1/0",
			snap.Opened, snap.Closed, snap.Failed)
	}
	// The handshake outcome and the first-step queue delay reached SLO.
	w := tr.Snapshot().Window("10s")
	if w.Handshakes != 1 || w.Failed != 0 {
		t.Fatalf("slo saw %d handshakes (%d failed), want 1/0", w.Handshakes, w.Failed)
	}
	if w.QueueDelays != 1 {
		t.Fatalf("slo saw %d queue delays, want 1", w.QueueDelays)
	}
}

func TestFailedConnTagged(t *testing.T) {
	tab := NewTable(Options{})
	c := open(tab, "")
	c.start()
	c.failed(probe.FailBadMAC, "bad_mac", "record: bad MAC", time.Millisecond)

	snap := tab.Snapshot(SnapshotOptions{})
	ci := snap.Conns[0]
	if ci.State != "failed" || ci.FailClass != "bad_mac" || ci.FailTag != "bad_mac" {
		t.Fatalf("failed row %+v missing taxonomy", ci)
	}

	// A late handshake start must not clobber the failure, and neither
	// must the close.
	c.start()
	if got := tab.Snapshot(SnapshotOptions{}).Conns[0].State; got != "failed" {
		t.Fatalf("late start clobbered failed state: %q", got)
	}
	c.end()
	snap = tab.Snapshot(SnapshotOptions{})
	if snap.Failed != 1 {
		t.Fatalf("failed counter %d, want 1", snap.Failed)
	}
	if got := snap.FailClasses["bad_mac"]; got != 1 {
		t.Fatalf("fail class histogram %v, want bad_mac=1", snap.FailClasses)
	}
}

func TestSnapshotStateFilter(t *testing.T) {
	tab := NewTable(Options{})
	a := open(tab, "a")
	b := open(tab, "b")
	b.start()

	snap := tab.Snapshot(SnapshotOptions{State: "handshaking"})
	if len(snap.Conns) != 1 || snap.Conns[0].ID != b.ID {
		t.Fatalf("filter returned %+v, want just conn %d", snap.Conns, b.ID)
	}
	// Counts still cover the whole table.
	if snap.Live != 2 || snap.ByState["accepted"] != 1 || snap.ByState["handshaking"] != 1 {
		t.Fatalf("filtered snapshot miscounted: live=%d by_state=%v", snap.Live, snap.ByState)
	}

	snap = tab.Snapshot(SnapshotOptions{Limit: 1})
	if len(snap.Conns) != 1 || snap.Truncated != 1 {
		t.Fatalf("limit returned %d rows (truncated %d), want 1/1", len(snap.Conns), snap.Truncated)
	}
	// Rows are ID-ordered, so the survivor is the older conn.
	if snap.Conns[0].ID != a.ID {
		t.Fatalf("limited snapshot kept conn %d, want %d", snap.Conns[0].ID, a.ID)
	}

	if _, ok := StateByName("handshaking"); !ok {
		t.Fatal("StateByName rejected a valid state")
	}
	if _, ok := StateByName("nonsense"); ok {
		t.Fatal("StateByName accepted nonsense")
	}
}

// TestCloseLogLine drives one success and one failure through a
// close-log and checks the emitted JSON lines field by field.
func TestCloseLogLine(t *testing.T) {
	var buf bytes.Buffer
	cl := NewCloseLog(&buf, 1)
	tab := NewTable(Options{CloseLog: cl})

	c := open(tab, "10.9.8.7:1234")
	drive(c)
	c.end()

	f := open(tab, "")
	f.start()
	f.failed(probe.FailPeerAlert, "peer_alert:handshake_failure", "alert: fatal handshake_failure", time.Millisecond)
	f.end()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("close-log emitted %d lines, want 2:\n%s", len(lines), buf.String())
	}

	var ok map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ok); err != nil {
		t.Fatalf("success line is not JSON: %v", err)
	}
	if ok["msg"] != "conn_close" || ok["state"] != "closed" || ok["suite"] != "RC4-MD5" {
		t.Fatalf("success line %v", ok)
	}
	if ok["remote"] != "10.9.8.7:1234" || ok["version"] != "SSLv3" {
		t.Fatalf("success line %v", ok)
	}
	if ok["bytes_in"].(float64) != 120 || ok["bytes_out"].(float64) != 800 {
		t.Fatalf("success line byte counts %v", ok)
	}
	steps, _ := ok["steps"].([]any)
	if len(steps) != 2 {
		t.Fatalf("success line has %d steps, want 2: %v", len(steps), ok["steps"])
	}
	first := steps[0].(map[string]any)
	if first["step"] != probe.StepGetClientHello.Name() || first["us"].(float64) != 100 {
		t.Fatalf("first step %v", first)
	}
	if _, has := ok["fail_class"]; has {
		t.Fatalf("success line carries fail_class: %v", ok)
	}

	var fail map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &fail); err != nil {
		t.Fatalf("failure line is not JSON: %v", err)
	}
	if fail["level"] != "WARN" || fail["state"] != "failed" {
		t.Fatalf("failure line %v", fail)
	}
	if fail["fail_class"] != "peer_alert" || fail["fail_tag"] != "peer_alert:handshake_failure" {
		t.Fatalf("failure line taxonomy %v", fail)
	}
	if fail["fail_detail"] != "alert: fatal handshake_failure" {
		t.Fatalf("failure line detail %v", fail)
	}
}

// TestCloseLogSampling checks 1-in-N success sampling with always-on
// failures, and that the ledger accounts for every close regardless.
func TestCloseLogSampling(t *testing.T) {
	var buf bytes.Buffer
	cl := NewCloseLog(&buf, 3)
	tab := NewTable(Options{CloseLog: cl})

	for i := 0; i < 9; i++ {
		c := open(tab, "")
		drive(c)
		c.end()
	}
	for i := 0; i < 2; i++ {
		c := open(tab, "")
		c.start()
		c.failed(probe.FailIOEOF, "io_eof", "EOF", time.Millisecond)
		c.end()
	}

	counts := cl.Counts()
	if counts.Successes != 9 || counts.Failures != 2 {
		t.Fatalf("ledger %+v, want 9 successes / 2 failures", counts)
	}
	if counts.Logged != 3+2 || counts.Suppressed != 6 {
		t.Fatalf("ledger %+v, want 5 logged / 6 suppressed", counts)
	}
	if counts.Successes+counts.Failures != tab.Snapshot(SnapshotOptions{}).Closed {
		t.Fatalf("ledger does not reconcile with table closes: %+v", counts)
	}

	// Emitted lines match the ledger exactly.
	var logged int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		logged++
	}
	if uint64(logged) != counts.Logged {
		t.Fatalf("%d lines on the wire, ledger says %d", logged, counts.Logged)
	}
}

func TestTableReset(t *testing.T) {
	var buf bytes.Buffer
	cl := NewCloseLog(&buf, 1)
	tab := NewTable(Options{CloseLog: cl})
	c := open(tab, "survivor")
	done := open(tab, "")
	drive(done)
	done.end()

	tab.Reset()
	snap := tab.Snapshot(SnapshotOptions{})
	if snap.Opened != 0 || snap.Closed != 0 {
		t.Fatalf("reset left opened=%d closed=%d", snap.Opened, snap.Closed)
	}
	// The open connection stays in the table; only its counts so far
	// are written off.
	if snap.Live != 1 || snap.Conns[0].Remote != "survivor" {
		t.Fatalf("reset dropped the open connection: live=%d", snap.Live)
	}
	if got := cl.Counts(); got != (CloseLogCounts{}) {
		t.Fatalf("reset left close-log ledger %+v", got)
	}
	// The connection opened before the reset still closes safely.
	drive(c)
	c.end()
}

func TestNilTableAndConn(t *testing.T) {
	var tab *Table
	if tab.Observe() != nil {
		t.Fatal("nil table returned an entry")
	}
	tab.Reset()
	if tab.Counts().Live != 0 {
		t.Fatal("nil table has length")
	}
	if snap := tab.Snapshot(SnapshotOptions{}); snap.Live != 0 {
		t.Fatal("nil table has live conns")
	}
}
