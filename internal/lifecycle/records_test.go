package lifecycle_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
)

// A sampled connection's spans are its record's step timeline and
// calls (package lifecycle), retired into the table's ring at close;
// these tests drive records the way a connection's bus does and read
// them back through the trace renderings.

var connIDs atomic.Uint64

// begin takes one connection's entry on tab and opens it.
func begin(tab *lifecycle.Table) *lifecycle.Conn {
	c := tab.Begin()
	c.Emit(probe.Event{Kind: probe.KindConnOpen, Conn: connIDs.Add(1), Fn: "server", At: time.Now()})
	return c
}

func step(c *lifecycle.Conn, st probe.Step, d time.Duration, inside ...probe.Event) {
	at := time.Now()
	c.Emit(probe.Event{Kind: probe.KindStepEnter, Step: st, At: at})
	for _, e := range inside {
		e.Step, e.At = st, at
		c.Emit(e)
	}
	c.Emit(probe.Event{Kind: probe.KindStepExit, Step: st, At: at.Add(d), Dur: d})
}

func done(c *lifecycle.Conn, suite string) {
	c.Emit(probe.Event{Kind: probe.KindHandshakeDone, Fn: suite, Version: 0x0300, At: time.Now(), Dur: 7 * time.Millisecond})
}

func end(c *lifecycle.Conn) { c.Emit(probe.Event{Kind: probe.KindConnClose, At: time.Now()}) }

// newTable returns a table keeping 1 in every connections in detail
// and ring closed records, its sampler's counts, and the registry its
// handshakes fold into.
func newTable(every, ring int) (*lifecycle.Table, sampler, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	tab := lifecycle.NewTable(lifecycle.Options{SampleEvery: every, Registry: reg, Ring: ring})
	return tab, sampler{tab, reg}, reg
}

// sampler reads a table's detail sampler back: the connections offered
// to it (every one these tests open) and those it kept in detail.
type sampler struct {
	tab *lifecycle.Table
	reg *telemetry.Registry
}

type samplerStats struct{ Seen, Sampled uint64 }

func (s sampler) Stats() samplerStats {
	seen := s.tab.Counts().Opened
	return samplerStats{Seen: seen, Sampled: seen - s.reg.Snapshot().Observatory.DetailSampledOut}
}

func TestNilTracerAndConnTraceAreNoOps(t *testing.T) {
	var c *lifecycle.Conn
	c.Mark("accept", time.Now(), time.Millisecond)
	if c.Observe() != nil {
		t.Fatal("nil entry offered itself as a sink")
	}

	// A table with SampleEvery 0 keeps the timeline and no detail.
	tab := lifecycle.NewTable(lifecycle.Options{Ring: 1})
	live := begin(tab)
	step(live, probe.StepInit, time.Millisecond, probe.Event{Kind: probe.KindCrypto, Fn: "md5", Dur: time.Microsecond})
	end(live)
	if r := tab.Records(0)[0]; r.Detail != "" || len(r.Calls) != 0 || len(r.Steps) != 1 {
		t.Fatalf("untraced record = %+v", r)
	}
}

func TestSpanLifecycleAndPublish(t *testing.T) {
	tab, tr, _ := newTable(1, 4)
	c := begin(tab)
	c.Mark("accept", time.Now(), time.Microsecond)
	c.Emit(probe.Event{Kind: probe.KindHandshakeStart, Fn: "server", At: time.Now()})
	step(c, probe.StepGetClientKX, 5*time.Millisecond, // the spine's active time, not the wall clock
		probe.Event{Kind: probe.KindCrypto, Fn: probe.FnRSAPrivateDecrypt, Dur: 3 * time.Millisecond})
	done(c, "RC4-SHA")
	if got := tab.Records(0); len(got) != 1 || got[0].State != "established" {
		t.Fatalf("open record = %+v", got)
	}
	if st := tr.Stats(); st.Sampled != 1 {
		t.Fatalf("default config did not sample: %+v", st)
	}
	end(c)

	recs := tab.Records(0)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Role != "server" || r.State != "closed" || r.Suite != "RC4-SHA" || r.Detail != lifecycle.DetailFull {
		t.Fatalf("record = %+v", r)
	}
	if len(r.Steps) != 1 || r.Steps[0].Step != "get_client_kx" || r.Steps[0].Us != 5000 {
		t.Fatalf("steps = %+v (explicit elapsed not honored?)", r.Steps)
	}
	if len(r.Calls) != 2 || r.Calls[0].Kind != telemetry.CatConn || r.Calls[0].Name != "accept" {
		t.Fatalf("calls = %+v", r.Calls)
	}
	if rsa := r.Calls[1]; rsa.Kind != telemetry.CatCrypto || rsa.Step != "get_client_kx" || rsa.Us != 3000 {
		t.Fatalf("crypto call not filed under its step: %+v", rsa)
	}
	if r.HandshakeUs != 7000 {
		t.Fatalf("handshake duration = %v", r.HandshakeUs)
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	tab, _, _ := newTable(1, 4)
	c := begin(tab)
	c.Emit(probe.Event{Kind: probe.KindHandshakeStart, Fn: "server", At: time.Now()})
	c.Emit(probe.Event{Kind: probe.KindStepEnter, Step: probe.StepInit, At: time.Now()}) // never exited
	c.Emit(probe.Event{Kind: probe.KindHandshakeFail, Class: probe.FailIOEOF, Fn: "io_eof", Detail: "EOF", At: time.Now(), Dur: time.Millisecond})
	end(c)
	r := tab.Records(0)[0]
	if r.State != "failed" || r.FailTag != "io_eof" || r.Step != "" || r.AgeMs <= 0 {
		t.Fatalf("record = %+v", r)
	}
	// The unfinished life still exports.
	if _, err := lifecycle.ChromeTrace(tab.Records(0)); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRingWraps(t *testing.T) {
	tab, _, _ := newTable(1, 2)
	var ids []uint64
	for i := 0; i < 5; i++ {
		c := begin(tab)
		ids = append(ids, c.ID)
		end(c)
	}
	recs := tab.Records(0)
	if len(recs) != 2 {
		t.Fatalf("ring of 2 retained %d records", len(recs))
	}
	if recs[0].ID != ids[3] || recs[1].ID != ids[4] {
		t.Fatalf("wrong survivors: conn %d, %d", recs[0].ID, recs[1].ID)
	}
}

func TestMaxSpansFinishesTrace(t *testing.T) {
	tab, _, _ := newTable(1, 1)
	c := begin(tab)
	for i := 0; i < 1000; i++ {
		c.Emit(probe.Event{Kind: probe.KindAppIO, Written: true, Bytes: 1, At: time.Now(), Dur: time.Microsecond})
	}
	end(c)
	r := tab.Records(0)[0]
	if r.Detail != lifecycle.DetailTruncated {
		t.Fatalf("detail = %q, want truncated", r.Detail)
	}
	if n := len(r.Calls); n == 0 || n >= 1000 {
		t.Fatalf("record kept %d of 1000 calls, want a bounded prefix", n)
	}
}

func TestFoldThenFinishCountsOnce(t *testing.T) {
	tab, _, reg := newTable(1, 1)
	c := begin(tab)
	step(c, probe.StepInit, time.Millisecond)
	done(c, "RC4-MD5")
	// The handshake folds the moment it ends, not when the connection
	// finally closes; the close does not fold it again.
	if snap := reg.Anatomy(); snap.Handshakes != 1 {
		t.Fatalf("anatomy saw %d handshakes before close, want 1", snap.Handshakes)
	}
	end(c)
	snap := reg.Anatomy()
	if snap.Handshakes != 1 || snap.Sampled != 1 {
		t.Fatalf("folded %d handshakes / %d sampled, want 1/1", snap.Handshakes, snap.Sampled)
	}
	if len(snap.Steps) != 1 || snap.Steps[0].Count != 1 {
		t.Fatalf("steps = %+v", snap.Steps)
	}
}

func TestConcurrentTracing(t *testing.T) {
	tab, tr, reg := newTable(2, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := begin(tab)
				step(c, probe.StepInit, time.Microsecond, probe.Event{Kind: probe.KindCrypto, Fn: "md5", Dur: time.Microsecond})
				done(c, "RC4-MD5")
				end(c)
				if i%10 == 0 {
					lifecycle.ChromeTrace(tab.Records(0))
					reg.Anatomy()
				}
			}
		}()
	}
	wg.Wait()
	st := tr.Stats()
	if st.Seen != 400 || st.Sampled != 200 {
		t.Fatalf("seen/sampled = %d/%d, want 400/200", st.Seen, st.Sampled)
	}
	if a := reg.Anatomy(); a.Handshakes != 400 || a.Sampled != 200 {
		t.Fatalf("anatomy folded %d handshakes, %d sampled, want 400 and 200", a.Handshakes, a.Sampled)
	}
	if got := len(tab.Records(0)); got != 16 {
		t.Fatalf("ring retained %d records, want 16", got)
	}
}

// The export is connection-only: every span on the one "ssl
// connections" process, a thread per connection, and no flow events.
func TestChromeTraceExport(t *testing.T) {
	tab, _, _ := newTable(1, 4)
	for i := 0; i < 2; i++ {
		c := begin(tab)
		c.Emit(probe.Event{Kind: probe.KindHandshakeStart, Fn: "server", At: time.Now()})
		c.Emit(probe.Event{Kind: probe.KindStepEnter, Step: probe.StepGetClientKX, At: time.Now()})
		c.Emit(probe.Event{Kind: probe.KindStepExit, Step: probe.StepGetClientKX, At: time.Now(), Dur: 2 * time.Millisecond})
		done(c, "RC4-MD5")
		end(c)
	}

	b, err := lifecycle.ChromeTrace(tab.Records(0))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			PID  uint64         `json:"pid"`
			TID  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	threads := map[uint64]bool{}
	var complete, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.PID != 1 {
				t.Errorf("%s span %q on pid %d, want 1", e.Cat, e.Name, e.PID)
			}
			threads[e.TID] = true
		case "M":
			meta++
		default:
			t.Errorf("unexpected %q event %q", e.Ph, e.Name)
		}
	}
	if complete != 4 { // 2×(handshake+step)
		t.Fatalf("complete events = %d, want 4", complete)
	}
	if len(threads) != 2 {
		t.Fatalf("spans on %d threads, want one per connection (2)", len(threads))
	}
	if meta != 3 { // the process name + one thread name per connection
		t.Fatalf("metadata events = %d, want 3", meta)
	}
}

func TestChromeEmptyTracerLoads(t *testing.T) {
	b, err := lifecycle.ChromeTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("no traceEvents key")
	}
}

func tableWithOneRecord(t *testing.T) http.Handler {
	t.Helper()
	tab, _, _ := newTable(1, 4)
	c := begin(tab)
	step(c, probe.StepInit, time.Millisecond)
	done(c, "RC4-MD5")
	end(c)
	mux := http.NewServeMux()
	lifecycle.Register(mux, tab)
	return mux
}

func getOK(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: %d", url, rec.Code)
	}
	return rec, rec.Body.Bytes()
}

func TestDebugTraceEndpoint(t *testing.T) {
	rec, body := getOK(t, tableWithOneRecord(t), "/debug/trace")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
}
