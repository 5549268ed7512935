package trace_test

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
	"sslperf/internal/trace"
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

func newTable(cfg trace.Config, ring int) (*lifecycle.Table, *trace.Tracer) {
	tr := trace.NewTracer(cfg)
	return lifecycle.NewTable(lifecycle.Options{Tracer: tr, Registry: telemetry.NewRegistry(), Ring: ring}), tr
}

func TestNilTracerAndConnTraceAreNoOps(t *testing.T) {
	var tr *trace.Tracer
	if v := tr.Sample(); v != "" {
		t.Fatalf("nil tracer sampled a connection: %q", v)
	}
	tr.EngineSpan("x", "", time.Now(), time.Millisecond, nil)
	if got := tr.EngineSpans(); got != nil {
		t.Fatalf("nil tracer EngineSpans() = %v", got)
	}
	if got := tr.Stats(); got != (trace.Stats{}) {
		t.Fatalf("nil tracer Stats() = %+v", got)
	}
	if tr.Profiler() != nil {
		t.Fatal("nil tracer returned a profiler")
	}

	var c *lifecycle.Conn
	c.Mark("accept", time.Now(), time.Millisecond)
	if c.Observe() != nil {
		t.Fatal("nil entry offered itself as a sink")
	}
	if c.Ref() != (trace.Ref{}) {
		t.Fatal("nil entry returned a non-zero Ref")
	}

	// A table without a tracer keeps the timeline and no detail.
	tab := lifecycle.NewTable(lifecycle.Options{Ring: 1})
	live := begin(tab)
	step(live, probe.StepInit, time.Millisecond, probe.Event{Kind: probe.KindCrypto, Fn: "md5", Dur: time.Microsecond})
	end(live)
	if r := tab.Records(0)[0]; r.Detail != "" || len(r.Calls) != 0 || len(r.Steps) != 1 {
		t.Fatalf("untraced record = %+v", r)
	}
}

func TestSpanLifecycleAndPublish(t *testing.T) {
	tab, tr := newTable(trace.Config{}, 4)
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
	if r.Role != "server" || r.State != "closed" || r.Suite != "RC4-SHA" || r.Detail != trace.DetailFull {
		t.Fatalf("record = %+v", r)
	}
	if len(r.Steps) != 1 || r.Steps[0].Step != "get_client_kx" || r.Steps[0].Us != 5000 {
		t.Fatalf("steps = %+v (explicit elapsed not honored?)", r.Steps)
	}
	if len(r.Calls) != 2 || r.Calls[0].Kind != trace.CatConn || r.Calls[0].Name != "accept" {
		t.Fatalf("calls = %+v", r.Calls)
	}
	if rsa := r.Calls[1]; rsa.Kind != trace.CatCrypto || rsa.Step != "get_client_kx" || rsa.Us != 3000 {
		t.Fatalf("crypto call not filed under its step: %+v", rsa)
	}
	if r.HandshakeUs != 7000 {
		t.Fatalf("handshake duration = %v", r.HandshakeUs)
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	tab, _ := newTable(trace.Config{}, 4)
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
	if _, err := lifecycle.ChromeTrace(tab.Records(0), nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefTracksCurrentStep(t *testing.T) {
	tab, _ := newTable(trace.Config{}, 0)
	c := begin(tab)
	if ref := c.Ref(); ref.Trace != c.ID || ref.Span != 0 {
		t.Fatalf("pre-step Ref = %+v", ref)
	}
	c.Emit(probe.Event{Kind: probe.KindStepEnter, Step: probe.StepGetClientKX, At: time.Now()})
	if ref := c.Ref(); ref.Trace != c.ID || ref.Span != uint64(probe.StepGetClientKX) {
		t.Fatalf("in-step Ref = %+v, want step %d", ref, probe.StepGetClientKX)
	}
}

func TestTraceRingWraps(t *testing.T) {
	tab, _ := newTable(trace.Config{}, 2)
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
	tab, _ := newTable(trace.Config{}, 1)
	c := begin(tab)
	for i := 0; i < 1000; i++ {
		c.Emit(probe.Event{Kind: probe.KindAppIO, Written: true, Bytes: 1, At: time.Now(), Dur: time.Microsecond})
	}
	end(c)
	r := tab.Records(0)[0]
	if r.Detail != trace.DetailTruncated {
		t.Fatalf("detail = %q, want truncated", r.Detail)
	}
	if n := len(r.Calls); n == 0 || n >= 1000 {
		t.Fatalf("record kept %d of 1000 calls, want a bounded prefix", n)
	}
}

func TestFoldThenFinishCountsOnce(t *testing.T) {
	tab, tr := newTable(trace.Config{}, 1)
	c := begin(tab)
	step(c, probe.StepInit, time.Millisecond)
	done(c, "RC4-MD5")
	// The handshake folds the moment it ends, not when the connection
	// finally closes; the close does not fold it again.
	if snap := tr.Profiler().Snapshot(); snap.Handshakes != 1 {
		t.Fatalf("profiler saw %d handshakes before close, want 1", snap.Handshakes)
	}
	end(c)
	snap := tr.Profiler().Snapshot()
	if snap.Traces != 1 || snap.Handshakes != 1 {
		t.Fatalf("folded %d traces / %d handshakes, want 1/1", snap.Traces, snap.Handshakes)
	}
	if len(snap.Steps) != 1 || snap.Steps[0].Count != 1 {
		t.Fatalf("steps = %+v", snap.Steps)
	}
}

func TestConcurrentTracing(t *testing.T) {
	tab, tr := newTable(trace.Config{SampleEvery: 2}, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := begin(tab)
				step(c, probe.StepInit, time.Microsecond, probe.Event{Kind: probe.KindCrypto, Fn: "md5", Dur: time.Microsecond})
				tr.EngineSpan("rsa_batch", "size=2", time.Now(), time.Microsecond, []trace.Ref{c.Ref()})
				done(c, "RC4-MD5")
				end(c)
				if i%10 == 0 {
					lifecycle.ChromeTrace(tab.Records(0), tr.EngineSpans())
				}
			}
		}()
	}
	wg.Wait()
	st := tr.Stats()
	if st.Seen != 400 || st.Sampled != 200 {
		t.Fatalf("seen/sampled = %d/%d, want 400/200", st.Seen, st.Sampled)
	}
	if got := tr.Profiler().Snapshot().Handshakes; got != 200 {
		t.Fatalf("profiler folded %d handshakes, want 200", got)
	}
	if got := len(tab.Records(0)); got != 16 {
		t.Fatalf("ring retained %d records, want 16", got)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tab, tr := newTable(trace.Config{}, 4)
	base := time.Now()

	// Two handshakes whose get_client_kx steps feed one batch.
	var refs []trace.Ref
	for i := 0; i < 2; i++ {
		c := begin(tab)
		c.Emit(probe.Event{Kind: probe.KindHandshakeStart, Fn: "server", At: time.Now()})
		c.Emit(probe.Event{Kind: probe.KindStepEnter, Step: probe.StepGetClientKX, At: time.Now()})
		refs = append(refs, c.Ref())
		c.Emit(probe.Event{Kind: probe.KindStepExit, Step: probe.StepGetClientKX, At: time.Now(), Dur: 2 * time.Millisecond})
		done(c, "RC4-MD5")
		end(c)
	}
	tr.EngineSpan("rsa_batch", "size=2", base, 4*time.Millisecond, refs)

	b, err := lifecycle.ChromeTrace(tab.Records(0), tr.EngineSpans())
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
			BP   string         `json:"bp"`
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

	const pidConns, pidEngine = 1, 2
	var complete, meta, flowS, flowF, engine int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Cat == trace.CatEngine {
				engine++
				if e.PID != pidEngine {
					t.Errorf("engine span on pid %d", e.PID)
				}
				links, ok := e.Args["links"].([]any)
				if !ok || len(links) != 2 {
					t.Errorf("engine span links = %v", e.Args["links"])
				}
			} else if e.PID != pidConns {
				t.Errorf("%s span on pid %d", e.Cat, e.PID)
			}
		case "M":
			meta++
		case "s":
			flowS++
		case "f":
			flowF++
			if e.BP != "e" {
				t.Errorf("flow finish without bp=e")
			}
		}
	}
	if complete != 5 { // 2×(handshake+step) + 1 batch
		t.Fatalf("complete events = %d, want 5", complete)
	}
	if engine != 1 {
		t.Fatalf("engine spans = %d, want 1", engine)
	}
	// One flow arrow per linked handshake step.
	if flowS != 2 || flowF != 2 {
		t.Fatalf("flow events = %d starts / %d finishes, want 2/2", flowS, flowF)
	}
	if meta < 4 { // 2 process names + rsabatch thread + ≥2 conn threads... at least 4
		t.Fatalf("metadata events = %d", meta)
	}
}

func TestChromeEmptyTracerLoads(t *testing.T) {
	b, err := lifecycle.ChromeTrace(nil, nil)
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
	tab, _ := newTable(trace.Config{}, 4)
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

func TestDebugTraceRawFormat(t *testing.T) {
	_, body := getOK(t, tableWithOneRecord(t), "/debug/trace?format=raw")
	var raw struct {
		Stats   trace.Stats        `json:"stats"`
		Records []lifecycle.Record `json:"records"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if raw.Stats.Sampled != 1 || len(raw.Records) != 1 {
		t.Fatalf("raw = sampled %d, %d records", raw.Stats.Sampled, len(raw.Records))
	}
	if raw.Records[0].Steps[0].Step != "init" {
		t.Fatalf("step = %+v", raw.Records[0].Steps[0])
	}
}
