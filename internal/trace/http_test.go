package trace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func tracerWithOneTrace(t *testing.T) *Tracer {
	t.Helper()
	tr := NewTracer(Config{})
	ct := begin(tr, 1)
	s := ct.Begin("init", CatStep, 0)
	ct.End(s, time.Millisecond)
	ct.Finish("ok")
	return tr
}

func get(t *testing.T, tr *Tracer, url string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: %d", url, rec.Code)
	}
	return rec, rec.Body.String()
}

func TestDebugTraceEndpoint(t *testing.T) {
	tr := tracerWithOneTrace(t)
	rec, body := get(t, tr, "/debug/trace")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
}

func TestDebugTraceRawFormat(t *testing.T) {
	tr := tracerWithOneTrace(t)
	_, body := get(t, tr, "/debug/trace?format=raw")
	var raw struct {
		Stats  Stats        `json:"stats"`
		Traces []*TraceData `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	if raw.Stats.Sampled != 1 || len(raw.Traces) != 1 {
		t.Fatalf("raw = sampled %d, %d traces", raw.Stats.Sampled, len(raw.Traces))
	}
	if raw.Traces[0].Spans[0].Name != "init" {
		t.Fatalf("span = %+v", raw.Traces[0].Spans[0])
	}
}

func TestDebugAnatomyReset(t *testing.T) {
	tr := tracerWithOneTrace(t)
	if s := tr.Profiler().Snapshot(); s.Handshakes != 1 {
		t.Fatalf("pre-reset snapshot = %+v", s)
	}

	// GET must not reset.
	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/anatomy/reset", nil))
	if rec.Code != 405 {
		t.Fatalf("GET reset: %d, want 405", rec.Code)
	}
	if s := tr.Profiler().Snapshot(); s.Handshakes != 1 {
		t.Fatal("GET reset the profiler")
	}

	hookRan := false
	mux := http.NewServeMux()
	RegisterWithReset(mux, tr, func() { hookRan = true })
	h := httptest.NewRecorder()
	mux.ServeHTTP(h, httptest.NewRequest("POST", "/debug/anatomy/reset", nil))
	if h.Code != 200 {
		t.Fatalf("POST reset: %d", h.Code)
	}
	if !hookRan {
		t.Fatal("onReset hook did not run")
	}
	s := tr.Profiler().Snapshot()
	if s.Handshakes != 0 || s.Traces != 0 || len(s.Steps) != 0 {
		t.Fatalf("post-reset snapshot = %+v", s)
	}

	// The profiler keeps folding after the reset.
	ct := begin(tr, 2)
	sp := ct.Begin("init", CatStep, 0)
	ct.End(sp, time.Millisecond)
	ct.Finish("ok")
	if s := tr.Profiler().Snapshot(); s.Handshakes != 1 {
		t.Fatalf("post-reset fold lost: %+v", s)
	}
}

func TestDebugAnatomyEndpoint(t *testing.T) {
	tr := tracerWithOneTrace(t)
	rec, body := get(t, tr, "/debug/anatomy")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap AnatomySnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Handshakes != 1 || len(snap.Steps) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}

	rec, body = get(t, tr, "/debug/anatomy?format=text")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text Content-Type = %q", ct)
	}
	if !strings.Contains(body, "continuous Table 2") {
		t.Fatalf("text body:\n%s", body)
	}
}
