package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sslperf/internal/probe"
)

func TestMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Emit(hsDone("RC4-MD5", 0x0300, false, time.Millisecond))
	h := Handler(r)

	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &s); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if s.Handshakes.Full != 1 {
		t.Fatalf("full = %d", s.Handshakes.Full)
	}

	req = httptest.NewRequest("GET", "/metrics?format=text", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), "handshakes_full") {
		t.Fatalf("text body = %q", w.Body.String())
	}
}

func TestFlightRecorderEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Emit(hsStart(1))
	r.Emit(probe.Event{Kind: probe.KindStepEnter, Conn: 1, Step: probe.StepInit})
	r.Emit(hsStart(2))
	h := Handler(r)

	req := httptest.NewRequest("GET", "/debug/flightrecorder", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var all []Event
	if err := json.Unmarshal(w.Body.Bytes(), &all); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(all) != 3 {
		t.Fatalf("events = %d, want 3", len(all))
	}

	req = httptest.NewRequest("GET", "/debug/flightrecorder?conn=1", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var one []Event
	if err := json.Unmarshal(w.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if len(one) != 2 || one[1].Name != "init" {
		t.Fatalf("conn1 events = %+v", one)
	}

	req = httptest.NewRequest("GET", "/debug/flightrecorder?last=1", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var tail []Event
	if err := json.Unmarshal(w.Body.Bytes(), &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].Conn != 2 {
		t.Fatalf("tail = %+v", tail)
	}

	req = httptest.NewRequest("GET", "/debug/flightrecorder?conn=zzz", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 400 {
		t.Fatalf("bad conn id status = %d", w.Code)
	}
}

func TestMetricsContentNegotiation(t *testing.T) {
	r := NewRegistry()
	r.Emit(hsDone("RC4-MD5", 0x0300, false, time.Millisecond))
	h := Handler(r)

	// Default and explicit-garbage formats are both JSON.
	for _, url := range []string{"/metrics", "/metrics?format=", "/metrics?format=xml"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s content-type = %q, want application/json", url, ct)
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Errorf("%s body is not JSON", url)
		}
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics?format=text", nil))
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text content-type = %q", ct)
	}
	if json.Valid(w.Body.Bytes()) {
		t.Fatal("format=text returned JSON")
	}
}

func TestFlightRecorderEmptyAndLastEdges(t *testing.T) {
	r := NewRegistry()
	h := Handler(r)

	// Empty recorder: a JSON array, not null.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	if body := strings.TrimSpace(w.Body.String()); body != "[]" {
		t.Fatalf("empty recorder body = %q, want []", body)
	}

	r.Emit(hsStart(1))

	// last larger than the event count returns everything.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/flightrecorder?last=999", nil))
	var all []Event
	if err := json.Unmarshal(w.Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("last=999 returned %d events, want 1", len(all))
	}

	// last=0 truncates to nothing, still a JSON array.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/flightrecorder?last=0", nil))
	if body := strings.TrimSpace(w.Body.String()); body != "[]" {
		t.Fatalf("last=0 body = %q, want []", body)
	}

	// Malformed last values are rejected.
	for _, url := range []string{"/debug/flightrecorder?last=-1", "/debug/flightrecorder?last=zzz"} {
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		if w.Code != 400 {
			t.Errorf("%s status = %d, want 400", url, w.Code)
		}
	}
}
