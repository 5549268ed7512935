package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.FoldHandshake(hsDone("RC4-MD5", 0x0300, false, time.Millisecond))
	h := http.NewServeMux()
	Register(h, r)

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

func TestMetricsContentNegotiation(t *testing.T) {
	r := NewRegistry()
	r.FoldHandshake(hsDone("RC4-MD5", 0x0300, false, time.Millisecond))
	h := http.NewServeMux()
	Register(h, r)

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
