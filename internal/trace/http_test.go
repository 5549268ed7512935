package trace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func profilerWithOneTrace() *Profiler {
	p := NewProfiler()
	foldTestTrace(p, time.Millisecond, 0)
	return p
}

func get(t *testing.T, p *Profiler, method, url string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	mux := http.NewServeMux()
	Register(mux, p)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(method, url, nil))
	return rec, rec.Body.String()
}

// TestDebugAnatomyReset: the profiler is zeroed by Reset — which
// /debug/reset calls with every other surface's — and keeps folding
// afterwards; the endpoint's own /debug/anatomy/reset is gone.
func TestDebugAnatomyReset(t *testing.T) {
	p := profilerWithOneTrace()
	if s := p.Snapshot(); s.Handshakes != 1 {
		t.Fatalf("pre-reset snapshot = %+v", s)
	}
	if rec, _ := get(t, p, "POST", "/debug/anatomy/reset"); rec.Code != 404 {
		t.Fatalf("POST /debug/anatomy/reset: %d, want 404", rec.Code)
	}
	if s := p.Snapshot(); s.Handshakes != 1 {
		t.Fatal("a request reset the profiler")
	}

	p.Reset()
	s := p.Snapshot()
	if s.Handshakes != 0 || s.Traces != 0 || len(s.Steps) != 0 {
		t.Fatalf("post-reset snapshot = %+v", s)
	}
	foldTestTrace(p, time.Millisecond, 0)
	if s := p.Snapshot(); s.Handshakes != 1 {
		t.Fatalf("post-reset fold lost: %+v", s)
	}
}

func TestDebugAnatomyEndpoint(t *testing.T) {
	p := profilerWithOneTrace()
	rec, body := get(t, p, "GET", "/debug/anatomy")
	if ct := rec.Header().Get("Content-Type"); rec.Code != 200 || ct != "application/json" {
		t.Fatalf("status %d, Content-Type = %q", rec.Code, ct)
	}
	var snap AnatomySnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Handshakes != 1 || len(snap.Steps) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}

	rec, body = get(t, p, "GET", "/debug/anatomy?format=text")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text Content-Type = %q", ct)
	}
	if !strings.Contains(body, "continuous Table 2") {
		t.Fatalf("text body:\n%s", body)
	}
}
