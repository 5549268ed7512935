package debughttp

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestWantText(t *testing.T) {
	cases := []struct {
		url    string
		accept string
		want   bool
	}{
		{"/x", "", false},
		{"/x?format=text", "", true},
		{"/x?format=json", "", false},
		{"/x?format=xml", "", false},            // unknown format -> JSON (pinned)
		{"/x?format=json", "text/plain", false}, // explicit format beats Accept
		{"/x", "text/plain", true},
		{"/x", "text/plain; q=0.9", true},
		{"/x", "application/json", false},
		{"/x", "application/json, text/plain", false}, // first listed wins
		{"/x", "text/plain, application/json", true},
		{"/x", "*/*", false},
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", c.url, nil)
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		if got := WantText(req); got != c.want {
			t.Errorf("WantText(%s, Accept=%q) = %v, want %v", c.url, c.accept, got, c.want)
		}
	}
}

func TestServeHeaders(t *testing.T) {
	text := func() string { return "hello\n" }
	snap := map[string]bool{"ok": true}

	w := httptest.NewRecorder()
	Serve(w, httptest.NewRequest("GET", "/x", nil), text, snap)
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content-type = %q", ct)
	}
	if cc := w.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("json cache-control = %q", cc)
	}

	w = httptest.NewRecorder()
	Serve(w, httptest.NewRequest("GET", "/x?format=text", nil), text, snap)
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("text content-type = %q", ct)
	}
	if cc := w.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("text cache-control = %q", cc)
	}
	if w.Body.String() != "hello\n" {
		t.Fatalf("text body = %q", w.Body.String())
	}

	w = httptest.NewRecorder()
	Serve(w, httptest.NewRequest("GET", "/x", nil), text, make(chan int)) // not marshalable
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("marshal error status = %d", w.Code)
	}
}

func TestPostOnly(t *testing.T) {
	w := httptest.NewRecorder()
	if PostOnly(w, httptest.NewRequest("GET", "/x/reset", nil)) {
		t.Fatal("GET passed PostOnly")
	}
	if w.Code != http.StatusMethodNotAllowed || w.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("GET reset: status %d allow %q", w.Code, w.Header().Get("Allow"))
	}
	w = httptest.NewRecorder()
	if !PostOnly(w, httptest.NewRequest("POST", "/x/reset", nil)) {
		t.Fatal("POST rejected by PostOnly")
	}
}
