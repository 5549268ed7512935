// Package debughttp is the one convention every /debug/* and /metrics
// endpoint speaks. Before it existed each handler hand-rolled its own
// Accept/?format= logic and none set cache headers; now content
// negotiation, the no-store discipline (a live observability snapshot
// must never be served stale by an intermediary), and the POST-only
// reset convention (405 + Allow on anything else) live in one place.
package debughttp

import (
	"encoding/json"
	"net/http"
	"strings"
)

// WantText reports whether the request asked for the text rendering:
// either the explicit ?format=text query (which always wins, matching
// the convention every endpoint has documented since PR 1) or, when no
// format was named, an Accept header that prefers text/plain over
// JSON. Unknown ?format= values fall through to JSON, the pinned
// behavior of the content-negotiation tests.
func WantText(req *http.Request) bool {
	if f := req.URL.Query().Get("format"); f != "" {
		return f == "text"
	}
	accept := req.Header.Get("Accept")
	if accept == "" {
		return false
	}
	// First listed wins between the two types we can serve; a bare
	// text/plain (curl -H 'Accept: text/plain') selects text.
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch mt {
		case "text/plain":
			return true
		case "application/json":
			return false
		}
	}
	return false
}

// noStore marks the response uncacheable: every /debug surface is a
// live snapshot and a cached copy is a wrong answer.
func noStore(w http.ResponseWriter) {
	w.Header().Set("Cache-Control", "no-store")
}

// HeadJSON sets the standard JSON headers without writing a body, for
// handlers that pick their own status code (health's 503).
func HeadJSON(w http.ResponseWriter) {
	noStore(w)
	w.Header().Set("Content-Type", "application/json")
}

// HeadText is HeadJSON for the text rendering.
func HeadText(w http.ResponseWriter) {
	noStore(w)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
}

// WriteJSON serves b as JSON with the standard headers.
func WriteJSON(w http.ResponseWriter, b []byte) {
	HeadJSON(w)
	w.Write(b)
}

// WriteText serves s as plain text with the standard headers.
func WriteText(w http.ResponseWriter, s string) {
	HeadText(w)
	w.Write([]byte(s))
}

// Serve renders one snapshot under the shared negotiation: textFn when
// the request wants text, otherwise snap as indented JSON (500 on a
// marshal error).
func Serve(w http.ResponseWriter, req *http.Request, textFn func() string, snap any) {
	if WantText(req) {
		WriteText(w, textFn())
		return
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, b)
}

// PostOnly guards a reset-style endpoint: true when the request is a
// POST, otherwise it writes the conventional 405 + Allow: POST and
// returns false.
func PostOnly(w http.ResponseWriter, req *http.Request) bool {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}
