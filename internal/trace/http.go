package trace

import (
	"net/http"

	"sslperf/internal/debughttp"
)

// Register mounts the live anatomy on mux:
//
//	/debug/anatomy  the continuous Tables 2/3 folded from sampled
//	                traffic: per-step cycles, crypto attribution, and
//	                p50/p95/p99 step latency (JSON; ?format=text for
//	                aligned tables)
func Register(mux *http.ServeMux, p *Profiler) {
	mux.HandleFunc("/debug/anatomy", func(w http.ResponseWriter, req *http.Request) {
		snap := p.Snapshot()
		debughttp.Serve(w, req, snap.Text, snap)
	})
}
