package telemetry

import (
	"net/http"

	"sslperf/internal/debughttp"
)

// Register mounts the registry on mux:
//
//	/metrics         JSON snapshot (?format=text for tables)
//	/debug/anatomy   the continuous Tables 2/3: per-step cycles and
//	                 p50/p95/p99 step latency over every handshake,
//	                 crypto attribution over the sampled ones (JSON;
//	                 ?format=text for aligned tables)
//	/debug/pathlength  the continuous Table 11: record crypto per
//	                 primitive and operation, on the kernel that ran
//	                 (JSON; ?format=text for aligned tables)
func Register(mux *http.ServeMux, r *Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		debughttp.Serve(w, req, snap.Text, snap)
	})
	mux.HandleFunc("/debug/anatomy", func(w http.ResponseWriter, req *http.Request) {
		a := r.Anatomy()
		debughttp.Serve(w, req, a.Text, a)
	})
	mux.HandleFunc("/debug/pathlength", func(w http.ResponseWriter, req *http.Request) {
		p := r.Pathlength()
		debughttp.Serve(w, req, p.Text, p)
	})
}
