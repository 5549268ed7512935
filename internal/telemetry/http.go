package telemetry

import (
	"net/http"

	"sslperf/internal/debughttp"
)

// Register mounts the registry on mux:
//
//	/metrics  JSON snapshot (?format=text for tables)
func Register(mux *http.ServeMux, r *Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		debughttp.Serve(w, req, snap.Text, snap)
	})
}
