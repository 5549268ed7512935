package pathlen

import (
	"net/http"
	"time"

	"sslperf/internal/debughttp"
)

// nsDur converts accumulated nanoseconds to a duration for the cycle
// converters.
func nsDur(ns uint64) time.Duration { return time.Duration(ns) }

// Register mounts the observatory on mux:
//
//	/debug/pathlength  JSON snapshot (?format=text for tables)
func Register(mux *http.ServeMux, c *Collector) {
	mux.HandleFunc("/debug/pathlength", func(w http.ResponseWriter, req *http.Request) {
		snap := c.Snapshot()
		debughttp.Serve(w, req, snap.Text, snap)
	})
}
