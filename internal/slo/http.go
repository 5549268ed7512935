package slo

import (
	"fmt"
	"net/http"
	"strings"

	"sslperf/internal/debughttp"
)

// Text renders the snapshot as an aligned table.
func (s Snapshot) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SLO: handshake p99 target %.1fms, error budget %.2f%%, %d handshakes in flight\n",
		s.TargetP99Ms, s.ErrorBudget*100, s.InFlight)
	fmt.Fprintf(&sb, "%-6s %10s %8s %6s %9s %8s %9s %9s %9s %10s %10s\n",
		"window", "handshakes", "hs/s", "failed", "err-rate", "burn", "mean-us", "p50-us", "p99-us", "q-mean-us", "q-max-us")
	for _, w := range s.Windows {
		fmt.Fprintf(&sb, "%-6s %10d %8.1f %6d %8.2f%% %8.2f %9.0f %9.0f %9.0f %10.0f %10.0f\n",
			w.Window, w.Handshakes, w.HandshakeRate, w.Failed, w.ErrorRate*100,
			w.BurnRate, w.MeanUs, w.P50Us, w.P99Us, w.QueueMeanUs, w.QueueMaxUs)
	}
	return sb.String()
}

// Register mounts the SLO observatory on mux:
//
//	/debug/slo  burn-rate windows, latency quantiles, and overload
//	            gauges (?format=text for the aligned table)
func Register(mux *http.ServeMux, t *Tracker) {
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, req *http.Request) {
		snap := t.Snapshot()
		debughttp.Serve(w, req, snap.Text, snap)
	})
}
