package history

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"sslperf/internal/debughttp"
	"sslperf/internal/telemetry"
)

// ErrorBudget is the SLO's allowed fraction of failed-or-slow
// handshakes (a 99% objective).
const ErrorBudget = 0.01

// BurnRate is the rate bad (failed or slow) handshakes out of total
// spend the error budget at: 1.0 spends it exactly, 10 ten times too
// fast. It is 0 when there were no handshakes.
func BurnRate(bad, total float64) float64 {
	if total == 0 {
		return 0
	}
	return bad / total / ErrorBudget
}

// sloWindows are the view's windows, shortest first.
var sloWindows = []struct {
	name string
	d    time.Duration
}{{"10s", 10 * time.Second}, {"1m", time.Minute}, {"5m", 5 * time.Minute}}

// sloSeries are the series the view reads.
var sloSeries = []string{
	"handshakes.full", "handshakes.resumed", "handshakes.failed", "handshakes.slow", "handshakes.time_us",
	"queue.delays", "queue.delay_us", "slo.p99_us", "queue.max_us", "conns.handshaking",
}

// WindowStats is one window's aggregated view. Seconds is the span the
// ring actually holds, which is shorter than the window while the
// server is younger than it or just after a reset: the baseline sample
// taken at start or after a Reset adds no time to it.
type WindowStats struct {
	Window  string  `json:"window"`
	Seconds float64 `json:"seconds"`

	Handshakes uint64 `json:"handshakes"`
	Failed     uint64 `json:"failed"`
	Slow       uint64 `json:"slow"` // successes over target

	ErrorRate float64 `json:"error_rate"`
	BadRate   float64 `json:"bad_rate"` // (failed+slow)/handshakes
	// BurnRate is BadRate over the error budget — the 10s window spikes
	// before the 5m one confirms, the early signal load shedding needs
	// before queues reach the RSA step.
	BurnRate float64 `json:"burn_rate"`

	// MeanUs is the successes' mean latency; P99Us is the worst tick's
	// p99 of it.
	MeanUs float64 `json:"mean_us"`
	P99Us  float64 `json:"p99_us"`

	QueueDelays   uint64  `json:"queue_delays"`
	QueueMeanUs   float64 `json:"queue_mean_us"`
	QueueMaxUs    float64 `json:"queue_max_us"`
	HandshakeRate float64 `json:"handshakes_per_sec"`
}

// An SLOSnapshot is the /debug/slo body.
type SLOSnapshot struct {
	At          time.Time     `json:"at"`
	TargetP99Ms float64       `json:"target_p99_ms"`
	ErrorBudget float64       `json:"error_budget"`
	InFlight    int64         `json:"inflight_handshakes"`
	Windows     []WindowStats `json:"windows"`
}

// SLO is the /debug/slo view: the fine ring summed into the three
// windows, judged against target and ErrorBudget. A nil history has no
// windows.
func (h *History) SLO(target time.Duration) SLOSnapshot {
	snap := SLOSnapshot{TargetP99Ms: float64(target) / 1e6, ErrorBudget: ErrorBudget}
	if h == nil {
		snap.At = time.Now()
		return snap
	}
	for _, w := range sloWindows {
		s := h.Snapshot(SnapshotOptions{Series: sloSeries, Last: max(1, int(w.d/h.interval))})
		snap.At = s.At
		sd := func(name string) SeriesData { d, _ := s.Get(name); return d }
		ticks := len(sd("handshakes.full").Points)
		if s.baseline {
			ticks--
		}
		ws := WindowStats{
			Window:      w.name,
			Seconds:     float64(ticks) * s.StepSecs,
			Failed:      uint64(sd("handshakes.failed").Sum),
			Slow:        uint64(sd("handshakes.slow").Sum),
			P99Us:       sd("slo.p99_us").Max,
			QueueDelays: uint64(sd("queue.delays").Sum),
			QueueMaxUs:  sd("queue.max_us").Max,
		}
		done := uint64(sd("handshakes.full").Sum + sd("handshakes.resumed").Sum)
		ws.Handshakes = done + ws.Failed
		if ws.Handshakes > 0 {
			ws.ErrorRate = float64(ws.Failed) / float64(ws.Handshakes)
			ws.BadRate = float64(ws.Failed+ws.Slow) / float64(ws.Handshakes)
			ws.BurnRate = BurnRate(float64(ws.Failed+ws.Slow), float64(ws.Handshakes))
			ws.HandshakeRate = float64(ws.Handshakes) / ws.Seconds
		}
		if done > 0 {
			ws.MeanUs = sd("handshakes.time_us").Sum / float64(done)
		}
		if ws.QueueDelays > 0 {
			ws.QueueMeanUs = sd("queue.delay_us").Sum / float64(ws.QueueDelays)
		}
		snap.InFlight = int64(sd("conns.handshaking").Last)
		snap.Windows = append(snap.Windows, ws)
	}
	return snap
}

// Text renders the snapshot as an aligned table.
func (s SLOSnapshot) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SLO: handshake p99 target %.1fms, error budget %.2f%%, %d handshakes in flight\n",
		s.TargetP99Ms, s.ErrorBudget*100, s.InFlight)
	fmt.Fprintf(&sb, "%-6s %6s %10s %8s %6s %6s %9s %8s %9s %9s %10s %10s\n",
		"window", "secs", "handshakes", "hs/s", "failed", "slow", "err-rate", "burn", "mean-us", "p99-us", "q-mean-us", "q-max-us")
	for _, w := range s.Windows {
		fmt.Fprintf(&sb, "%-6s %6.0f %10d %8.1f %6d %6d %8.2f%% %8.2f %9.0f %9.0f %10.0f %10.0f\n",
			w.Window, w.Seconds, w.Handshakes, w.HandshakeRate, w.Failed, w.Slow, w.ErrorRate*100,
			w.BurnRate, w.MeanUs, w.P99Us, w.QueueMeanUs, w.QueueMaxUs)
	}
	return sb.String()
}

// RegisterSLO mounts the SLO view of h on mux, judged against reg's
// SLO target and ErrorBudget:
//
//	/debug/slo  burn-rate windows, worst-tick p99 and overload gauges
//	            (?format=text for the aligned table)
func RegisterSLO(mux *http.ServeMux, h *History, reg *telemetry.Registry) {
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, req *http.Request) {
		snap := h.SLO(reg.SLOTarget())
		debughttp.Serve(w, req, snap.Text, snap)
	})
}
