// Command ssltop is the terminal observatory: it polls one or many
// sslserver instances' /debug/history endpoints and renders a live
// dashboard — handshake and bulk throughput sparklines, each tick's
// SLO burn rate (from the failed and slow handshake counters),
// connection-state counts, the fail-class top-K, and the paper's
// Table 2 anatomy shares as horizontal bars — refreshing in place like
// top(1).
//
//	ssltop :9090                      # one server, live
//	ssltop :9090 :9091 :9092          # a fleet, stacked panels
//	ssltop -once :9090                # one frame to stdout (scripts, tests)
//	ssltop -record run.ndjson :9090   # record frames while watching
//	ssltop -replay run.ndjson         # re-render a recorded run
//
// Everything ssltop shows is a history series, so the only endpoint it
// needs is /debug/history — a server started with -telemetry has it by
// default.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"sslperf/internal/history"
)

func main() {
	var (
		interval = flag.Duration("interval", time.Second, "refresh interval")
		once     = flag.Bool("once", false, "render one frame to stdout and exit")
		last     = flag.Int("last", 60, "points of history per sparkline")
		record   = flag.String("record", "", "append each frame as a JSON line to this file")
		replay   = flag.String("replay", "", "render frames from a recorded file instead of polling")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: ssltop [flags] [host:port ...]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *replay != "" {
		if err := replayRun(os.Stdout, *replay, *interval, *once); err != nil {
			fmt.Fprintln(os.Stderr, "ssltop:", err)
			os.Exit(1)
		}
		return
	}

	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"127.0.0.1:9090"}
	}

	var rec io.WriteCloser
	if *record != "" {
		f, err := os.OpenFile(*record, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssltop:", err)
			os.Exit(1)
		}
		rec = f
		defer f.Close()
	}

	client := &http.Client{Timeout: 5 * time.Second}
	if *once {
		frames := fetchAll(client, targets, *last, rec)
		os.Stdout.WriteString(renderFrames(frames))
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	t := time.NewTicker(*interval)
	defer t.Stop()
	for {
		frames := fetchAll(client, targets, *last, rec)
		// Clear and home, then draw — the classic top(1) refresh.
		os.Stdout.WriteString("\x1b[2J\x1b[H" + renderFrames(frames))
		select {
		case <-sig:
			fmt.Println()
			return
		case <-t.C:
		}
	}
}

// A frame is one target's snapshot (or the error fetching it).
type frame struct {
	Target string           `json:"target"`
	Snap   history.Snapshot `json:"snap"`
	Err    string           `json:"err,omitempty"`
}

// fetchAll polls every target once, recording frames when rec is set.
func fetchAll(client *http.Client, targets []string, last int, rec io.Writer) []frame {
	frames := make([]frame, len(targets))
	for i, target := range targets {
		frames[i] = fetchFrame(client, target, last)
		if rec != nil {
			b, err := json.Marshal(frames[i])
			if err == nil {
				rec.Write(append(b, '\n'))
			}
		}
	}
	return frames
}

// fetchFrame pulls one /debug/history snapshot. The target may be a
// bare host:port, a :port, or a full http:// URL.
func fetchFrame(client *http.Client, target string, last int) frame {
	f := frame{Target: target}
	url := target
	if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
		if strings.HasPrefix(url, ":") {
			url = "127.0.0.1" + url
		}
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + fmt.Sprintf("/debug/history?last=%d", last)
	resp, err := client.Get(url)
	if err != nil {
		f.Err = err.Error()
		return f
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.Err = fmt.Sprintf("%s: %s", url, resp.Status)
		return f
	}
	if err := json.NewDecoder(resp.Body).Decode(&f.Snap); err != nil {
		f.Err = err.Error()
	}
	return f
}

// replayRun re-renders a recorded ndjson file: each recorded polling
// round (one frame per target) becomes one screen. -once renders only
// the final round.
func replayRun(w io.Writer, path string, interval time.Duration, once bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var rounds [][]frame
	var cur []frame
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var fr frame
		if err := json.Unmarshal([]byte(line), &fr); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		// A repeated target starts the next polling round.
		if seen[fr.Target] {
			rounds = append(rounds, cur)
			cur, seen = nil, map[string]bool{}
		}
		seen[fr.Target] = true
		cur = append(cur, fr)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(cur) > 0 {
		rounds = append(rounds, cur)
	}
	if len(rounds) == 0 {
		return fmt.Errorf("%s: no frames", path)
	}
	if once {
		io.WriteString(w, renderFrames(rounds[len(rounds)-1]))
		return nil
	}
	for i, round := range rounds {
		io.WriteString(w, "\x1b[2J\x1b[H"+renderFrames(round))
		if i < len(rounds)-1 {
			time.Sleep(interval)
		}
	}
	return nil
}

// renderFrames stacks one panel per target.
func renderFrames(frames []frame) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ssltop — %s\n", time.Now().Format("15:04:05"))
	for i := range frames {
		b.WriteString(renderPanel(&frames[i]))
	}
	return b.String()
}

// lastVal returns the named series' most recent point (0 when absent).
func lastVal(s history.Snapshot, name string) float64 {
	sd, _ := s.Get(name)
	return sd.Last
}

// renderPanel draws one server's dashboard.
func renderPanel(f *frame) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n── %s ", f.Target)
	b.WriteString(strings.Repeat("─", max(0, 64-len(f.Target))))
	b.WriteByte('\n')
	if f.Err != "" {
		fmt.Fprintf(&b, "  unreachable: %s\n", f.Err)
		return b.String()
	}
	s := f.Snap
	if len(s.Series) == 0 {
		b.WriteString("  (no history yet)\n")
		return b.String()
	}

	// Throughput sparklines: handshakes (full+resumed summed
	// point-wise), bulk bytes out.
	hs := sumSeries(s, "handshakes.full", "handshakes.resumed")
	fmt.Fprintf(&b, "  handshakes %8.1f/s  %s\n", tail(hs), history.Sparkline(hs, 40))
	if sd, ok := s.Get("bytes.out"); ok {
		fmt.Fprintf(&b, "  bulk out   %8s/s  %s\n", humanBytes(sd.Last), history.Sparkline(sd.Points, 40))
	}
	if _, ok := s.Get("handshakes.slow"); ok {
		// Each tick's burn rate, by the rule /debug/slo's windows use.
		burn := sumSeries(s, "handshakes.failed", "handshakes.slow")
		total := sumSeries(s, "handshakes.full", "handshakes.resumed", "handshakes.failed")
		for i := range burn {
			burn[i] = history.BurnRate(burn[i], total[i])
		}
		status := "ok"
		if tail(burn) > 1 {
			status = "BURNING"
		}
		fmt.Fprintf(&b, "  slo burn   %8.2fx   %s  p99 %.0fus inflight %.0f  [%s]\n",
			tail(burn), history.Sparkline(burn, 40),
			lastVal(s, "slo.p99_us"), lastVal(s, "conns.handshaking"), status)
	}

	// Connection states.
	if _, ok := s.Get("conns.live"); ok {
		fmt.Fprintf(&b, "  conns      live %.0f  accepted %.0f  handshaking %.0f  established %.0f\n",
			lastVal(s, "conns.live"), lastVal(s, "conns.accepted"),
			lastVal(s, "conns.handshaking"), lastVal(s, "conns.established"))
	}

	// Fail-class top-K by window total.
	type failRow struct {
		tag string
		sum float64
	}
	var fails []failRow
	for i := range s.Series {
		sd := &s.Series[i]
		if strings.HasPrefix(sd.Name, "fail.") && sd.Sum > 0 {
			fails = append(fails, failRow{strings.TrimPrefix(sd.Name, "fail."), sd.Sum})
		}
	}
	if len(fails) > 0 {
		sort.Slice(fails, func(i, j int) bool { return fails[i].sum > fails[j].sum })
		if len(fails) > 5 {
			fails = fails[:5]
		}
		b.WriteString("  failures  ")
		for _, fr := range fails {
			fmt.Fprintf(&b, " %s=%.0f", fr.tag, fr.sum)
		}
		b.WriteByte('\n')
	}

	// Anatomy: Table 2 shares as horizontal bars, largest first.
	type stepRow struct {
		name  string
		share float64
	}
	var steps []stepRow
	for i := range s.Series {
		sd := &s.Series[i]
		if name, ok := strings.CutPrefix(sd.Name, "anatomy.share."); ok && sd.Last > 0 {
			steps = append(steps, stepRow{name, sd.Last})
		}
	}
	if len(steps) > 0 {
		sort.Slice(steps, func(i, j int) bool { return steps[i].share > steps[j].share })
		fmt.Fprintf(&b, "  anatomy (crypto %.1f%%):\n", lastVal(s, "anatomy.crypto_share"))
		for _, st := range steps {
			bar := strings.Repeat("█", min(40, int(st.share*0.4+0.5)))
			fmt.Fprintf(&b, "    %-32s %5.1f%% %s\n", st.name, st.share, bar)
		}
	}

	// Pathlength gauges, when the window moved bytes; the stitched
	// AES+SHA-1 seal only where it ran.
	c, m, st := lastVal(s, "pathlen.cipher_cyc_b"), lastVal(s, "pathlen.mac_cyc_b"), lastVal(s, "pathlen.stitched_cyc_b")
	if c > 0 || m > 0 || st > 0 {
		fmt.Fprintf(&b, "  pathlen    cipher %.1f cyc/B  mac %.1f cyc/B", c, m)
		if st > 0 {
			fmt.Fprintf(&b, "  stitched %.1f cyc/B", st)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sumSeries adds the named series point-wise (shorter tails align at
// the end, matching how the rings fill).
func sumSeries(s history.Snapshot, names ...string) []float64 {
	var out []float64
	for _, name := range names {
		sd, ok := s.Get(name)
		if !ok {
			continue
		}
		if len(sd.Points) > len(out) {
			grown := make([]float64, len(sd.Points))
			copy(grown[len(sd.Points)-len(out):], out)
			out = grown
		}
		off := len(out) - len(sd.Points)
		for i, v := range sd.Points {
			out[off+i] += v
		}
	}
	return out
}

// tail returns the last point (0 for an empty series).
func tail(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return vals[len(vals)-1]
}

// humanBytes renders a byte rate compactly.
func humanBytes(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fGB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fMB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fkB", v/1e3)
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}
