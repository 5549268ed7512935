package history

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"sslperf/internal/debughttp"
)

// Register mounts the observatory's HTTP surface on mux:
//
//	/debug/history       — ring snapshot (?series=a,b&res=fine|coarse&last=N)
//	/debug/watch         — streaming newline-delimited JSON deltas
//	                       (?series=a,b&interval=dur), one line per fine
//	                       tick until the client disconnects
func Register(mux *http.ServeMux, h *History) {
	mux.HandleFunc("/debug/history", func(w http.ResponseWriter, req *http.Request) {
		opts, err := parseSnapshotOptions(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		snap := h.Snapshot(opts)
		debughttp.Serve(w, req, snap.Text, snap)
	})
	mux.HandleFunc("/debug/watch", func(w http.ResponseWriter, req *http.Request) {
		serveWatch(w, req, h)
	})
}

// parseSnapshotOptions maps the query onto SnapshotOptions: ?series=
// comma-separated names (absent = all), ?res= fine|coarse (or the
// literal step labels "1s"/"10s"), ?last=N.
func parseSnapshotOptions(req *http.Request) (SnapshotOptions, error) {
	var opts SnapshotOptions
	q := req.URL.Query()
	if s := q.Get("series"); s != "" {
		opts.Series = strings.Split(s, ",")
	}
	switch res := q.Get("res"); res {
	case "", "fine", "1s":
		// fine (default)
	case "coarse", "10s":
		opts.Coarse = true
	default:
		return opts, fmt.Errorf("unknown res %q (want fine or coarse)", res)
	}
	if ls := q.Get("last"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			return opts, fmt.Errorf("bad last %q", ls)
		}
		opts.Last = n
	}
	return opts, nil
}

// serveWatch streams one JSON line per fine tick: it polls DeltasSince
// at the requested interval (default: the fine resolution) and flushes
// each delta as it lands, ending when the client goes away. The stream
// is plain ndjson so `curl -N` and ssltop read it alike.
func serveWatch(w http.ResponseWriter, req *http.Request, h *History) {
	if h == nil {
		http.Error(w, "history disabled", http.StatusNotFound)
		return
	}
	var names []string
	if s := req.URL.Query().Get("series"); s != "" {
		names = strings.Split(s, ",")
	}
	interval := h.Interval()
	if is := req.URL.Query().Get("interval"); is != "" {
		d, err := time.ParseDuration(is)
		if err != nil || d <= 0 {
			http.Error(w, fmt.Sprintf("bad interval %q", is), http.StatusBadRequest)
			return
		}
		interval = d
	}
	// Poll a bit faster than the sampler so line latency stays under
	// one tick even when the phases drift.
	poll := interval / 2
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}

	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}

	enc := json.NewEncoder(w)
	cursor := h.Seq()
	// Deliver the current tick immediately (if any) so a client
	// attaching mid-run sees data before the next tick lands.
	if cursor > 0 {
		cursor--
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		deltas, next := h.DeltasSince(cursor, names)
		cursor = next
		for i := range deltas {
			if err := enc.Encode(&deltas[i]); err != nil {
				return
			}
		}
		if len(deltas) > 0 && flusher != nil {
			flusher.Flush()
		}
		select {
		case <-req.Context().Done():
			return
		case <-t.C:
		}
	}
}

// sparkRunes are the eight-level bars the text rendering and ssltop
// share.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders vals as a fixed-width unicode sparkline scaled to
// the slice's own min/max (a flat series renders as all-low bars).
func Sparkline(vals []float64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	// Downsample to width points by bucket means, oldest first.
	pts := vals
	if len(vals) > width {
		pts = make([]float64, width)
		for i := 0; i < width; i++ {
			lo := i * len(vals) / width
			hi := (i + 1) * len(vals) / width
			if hi <= lo {
				hi = lo + 1
			}
			var sum float64
			for _, v := range vals[lo:hi] {
				sum += v
			}
			pts[i] = sum / float64(hi-lo)
		}
	}
	mn, mx := pts[0], pts[0]
	for _, v := range pts {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	out := make([]rune, len(pts))
	for i, v := range pts {
		level := 0
		if mx > mn {
			level = int((v - mn) / (mx - mn) * float64(len(sparkRunes)-1))
			if level < 0 {
				level = 0
			}
			if level >= len(sparkRunes) {
				level = len(sparkRunes) - 1
			}
		}
		out[i] = sparkRunes[level]
	}
	return string(out)
}

// Text renders the snapshot as an aligned table with a sparkline per
// series — the curl-friendly view.
func (s Snapshot) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "history @ %s  res=%s  seq=%d\n\n",
		s.At.Format(time.RFC3339), s.Res, s.Seq)
	if len(s.Series) == 0 {
		b.WriteString("(no series)\n")
		return b.String()
	}
	nameW := len("series")
	for i := range s.Series {
		if n := len(s.Series[i].Name); n > nameW {
			nameW = n
		}
	}
	fmt.Fprintf(&b, "%-*s  %10s  %10s  %10s  %10s  %-9s  %s\n",
		nameW, "series", "last", "min", "max", "mean", "unit", "trend")
	byName := make(map[string]SeriesData, len(s.Series))
	names := make([]string, 0, len(s.Series))
	for i := range s.Series {
		byName[s.Series[i].Name] = s.Series[i]
		names = append(names, s.Series[i].Name)
	}
	sort.Strings(names)
	for _, name := range names {
		sd := byName[name]
		fmt.Fprintf(&b, "%-*s  %10s  %10s  %10s  %10s  %-9s  %s\n",
			nameW, sd.Name,
			fmtVal(sd.Last), fmtVal(sd.Min), fmtVal(sd.Max), fmtVal(sd.Mean),
			sd.Unit, Sparkline(sd.Points, 40))
	}
	return b.String()
}

// fmtVal renders a point compactly: integers as integers, large values
// with SI-ish suffixes, small fractions with precision.
func fmtVal(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case av >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	case av == 0:
		return "0"
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}
