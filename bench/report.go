package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"
)

// A metricDef names an end-to-end metric, its unit, which direction is
// better, and the share of the baseline's median by which it may get
// worse before that counts as a regression. BENCHMARK.json carries the
// same table for the driver; TestBenchmarkJSONMatches keeps the two
// equal.
type metricDef struct {
	Name         string
	Unit         string
	HigherBetter bool
	Bound        float64
}

// endToEnd lists what a user of the server would see, per workload.
// The bounds are three times the widest run-to-run spread measured on
// the sandbox (README.md, "Bounds"), capped at the driver's 0.25.
// fail_ratio is 0 on a healthy run, so it cannot carry a relative
// bound: any rise is a regression. The driver reads it from the
// attempted/failed counts of the result line instead.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", true, 0.25},
	{"goodput_MBps", "MB/s", true, 0.25},
	{"lat_p50_ms", "ms", false, 0.25},
	{"server_cpu_us_per_op", "us", false, 0.25},
	{"server_rss_peak_mb", "MB", false, 0.15},
	{"setup_s", "s", false, 0.25},
	{"fail_ratio", "ratio", false, 0},
}

// perLayer lists the metrics of single layers a traced run reports,
// grouped by layer; README.md says which end-to-end metric on which
// workload each should move. They carry no bound. HigherBetter is
// false for all but the tracing ratio: times, allocations, bytes and
// writes are costs.
var perLayer = []metricDef{
	{Name: "bn.exp512_us", Unit: "us"},
	{Name: "bn.exp512_allocs", Unit: "count"},
	{Name: "bn.mulmont512_ns", Unit: "ns"},
	{Name: "rsa.decrypt1024_us", Unit: "us"},
	{Name: "rsa.decrypt1024_allocs", Unit: "count"},
	{Name: "rsa.decrypt1024_alloc_kb", Unit: "KB"},
	{Name: "rsa.encrypt1024_us", Unit: "us"},
	{Name: "sslcrypto.kdf_us", Unit: "us"},
	{Name: "sslcrypto.finished_us", Unit: "us"},
	{Name: "sslcrypto.mac16k_sha1_us", Unit: "us"},
	{Name: "sslcrypto.mac256_md5_ns", Unit: "ns"},
	{Name: "suite.aes128cbc_16k_us", Unit: "us"},
	{Name: "suite.rc4_256_ns", Unit: "ns"},
	{Name: "suite.des3cbc_1k_us", Unit: "us"},
	{Name: "record.seal16k_us", Unit: "us"},
	{Name: "record.open16k_us", Unit: "us"},
	{Name: "record.seal16k_allocs", Unit: "count"},
	{Name: "record.flight1m_ms", Unit: "ms"},
	{Name: "record.flight1m_writes", Unit: "count"},
	{Name: "record.flight1m_alloc_kb", Unit: "KB"},
	{Name: "record.seal256_ns", Unit: "ns"},
	{Name: "record.open256_ns", Unit: "ns"},
	{Name: "record.seal256_allocs", Unit: "count"},
	{Name: "ssl.hs_full_server_us", Unit: "us"},
	{Name: "ssl.hs_full_client_us", Unit: "us"},
	{Name: "ssl.hs_full_nonrsa_us", Unit: "us"},
	{Name: "ssl.hs_full_allocs", Unit: "count"},
	{Name: "ssl.hs_full_alloc_kb", Unit: "KB"},
	{Name: "ssl.hs_full_wire_bytes", Unit: "bytes"},
	{Name: "ssl.hs_resumed_server_us", Unit: "us"},
	{Name: "ssl.hs_resumed_client_us", Unit: "us"},
	{Name: "ssl.hs_resumed_allocs", Unit: "count"},
	{Name: "ssl.hs_resumed_wire_bytes", Unit: "bytes"},
	{Name: "ssl.write1m_ms", Unit: "ms"},
	{Name: "ssl.read1m_ms", Unit: "ms"},
	{Name: "ssl.echo256_ns", Unit: "ns"},
	{Name: "ssl.echo256_allocs", Unit: "count"},
	{Name: "sslserver.cpu_user_us_per_op", Unit: "us"},
	{Name: "sslserver.cpu_sys_us_per_op", Unit: "us"},
	{Name: "sslserver.ctx_switches_per_op", Unit: "count"},
	{Name: "client.connect_us_p50", Unit: "us"},
	{Name: "client.handshake_us_p50", Unit: "us"},
	{Name: "client.request_us_p50", Unit: "us"},
	{Name: "client.lat_p90_ms", Unit: "ms"},
	{Name: "client.lat_p99_ms", Unit: "ms"},
	{Name: "client.lat_max_ms", Unit: "ms"},
	{Name: "client.cpu_us_per_op", Unit: "us"},
	{Name: "client.trace_overhead_ratio", Unit: "ratio", HigherBetter: true},
	{Name: "host.calib_ms", Unit: "ms"},
}

// header says where and how a result was measured.
type header struct {
	Seed          uint64  `json:"seed"`
	Pinning       pinning `json:"pinning"`
	Clients       int     `json:"clients"`
	GoVersion     string  `json:"go_version"`
	Rounds        int     `json:"rounds"`
	RoundSeconds  float64 `json:"round_seconds"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	Traced        bool    `json:"traced"`
	Start         string  `json:"start"`
}

func (h *header) print(w io.Writer) {
	pinned := "no"
	if h.Pinning.Pinned {
		pinned = fmt.Sprintf("yes (server CPUs %v, generator CPUs %v)", h.Pinning.ServerCPUs, h.Pinning.ClientCPUs)
	} else if h.Pinning.Note != "" {
		pinned = "no (" + h.Pinning.Note + ")"
	}
	fmt.Fprintf(w, "sslperf bench: nproc=%d pinned=%s %s seed=%d\n", h.Pinning.Nproc, pinned, h.GoVersion, h.Seed)
	fmt.Fprintf(w, "closed loop, %d client goroutines, %d rounds of %.2fs measured + %.1fs warm-up per workload, traced=%v\n\n",
		h.Clients, h.Rounds, h.RoundSeconds, h.WarmupSeconds, h.Traced)
}

// workloadResult is one workload's numbers.
type workloadResult struct {
	Name      string `json:"name"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Primed    int64  `json:"primed"` // unmeasured priming ops inside a window (0 unless something failed)
	Samples   int    `json:"latency_samples"`
	FirstErr  string `json:"first_error,omitempty"`

	EndToEnd map[string]metric `json:"end_to_end"`
	// PerLayer holds host.calib_ms always and, in a traced run, the
	// sslserver.* and client.* metrics of this workload.
	PerLayer map[string]metric `json:"per_layer"`
}

// result is what -out writes and -compare reads.
type result struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
	// Layers holds the workload-independent layer probes of a traced run.
	Layers map[string]metric `json:"per_layer,omitempty"`
}

// fill turns a workload's rounds into its metrics.
func (wr *workloadResult) fill(g *generator, all []roundStats, calib []float64, traced bool) error {
	wr.Attempted, wr.Failed, wr.Primed, wr.Samples = g.attempted, g.failed, g.primed, len(g.allLat)
	if g.firstErr != nil {
		wr.FirstErr = g.firstErr.Error()
	}
	rss, err := readPeakRSSMB(g.srv.pid())
	if err != nil {
		return fmt.Errorf("%s: %w", g.w.Name, err)
	}
	wr.EndToEnd["server_rss_peak_mb"] = single("MB", rss)
	wr.EndToEnd["fail_ratio"] = single("ratio", float64(wr.Failed)/float64(wr.Attempted))
	wr.PerLayer = map[string]metric{"host.calib_ms": ofRounds("ms", calib)}

	var plain, tr []roundStats
	for _, rs := range all {
		if rs.Traced {
			tr = append(tr, rs)
		} else {
			plain = append(plain, rs)
		}
	}
	slicesOf := func(rs []roundStats) [][]slice {
		v := make([][]slice, len(rs))
		for i, r := range rs {
			v[i] = r.Slices
		}
		return v
	}
	cpuPerOp := func(q slice) float64 { return us(q.CPU) / float64(len(q.Lat)) }
	wr.EndToEnd["ops_per_s"] = ofQuiet("1/s", slicesOf(plain), slice.rate)
	wr.EndToEnd["goodput_MBps"] = ofQuiet("MB/s", slicesOf(plain), func(q slice) float64 {
		return q.rate() * float64(g.w.FileSize) / 1e6
	})
	wr.EndToEnd["lat_p50_ms"] = ofQuiet("ms", slicesOf(plain), func(q slice) float64 {
		v, _ := percentile(q.Lat, 0.5)
		return ms(v)
	})
	wr.EndToEnd["server_cpu_us_per_op"] = ofQuiet("us", slicesOf(plain), cpuPerOp)
	if !traced {
		return nil
	}

	// /proc counts CPU in 10 ms ticks, too coarse to split user from
	// system over one short window, so these are totals over every
	// traced window.
	var ops, ctx int64
	var cpu cpuTimes
	for _, r := range tr {
		ops, ctx = ops+r.Ops, ctx+r.CtxSwitch
		cpu.User, cpu.Sys = cpu.User+r.ServerCPU.User, cpu.Sys+r.ServerCPU.Sys
	}
	wr.PerLayer["sslserver.cpu_user_us_per_op"] = single("us", us(cpu.User)/float64(ops))
	wr.PerLayer["sslserver.cpu_sys_us_per_op"] = single("us", us(cpu.Sys)/float64(ops))
	wr.PerLayer["sslserver.ctx_switches_per_op"] = single("count", float64(ctx)/float64(ops))
	clientCPU := make([]float64, len(tr))
	for i, r := range tr {
		clientCPU[i] = us(r.ClientCPU) / float64(r.Ops)
	}
	wr.PerLayer["client.cpu_us_per_op"] = ofRounds("us", clientCPU)
	wr.PerLayer["client.trace_overhead_ratio"] = single("ratio",
		ofQuiet("1/s", slicesOf(tr), slice.rate).Value/wr.EndToEnd["ops_per_s"].Value)

	// Step medians come from the spans; a persistent workload connects
	// and handshakes in set-up only, so there those are set-up's spans.
	byKind := map[spanKind][]time.Duration{}
	for _, s := range g.spans() {
		byKind[s.Kind] = append(byKind[s.Kind], time.Duration(s.End-s.Start))
	}
	for kind, name := range map[spanKind]string{
		spanConnect: "client.connect_us_p50", spanHandshake: "client.handshake_us_p50", spanRequest: "client.request_us_p50",
	} {
		d := byKind[kind]
		if len(d) == 0 {
			return fmt.Errorf("%s: traced run recorded no %s span", g.w.Name, spanNames[kind])
		}
		slices.Sort(d)
		v, _ := percentile(d, 0.5)
		wr.PerLayer[name] = single("us", us(v))
	}

	// The tail comes from every measured op of the run, traced or not:
	// latency is taken the same way in both halves.
	lat := g.allLat
	slices.Sort(lat)
	p90, _ := tailPercentile(lat, 0.90)
	p99, used := tailPercentile(lat, 0.99)
	if used != 0.99 {
		fmt.Printf("note: %s: fewer than %d of %d samples lie beyond p99; client.lat_p99_ms holds p%g\n",
			g.w.Name, minBeyond, len(lat), used*100)
	}
	wr.PerLayer["client.lat_p90_ms"] = single("ms", ms(p90))
	wr.PerLayer["client.lat_p99_ms"] = single("ms", ms(p99))
	wr.PerLayer["client.lat_max_ms"] = single("ms", ms(lat[len(lat)-1]))
	return nil
}

// correct reports whether every op of every workload passed its checks.
func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed != 0 {
			return false
		}
	}
	return true
}

// sortedNames returns the keys of m in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

func printMetric(w io.Writer, name string, m metric) {
	fmt.Fprintf(w, "  %-34s %14.4f %-6s", name, m.Value, m.Unit)
	if len(m.Rounds) > 0 {
		fmt.Fprintf(w, " [min %.4f max %.4f over %d]", m.Min, m.Max, len(m.Rounds))
	}
	fmt.Fprintln(w)
}

// print writes every metric by name with its unit.
func (r *result) print(w io.Writer) {
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "%s: %d ops attempted, %d failed, %d latency samples\n", wl.Name, wl.Attempted, wl.Failed, wl.Samples)
		if wl.FirstErr != "" {
			fmt.Fprintf(w, "  first error: %s\n", wl.FirstErr)
		}
		for _, d := range endToEnd {
			printMetric(w, d.Name, wl.EndToEnd[d.Name])
		}
		for _, name := range sortedNames(wl.PerLayer) {
			printMetric(w, name, wl.PerLayer[name])
		}
		fmt.Fprintln(w)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintln(w, "layer probes (in-process, workload-independent):")
		for _, name := range sortedNames(r.Layers) {
			printMetric(w, name, r.Layers[name])
		}
		fmt.Fprintln(w)
	}
}

// driverLine is the one-workload result object of the driver's
// contract: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func (r *result) driverLine() (map[string]any, error) {
	wl := r.Workloads[0]
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if r.Header.Traced {
		for _, d := range perLayer {
			m, ok := r.Layers[d.Name]
			if !ok {
				m, ok = wl.PerLayer[d.Name]
			}
			if !ok || m.Unit != d.Unit {
				return nil, fmt.Errorf("traced run lacks per-layer metric %s in %s", d.Name, d.Unit)
			}
			metrics[d.Name] = mv{m.Value, m.Unit}
		}
		if n := len(r.Layers) + len(wl.PerLayer); n != len(perLayer) {
			return nil, fmt.Errorf("traced run measured %d per-layer metrics, the table lists %d", n, len(perLayer))
		}
	} else {
		for _, d := range endToEnd {
			if d.Bound > 0 {
				metrics[d.Name] = mv{wl.EndToEnd[d.Name].Value, d.Unit}
			}
		}
	}
	return map[string]any{
		"correct":   r.correct(),
		"attempted": wl.Attempted,
		"failed":    wl.Failed,
		"metrics":   metrics,
	}, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeSpans writes the generator's spans, one JSON object per line.
// Spans of one op share its id; every step's parent is the op span.
func writeSpans(path string, spans map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, wl := range workloads {
		for _, s := range spans[wl.Name] {
			parent := `"op"`
			if s.Kind == spanOp {
				parent = "null"
			}
			fmt.Fprintf(w, `{"workload":%q,"op":%d,"span":%q,"parent":%s,"start_ns":%d,"end_ns":%d}`+"\n",
				wl.Name, s.Op, spanNames[s.Kind], parent, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// A verdict says how b's value stands against a's.
type verdict string

const (
	same   verdict = "same"
	worse  verdict = "WORSE"
	better verdict = "BETTER"
)

// judge compares b with a: the relative difference (b-a)/a, and
// whether it exceeds the metric's bound towards worse or better. With
// a baseline of 0 any move away from it exceeds every bound.
func judge(d metricDef, a, b float64) (rel float64, v verdict) {
	switch {
	case a == b:
		return 0, same
	case a == 0:
		rel = math.Inf(1)
		if b < 0 {
			rel = math.Inf(-1)
		}
	default:
		rel = (b - a) / math.Abs(a)
	}
	if math.Abs(rel) <= d.Bound {
		return rel, same
	}
	if (rel > 0) == d.HigherBetter {
		return rel, better
	}
	return rel, worse
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &result{}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints every end-to-end metric × workload of two result
// files side by side and reports whether they agree within the bounds.
func compareFiles(w io.Writer, pathA, pathB string) (agree bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b *result) (agree bool, err error) {
	if len(a.Workloads) != len(b.Workloads) {
		return false, fmt.Errorf("the files hold %d and %d workloads", len(a.Workloads), len(b.Workloads))
	}
	byName := map[string]*workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	agree = true
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %9s %6s  %s\n", "workload", "metric", "a", "b", "(b-a)/a", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			return false, fmt.Errorf("workload %s is in the first file only", wa.Name)
		}
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				return false, fmt.Errorf("%s: metric %s missing from a result file", wa.Name, d.Name)
			}
			rel, v := judge(d, ma.Value, mb.Value)
			if v != same {
				agree = false
			}
			fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f %+8.1f%% %5.0f%%  %s\n",
				wa.Name, d.Name+" ("+d.Unit+")", ma.Value, mb.Value, rel*100, d.Bound*100, v)
		}
	}
	fmt.Fprintln(w, strings.Repeat("-", 40))
	if agree {
		fmt.Fprintln(w, "agree: every pair is within its bound")
	} else {
		fmt.Fprintln(w, "DISAGREE: at least one pair differs by more than its bound")
	}
	return agree, nil
}
