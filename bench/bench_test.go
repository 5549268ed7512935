package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Millisecond
	}
	return d
}

func TestPercentileIsExact(t *testing.T) {
	d := durations(1000) // 1ms … 1000ms
	for _, c := range []struct {
		q      float64
		want   time.Duration
		beyond int
	}{
		{0.5, 500 * time.Millisecond, 500},
		{0.9, 900 * time.Millisecond, 100},
		{0.99, 990 * time.Millisecond, 10},
		{0.999, 999 * time.Millisecond, 1},
		{1, 1000 * time.Millisecond, 0},
		{0, 1 * time.Millisecond, 999},
	} {
		got, beyond := percentile(d, c.q)
		if got != c.want || beyond != c.beyond {
			t.Errorf("percentile(1..1000ms, %v) = %v with %d beyond, want %v with %d", c.q, got, beyond, c.want, c.beyond)
		}
	}
	// Nearest rank never interpolates: the median of two samples is
	// the lower one, a value that was observed.
	if got, _ := percentile([]time.Duration{3, 9}, 0.5); got != 3 {
		t.Errorf("percentile({3,9}, 0.5) = %v, want 3", got)
	}
	if got, _ := percentile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("percentile({7}, 0.99) = %v, want 7", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		used float64
		want time.Duration
	}{
		{1000, 0.99, 0.99, 990 * time.Millisecond}, // exactly 10 beyond
		{999, 0.99, 0.9, 900 * time.Millisecond},   // 9 beyond p99: step down to p90
		{100, 0.99, 0.9, 90 * time.Millisecond},    // 1 beyond p99, 10 beyond p90
		{99, 0.99, 0.5, 50 * time.Millisecond},     // 9 beyond p90 too
		{100, 0.9, 0.9, 90 * time.Millisecond},
		{50, 0.9, 0.5, 25 * time.Millisecond},
		{5, 0.99, 0.5, 3 * time.Millisecond}, // the median is always reported
	} {
		got, used := tailPercentile(durations(c.n), c.q)
		if got != c.want || used != c.used {
			t.Errorf("tailPercentile(%d samples, %v) = %v at p%g, want %v at p%g", c.n, c.q, got, used*100, c.want, c.used*100)
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{9, 1}, 5},
		{[]float64{5, 1, 100}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{497, 563, 12, 520, 515}, 515}, // the polluted round does not move it
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	m := ofRounds("ms", in)
	if m.Value != 2 || m.Min != 1 || m.Max != 3 || m.Unit != "ms" {
		t.Errorf("ofRounds = %+v", m)
	}
	if in[0] != 3 || len(m.Rounds) != 3 || m.Rounds[0] != 3 {
		t.Errorf("ofRounds must keep the rounds in order, got %v (input now %v)", m.Rounds, in)
	}
}

func TestQuiet(t *testing.T) {
	mk := func(ops int, cpu time.Duration) slice {
		return slice{Dur: 100 * time.Millisecond, CPU: cpu, Lat: durations(ops)}
	}
	// Sixteen slices: two at ~500 ops/s, the rest slowed or stalled.
	all := []slice{mk(25, 1), mk(50, 2), mk(0, 3), mk(27, 4), mk(52, 5), mk(26, 6), mk(44, 7), mk(24, 8),
		mk(25, 1), mk(43, 1), mk(3, 1), mk(27, 1), mk(40, 1), mk(26, 1), mk(44, 1), mk(24, 1)}
	q := quiet(all)
	if q.Dur != 200*time.Millisecond || q.CPU != 7 || len(q.Lat) != 102 {
		t.Fatalf("quiet = %v, cpu %v, %d samples; want the two fastest slices (52 and 50 ops)", q.Dur, q.CPU, len(q.Lat))
	}
	if got := q.rate(); got != 510 {
		t.Errorf("rate = %v ops/s, want 510", got)
	}
	for i := 1; i < len(q.Lat); i++ {
		if q.Lat[i] < q.Lat[i-1] {
			t.Fatal("quiet latencies are not sorted")
		}
	}
	if len(all[0].Lat) != 25 || len(all[4].Lat) != 52 {
		t.Error("quiet reordered its input")
	}
	if got := quiet(all[:3]); len(got.Lat) != 50 {
		t.Errorf("fewer than eight slices must still yield the best one, got %d ops", len(got.Lat))
	}

	// The value is taken over the whole run's quiet eighth, the rounds
	// over their own: a slow round shows in min, not in the value.
	m := ofQuiet("1/s", [][]slice{all[:8], all[8:]}, slice.rate)
	if m.Value != 510 || m.Max != 520 || m.Min != 440 || len(m.Rounds) != 2 {
		t.Errorf("ofQuiet = %+v", m)
	}
}

const statFixture = "4242 (ssl server) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 " +
	"1588 162 0 0 20 0 7 0 123456 1271234560 3500 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"

func TestParseStat(t *testing.T) {
	c, err := parseStat(statFixture)
	if err != nil {
		t.Fatal(err)
	}
	if c.User != 15880*time.Millisecond || c.Sys != 1620*time.Millisecond {
		t.Errorf("utime %v stime %v, want 15.88s and 1.62s", c.User, c.Sys)
	}
	if c.total() != 17500*time.Millisecond {
		t.Errorf("total %v", c.total())
	}
	d := c.sub(cpuTimes{User: 880 * time.Millisecond, Sys: 620 * time.Millisecond})
	if d.User != 15*time.Second || d.Sys != time.Second {
		t.Errorf("sub = %+v", d)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 1 0 0"} {
		if _, err := parseStat(bad); err == nil {
			t.Errorf("parseStat(%q) did not fail", bad)
		}
	}
}

const statusFixture = `Name:	sslserver
Umask:	0022
State:	S (sleeping)
Tgid:	4242
Pid:	4242
VmPeak:	 1240284 kB
VmSize:	 1240284 kB
VmHWM:	   14840 kB
VmRSS:	   13992 kB
Threads:	7
Cpus_allowed_list:	0
voluntary_ctxt_switches:	31005
nonvoluntary_ctxt_switches:	417
`

func TestParseStatus(t *testing.T) {
	s, err := parseStatus(statusFixture)
	if err != nil {
		t.Fatal(err)
	}
	if s.VmHWMKB != 14840 || s.CtxSwitches != 31422 {
		t.Errorf("got %+v, want VmHWM 14840 kB and 31422 switches", s)
	}
	if _, err := parseStatus("Name:\tx\nvoluntary_ctxt_switches:\t5\n"); err == nil {
		t.Error("a status without nonvoluntary_ctxt_switches must fail")
	}
	if _, err := parseStatus(strings.Replace(statusFixture, "14840 kB", "lots", 1)); err == nil {
		t.Error("a malformed VmHWM must fail")
	}
}

func TestParseSchedstat(t *testing.T) {
	d, err := parseSchedstat("17223200621 9759797571 37895\n")
	if err != nil || d != 17223200621*time.Nanosecond {
		t.Errorf("got %v, %v", d, err)
	}
	for _, bad := range []string{"", "1 2", "x 2 3"} {
		if _, err := parseSchedstat(bad); err == nil {
			t.Errorf("parseSchedstat(%q) did not fail", bad)
		}
	}
}

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "ops_per_s", HigherBetter: true, Bound: 0.10}
	lower := metricDef{Name: "lat_p50_ms", HigherBetter: false, Bound: 0.10}
	anyRise := metricDef{Name: "fail_ratio", HigherBetter: false, Bound: 0}
	for _, c := range []struct {
		d    metricDef
		a, b float64
		rel  float64
		want verdict
	}{
		{higher, 500, 500, 0, same},
		{higher, 500, 455, -0.09, same},
		{higher, 500, 545, 0.09, same},
		{higher, 500, 440, -0.12, worse},
		{higher, 500, 560, 0.12, better},
		{lower, 4, 4.36, 0.09, same},
		{lower, 4, 4.48, 0.12, worse},
		{lower, 4, 3.52, -0.12, better},
		{anyRise, 0, 0, 0, same},
		{anyRise, 0, 0.001, math.Inf(1), worse},
		{anyRise, 0.002, 0.001, -0.5, better},
	} {
		rel, v := judge(c.d, c.a, c.b)
		if v != c.want || math.Abs(rel-c.rel) > 1e-9 && rel != c.rel {
			t.Errorf("judge(%s, %v → %v) = %+.3f %s, want %+.3f %s", c.d.Name, c.a, c.b, rel, v, c.rel, c.want)
		}
	}
}

// synthetic builds a result holding every end-to-end metric at v.
func synthetic(v map[string]float64) *result {
	wl := &workloadResult{Name: "full_handshake", Attempted: 1000, EndToEnd: map[string]metric{}}
	for _, d := range endToEnd {
		wl.EndToEnd[d.Name] = single(d.Unit, v[d.Name])
	}
	return &result{Workloads: []*workloadResult{wl}}
}

func TestCompareResults(t *testing.T) {
	base := map[string]float64{"ops_per_s": 500, "goodput_MBps": 0.5, "lat_p50_ms": 4, "server_cpu_us_per_op": 1700,
		"server_rss_peak_mb": 14, "setup_s": 0.1, "fail_ratio": 0}
	with := func(name string, v float64) *result {
		m := map[string]float64{}
		for k, x := range base {
			m[k] = x
		}
		m[name] = v
		return synthetic(m)
	}
	// Values just inside and well outside whatever bound the table
	// gives the metric.
	bound := map[string]float64{}
	for _, d := range endToEnd {
		bound[d.Name] = d.Bound
	}
	by := func(name string, bounds float64) *result {
		return with(name, base[name]*(1+bounds*bound[name]))
	}
	for _, c := range []struct {
		name  string
		b     *result
		agree bool
		word  string
	}{
		{"identical", synthetic(base), true, "agree"},
		{"throughput within its bound", by("ops_per_s", -0.9), true, "agree"},
		{"throughput fell", by("ops_per_s", -1.2), false, "WORSE"},
		{"throughput rose", by("ops_per_s", 1.2), false, "BETTER"},
		{"latency within its bound", by("lat_p50_ms", 0.9), true, "agree"},
		{"latency rose", by("lat_p50_ms", 1.2), false, "WORSE"},
		{"latency fell", by("lat_p50_ms", -1.2), false, "BETTER"},
		{"memory rose", by("server_rss_peak_mb", 1.2), false, "WORSE"},
		{"set-up rose", by("setup_s", 1.2), false, "WORSE"},
		{"a failure appeared", with("fail_ratio", 0.0001), false, "WORSE"},
	} {
		var out bytes.Buffer
		agree, err := compareResults(&out, synthetic(base), c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if agree != c.agree || !strings.Contains(out.String(), c.word) {
			t.Errorf("%s: agree=%v, want %v with %q in:\n%s", c.name, agree, c.agree, c.word, out.String())
		}
	}
	other := synthetic(base)
	other.Workloads[0].Name = "bulk_download"
	if _, err := compareResults(&bytes.Buffer{}, synthetic(base), other); err == nil {
		t.Error("comparing different workloads must fail")
	}
}

// decodedLine is the JSON line a driver run ends with, read back.
type decodedLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func driverLineOf(t *testing.T, r *result) decodedLine {
	t.Helper()
	line, err := r.driverLine()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var got decodedLine
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestDriverLine(t *testing.T) {
	r := synthetic(map[string]float64{"ops_per_s": 500, "setup_s": 0.1})
	got := driverLineOf(t, r)
	if !got.Correct || got.Attempted != 1000 || got.Failed != 0 {
		t.Errorf("got %+v", got)
	}
	// fail_ratio is 0 on a healthy run, so the line leaves it to the
	// attempted/failed counts.
	if len(got.Metrics) != len(endToEnd)-1 || got.Metrics["ops_per_s"].Value != 500 || got.Metrics["setup_s"].Unit != "s" {
		t.Errorf("metrics = %+v", got.Metrics)
	}
	if _, has := got.Metrics["fail_ratio"]; has {
		t.Error("fail_ratio must not be in the line")
	}

	r.Header.Traced = true
	if _, err := r.driverLine(); err == nil {
		t.Error("a traced line without the per-layer metrics must fail")
	}
	r.Layers = map[string]metric{}
	for _, d := range perLayer {
		r.Layers[d.Name] = single(d.Unit, 1)
	}
	if got := driverLineOf(t, r); len(got.Metrics) != len(perLayer) {
		t.Errorf("traced line holds %d metrics, want %d", len(got.Metrics), len(perLayer))
	}
	r.Workloads[0].Failed = 1
	if got := driverLineOf(t, r); got.Correct || got.Failed != 1 {
		t.Errorf("a failed op must show: %+v", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver
// reads, equal to the tables this program reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	var bounded []metricDef
	for _, d := range endToEnd {
		if d.Bound > 0 {
			bounded = append(bounded, d)
		}
	}
	if len(doc.EndToEnd) != len(bounded) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d bounded ones in the program", len(doc.EndToEnd), len(bounded))
	}
	for i, d := range bounded {
		got := doc.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != better(d.HigherBetter) || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, got, d)
		}
		if d.Bound > 0.25 {
			t.Errorf("%s: bound %v exceeds 0.25", d.Name, d.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != better(d.HigherBetter) {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, got, d)
		}
		if seen[d.Name] {
			t.Errorf("%s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}
