package history

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSource is a scriptable source: a counter fed by Add and a gauge
// set by SetGauge.
type fakeSource struct {
	counter atomic.Uint64
	gauge   atomic.Uint64 // math.Float64bits
}

func (f *fakeSource) Series() []SeriesDef {
	return []SeriesDef{
		{Name: "test.counter", Unit: "ev/s", Kind: KindCounter},
		{Name: "test.gauge", Unit: "v", Kind: KindGauge},
	}
}

func (f *fakeSource) Sample(vals []float64) {
	vals[0] = float64(f.counter.Load())
	vals[1] = math.Float64frombits(f.gauge.Load())
}

func (f *fakeSource) SetGauge(v float64) { f.gauge.Store(math.Float64bits(v)) }

func newTestHistory(cfg Config) (*History, *fakeSource) {
	if cfg.Now == nil {
		// The clock must be concurrency-safe, like time.Now.
		base := time.Unix(1700000000, 0)
		var ticks atomic.Int64
		cfg.Now = func() time.Time {
			return base.Add(time.Duration(ticks.Add(1)) * time.Second)
		}
	}
	h := New(cfg)
	src := &fakeSource{}
	h.AddSource(src)
	return h, src
}

func TestCounterDeltasAndReconciliation(t *testing.T) {
	h, src := newTestHistory(Config{Interval: time.Second, FineSlots: 8, CoarseEvery: 4})

	// First sample baselines: delta must be 0 even though the counter
	// already holds a value.
	src.counter.Store(100)
	h.SampleNow()
	// Then +5, +7, +0.
	src.counter.Add(5)
	h.SampleNow()
	src.counter.Add(7)
	h.SampleNow()
	h.SampleNow()

	snap := h.Snapshot(SnapshotOptions{Series: []string{"test.counter"}})
	if len(snap.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(snap.Series))
	}
	sd := snap.Series[0]
	want := []float64{0, 5, 7, 0} // rates at 1s step == deltas
	if len(sd.Points) != len(want) {
		t.Fatalf("points = %v, want %v", sd.Points, want)
	}
	for i, v := range want {
		if sd.Points[i] != v {
			t.Fatalf("points = %v, want %v", sd.Points, want)
		}
	}
	// Sum of deltas reconciles exactly with the cumulative counter's
	// movement since the baseline sample.
	if sd.Sum != 12 {
		t.Fatalf("Sum = %v, want 12", sd.Sum)
	}
	if sd.LatestRaw != 112 {
		t.Fatalf("LatestRaw = %v, want 112", sd.LatestRaw)
	}
}

func TestCounterRestartRebaselines(t *testing.T) {
	h, src := newTestHistory(Config{Interval: time.Second, FineSlots: 8})
	src.counter.Store(50)
	h.SampleNow()
	src.counter.Add(10)
	h.SampleNow()
	// Upstream /debug/reset: counter rewinds to 3.
	src.counter.Store(3)
	h.SampleNow()

	sd, ok := h.Snapshot(SnapshotOptions{Series: []string{"test.counter"}}).Get("test.counter")
	if !ok {
		t.Fatal("series missing")
	}
	want := []float64{0, 10, 3}
	for i, v := range want {
		if sd.Points[i] != v {
			t.Fatalf("points = %v, want %v", sd.Points, want)
		}
	}
}

func TestGaugeCoarseIsWindowMean(t *testing.T) {
	h, src := newTestHistory(Config{Interval: time.Second, FineSlots: 16, CoarseSlots: 4, CoarseEvery: 4})
	for i, v := range []float64{2, 4, 6, 8, 10, 10, 10, 10} {
		src.SetGauge(v)
		src.counter.Store(uint64(10 * (i + 1)))
		h.SampleNow()
	}
	snap := h.Snapshot(SnapshotOptions{Coarse: true})
	g, _ := snap.Get("test.gauge")
	if len(g.Points) != 2 || g.Points[0] != 5 || g.Points[1] != 10 {
		t.Fatalf("gauge coarse points = %v, want [5 10]", g.Points)
	}
	c, _ := snap.Get("test.counter")
	// Counter coarse slots hold window delta sums: baseline window
	// (0+10+10+10)=30, then 4×10=40; rendered as rates over 4s.
	if len(c.Points) != 2 || c.Points[0] != 30.0/4 || c.Points[1] != 10 {
		t.Fatalf("counter coarse points = %v, want [7.5 10]", c.Points)
	}
	if c.Sum != 70 {
		t.Fatalf("coarse Sum = %v, want 70", c.Sum)
	}
	if snap.StepSecs != 4 {
		t.Fatalf("StepSecs = %v, want 4", snap.StepSecs)
	}
}

func TestFineRingWraparound(t *testing.T) {
	h, src := newTestHistory(Config{Interval: time.Second, FineSlots: 4})
	for i := 1; i <= 10; i++ {
		src.counter.Store(uint64(i * i)) // deltas 2i-1 after baseline
		h.SampleNow()
	}
	sd, _ := h.Snapshot(SnapshotOptions{}).Get("test.counter")
	// Only the last 4 samples survive: deltas at i=7..10 are 13,15,17,19.
	want := []float64{13, 15, 17, 19}
	if len(sd.Points) != len(want) {
		t.Fatalf("points = %v, want %v", sd.Points, want)
	}
	for i, v := range want {
		if sd.Points[i] != v {
			t.Fatalf("points = %v, want %v", sd.Points, want)
		}
	}
	if sd.Last != 19 || sd.Min != 13 || sd.Max != 19 {
		t.Fatalf("last/min/max = %v/%v/%v", sd.Last, sd.Min, sd.Max)
	}
}

func TestSnapshotLastAndUnknownSeries(t *testing.T) {
	h, src := newTestHistory(Config{Interval: time.Second, FineSlots: 16})
	for i := 0; i < 6; i++ {
		src.SetGauge(float64(i))
		h.SampleNow()
	}
	snap := h.Snapshot(SnapshotOptions{Series: []string{"test.gauge", "nope"}, Last: 3})
	if len(snap.Series) != 1 {
		t.Fatalf("series = %d, want 1 (unknown skipped)", len(snap.Series))
	}
	g := snap.Series[0]
	if len(g.Points) != 3 || g.Points[0] != 3 || g.Points[2] != 5 {
		t.Fatalf("points = %v, want [3 4 5]", g.Points)
	}
}

func TestResetCutsWindowKeepsSeq(t *testing.T) {
	h, src := newTestHistory(Config{Interval: time.Second, FineSlots: 8})
	src.counter.Store(5)
	h.SampleNow()
	h.SampleNow()
	before := h.Seq()
	h.Reset()
	if h.Seq() != before {
		t.Fatalf("Seq after Reset = %d, want %d (monotonic)", h.Seq(), before)
	}
	snap := h.Snapshot(SnapshotOptions{})
	for _, sd := range snap.Series {
		if len(sd.Points) != 0 {
			t.Fatalf("series %s has %d points after Reset", sd.Name, len(sd.Points))
		}
	}
	// Next sample re-baselines the counter: no phantom delta.
	src.counter.Store(500)
	h.SampleNow()
	sd, _ := h.Snapshot(SnapshotOptions{}).Get("test.counter")
	if len(sd.Points) != 1 || sd.Points[0] != 0 {
		t.Fatalf("post-reset points = %v, want [0]", sd.Points)
	}
}

func TestDeltasSince(t *testing.T) {
	h, src := newTestHistory(Config{Interval: time.Second, FineSlots: 8})
	src.counter.Store(1)
	h.SampleNow()
	cursor := h.Seq()
	src.counter.Store(4)
	h.SampleNow()
	src.counter.Store(9)
	h.SampleNow()

	deltas, next := h.DeltasSince(cursor, []string{"test.counter"})
	if next != 3 {
		t.Fatalf("next = %d, want 3", next)
	}
	if len(deltas) != 2 {
		t.Fatalf("deltas = %d, want 2", len(deltas))
	}
	if deltas[0].Seq != 2 || deltas[0].Values["test.counter"] != 3 {
		t.Fatalf("delta[0] = %+v", deltas[0])
	}
	if deltas[1].Seq != 3 || deltas[1].Values["test.counter"] != 5 {
		t.Fatalf("delta[1] = %+v", deltas[1])
	}
	// Caught up: nothing new.
	deltas, next = h.DeltasSince(next, nil)
	if len(deltas) != 0 || next != 3 {
		t.Fatalf("caught-up deltas = %v next = %d", deltas, next)
	}
}

// TestConcurrentSampleAndSnapshot exercises ring wraparound while
// snapshots, deltas, and resets race the sampler — the satellite's
// wraparound-under-concurrency coverage. Run under -race.
func TestConcurrentSampleAndSnapshot(t *testing.T) {
	h, src := newTestHistory(Config{Interval: time.Second, FineSlots: 4, CoarseSlots: 4, CoarseEvery: 2})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src.counter.Add(3)
			src.SetGauge(float64(i % 17))
			h.SampleNow()
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				snap := h.Snapshot(SnapshotOptions{Coarse: r == 0})
				for _, sd := range snap.Series {
					if len(sd.Points) > 4 {
						t.Errorf("series %s: %d points from a 4-slot ring", sd.Name, len(sd.Points))
						return
					}
				}
				h.DeltasSince(0, nil)
				if i%50 == 25 {
					h.Reset()
				}
			}
		}(r)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestStartStopSampler(t *testing.T) {
	h, src := newTestHistory(Config{Interval: 5 * time.Millisecond, FineSlots: 64, Now: time.Now})
	src.counter.Store(1)
	h.Start()
	h.Start() // idempotent
	deadline := time.After(2 * time.Second)
	for h.Seq() < 3 {
		select {
		case <-deadline:
			t.Fatal("sampler took no samples")
		case <-time.After(time.Millisecond):
		}
	}
	h.Stop()
	seq := h.Seq()
	time.Sleep(20 * time.Millisecond)
	if h.Seq() != seq {
		t.Fatal("sampler still running after Stop")
	}
	h.Stop() // idempotent
}

func TestNilHistorySafe(t *testing.T) {
	var h *History
	h.SampleNow()
	h.Start()
	h.Stop()
	h.Reset()
	h.AddSource(&fakeSource{})
	if h.Seq() != 0 || h.Interval() != 0 {
		t.Fatal("nil history not zero")
	}
	if s := h.Snapshot(SnapshotOptions{}); len(s.Series) != 0 {
		t.Fatal("nil snapshot has series")
	}
	if d, _ := h.DeltasSince(0, nil); d != nil {
		t.Fatal("nil deltas")
	}
}

func TestDuplicateSeriesKeepsFirst(t *testing.T) {
	h, src := newTestHistory(Config{Interval: time.Second, FineSlots: 8})
	h.AddSource(&fakeSource{}) // same names again
	src.counter.Store(2)
	h.SampleNow()
	h.SampleNow()
	names := h.SeriesNames()
	if len(names) != 2 {
		t.Fatalf("names = %v, want the first registration only", names)
	}
}

func TestHistoryHTTP(t *testing.T) {
	h, src := newTestHistory(Config{Interval: time.Second, FineSlots: 16})
	mux := http.NewServeMux()
	Register(mux, h)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	src.counter.Store(10)
	h.SampleNow()
	src.counter.Store(30)
	src.SetGauge(7)
	h.SampleNow()

	// JSON by default, no-store, series selection.
	resp, err := http.Get(srv.URL + "/debug/history?series=test.counter&last=1")
	if err != nil {
		t.Fatal(err)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q", cc)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.Series) != 1 || snap.Series[0].Name != "test.counter" {
		t.Fatalf("snapshot series = %+v", snap.Series)
	}
	if got := snap.Series[0].Points; len(got) != 1 || got[0] != 20 {
		t.Fatalf("points = %v, want [20]", got)
	}

	// Text rendering includes a sparkline row per series.
	resp, err = http.Get(srv.URL + "/debug/history?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("text Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "test.gauge") {
		t.Fatalf("text body missing series:\n%s", body)
	}

	// Bad query params are 400s.
	for _, q := range []string{"?res=hourly", "?last=-1", "?last=x"} {
		resp, err := http.Get(srv.URL + "/debug/history" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}

	// The rings reset with everything else under /debug/reset; the
	// endpoint's own reset is gone.
	resp, err = http.Post(srv.URL+"/debug/history/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /debug/history/reset: status %d, want 404", resp.StatusCode)
	}
	h.Reset()
	if snap := h.Snapshot(SnapshotOptions{}); len(snap.Series[0].Points) != 0 {
		t.Fatal("rings not reset")
	}
}

func TestWatchStreams(t *testing.T) {
	h, src := newTestHistory(Config{Interval: 10 * time.Millisecond, FineSlots: 64, Now: time.Now})
	mux := http.NewServeMux()
	Register(mux, h)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	src.counter.Store(1)
	h.Start()
	defer h.Stop()

	resp, err := http.Get(srv.URL + "/debug/watch?series=test.counter&interval=10ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lastSeq uint64
	for i := 0; i < 3; i++ {
		src.counter.Add(5)
		if !sc.Scan() {
			t.Fatalf("stream ended after %d lines: %v", i, sc.Err())
		}
		var d Delta
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %d: %v (%q)", i, err, sc.Text())
		}
		if d.Seq <= lastSeq {
			t.Fatalf("seq not monotonic: %d after %d", d.Seq, lastSeq)
		}
		lastSeq = d.Seq
		if _, ok := d.Values["test.counter"]; !ok {
			t.Fatalf("line %d missing series: %+v", i, d)
		}
	}
}

func TestWatchBadInterval(t *testing.T) {
	h, _ := newTestHistory(Config{Interval: time.Second})
	mux := http.NewServeMux()
	Register(mux, h)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/watch?interval=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestSparkline(t *testing.T) {
	if s := Sparkline(nil, 10); s != "" {
		t.Fatalf("empty = %q", s)
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if s != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp = %q", s)
	}
	// Downsampling keeps width.
	s = Sparkline(make([]float64, 100), 10)
	if len([]rune(s)) != 10 {
		t.Fatalf("width = %d, want 10", len([]rune(s)))
	}
}
