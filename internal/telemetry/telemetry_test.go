package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"sslperf/internal/probe"
)

// The folds a connection's record makes, as these tests make them.
func hsDone(suite string, version uint16, resumed bool, d time.Duration, steps ...StepTiming) *Handshake {
	return &Handshake{Suite: suite, Version: version, Resumed: resumed, Dur: d, Steps: steps}
}

func hsFail(tag string, steps ...StepTiming) *Handshake {
	return &Handshake{Failed: true, FailTag: tag, Steps: steps}
}

func step(st probe.Step, d time.Duration) StepTiming {
	return StepTiming{Step: st, Dur: d}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.FoldHandshake(hsDone("RC4-MD5", 0x0300, false, time.Millisecond))
	r.FoldClose(IOCounts{BytesIn: 1})
	r.ObserveEngine("batch_size", false, 4)
	r.SetLive(nil)
	r.Reset()
	if c := r.Counts(); c != (Counts{}) {
		t.Fatalf("nil Counts = %+v, want zero", c)
	}
	if s := r.Snapshot(); s.Connections != 0 {
		t.Fatal("nil Snapshot should be zero")
	}
}

func TestRegistryCounts(t *testing.T) {
	r := NewRegistry()
	r.FoldHandshake(hsDone("DES-CBC3-SHA", 0x0300, false, 2*time.Millisecond,
		step(probe.StepInit, 5*time.Microsecond), step(probe.StepGetClientHello, 40*time.Microsecond)))
	r.FoldHandshake(hsDone("DES-CBC3-SHA", 0x0301, true, 100*time.Microsecond))
	r.FoldHandshake(hsFail("handshake_failure"))
	r.FoldHandshake(hsFail(""))
	r.FoldClose(IOCounts{RecordsIn: 1, BytesIn: 1000, RecordsOut: 2, BytesOut: 2002, AlertsSent: 1})

	s := r.Snapshot()
	if s.Connections != 1 {
		t.Fatalf("connections = %d, want 1", s.Connections)
	}
	if s.Handshakes.Full != 1 || s.Handshakes.Resumed != 1 || s.Handshakes.Failed != 2 {
		t.Fatalf("handshake counts = %+v", s.Handshakes)
	}
	if s.Handshakes.BySuite["DES-CBC3-SHA"] != 2 {
		t.Fatalf("by suite = %v", s.Handshakes.BySuite)
	}
	if s.Handshakes.ByVersion["SSLv3"] != 1 || s.Handshakes.ByVersion["TLSv1.0"] != 1 {
		t.Fatalf("by version = %v", s.Handshakes.ByVersion)
	}
	if s.Handshakes.FailReasons["handshake_failure"] != 1 || s.Handshakes.FailReasons["unknown"] != 1 {
		t.Fatalf("fail reasons = %v", s.Handshakes.FailReasons)
	}
	if s.IO.BytesIn != 1000 || s.IO.BytesOut != 2002 || s.IO.RecordsOut != 2 || s.IO.AlertsSent != 1 {
		t.Fatalf("io = %+v", s.IO)
	}
	if len(s.Steps) != 2 || s.Steps[0].Name != "init" || s.Steps[1].Name != "get_client_hello" {
		t.Fatalf("steps = %+v", s.Steps)
	}
	if s.FullLatency.Count != 1 || s.ResumedLatency.Count != 1 {
		t.Fatalf("latency counts = %d/%d", s.FullLatency.Count, s.ResumedLatency.Count)
	}
	if c := r.Counts(); c.HandshakesFull != 1 || c.BytesOut != 2002 || c.Connections != 1 {
		t.Fatalf("Counts() = %+v disagrees with the snapshot", c)
	}
}

// fakeLive stands in for the conn table: one open connection with
// running totals, and a lock that records it was held across the read.
type fakeLive struct {
	sync.Mutex
	held bool
}

func (l *fakeLive) LiveCounts() Counts {
	if l.held = !l.TryLock(); !l.held {
		l.Unlock()
	}
	return Counts{Connections: 1, IOCounts: IOCounts{BytesOut: 500}}
}

func (l *fakeLive) Observatory() ObservatoryStats {
	return ObservatoryStats{RecordsRetained: 3, DetailSampledOut: 7}
}

// TestLiveTotalsAddedAtReadTime pins the live-read rule: Counts and
// Snapshot report folded plus open connections, read under the table's
// fold exclusion, and /metrics carries the observatory's own stats.
func TestLiveTotalsAddedAtReadTime(t *testing.T) {
	r := NewRegistry()
	live := &fakeLive{}
	r.SetLive(live)
	r.FoldClose(IOCounts{BytesOut: 100})
	c := r.Counts()
	if c.Connections != 2 || c.BytesOut != 600 {
		t.Fatalf("Counts() = %+v, want 2 connections / 600 bytes out (folded + live)", c)
	}
	if !live.held {
		t.Fatal("live totals were read outside the fold exclusion")
	}
	s := r.Snapshot()
	if s.IO.BytesOut != 600 || s.Observatory.RecordsRetained != 3 || s.Observatory.DetailSampledOut != 7 {
		t.Fatalf("snapshot io=%+v observatory=%+v", s.IO, s.Observatory)
	}
	if !strings.Contains(s.Text(), "detail_sampled_out") {
		t.Fatal("text rendering misses the observatory rows")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 100 samples of 1ms, 10 of 10ms, 1 of 100ms.
	for i := 0; i < 100; i++ {
		h.Observe(int64(time.Millisecond))
	}
	for i := 0; i < 10; i++ {
		h.Observe(int64(10 * time.Millisecond))
	}
	h.Observe(int64(100 * time.Millisecond))
	s := h.Snapshot()
	if s.Count != 111 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != int64(100*time.Millisecond) {
		t.Fatalf("max = %v", s.Max)
	}
	within := func(name string, got int64, want time.Duration) {
		t.Helper()
		if err := float64(got)/float64(want) - 1; err > 0.125 || err < -0.125 {
			t.Fatalf("%s = %v, want %v within an eighth", name, time.Duration(got), want)
		}
	}
	within("p50", s.P50, time.Millisecond)
	within("p90", s.P90, time.Millisecond)
	within("p99", s.P99, 10*time.Millisecond)
	if s.Mean < float64(time.Millisecond) || s.Mean > float64(5*time.Millisecond) {
		t.Fatalf("mean = %v", s.Mean)
	}
	if len(s.Buckets) != 3 {
		t.Fatalf("buckets = %+v, want the three populated ones", s.Buckets)
	}
	// Empty histogram stays zero.
	var empty Histogram
	es := empty.Snapshot()
	if es.Count != 0 || es.P50 != 0 || es.Max != 0 || len(es.Buckets) != 0 {
		t.Fatalf("empty snapshot = %+v", es)
	}
}

func TestBucketForBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {3, 3},
		{4, 4}, {5, 5}, {7, 7}, // octave 2: one value per bucket
		{8, 8}, {9, 8}, {10, 9}, {15, 11}, // octave 3: two values per bucket
		{16, 12}, {19, 12}, {20, 13},
		{1 << histMaxExp, histBuckets - 1},
		{1<<histMaxExp - 1, histBuckets - 2},
		{1 << 62, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.v); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's range maps back onto it and the ranges tile.
	next := int64(0)
	for i := 0; i < histBuckets-1; i++ {
		lo, hi := bucketRange(i)
		if lo != next || bucketFor(lo) != i || bucketFor(hi) != i {
			t.Fatalf("bucket %d = [%d, %d], want it to start at %d and map back", i, lo, hi, next)
		}
		if lo >= histSub && 4*(hi-lo+1) > lo {
			t.Fatalf("bucket %d = [%d, %d] is wider than a quarter of its lower bound", i, lo, hi)
		}
		next = hi + 1
	}
}

func TestConcurrentEmission(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const per = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				steps := []StepTiming{step(probe.StepInit, time.Microsecond), step(probe.StepGetClientHello, 2*time.Microsecond)}
				if i%5 == 0 {
					r.FoldHandshake(hsFail("bad_record_mac", steps...))
				} else {
					r.FoldHandshake(hsDone("RC4-MD5", 0x0300, i%2 == 0, time.Duration(i)*time.Microsecond, steps...))
				}
				r.ObserveEngine("queue_depth", false, int64(i))
				r.FoldClose(IOCounts{RecordsIn: 1, BytesIn: 64, RecordsOut: 1, BytesOut: 128})
				_ = r.Snapshot() // readers race with writers
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	total := workers * per
	if s.Connections != uint64(total) {
		t.Fatalf("connections = %d, want %d", s.Connections, total)
	}
	if got := s.Handshakes.Full + s.Handshakes.Resumed + s.Handshakes.Failed; got != uint64(total) {
		t.Fatalf("handshake outcomes = %d, want %d", got, total)
	}
	if s.IO.RecordsIn != uint64(total) || s.IO.RecordsOut != uint64(total) {
		t.Fatalf("records = %+v", s.IO)
	}
	if s.Steps[0].Latency.Count != uint64(total) {
		t.Fatalf("step count = %d", s.Steps[0].Latency.Count)
	}
	if len(s.Values) != 1 || s.Values[0].Values.Count != uint64(total) {
		t.Fatalf("engine values = %+v", s.Values)
	}
}

func TestSnapshotRenderers(t *testing.T) {
	r := NewRegistry()
	r.FoldHandshake(hsDone("DES-CBC3-SHA", 0x0300, false, time.Millisecond,
		step(probe.StepInit, 10*time.Microsecond), step(probe.StepSendFinished, 30*time.Microsecond)))
	s := r.Snapshot()

	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if _, ok := back["handshakes"]; !ok {
		t.Fatalf("JSON missing handshakes: %s", b)
	}

	txt := s.Text()
	for _, want := range []string{"handshakes_full", "suite:DES-CBC3-SHA",
		"handshake steps", "send_finished", "per-step share"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text output missing %q:\n%s", want, txt)
		}
	}
}

func TestRuntimeSnapshot(t *testing.T) {
	rs := ReadRuntime()
	if rs.Goroutines == 0 {
		t.Error("goroutine count = 0, want >= 1 (this test is running)")
	}
	if rs.HeapInuseBytes == 0 {
		t.Error("heap in-use = 0 bytes")
	}
	// Pause/latency quantiles may legitimately be zero in a fresh
	// process (no GC yet), but must be ordered when present.
	if rs.GCPauseP50 > rs.GCPauseP99 {
		t.Errorf("gc pause p50 %v > p99 %v", rs.GCPauseP50, rs.GCPauseP99)
	}
	if rs.SchedLatP50 > rs.SchedLatP99 || rs.SchedLatP99 > rs.SchedLatMax {
		t.Errorf("sched latency not monotone: p50 %v p99 %v max %v",
			rs.SchedLatP50, rs.SchedLatP99, rs.SchedLatMax)
	}

	// The registry snapshot carries it, so /metrics serves it.
	r := NewRegistry()
	s := r.Snapshot()
	if s.Runtime.Goroutines == 0 {
		t.Error("registry snapshot missing runtime section")
	}
	text := s.Text()
	for _, want := range []string{"go runtime", "goroutines", "sched_latency_p99"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q", want)
		}
	}
}
