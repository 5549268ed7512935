package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"sslperf/internal/probe"
)

// The events a connection puts on the spine, as these tests emit them.
func hsStart(conn uint64) probe.Event {
	return probe.Event{Kind: probe.KindHandshakeStart, Conn: conn, Fn: "server"}
}

func hsDone(suite string, version uint16, resumed bool, d time.Duration) probe.Event {
	return probe.Event{Kind: probe.KindHandshakeDone, Fn: suite, Version: version, Resumed: resumed, Dur: d}
}

func hsFail(tag string) probe.Event {
	return probe.Event{Kind: probe.KindHandshakeFail, Fn: tag}
}

func stepExit(st probe.Step, d time.Duration) probe.Event {
	return probe.Event{Kind: probe.KindStepExit, Step: st, Dur: d}
}

func recordIO(written, alert bool, n int) probe.Event {
	return probe.Event{Kind: probe.KindRecordIO, Written: written, Alert: alert, Bytes: n}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	if r.Observe() != nil {
		t.Fatal("nil registry offered a sink")
	}
	if rec := r.Recorder(); rec != nil {
		t.Fatalf("nil Recorder = %v, want nil", rec)
	}
	var fr *FlightRecorder
	fr.Record(Event{})
	if fr.Len() != 0 || fr.Total() != 0 || fr.Events() != nil {
		t.Fatal("nil FlightRecorder should be empty")
	}
	if s := r.Snapshot(); s.Connections != 0 {
		t.Fatal("nil Snapshot should be zero")
	}
}

func TestRegistryCounts(t *testing.T) {
	r := NewRegistry()
	r.Emit(probe.Event{Kind: probe.KindConnOpen, Conn: 1})
	r.Emit(hsDone("DES-CBC3-SHA", 0x0300, false, 2*time.Millisecond))
	r.Emit(hsDone("DES-CBC3-SHA", 0x0301, true, 100*time.Microsecond))
	r.Emit(hsFail("handshake_failure"))
	r.Emit(hsFail(""))
	r.Emit(stepExit(probe.StepInit, 5*time.Microsecond))
	r.Emit(stepExit(probe.StepGetClientHello, 40*time.Microsecond))
	r.Emit(recordIO(false, false, 1000))
	r.Emit(recordIO(true, false, 2000))
	r.Emit(recordIO(true, true, 2))

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
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 100 samples of 1ms, 10 of 10ms, 1 of 100ms.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond)
	}
	h.Observe(100 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 111 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 100*time.Millisecond {
		t.Fatalf("max = %v", s.Max)
	}
	// p50 falls in the 1ms bucket: upper bound exactly 1024µs.
	if s.P50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms bucket bound", s.P50)
	}
	// p99 must reach the 10ms population.
	if s.P99 < 8*time.Millisecond || s.P99 > 32*time.Millisecond {
		t.Fatalf("p99 = %v, want ~16ms bucket bound", s.P99)
	}
	if s.Mean < time.Millisecond || s.Mean > 5*time.Millisecond {
		t.Fatalf("mean = %v", s.Mean)
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
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{time.Hour, numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Record(Event{Conn: uint64(i % 2), Kind: EventStepStart, Name: "s"})
	}
	if fr.Total() != 10 || fr.Len() != 4 {
		t.Fatalf("total=%d len=%d", fr.Total(), fr.Len())
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(6+i) {
			t.Fatalf("event %d seq = %d, want %d (oldest-first)", i, ev.Seq, 6+i)
		}
	}
	conn0 := fr.ConnEvents(0)
	for _, ev := range conn0 {
		if ev.Conn != 0 {
			t.Fatalf("conn filter leaked conn %d", ev.Conn)
		}
	}
	if len(conn0) != 2 {
		t.Fatalf("conn0 events = %d, want 2", len(conn0))
	}
}

func TestConcurrentEmission(t *testing.T) {
	r := NewRegistrySize(128)
	const workers = 8
	const per = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(probe.Event{Kind: probe.KindConnOpen})
				r.Emit(hsStart(0))
				r.Emit(stepExit(probe.StepInit, time.Microsecond))
				r.Emit(stepExit(probe.StepGetClientHello, 2*time.Microsecond))
				r.Emit(recordIO(false, false, 64))
				r.Emit(recordIO(true, i%10 == 0, 128))
				if i%5 == 0 {
					r.Emit(hsFail("bad_record_mac"))
				} else {
					r.Emit(hsDone("RC4-MD5", 0x0300, i%2 == 0, time.Duration(i)*time.Microsecond))
				}
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
	// Per connection: the start, two step ends and the outcome, plus
	// an alert on every tenth.
	if s.EventsRecorded != uint64(4*total+total/10) || s.EventsRetained != 128 {
		t.Fatalf("events recorded=%d retained=%d", s.EventsRecorded, s.EventsRetained)
	}
	if s.Steps[0].Latency.Count != uint64(total) {
		t.Fatalf("step count = %d", s.Steps[0].Latency.Count)
	}
}

func TestSnapshotRenderers(t *testing.T) {
	r := NewRegistry()
	r.Emit(hsDone("DES-CBC3-SHA", 0x0300, false, time.Millisecond))
	r.Emit(stepExit(probe.StepInit, 10*time.Microsecond))
	r.Emit(stepExit(probe.StepSendFinished, 30*time.Microsecond))
	s := r.Snapshot()

	b, err := s.JSON()
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
