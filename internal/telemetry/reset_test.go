package telemetry

import (
	"testing"
	"time"

	"sslperf/internal/probe"
)

func TestHistogramReset(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	h.Reset()
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Max != 0 || len(s.Buckets) != 0 {
		t.Fatalf("reset histogram not empty: %+v", s)
	}
	h.Observe(3 * time.Millisecond)
	if s := h.Snapshot(); s.Count != 1 {
		t.Fatalf("post-reset observe lost: %+v", s)
	}
}

func TestValueHistogramResetAndP95(t *testing.T) {
	var h ValueHistogram
	// 100 observations of 1 and one large outlier: p50 stays at 1,
	// p95 must still be in the low bucket, p99 may catch the outlier
	// with few samples but here 1/101 < 1% so it stays low too.
	for i := 0; i < 100; i++ {
		h.Observe(1)
	}
	h.Observe(1 << 20)
	s := h.Snapshot()
	if s.P50 != 1 || s.P95 != 1 {
		t.Fatalf("p50=%d p95=%d, want both 1", s.P50, s.P95)
	}
	if s.Max != 1<<20 {
		t.Fatalf("max=%d, want %d", s.Max, 1<<20)
	}
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("reset value histogram not empty: %+v", s)
	}
}

func TestFlightRecorderResetKeepsSlotInvariant(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		fr.Record(Event{Name: "pre"})
	}
	fr.Reset()
	if fr.Len() != 0 {
		t.Fatalf("Len=%d after reset", fr.Len())
	}
	// Refill past capacity: ordering must survive the wrap, which
	// depends on seq%cap still addressing the append slots.
	for i := 0; i < 6; i++ {
		fr.Record(Event{Name: string(rune('a' + i))})
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("events out of order after reset+wrap: %+v", evs)
		}
	}
	if evs[len(evs)-1].Name != "f" {
		t.Fatalf("newest event %q, want f", evs[len(evs)-1].Name)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistrySize(16)
	r.Emit(probe.Event{Kind: probe.KindConnOpen, Conn: 1})
	r.Emit(hsDone("RC4-MD5", 0x0300, false, 2*time.Millisecond))
	r.Emit(hsFail("timeout"))
	r.Emit(stepExit(probe.StepGetClientKX, time.Millisecond))
	r.Emit(probe.Event{Kind: probe.KindEngineTimer, Fn: "linger", Dur: time.Millisecond})
	r.Emit(probe.Event{Kind: probe.KindEngineValue, Fn: "batch_size", Value: 4})
	r.Emit(recordIO(true, false, 100))
	r.Emit(probe.Event{Kind: probe.KindConnClose, Conn: 1})

	r.Reset()
	s := r.Snapshot()
	if s.Handshakes.Full != 0 || s.Handshakes.Failed != 0 ||
		len(s.Handshakes.BySuite) != 0 || len(s.Handshakes.FailReasons) != 0 {
		t.Fatalf("handshake counts survived reset: %+v", s.Handshakes)
	}
	if s.IO.RecordsOut != 0 || s.IO.BytesOut != 0 {
		t.Fatalf("io counts survived reset: %+v", s.IO)
	}
	if s.FullLatency.Count != 0 {
		t.Fatalf("latency survived reset: %+v", s.FullLatency)
	}
	if s.EventsRetained != 0 {
		t.Fatalf("flight recorder survived reset: %d retained", s.EventsRetained)
	}
	// Named histograms are kept (zeroed) so pre-reset emitters still land.
	for _, st := range s.Steps {
		if st.Latency.Count != 0 {
			t.Fatalf("step %s survived reset: %+v", st.Name, st.Latency)
		}
	}
	// The connection count is not a window metric: it survives.
	if s.Connections != 1 {
		t.Fatalf("connections = %d after reset, want 1", s.Connections)
	}
	r.Emit(probe.Event{Kind: probe.KindEngineValue, Fn: "batch_size", Value: 2})
	s = r.Snapshot()
	if len(s.Values) != 1 || s.Values[0].Values.Count != 1 {
		t.Fatalf("post-reset value observation lost: %+v", s.Values)
	}
}
