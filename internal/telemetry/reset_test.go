package telemetry

import (
	"testing"
	"time"

	"sslperf/internal/probe"
)

func TestHistogramReset(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(int64(time.Duration(i) * time.Millisecond))
	}
	h.Reset()
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Max != 0 || len(s.Buckets) != 0 {
		t.Fatalf("reset histogram not empty: %+v", s)
	}
	h.Observe(int64(3 * time.Millisecond))
	if s := h.Snapshot(); s.Count != 1 {
		t.Fatalf("post-reset observe lost: %+v", s)
	}
}

func TestValueHistogramResetAndP95(t *testing.T) {
	var h Histogram
	// 100 observations of 1 and one large outlier: p50 stays at 1,
	// p95 must still be in the low bucket, and with 1/101 < 1% so does
	// p99.
	for i := 0; i < 100; i++ {
		h.Observe(1)
	}
	h.Observe(1 << 20)
	s := h.Snapshot()
	if s.P50 != 1 || s.P95 != 1 || s.P99 != 1 {
		t.Fatalf("p50=%d p95=%d p99=%d, want all 1", s.P50, s.P95, s.P99)
	}
	if s.Max != 1<<20 {
		t.Fatalf("max=%d, want %d", s.Max, 1<<20)
	}
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("reset value histogram not empty: %+v", s)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.FoldHandshake(hsDone("RC4-MD5", 0x0300, false, 2*time.Millisecond, step(probe.StepGetClientKX, time.Millisecond)))
	r.FoldHandshake(hsFail("timeout"))
	r.FoldClose(IOCounts{RecordsOut: 1, BytesOut: 100})

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
	if a := r.Anatomy(); len(a.Steps) != 0 || a.Handshakes != 0 {
		t.Fatalf("steps survived reset: %+v", a)
	}
	// The connection count is not a window metric: it survives.
	if s.Connections != 1 {
		t.Fatalf("connections = %d after reset, want 1", s.Connections)
	}
}
