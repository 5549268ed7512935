package slo

import (
	"math"
	"testing"
	"time"
)

// testClock is an injectable clock stepped by the test.
type testClock struct{ at time.Time }

func (c *testClock) now() time.Time { return c.at }

func newTestTracker(target time.Duration) (*Tracker, *testClock) {
	clk := &testClock{at: time.Unix(1_000_000, 0)}
	t := New(Config{TargetP99: target, ErrorBudget: 0.01, Now: clk.now})
	return t, clk
}

func TestWindowsAggregate(t *testing.T) {
	tr, clk := newTestTracker(50 * time.Millisecond)
	// 8 fast successes, 1 slow success, 1 failure in the current second.
	for i := 0; i < 8; i++ {
		tr.HandshakeBegin()
		tr.HandshakeEnd(10*time.Millisecond, false, -1)
	}
	tr.HandshakeBegin()
	tr.HandshakeEnd(80*time.Millisecond, false, -1) // slow: over the 50ms target
	tr.HandshakeBegin()
	tr.HandshakeEnd(5*time.Millisecond, true, -1)

	snap := tr.Snapshot()
	for _, name := range []string{"10s", "1m", "5m"} {
		w := snap.Window(name)
		if w.Handshakes != 10 || w.Failed != 1 || w.Slow != 1 {
			t.Fatalf("%s window: handshakes=%d failed=%d slow=%d, want 10/1/1",
				name, w.Handshakes, w.Failed, w.Slow)
		}
		if math.Abs(w.ErrorRate-0.1) > 1e-9 {
			t.Fatalf("%s error rate %v, want 0.1", name, w.ErrorRate)
		}
		if math.Abs(w.BadRate-0.2) > 1e-9 {
			t.Fatalf("%s bad rate %v, want 0.2", name, w.BadRate)
		}
		// burn = bad rate / budget = 0.2 / 0.01
		if math.Abs(w.BurnRate-20) > 1e-9 {
			t.Fatalf("%s burn rate %v, want 20", name, w.BurnRate)
		}
	}

	// Advance 15s: the 10s window empties, 1m and 5m retain.
	clk.at = clk.at.Add(15 * time.Second)
	snap = tr.Snapshot()
	if w := snap.Window("10s"); w.Handshakes != 0 {
		t.Fatalf("10s window retained %d handshakes after 15s", w.Handshakes)
	}
	if w := snap.Window("1m"); w.Handshakes != 10 {
		t.Fatalf("1m window lost events: %d, want 10", w.Handshakes)
	}

	// Advance past 5m: everything ages out.
	clk.at = clk.at.Add(6 * time.Minute)
	if w := tr.Snapshot().Window("5m"); w.Handshakes != 0 {
		t.Fatalf("5m window retained %d handshakes after 6m", w.Handshakes)
	}
}

func TestQuantilesApproximate(t *testing.T) {
	tr, _ := newTestTracker(time.Second)
	for i := 0; i < 100; i++ {
		tr.HandshakeBegin()
		tr.HandshakeEnd(10*time.Millisecond, false, -1)
	}
	w := tr.Snapshot().Window("10s")
	// Sub-octave buckets: the estimate must land within an eighth.
	if w.P50Us < 8750 || w.P50Us > 11250 {
		t.Fatalf("p50 %vus implausible for 10ms population", w.P50Us)
	}
	if w.P99Us < w.P50Us {
		t.Fatalf("p99 %v below p50 %v", w.P99Us, w.P50Us)
	}
	if math.Abs(w.MeanUs-10000) > 100 {
		t.Fatalf("mean %vus, want ~10000", w.MeanUs)
	}
}

func TestInFlightGauge(t *testing.T) {
	tr, _ := newTestTracker(0)
	tr.HandshakeBegin()
	tr.HandshakeBegin()
	if got := tr.InFlight(); got != 2 {
		t.Fatalf("inflight %d, want 2", got)
	}
	tr.HandshakeEnd(time.Millisecond, false, -1)
	if got := tr.InFlight(); got != 1 {
		t.Fatalf("inflight %d, want 1", got)
	}
	// Reset preserves the live gauge.
	tr.Reset()
	if got := tr.InFlight(); got != 1 {
		t.Fatalf("inflight %d after reset, want 1", got)
	}
	if w := tr.Snapshot().Window("5m"); w.Handshakes != 0 {
		t.Fatalf("reset left %d handshakes", w.Handshakes)
	}
}

func TestQueueDelay(t *testing.T) {
	tr, _ := newTestTracker(0)
	tr.HandshakeEnd(time.Millisecond, false, 2*time.Millisecond)
	tr.HandshakeEnd(time.Millisecond, false, 6*time.Millisecond)
	tr.HandshakeEnd(time.Millisecond, true, -1) // no step ran: no delay to observe
	w := tr.Snapshot().Window("10s")
	if w.QueueDelays != 2 {
		t.Fatalf("queue delays %d, want 2", w.QueueDelays)
	}
	if math.Abs(w.QueueMeanUs-4000) > 1 {
		t.Fatalf("queue mean %vus, want 4000", w.QueueMeanUs)
	}
	if math.Abs(w.QueueMaxUs-6000) > 1 {
		t.Fatalf("queue max %vus, want 6000", w.QueueMaxUs)
	}
}

// TestRingReuse drives the clock across more than one full ring
// revolution: stale slots must be recycled, not double-counted.
func TestRingReuse(t *testing.T) {
	tr, clk := newTestTracker(0)
	for i := 0; i < 2*bucketCount; i++ {
		tr.HandshakeBegin()
		tr.HandshakeEnd(time.Millisecond, false, -1)
		clk.at = clk.at.Add(time.Second)
	}
	// One event per second, the last one second before "now" (the
	// clock steps after each event), so a w-second window holds w-1.
	snap := tr.Snapshot()
	if w := snap.Window("10s"); w.Handshakes != 9 {
		t.Fatalf("10s window %d handshakes after ring wrap, want 9", w.Handshakes)
	}
	if w := snap.Window("5m"); w.Handshakes != 299 {
		t.Fatalf("5m window %d handshakes after ring wrap, want 299", w.Handshakes)
	}
}

func TestNilTracker(t *testing.T) {
	var tr *Tracker
	tr.HandshakeBegin()
	tr.HandshakeEnd(time.Second, true, time.Second)
	tr.Reset()
	if tr.InFlight() != 0 || tr.Target() != 0 {
		t.Fatal("nil tracker leaked state")
	}
	if snap := tr.Snapshot(); len(snap.Windows) != 0 {
		t.Fatal("nil tracker produced windows")
	}
}
