package perf

import (
	"strings"
	"testing"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if s.N() != 100 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
	if got := s.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := s.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if s.Percentile(0) != time.Millisecond || s.Max() != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Percentile(0), s.Max())
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.StdDev() != 0 || s.Percentile(50) != 0 ||
		s.Percentile(0) != 0 || s.Max() != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestSeriesStdDev(t *testing.T) {
	var s Series
	// Constant series: zero deviation.
	for i := 0; i < 10; i++ {
		s.Add(5 * time.Millisecond)
	}
	if s.StdDev() != 0 {
		t.Fatalf("constant stddev = %v", s.StdDev())
	}
	// Two-point series {0, 10ms}: population stddev = 5ms.
	var s2 Series
	s2.Add(0)
	s2.Add(10 * time.Millisecond)
	if got := s2.StdDev(); got != 5*time.Millisecond {
		t.Fatalf("stddev = %v, want 5ms", got)
	}
}

func TestSeriesAddAfterPercentile(t *testing.T) {
	var s Series
	s.Add(2 * time.Millisecond)
	_ = s.Percentile(50)
	s.Add(1 * time.Millisecond) // must re-sort
	if got := s.Percentile(0); got != time.Millisecond {
		t.Fatalf("min after add = %v", got)
	}
}

func TestSeriesPercentileClamps(t *testing.T) {
	var s Series
	s.Add(time.Millisecond)
	if s.Percentile(-5) != time.Millisecond || s.Percentile(500) != time.Millisecond {
		t.Fatal("percentile clamping broken")
	}
}

func TestSeriesString(t *testing.T) {
	var s Series
	s.Add(time.Millisecond)
	if !strings.Contains(s.String(), "p99") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSeriesSingleSample(t *testing.T) {
	var s Series
	s.Add(7 * time.Millisecond)
	if s.N() != 1 {
		t.Fatalf("N = %d", s.N())
	}
	// Every percentile of a one-sample series is that sample.
	for _, p := range []float64{0.001, 1, 50, 90, 99, 100} {
		if got := s.Percentile(p); got != 7*time.Millisecond {
			t.Fatalf("p%.3f = %v, want 7ms", p, got)
		}
	}
	if s.Mean() != 7*time.Millisecond || s.StdDev() != 0 {
		t.Fatalf("mean/stddev = %v/%v", s.Mean(), s.StdDev())
	}
	if s.Percentile(0) != s.Max() || s.Percentile(0) != 7*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Percentile(0), s.Max())
	}
}

func TestSeriesUnsortedInput(t *testing.T) {
	// Samples arrive in descending and shuffled order; percentile
	// queries must still see the sorted view.
	var s Series
	for _, ms := range []int{90, 10, 50, 100, 30, 70, 20, 80, 60, 40} {
		s.Add(time.Duration(ms) * time.Millisecond)
	}
	if got := s.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := s.Percentile(10); got != 10*time.Millisecond {
		t.Fatalf("p10 = %v, want 10ms", got)
	}
	if s.Percentile(0) != 10*time.Millisecond || s.Max() != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Percentile(0), s.Max())
	}
	// Interleave: a later out-of-order Add must invalidate the sort.
	s.Add(5 * time.Millisecond)
	if got := s.Percentile(1); got != 5*time.Millisecond {
		t.Fatalf("p1 after late add = %v, want 5ms", got)
	}
}

func TestSeriesEmptyPercentileAllRanks(t *testing.T) {
	var s Series
	for _, p := range []float64{-1, 0, 50, 100, 200} {
		if got := s.Percentile(p); got != 0 {
			t.Fatalf("empty p%.0f = %v, want 0", p, got)
		}
	}
	if s.String() == "" {
		t.Fatal("empty series String should still render")
	}
}
