package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestValueHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Mean != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	if s.P50 != 0 || s.P95 != 0 || s.P99 != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty quantiles = %d/%d/%d, want 0", s.P50, s.P95, s.P99)
	}
	if len(s.Buckets) != 0 {
		t.Fatalf("empty histogram lists buckets: %+v", s.Buckets)
	}
}

func TestValueHistogramSingleSample(t *testing.T) {
	for _, v := range []int64{0, 1, 3, 5, 7, 1000, 1 << 20} {
		var h Histogram
		h.Observe(v)
		s := h.Snapshot()
		if s.Count != 1 || s.Sum != v || s.Max != v || s.Mean != float64(v) {
			t.Fatalf("v=%d: %+v", v, s)
		}
		// One sample: every quantile is that sample's bucket, never
		// above the sample itself.
		for _, q := range []int64{s.P50, s.P90, s.P95, s.P99} {
			if q > v || float64(q) < 0.875*float64(v) {
				t.Fatalf("v=%d: quantile %d outside [7v/8, v]", v, q)
			}
		}
	}
}

// TestValueHistogramOverflowBucket pins the overflow bucket: its
// quantiles report the observed max, since it has no upper bound to
// take a midpoint of.
func TestValueHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	huge := int64(1) << 50
	h.Observe(huge)
	h.Observe(huge + 12345)
	s := h.Snapshot()
	if s.P50 != s.Max || s.P99 != s.Max || s.Max != huge+12345 {
		t.Fatalf("overflow quantiles p50=%d p99=%d max=%d, want all %d", s.P50, s.P99, s.Max, huge+12345)
	}
	if len(s.Buckets) != 1 || s.Buckets[0].UpperBound != -1 || s.Buckets[0].Count != 2 {
		t.Fatalf("overflow bucket = %+v, want one unbounded bucket of 2", s.Buckets)
	}
}

func TestValueHistogramEdges(t *testing.T) {
	var h Histogram
	// Negatives clamp into the zero bucket but keep their sum.
	h.Observe(-3)
	h.Observe(0)
	h.Observe(4)
	h.Observe(5)
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 6 || s.Max != 5 {
		t.Fatalf("edges snapshot = %+v", s)
	}
	want := []Bucket{{UpperBound: 0, Count: 2}, {UpperBound: 4, Count: 1}, {UpperBound: 5, Count: 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, s.Buckets[i], want[i])
		}
	}
}

func TestValueHistogramSpreadQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.P50 < 440 || s.P50 > 560 {
		t.Fatalf("p50 = %d, want ~500", s.P50)
	}
	if s.P95 < 840 || s.P95 > 1000 {
		t.Fatalf("p95 = %d, want ~950", s.P95)
	}
	if s.P50 > s.P90 || s.P90 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Fatalf("quantiles not ordered: %+v", s)
	}
}

func TestValueHistogramConcurrent(t *testing.T) {
	var h, sum Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
				if i%100 == 0 {
					_ = h.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per || s.Max != workers*per-1 {
		t.Fatalf("count=%d max=%d, want %d/%d", s.Count, s.Max, workers*per, workers*per-1)
	}
	// Merge carries every observation, the sum and the max across.
	sum.Observe(1 << 30)
	sum.Merge(&h)
	if m := sum.Snapshot(); m.Count != s.Count+1 || m.Sum != s.Sum+1<<30 || m.Max != 1<<30 {
		t.Fatalf("merged = count %d sum %d max %d", m.Count, m.Sum, m.Max)
	}
}

// TestValueHistogramClampMonotone: a Reset racing observers can leave
// Max loaded from the other side of the cut; quantiles must still come
// out ordered and at or below it.
func TestValueHistogramClampMonotone(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	h.max.Store(10) // as if Reset zeroed max and one small value landed
	s := h.Snapshot()
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Fatalf("quantiles not clamped monotone: p50=%d p95=%d p99=%d max=%d", s.P50, s.P95, s.P99, s.Max)
	}
}

// TestHistogramQuantileError pins the one quantile routine's relative
// error: sub-octave buckets reporting their midpoint stay within an
// eighth of the exact quantile (the log2 buckets this type replaced
// were off by up to a factor of two — sslload could only ever print
// powers of two).
func TestHistogramQuantileError(t *testing.T) {
	uniform := make([]int64, 0, 10000)
	for v := int64(1); v <= 10000; v++ {
		uniform = append(uniform, 37*v) // 37 … 370,000
	}
	bimodal := make([]int64, 0, 1000)
	for i := 0; i < 700; i++ {
		bimodal = append(bimodal, 4100+int64(i)) // ~4.1 ms in µs
	}
	for i := 0; i < 300; i++ {
		bimodal = append(bimodal, 8190+int64(i)) // ~8.19 ms
	}
	single := make([]int64, 500)
	for i := range single {
		single[i] = 6151
	}
	for name, values := range map[string][]int64{"uniform": uniform, "bimodal": bimodal, "single": single} {
		var h Histogram
		for _, v := range values {
			h.Observe(v)
		}
		// values are built ascending, so the exact quantile is an index.
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			exact := values[int(math.Ceil(q*float64(len(values))))-1]
			got := h.Quantile(q)
			if err := math.Abs(float64(got)-float64(exact)) / float64(exact); err > 0.125 {
				t.Errorf("%s q%.2f = %d, exact %d: relative error %.3f > 0.125", name, q, got, exact, err)
			}
		}
	}
}
