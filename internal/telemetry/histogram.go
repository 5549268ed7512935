package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Bucket geometry, shared by every distribution in the observatory:
// the values 0–3 get a bucket each, and from 4 up every power of two
// splits into histSub equal sub-buckets, so a bucket is never wider
// than a quarter of its lower bound. Values of 2^histMaxExp and above
// (18 minutes in nanoseconds) land in one overflow bucket.
const (
	histSub     = 4
	histMaxExp  = 40
	histBuckets = histSub + (histMaxExp-2)*histSub + 1
)

// bucketFor maps a value to its bucket index (negatives clamp to 0).
func bucketFor(v int64) int {
	if v < histSub {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	return histSub + (e-2)*histSub + int(v>>(e-2))&(histSub-1)
}

// bucketRange returns the values [lo, hi] bucket i holds; the overflow
// bucket has no upper end and reports hi = -1.
func bucketRange(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i)
	}
	if i >= histBuckets-1 {
		return 1 << histMaxExp, -1
	}
	e := (i-histSub)/histSub + 2
	width := int64(1) << (e - 2)
	lo = int64(1)<<e + int64((i-histSub)%histSub)*width
	return lo, lo + width - 1
}

// A Histogram is the observatory's one distribution type: int64
// values (nanoseconds, microseconds, byte counts — the owner picks the
// unit) in wait-free sub-octave buckets. Observe is a
// few atomic adds, so it can sit on a shared path. The zero value is
// ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketFor(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Reset zeroes the histogram. Concurrent Observe calls may land on
// either side of the cut.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
	h.max.Store(0)
}

// Sum returns the sum of every observed value.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// load copies the bucket counts and returns their total.
func (h *Histogram) load(counts *[histBuckets]uint64) (total uint64) {
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return total
}

// quantile is the one quantile routine: the midpoint of the bucket
// holding the rank-th sample — at most an eighth off the true value —
// and never above the observed max, which is also what the overflow
// bucket reports.
func quantile(counts *[histBuckets]uint64, total uint64, q float64, max int64) int64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	rank = min(total, rank)
	var seen uint64
	for i, c := range counts {
		seen += c
		if c == 0 || seen < rank {
			continue
		}
		lo, hi := bucketRange(i)
		if hi < 0 {
			return max
		}
		return min(lo+(hi-lo)/2, max)
	}
	return max
}

// A Tick reads cumulative histograms one interval at a time: from the
// bucket deltas against one saved copy of the previous counts, so the
// read allocates nothing.
type Tick struct{ prev [histBuckets]uint64 }

// next saves hs' summed bucket counts and returns the q-quantile of
// the values they observed since the previous call (0 when none). A
// bucket below its saved count was Reset: its new count is the delta.
func (t *Tick) next(q float64, hs ...*Histogram) int64 {
	var cur, delta [histBuckets]uint64
	var total uint64
	var hi int64
	for _, h := range hs {
		for i := range cur {
			cur[i] += h.counts[i].Load()
		}
		hi = max(hi, h.max.Load())
	}
	for i, c := range cur {
		delta[i] = c - t.prev[i]
		if c < t.prev[i] {
			delta[i] = c
		}
		total += delta[i]
	}
	t.prev = cur
	return quantile(&delta, total, q, hi)
}

// A Bucket is one non-empty histogram bucket: Count values at or below
// UpperBound (and above the previous bucket's); -1 marks the overflow
// bucket.
type Bucket struct {
	UpperBound int64  `json:"le"`
	Count      uint64 `json:"count"`
}

// A HistogramSnapshot is a rendering copy of a Histogram, in the
// histogram's own unit. Concurrent Observe calls may straddle the copy,
// so it is consistent enough for rendering rather than a point-in-time
// cut; quantiles are always ordered and never above Max.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Mean    float64  `json:"mean"`
	P50     int64    `json:"p50"`
	P90     int64    `json:"p90"`
	P95     int64    `json:"p95"`
	P99     int64    `json:"p99"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets]uint64
	s := HistogramSnapshot{Count: h.load(&counts), Sum: h.sum.Load(), Max: h.max.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	s.P50 = quantile(&counts, s.Count, 0.50, s.Max)
	s.P90 = quantile(&counts, s.Count, 0.90, s.Max)
	s.P95 = quantile(&counts, s.Count, 0.95, s.Max)
	s.P99 = quantile(&counts, s.Count, 0.99, s.Max)
	for i, c := range counts {
		if c > 0 {
			_, hi := bucketRange(i)
			s.Buckets = append(s.Buckets, Bucket{UpperBound: hi, Count: c})
		}
	}
	return s
}
