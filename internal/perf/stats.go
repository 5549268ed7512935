package perf

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// A Series collects repeated duration measurements and reports
// distribution statistics — the per-request latency view the paper's
// averages flatten.
type Series struct {
	samples []time.Duration
	sorted  bool
}

// Add appends one measurement.
func (s *Series) Add(d time.Duration) {
	s.samples = append(s.samples, d)
	s.sorted = false
}

// N reports the sample count.
func (s *Series) N() int { return len(s.samples) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Series) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.samples {
		sum += d
	}
	return sum / time.Duration(len(s.samples))
}

// StdDev returns the population standard deviation.
func (s *Series) StdDev() time.Duration {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := float64(s.Mean())
	var ss float64
	for _, d := range s.samples {
		diff := float64(d) - mean
		ss += diff * diff
	}
	return time.Duration(math.Sqrt(ss / float64(n)))
}

func (s *Series) ensureSorted() {
	if !s.sorted {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank; 0 when empty.
func (s *Series) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	if p <= 0 {
		p = 1e-9
	}
	if p > 100 {
		p = 100
	}
	s.ensureSorted()
	rank := int(math.Ceil(p / 100 * float64(len(s.samples))))
	if rank < 1 {
		rank = 1
	}
	return s.samples[rank-1]
}

// Max returns the largest sample (0 when empty).
func (s *Series) Max() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[len(s.samples)-1]
}

// String summarizes the distribution.
func (s *Series) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(90),
		s.Percentile(99), s.Max())
}
