package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is set by a handful of outliers
// and does not repeat.
const minBeyond = 10

// percentile returns the exact q-quantile of sorted samples by the
// nearest-rank rule (the smallest sample with at least q·n samples at
// or below it) and how many samples lie beyond it. sorted must be
// ascending and non-empty.
func percentile(sorted []time.Duration, q float64) (v time.Duration, beyond int) {
	n := len(sorted)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i], n - 1 - i
}

// tailLevels are the tail percentiles tried from the highest down.
var tailLevels = []float64{0.99, 0.9, 0.5}

// tailPercentile returns the q-quantile when at least minBeyond
// samples lie beyond it. Otherwise it falls back to the highest level
// of tailLevels below q that is supported (the median always is), and
// reports the level actually used.
func tailPercentile(sorted []time.Duration, q float64) (v time.Duration, used float64) {
	v, beyond := percentile(sorted, q)
	if beyond >= minBeyond {
		return v, q
	}
	for _, l := range tailLevels {
		if l >= q {
			continue
		}
		if v, beyond = percentile(sorted, l); beyond >= minBeyond {
			return v, l
		}
	}
	v, _ = percentile(sorted, 0.5)
	return v, 0.5
}

// median returns the middle value of vals (the mean of the two middle
// values for an even count), leaving vals untouched. Empty input
// gives 0.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// A metric is one reported number with, where it was measured round by
// round, every round's value and their extremes beside it, so that a
// polluted round shows without moving the result.
type metric struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// ofRounds summarises per-round values as their median, min and max.
func ofRounds(unit string, rounds []float64) metric {
	m := metric{Unit: unit, Value: median(rounds), Rounds: rounds}
	for i, v := range rounds {
		if i == 0 || v < m.Min {
			m.Min = v
		}
		if i == 0 || v > m.Max {
			m.Max = v
		}
	}
	return m
}

// ofQuiet is a metric taken over quiet slices: f of the quiet eighth
// of all the run's slices, with f of each round's own quiet eighth
// beside it.
func ofQuiet(unit string, rounds [][]slice, f func(slice) float64) metric {
	var all []slice
	per := make([]float64, len(rounds))
	for i, r := range rounds {
		all = append(all, r...)
		per[i] = f(quiet(r))
	}
	m := ofRounds(unit, per)
	m.Value = f(quiet(all))
	return m
}

// single is a metric measured once per run (a count, a peak).
func single(unit string, v float64) metric {
	return metric{Unit: unit, Value: v, Min: v, Max: v}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sliceLen is the length of the slices a measured window is cut into.
// It is shorter than the host's slow periods, which last from a few
// hundred milliseconds to seconds, and long enough that the slowest
// workload completes some ten ops in one.
const sliceLen = 100 * time.Millisecond

// quietShare is the share of a run's slices its values are taken over.
const quietShare = 8

// A slice is one short interval of a measured window: how long it
// lasted, the server's on-CPU time in it, and the latency of every op
// that completed in it.
type slice struct {
	Dur time.Duration
	CPU time.Duration
	Lat []time.Duration
}

func (s slice) rate() float64 { return float64(len(s.Lat)) / s.Dur.Seconds() }

// quiet returns the eighth of the given slices (at least one) in which
// ops completed at the highest rate, merged into one: the time the
// host left both processes alone. A neighbour can only slow the two
// vCPUs down, and in a bad minute it does so most of the time (see
// README.md), so the best eighth is what repeats from run to run. The
// choice is made on the outcome, which biases every value taken over
// it towards fast by the same few percent on every commit.
func quiet(all []slice) slice {
	s := append([]slice(nil), all...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].rate() > s[j].rate() })
	n := len(s) / quietShare
	if n == 0 {
		n = 1
	}
	var m slice
	for _, q := range s[:n] {
		m.Dur += q.Dur
		m.CPU += q.CPU
		m.Lat = append(m.Lat, q.Lat...)
	}
	slices.Sort(m.Lat)
	return m
}
