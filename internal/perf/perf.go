// Package perf is the measurement substrate for the SSL anatomy study.
//
// It plays the role of the measurement tools in the original paper:
// Oprofile/VTune (wall-clock attribution to code regions) and SoftSDV
// (dynamic instruction accounting). Wall time is captured with the
// monotonic clock and converted to "model cycles" at a fixed model
// frequency so reports are comparable with the paper's 2.26 GHz
// Pentium 4 numbers. Instruction accounting is done by counting
// abstract operation classes emitted by instrumented kernels.
package perf

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ModelGHz is the clock frequency used to convert measured nanoseconds
// into "cycles" for report comparability with the paper's machine
// (2.26 GHz Pentium 4). It scales every cycle figure uniformly and has
// no effect on percentages or ratios.
const ModelGHz = 2.26

// Cycles converts a duration to model cycles at ModelGHz.
func Cycles(d time.Duration) float64 {
	return float64(d.Nanoseconds()) * ModelGHz
}

// Duration converts model cycles back into wall time at ModelGHz.
func Duration(cycles float64) time.Duration {
	return time.Duration(cycles / ModelGHz)
}

// A Sample is one attributed measurement: a named region and the time
// spent in it.
type Sample struct {
	Name    string
	Elapsed time.Duration
}

// A Breakdown accumulates time by region name, preserving first-seen
// order, and renders percentage tables like the ones in the paper.
// It is single-owner by design — not safe for concurrent use; each
// measured activity owns one and pays no synchronization for it.
type Breakdown struct {
	order   []string
	elapsed map[string]time.Duration
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{elapsed: make(map[string]time.Duration)}
}

// Add attributes d to region name.
func (b *Breakdown) Add(name string, d time.Duration) {
	if _, ok := b.elapsed[name]; !ok {
		b.order = append(b.order, name)
	}
	b.elapsed[name] += d
}

// Elapsed returns the accumulated time for region name.
func (b *Breakdown) Elapsed(name string) time.Duration { return b.elapsed[name] }

// Names returns the region names in first-seen order.
func (b *Breakdown) Names() []string {
	out := make([]string, len(b.order))
	copy(out, b.order)
	return out
}

// Total returns the sum over all regions.
func (b *Breakdown) Total() time.Duration {
	var sum time.Duration
	for _, d := range b.elapsed {
		sum += d
	}
	return sum
}

// Percent returns region name's share of the total, in percent.
// It returns 0 when the breakdown is empty.
func (b *Breakdown) Percent(name string) float64 {
	total := b.Total()
	if total == 0 {
		return 0
	}
	return 100 * float64(b.elapsed[name]) / float64(total)
}

// Scale divides every accumulated duration by n, turning an
// n-iteration aggregate into per-iteration figures. n must be > 0.
func (b *Breakdown) Scale(n int) {
	if n <= 0 {
		panic("perf: Breakdown.Scale with n <= 0")
	}
	for k, d := range b.elapsed {
		b.elapsed[k] = d / time.Duration(n)
	}
}

// Samples returns the breakdown as a slice in first-seen order.
func (b *Breakdown) Samples() []Sample {
	out := make([]Sample, 0, len(b.order))
	for _, name := range b.order {
		out = append(out, Sample{Name: name, Elapsed: b.elapsed[name]})
	}
	return out
}

// SortedByElapsed returns samples sorted by descending elapsed time.
func (b *Breakdown) SortedByElapsed() []Sample {
	s := b.Samples()
	sort.SliceStable(s, func(i, j int) bool { return s[i].Elapsed > s[j].Elapsed })
	return s
}

// String renders the breakdown as an aligned table of
// name / kilocycles / percent, in first-seen order.
func (b *Breakdown) String() string {
	var sb strings.Builder
	total := b.Total()
	width := 4
	for _, name := range b.order {
		if len(name) > width {
			width = len(name)
		}
	}
	fmt.Fprintf(&sb, "%-*s  %14s  %7s\n", width, "step", "cycles (x1000)", "%")
	for _, name := range b.order {
		d := b.elapsed[name]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(&sb, "%-*s  %14.1f  %6.2f%%\n", width, name, Cycles(d)/1000, pct)
	}
	fmt.Fprintf(&sb, "%-*s  %14.1f  %6.2f%%\n", width, "total", Cycles(total)/1000, 100.0)
	return sb.String()
}
