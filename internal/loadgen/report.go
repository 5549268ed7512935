package loadgen

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Check reports whether the recorded distributions are internally
// consistent: each phase's quantiles must be ordered (p50 <= p95 <=
// p99 <= max) and the phases must nest (the handshake is part of the
// total, so its mean cannot exceed the total's).
func (res *Result) Check() error {
	var errs []error
	means := map[string]float64{}
	for _, p := range res.Phases {
		h := p.Hist
		if h.Count == 0 {
			continue
		}
		means[p.Name] = h.Mean
		if h.P50 > h.P95 || h.P95 > h.P99 || h.P99 > h.Max {
			errs = append(errs, fmt.Errorf("%s: p50 %d / p95 %d / p99 %d / max %d not monotone",
				p.Name, h.P50, h.P95, h.P99, h.Max))
		}
	}
	hs, okHS := means[PhaseHandshake]
	total, okT := means[PhaseTotal]
	if okHS && okT && hs > total {
		errs = append(errs, fmt.Errorf("mean handshake %.0fus exceeds mean total %.0fus", hs, total))
	}
	return errors.Join(errs...)
}

// Text renders the run as an aligned human-readable summary.
func (res *Result) Text() string {
	var sb strings.Builder
	switch res.Mode {
	case "open":
		fmt.Fprintf(&sb, "open loop: %.0f conns/s intended, %d in-flight cap, %v measured (+%v warmup)\n",
			res.Rate, res.Concurrency, res.Duration, res.Warmup)
	default:
		fmt.Fprintf(&sb, "closed loop: %d workers, %v measured (+%v warmup)\n",
			res.Concurrency, res.Duration, res.Warmup)
	}
	secs := res.Elapsed.Seconds()
	fmt.Fprintf(&sb, "connections: %d done, %d failed, %d resumed (%d discarded in warmup)\n",
		res.Done, res.Failed, res.Resumed, res.WarmupDiscarded)
	if secs > 0 {
		fmt.Fprintf(&sb, "throughput: %.1f conns/s, %.1f requests/s, %.2f MB/s\n",
			float64(res.Done)/secs, float64(res.Requests)/secs, float64(res.Bytes)/1e6/secs)
	}
	fmt.Fprintf(&sb, "\n%-16s %10s %10s %10s %10s %10s %8s\n",
		"phase", "mean", "p50", "p95", "p99", "max", "n")
	for _, p := range res.Phases {
		if p.Hist.Count == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-16s %10s %10s %10s %10s %10s %8d\n", p.Name,
			usStr(p.Hist.Mean), usStr(float64(p.Hist.P50)), usStr(float64(p.Hist.P95)),
			usStr(float64(p.Hist.P99)), usStr(float64(p.Hist.Max)), p.Hist.Count)
	}
	if len(res.BySuite) > 0 {
		sb.WriteString("\nsuite mix:\n")
		for _, name := range sortedKeys(res.BySuite) {
			fmt.Fprintf(&sb, "  %-28s %d\n", name, res.BySuite[name])
		}
	}
	if len(res.Errors) > 0 {
		sb.WriteString("\nerrors:\n")
		for _, reason := range sortedKeys(res.Errors) {
			fmt.Fprintf(&sb, "  %-40s %d\n", reason, res.Errors[reason])
		}
	}
	return sb.String()
}

// usStr renders a microsecond quantity with a unit humans can scan.
func usStr(us float64) string {
	d := time.Duration(us * float64(time.Microsecond))
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", us)
	}
}

// sortedKeys returns m's keys in order, so two identical runs render
// identically.
func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
