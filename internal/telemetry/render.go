package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sslperf/internal/perf"
)

// histRow formats the common histogram columns.
func histRow(t *perf.Table, name string, h HistogramSnapshot) {
	t.AddRow(name,
		fmt.Sprint(h.Count),
		kcyc(int64(h.Mean)), kcyc(h.P50), kcyc(h.P90), kcyc(h.P99), kcyc(h.Max))
}

// kcyc formats nanoseconds as thousands of model cycles, matching the
// unit of the paper's Table 2 and the perf.Breakdown renderer.
func kcyc(ns int64) string {
	return fmt.Sprintf("%.1f", perf.Cycles(time.Duration(ns))/1000)
}

// sortedKeys returns m's keys sorted for stable text output.
func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Text renders the snapshot as aligned tables in the style of the
// perf package's paper tables: a counter summary, handshake latency
// distributions, and a per-step share table built on perf.Breakdown.
func (s Snapshot) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "telemetry snapshot (uptime %.1fs, %d connections)\n\n",
		s.UptimeSeconds, s.Connections)

	counters := perf.NewTable("counters", "metric", "value")
	counters.AddRow("handshakes_full", fmt.Sprint(s.Handshakes.Full))
	counters.AddRow("handshakes_resumed", fmt.Sprint(s.Handshakes.Resumed))
	counters.AddRow("handshakes_failed", fmt.Sprint(s.Handshakes.Failed))
	for _, k := range sortedKeys(s.Handshakes.BySuite) {
		counters.AddRow("suite:"+k, fmt.Sprint(s.Handshakes.BySuite[k]))
	}
	for _, k := range sortedKeys(s.Handshakes.ByVersion) {
		counters.AddRow("version:"+k, fmt.Sprint(s.Handshakes.ByVersion[k]))
	}
	for _, k := range sortedKeys(s.Handshakes.FailReasons) {
		counters.AddRow("fail:"+k, fmt.Sprint(s.Handshakes.FailReasons[k]))
	}
	counters.AddRow("records_in", fmt.Sprint(s.IO.RecordsIn))
	counters.AddRow("records_out", fmt.Sprint(s.IO.RecordsOut))
	counters.AddRow("bytes_in", fmt.Sprint(s.IO.BytesIn))
	counters.AddRow("bytes_out", fmt.Sprint(s.IO.BytesOut))
	counters.AddRow("alerts_received", fmt.Sprint(s.IO.AlertsReceived))
	counters.AddRow("alerts_sent", fmt.Sprint(s.IO.AlertsSent))
	counters.AddRow("records_retained", fmt.Sprint(s.Observatory.RecordsRetained))
	counters.AddRow("records_evicted", fmt.Sprint(s.Observatory.RecordsEvicted))
	counters.AddRow("detail_sampled_out", fmt.Sprint(s.Observatory.DetailSampledOut))
	counters.AddRow("detail_rate_limited", fmt.Sprint(s.Observatory.DetailRateLimited))
	counters.AddRow("detail_truncated", fmt.Sprint(s.Observatory.DetailTruncated))
	counters.AddRow("close_log_suppressed", fmt.Sprint(s.Observatory.CloseLogSuppressed))
	sb.WriteString(counters.String())
	sb.WriteByte('\n')

	rt := perf.NewTable("go runtime", "metric", "value")
	rt.AddRow("goroutines", fmt.Sprint(s.Runtime.Goroutines))
	rt.AddRow("heap_inuse_bytes", fmt.Sprint(s.Runtime.HeapInuseBytes))
	rt.AddRow("gc_pause_p50", s.Runtime.GCPauseP50.String())
	rt.AddRow("gc_pause_p99", s.Runtime.GCPauseP99.String())
	rt.AddRow("sched_latency_p50", s.Runtime.SchedLatP50.String())
	rt.AddRow("sched_latency_p99", s.Runtime.SchedLatP99.String())
	rt.AddRow("sched_latency_max", s.Runtime.SchedLatMax.String())
	sb.WriteString(rt.String())
	sb.WriteByte('\n')

	lat := perf.NewTable("handshake latency (kcycles)",
		"kind", "n", "mean", "p50", "p90", "p99", "max")
	histRow(lat, "full", s.FullLatency)
	histRow(lat, "resumed", s.ResumedLatency)
	sb.WriteString(lat.String())

	if len(s.Steps) > 0 {
		sb.WriteByte('\n')
		steps := perf.NewTable("handshake steps (kcycles)",
			"step", "n", "mean", "p50", "p90", "p99", "max")
		// share reuses perf.Breakdown's percentage rendering over the
		// accumulated per-step time — the live Table 2.
		share := perf.NewBreakdown()
		for _, st := range s.Steps {
			histRow(steps, st.Name, st.Latency)
			share.Add(st.Name, time.Duration(st.Latency.Sum))
		}
		sb.WriteString(steps.String())
		sb.WriteByte('\n')
		sb.WriteString("per-step share of total handshake time:\n")
		sb.WriteString(share.String())
	}

	if len(s.Timers) > 0 {
		sb.WriteByte('\n')
		timers := perf.NewTable("engine timers (kcycles)",
			"timer", "n", "mean", "p50", "p90", "p99", "max")
		for _, t := range s.Timers {
			histRow(timers, t.Name, t.Latency)
		}
		sb.WriteString(timers.String())
	}

	if len(s.Values) > 0 {
		sb.WriteByte('\n')
		values := perf.NewTable("engine values",
			"value", "n", "mean", "p50", "p99", "max")
		for _, v := range s.Values {
			values.AddRow(v.Name,
				fmt.Sprint(v.Values.Count),
				fmt.Sprintf("%.2f", v.Values.Mean),
				fmt.Sprint(v.Values.P50), fmt.Sprint(v.Values.P99),
				fmt.Sprint(v.Values.Max))
		}
		sb.WriteString(values.String())
	}
	return sb.String()
}
