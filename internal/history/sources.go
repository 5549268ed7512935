package history

import (
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/pathlen"
	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/slo"
	"sslperf/internal/telemetry"
	"sslperf/internal/trace"
)

// This file binds every observatory surface to the ring layer. Each
// source reads the surface's allocation-free accessor
// (telemetry.Counts, slo.Stats, lifecycle.Counts, pathlen totals,
// trace.SharesInto) so the whole tick stays off the heap. The
// telemetry and pathlen reads include the open connections' running
// totals, so records.*, bytes.* and pathlen.* move while a long
// transfer is still in progress.

// source is a Source from a fixed series list and a sampling closure
// that keeps whatever state it needs between ticks.
type source struct {
	defs   []SeriesDef
	sample func(vals []float64)
}

func (s source) Series() []SeriesDef   { return s.defs }
func (s source) Sample(vals []float64) { s.sample(vals) }

// counters and gauges build series lists of one kind, as name/unit
// pairs.
func counters(nameUnit ...string) []SeriesDef { return defs(KindCounter, nameUnit) }
func gauges(nameUnit ...string) []SeriesDef   { return defs(KindGauge, nameUnit) }

func defs(kind Kind, nameUnit []string) []SeriesDef {
	out := make([]SeriesDef, 0, len(nameUnit)/2)
	for i := 0; i+1 < len(nameUnit); i += 2 {
		out = append(out, SeriesDef{Name: nameUnit[i], Unit: nameUnit[i+1], Kind: kind})
	}
	return out
}

// Sources bundles the standard observatory surfaces for
// AddStandardSources. Nil fields (and false Runtime) are skipped.
type Sources struct {
	Telemetry *telemetry.Registry
	Runtime   bool
	SLO       *slo.Tracker
	Lifecycle *lifecycle.Table
	Pathlen   *pathlen.Collector
	Anatomy   *trace.Profiler
}

// AddStandardSources registers a source per populated surface, in a
// fixed order (telemetry, runtime, slo, conns, pathlen, anatomy).
func AddStandardSources(h *History, s Sources) {
	if reg := s.Telemetry; reg != nil {
		// The record/handshake counters, which the snapshot renders as
		// rates (handshakes/s, bytes/s — the paper's throughput axes).
		h.AddSource(source{counters(
			"connections", "conn/s",
			"handshakes.full", "hs/s", "handshakes.resumed", "hs/s", "handshakes.failed", "hs/s",
			"records.in", "rec/s", "records.out", "rec/s", "bytes.in", "B/s", "bytes.out", "B/s",
			"alerts.in", "alerts/s", "alerts.out", "alerts/s",
		), func(vals []float64) {
			c := reg.Counts()
			for i, v := range [...]uint64{
				c.Connections, c.HandshakesFull, c.HandshakesResumed, c.HandshakesFailed,
				c.RecordsIn, c.RecordsOut, c.BytesIn, c.BytesOut, c.AlertsReceived, c.AlertsSent,
			} {
				vals[i] = float64(v)
			}
		}})
	}
	if s.Runtime {
		// The Go runtime gauges through a reusable runtime/metrics
		// buffer (allocation-free after the first read; the sampler is
		// not safe for concurrent use, and the history serializes Sample
		// calls under its lock).
		sampler := telemetry.NewRuntimeSampler()
		h.AddSource(source{gauges(
			"runtime.goroutines", "goroutines", "runtime.heap_inuse_bytes", "B",
			"runtime.gc_pause_p99_us", "us", "runtime.sched_lat_p99_us", "us",
		), func(vals []float64) {
			rs := sampler.Read()
			vals[0] = float64(rs.Goroutines)
			vals[1] = float64(rs.HeapInuseBytes)
			vals[2] = float64(rs.GCPauseP99) / 1e3
			vals[3] = float64(rs.SchedLatP99) / 1e3
		}})
	}
	if tracker := s.SLO; tracker != nil {
		// The short (10s) SLO window: p99, error rate, burn rate,
		// in-flight handshakes, and queue-delay mean — the overload
		// early-warning gauges.
		h.AddSource(source{gauges(
			"slo.p99_us", "us", "slo.error_rate", "frac", "slo.burn", "x",
			"slo.inflight", "hs", "slo.queue_mean_us", "us",
		), func(vals []float64) {
			ws := tracker.Stats(10)
			vals[0] = ws.P99Us
			vals[1] = ws.ErrorRate
			vals[2] = ws.BurnRate
			vals[3] = float64(tracker.InFlight())
			vals[4] = ws.QueueMeanUs
		}})
	}
	if table := s.Lifecycle; table != nil {
		// The connection table: live per-state gauges, opened/closed/
		// failed counters, and one counter per canonical failure class
		// (fail.<tag>; FailNone is skipped, successful closes are already
		// conns.closed), so ssltop's fail-class top-K reads straight
		// from the history endpoint.
		defs := append(gauges(
			"conns.live", "conns", "conns.accepted", "conns", "conns.handshaking", "conns",
			"conns.established", "conns",
		), counters("conns.opened", "conn/s", "conns.closed", "conn/s", "conns.failed", "conn/s")...)
		for class := probe.FailClass(1); class <= probe.FailInternal; class++ {
			defs = append(defs, SeriesDef{Name: "fail." + class.Name(), Unit: "fail/s", Kind: KindCounter})
		}
		h.AddSource(source{defs, func(vals []float64) {
			c := table.Counts()
			for i, v := range [...]int{c.Live, c.Accepted, c.Handshaking, c.Established} {
				vals[i] = float64(v)
			}
			vals[4] = float64(c.Opened)
			vals[5] = float64(c.Closed)
			vals[6] = float64(c.Failed)
			for class := 1; class <= int(probe.FailInternal); class++ {
				vals[6+class] = float64(c.FailByClass[class])
			}
		}})
	}
	if collector := s.Pathlen; collector != nil {
		// Windowed cipher and MAC cycles/byte: the previous cumulative
		// (bytes, nanos) totals are kept and the delta window's intensity
		// rendered, so the gauge tracks the *current* mix (an RC4 to AES
		// suite shift moves it within one tick, where the cumulative
		// Table-11 view only drifts).
		var prevCipherBytes, prevCipherNs, prevMACBytes, prevMACNs uint64
		h.AddSource(source{gauges("pathlen.cipher_cyc_b", "cyc/B", "pathlen.mac_cyc_b", "cyc/B"),
			func(vals []float64) {
				cb, cn, mb, mn := collector.Totals()
				vals[0] = windowedCycPerByte(cb, cn, &prevCipherBytes, &prevCipherNs)
				vals[1] = windowedCycPerByte(mb, mn, &prevMACBytes, &prevMACNs)
			}})
	}
	if profiler := s.Anatomy; profiler != nil {
		// The profiler's live Table-2 step shares
		// (anatomy.share.<step>, percent of total step time) and the
		// crypto share of handshake cost — the paper's headline split.
		steps := probe.Steps()
		var defs []SeriesDef
		for _, step := range steps {
			defs = append(defs, SeriesDef{Name: "anatomy.share." + step.Name(), Unit: "%", Kind: KindGauge})
		}
		defs = append(defs, SeriesDef{Name: "anatomy.crypto_share", Unit: "%", Kind: KindGauge})
		h.AddSource(source{defs, func(vals []float64) {
			vals[len(steps)] = profiler.SharesInto(steps, vals)
		}})
	}
}

// windowedCycPerByte differences cumulative totals against the
// previous tick and returns the window's cycles/byte (0 when the
// window saw no bytes, or after a reset rewound the counters).
func windowedCycPerByte(bytes, ns uint64, prevBytes, prevNs *uint64) float64 {
	db, dn := bytes-*prevBytes, ns-*prevNs
	if bytes < *prevBytes || ns < *prevNs {
		// Counters rewound (/debug/reset): treat the new totals as the
		// window.
		db, dn = bytes, ns
	}
	*prevBytes, *prevNs = bytes, ns
	if db == 0 {
		return 0
	}
	return perf.Cycles(time.Duration(dn)) / float64(db)
}
