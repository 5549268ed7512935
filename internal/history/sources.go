package history

import (
	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
)

// This file binds every observatory surface to the ring layer. Each
// source reads the surface's allocation-free accessor
// (telemetry.Counts, Tick and SharesInto, lifecycle.Counts) so the
// whole tick stays off the heap. The telemetry reads include the open
// connections' running totals, so records.*, bytes.* and pathlen.*
// move while a long transfer is still in progress.

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
	Lifecycle *lifecycle.Table
}

// AddStandardSources registers a source per populated surface, in a
// fixed order (telemetry, runtime, conns).
func AddStandardSources(h *History, s Sources) {
	if reg := s.Telemetry; reg != nil {
		h.AddSource(telemetrySource(reg))
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
}

// telemetrySource is every registry-backed series, filled from one
// Registry.Counts read per tick: that read takes the conn table's fold
// lock and walks every live entry.
func telemetrySource(reg *telemetry.Registry) Source {
	// The record/handshake counters, which the snapshot renders as
	// rates (handshakes/s, bytes/s — the paper's throughput axes), and
	// the SLO's slow, latency and queue-delay sums that /debug/slo's
	// windows add up.
	defs := counters(
		"connections", "conn/s",
		"handshakes.full", "hs/s", "handshakes.resumed", "hs/s", "handshakes.failed", "hs/s",
		"records.in", "rec/s", "records.out", "rec/s", "bytes.in", "B/s", "bytes.out", "B/s",
		"alerts.in", "alerts/s", "alerts.out", "alerts/s",
		"handshakes.slow", "hs/s", "handshakes.time_us", "us/s",
		"queue.delays", "hs/s", "queue.delay_us", "us/s",
	)
	// Gauges: the tick's worst handshakes (the p99 latency of the
	// successes and the largest queue delay among the handshakes that
	// ended in it), then windowed cipher, MAC and stitched-seal
	// cycles/byte: the previous cumulative (bytes, nanos) totals are
	// kept and the delta window's intensity rendered, so the gauge
	// tracks the *current* mix (an RC4 to AES suite shift moves it
	// within one tick, where the cumulative Table-11 view only drifts).
	// 0 when the window saw no bytes. Then the registry's live Table-2
	// step shares (anatomy.share.<step>, percent of total step time) and
	// the sampled handshakes' crypto share — the paper's headline split.
	tick := len(defs)
	defs = append(defs, gauges("slo.p99_us", "us", "queue.max_us", "us",
		"pathlen.cipher_cyc_b", "cyc/B", "pathlen.mac_cyc_b", "cyc/B", "pathlen.stitched_cyc_b", "cyc/B")...)
	shares := len(defs)
	steps := probe.Steps()
	for _, step := range steps {
		defs = append(defs, SeriesDef{Name: "anatomy.share." + step.Name(), Unit: "%", Kind: KindGauge})
	}
	defs = append(defs, SeriesDef{Name: "anatomy.crypto_share", Unit: "%", Kind: KindGauge})

	var lat, queue telemetry.Tick
	var prev [3]telemetry.CryptoCell
	return source{defs, func(vals []float64) {
		c := reg.Counts()
		for i, v := range [...]uint64{
			c.Connections, c.HandshakesFull, c.HandshakesResumed, c.HandshakesFailed,
			c.RecordsIn, c.RecordsOut, c.BytesIn, c.BytesOut, c.AlertsReceived, c.AlertsSent,
			c.HandshakesSlow, uint64(c.HandshakeTime.Microseconds()),
			c.QueueDelays, uint64(c.QueueDelay.Microseconds()),
		} {
			vals[i] = float64(v)
		}
		p99, queueMax := reg.Tick(&lat, &queue)
		vals[tick], vals[tick+1] = float64(p99)/1e3, float64(queueMax)/1e3
		for i, g := range c.Crypto.Groups() {
			window := g // counters rewound (/debug/reset): the new totals are the window
			if g.Bytes >= prev[i].Bytes && g.Nanos >= prev[i].Nanos {
				window = telemetry.CryptoCell{Bytes: g.Bytes - prev[i].Bytes, Nanos: g.Nanos - prev[i].Nanos}
			}
			prev[i] = g
			vals[tick+2+i] = window.CyclesPerByte()
		}
		vals[len(vals)-1] = reg.SharesInto(steps, vals[shares:])
	}}
}
