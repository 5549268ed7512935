package history

import (
	"testing"
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/pathlen"
	"sslperf/internal/probe"
	"sslperf/internal/slo"
	"sslperf/internal/telemetry"
	"sslperf/internal/trace"
)

// warmStandardSampler builds a History over every standard source
// (telemetry, runtime, slo, lifecycle, pathlen, anatomy) with enough
// state that the fold paths run, and ticks it past its warm-up.
func warmStandardSampler() *History {
	reg := telemetry.NewRegistry()
	tracker := slo.New(slo.Config{})
	col := pathlen.NewCollector()
	tab := lifecycle.NewTable(lifecycle.Options{Registry: reg, SLO: tracker, Pathlen: col})

	// Give the surfaces some state so the fold paths run, not the
	// empty-case shortcuts: one connection folded and closed, one still
	// open whose running totals every tick adds in.
	for conn := uint64(1); conn <= 2; conn++ {
		sink := tab.Observe()
		sink.Emit(probe.Event{Kind: probe.KindConnOpen, Conn: conn})
		sink.Emit(probe.Event{Kind: probe.KindHandshakeStart})
		sink.Emit(probe.Event{Kind: probe.KindHandshakeDone, Fn: "TLS_RSA_WITH_RC4_128_MD5", Version: 0x0301, Dur: 2 * time.Millisecond})
		sink.Emit(probe.Event{Kind: probe.KindRecordCrypto, Op: probe.OpCipherEncrypt, Prim: "RC4", Bytes: 4096, Dur: time.Microsecond})
		sink.Emit(probe.Event{Kind: probe.KindRecordIO, Bytes: 1024})
		sink.Emit(probe.Event{Kind: probe.KindRecordIO, Written: true, Bytes: 4096})
		if conn == 1 {
			sink.Emit(probe.Event{Kind: probe.KindConnClose})
		}
	}

	h := New(Config{Interval: time.Second})
	AddStandardSources(h, Sources{
		Telemetry: reg,
		Runtime:   true,
		SLO:       tracker,
		Lifecycle: tab,
		Pathlen:   col,
		Anatomy:   trace.NewProfiler(),
	})

	// Warm up: the first runtime/metrics read allocates its histogram
	// buffers; steady state must not.
	h.SampleNow()
	h.SampleNow()
	return h
}

// BenchmarkHistorySample times one full tick over every standard
// source; it has to stay far under the 1s default sampling interval.
func BenchmarkHistorySample(b *testing.B) {
	h := warmStandardSampler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SampleNow()
	}
}

// TestSampleNowZeroAlloc pins the steady-state tick at zero
// allocations, so /debug/history and /debug/watch can stay on in
// production. An allocation means a source's accessor regressed onto
// a Snapshot()-style rendering path.
func TestSampleNowZeroAlloc(t *testing.T) {
	h := warmStandardSampler()
	if a := testing.AllocsPerRun(100, h.SampleNow); a != 0 {
		t.Fatalf("SampleNow over the standard sources allocates %.1f/tick, want 0", a)
	}
}
