package ssl

import (
	"testing"

	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/trace"
)

// benchHandshakeTraced is benchHandshake with a sampling conn table on
// the server side: the tracing-off run is the baseline the other two
// compare against, SampleEvery=16 is the documented production
// setting, and SampleEvery=1 is the worst case (every handshake keeps
// ~40 calls and folds into the profiler).
func benchHandshakeTraced(b *testing.B, tracer *trace.Tracer) {
	ccfg, scfg := benchConfigs(b, nil)
	if tracer != nil {
		scfg.Observers = []probe.Observer{lifecycle.NewTable(lifecycle.Options{Tracer: tracer, Ring: 8})}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, st := Pipe()
		client, server := ClientConn(ct, ccfg), ServerConn(st, scfg)
		errs := make(chan error, 1)
		go func() { errs <- client.Handshake() }()
		if err := server.Handshake(); err != nil {
			b.Fatal(err)
		}
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
		server.Close()
		client.Close()
	}
}

func BenchmarkHandshakeTraceOff(b *testing.B) { benchHandshakeTraced(b, nil) }

func BenchmarkHandshakeTraceSampled16(b *testing.B) {
	benchHandshakeTraced(b, trace.NewTracer(trace.Config{SampleEvery: 16}))
}

func BenchmarkHandshakeTraceAlways(b *testing.B) {
	benchHandshakeTraced(b, trace.NewTracer(trace.Config{SampleEvery: 1}))
}
