package ssl

import (
	"testing"

	"sslperf/internal/probe"
	"sslperf/internal/trace"
)

// benchHandshakeTraced is benchHandshake with a tracer on the server
// side: the tracing-off run is the baseline the other two compare
// against, SampleEvery=16 is the documented production setting, and
// SampleEvery=1 is the worst case (every handshake records ~40 spans
// and folds into the profiler).
func benchHandshakeTraced(b *testing.B, tracer *trace.Tracer) {
	ccfg, scfg := benchConfigs(b, nil)
	if tracer != nil {
		scfg.Observers = []probe.Observer{tracer}
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
