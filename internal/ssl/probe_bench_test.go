package ssl

import (
	"testing"

	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/slo"
	"sslperf/internal/telemetry"
	"sslperf/internal/trace"
)

// probedConfigs wires a handshake pair at one of the probe spine's
// deployment points: no sinks at all (the bus is nil and every hook
// is a pointer test), the production 1-in-16 trace sampling, or every
// sink adapter at once — anatomy fold + telemetry counters + always-on
// span building + the lifecycle conn-table entry riding one bus.
func probedConfigs(tb testing.TB, obs ...probe.Observer) (ccfg, scfg *Config) {
	ccfg, scfg = benchConfigs(tb, nil)
	scfg.Observers = obs
	return ccfg, scfg
}

func allSinksConfigs(tb testing.TB) (ccfg, scfg *Config) {
	tab := lifecycle.NewTable(lifecycle.Options{SLO: slo.New(slo.Config{})})
	return probedConfigs(tb, telemetry.NewRegistry(), trace.NewTracer(trace.Config{SampleEvery: 1}), tab)
}

// handshakeOnce runs one full handshake over the in-memory pipe, the
// client on its own goroutine, and closes both ends.
func handshakeOnce(tb testing.TB, ccfg, scfg *Config) {
	ct, st := Pipe()
	client, server := ClientConn(ct, ccfg), ServerConn(st, scfg)
	errs := make(chan error, 1)
	go func() { errs <- client.Handshake() }()
	if err := server.Handshake(); err != nil {
		tb.Fatal(err)
	}
	if err := <-errs; err != nil {
		tb.Fatal(err)
	}
	server.Close()
	client.Close()
}

func benchHandshakeProbed(b *testing.B, ccfg, scfg *Config) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handshakeOnce(b, ccfg, scfg)
	}
}

func BenchmarkHandshakeProbeOff(b *testing.B) {
	ccfg, scfg := probedConfigs(b)
	benchHandshakeProbed(b, ccfg, scfg)
}

func BenchmarkHandshakeProbeSampled16(b *testing.B) {
	ccfg, scfg := probedConfigs(b, trace.NewTracer(trace.Config{SampleEvery: 16}))
	benchHandshakeProbed(b, ccfg, scfg)
}

func BenchmarkHandshakeProbeAll(b *testing.B) {
	ccfg, scfg := allSinksConfigs(b)
	benchHandshakeProbed(b, ccfg, scfg)
}

// TestAllSinksAllocBudget is the machine-independent half of the
// observability budget: a full handshake with every sink attached
// allocates at most 64 objects more than the same seeded handshake
// with none (+43 measured). The timing half belongs to bench/.
func TestAllSinksAllocBudget(t *testing.T) {
	allocs := func(ccfg, scfg *Config) float64 {
		run := func() {
			ccfg.Rand, scfg.Rand = NewPRNG(32), NewPRNG(31)
			handshakeOnce(t, ccfg, scfg)
		}
		run() // warm pools, the registry and the tracer's rings
		return testing.AllocsPerRun(10, run)
	}
	off := allocs(probedConfigs(t))
	all := allocs(allSinksConfigs(t))
	if all-off > 64 {
		t.Fatalf("every sink attached costs %.0f allocs/handshake over the sink-free %.0f, want <= 64", all-off, off)
	}
}
