package ssl

import (
	"testing"

	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
	"sslperf/internal/testenv"
)

// The probe spine's deployment points: no observer at all (the bus is
// nil and every hook is a pointer test), or a conn table whose entry is
// the one sink on the server's bus, with every aggregate a server can
// attach folding from it — and the production 1-in-16 detail sampling
// (sslserver -telemetry -trace 16), or every connection kept in detail.
func probedConfigs(tb testing.TB) (ccfg, scfg *Config) { return benchConfigs(tb, nil) }

func observedConfigs(tb testing.TB, obs probe.Observer) (ccfg, scfg *Config) {
	ccfg, scfg = benchConfigs(tb, nil)
	scfg.Observer = obs
	return ccfg, scfg
}

// benchRing is the closed-record ring these configs keep: small, so a
// few handshakes fill it and reach the steady state a server runs in —
// every close evicts an entry back into the pool the next open draws
// from.
const benchRing = 8

func sampledConfigs(tb testing.TB, every int) (ccfg, scfg *Config) {
	return observedConfigs(tb, lifecycle.NewTable(lifecycle.Options{
		Registry:    telemetry.NewRegistry(),
		SampleEvery: every,
		Ring:        benchRing,
	}))
}

func allSinksConfigs(tb testing.TB) (ccfg, scfg *Config) { return sampledConfigs(tb, 1) }

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
	ccfg, scfg := sampledConfigs(b, 16)
	benchHandshakeProbed(b, ccfg, scfg)
}

func BenchmarkHandshakeProbeAll(b *testing.B) {
	ccfg, scfg := allSinksConfigs(b)
	benchHandshakeProbed(b, ccfg, scfg)
}

// TestAllSinksAllocBudget is the machine-independent half of the
// observability budget: a full handshake with every aggregate folding
// from its record, kept in full detail, allocates at most 8 objects
// more than the same seeded handshake unobserved (+2 measured: the
// bus, plus what the pooled records' detail slices and the table's
// shard maps still grow in these few runs; over 2,000 handshakes
// BenchmarkHandshakeProbeAll reads +1, the bus alone). The timing half
// belongs to bench/.
func TestAllSinksAllocBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("race runtime allocates on sync paths and empties pools")
	}
	allocs := func(ccfg, scfg *Config) float64 {
		run := func() {
			ccfg.Rand, scfg.Rand = NewPRNG(32), NewPRNG(31)
			handshakeOnce(t, ccfg, scfg)
		}
		for i := 0; i < 2*benchRing; i++ {
			run() // warm pools and the registry, fill the record ring
		}
		return testing.AllocsPerRun(10, run)
	}
	off := allocs(probedConfigs(t))
	all := allocs(allSinksConfigs(t))
	t.Logf("every aggregate attached: +%.0f allocs/handshake over the unobserved %.0f", all-off, off)
	if all-off > 8 {
		t.Fatalf("every sink attached costs %.0f allocs/handshake over the sink-free %.0f, want <= 8", all-off, off)
	}
}
