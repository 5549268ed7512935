package ssl

import (
	"sync"
	"testing"
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/rsabatch"
	"sslperf/internal/trace"
)

var traceSteps = []string{
	"init", "get_client_hello", "send_server_hello", "send_server_cert",
	"send_server_done", "get_client_kx", "get_cipher_spec/get_finished",
	"send_cipher_spec", "send_finished", "server_flush",
}

func TestTracedServerHandshake(t *testing.T) {
	tracer := trace.NewTracer(trace.Config{SampleEvery: 1})
	id := identity(t)
	sCfg := &Config{Rand: NewPRNG(3), Key: id.Key, CertDER: id.CertDER, Observers: []probe.Observer{tracer}}
	client, server := connect(t, clientCfg(nil), sCfg)

	// The handshake folds into the profiler immediately...
	snap := tracer.Profiler().Snapshot()
	if snap.Handshakes != 1 {
		t.Fatalf("profiler saw %d handshakes before close, want 1", snap.Handshakes)
	}
	if len(snap.Steps) != len(traceSteps) {
		t.Fatalf("profiler folded %d steps, want %d: %+v", len(snap.Steps), len(traceSteps), snap.Steps)
	}
	for i, want := range traceSteps {
		if snap.Steps[i].Name != want {
			t.Errorf("profiler step %d = %q, want %q", i, snap.Steps[i].Name, want)
		}
	}
	if snap.CryptoSharePct <= 0 {
		t.Error("no crypto attribution folded")
	}

	// ...but the trace publishes at Close, so bulk I/O is on it.
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := readFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if got := len(tracer.Traces()); got != 0 {
		t.Fatalf("%d traces published before close", got)
	}
	client.Close()
	server.Close()

	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("published %d traces, want 1 (the sampled server)", len(traces))
	}
	td := traces[0]
	if td.Role != "server" || td.Outcome != "ok" {
		t.Fatalf("trace role/outcome = %s/%s", td.Role, td.Outcome)
	}
	var steps []string
	var hsDetail string
	sawCrypto, sawIO := false, false
	for _, sp := range td.Spans {
		switch sp.Category {
		case trace.CatStep:
			steps = append(steps, sp.Name)
		case trace.CatCrypto:
			sawCrypto = true
		case trace.CatIO:
			sawIO = true
		case trace.CatConn:
			if sp.Name == "handshake" {
				hsDetail = sp.Detail
			}
		}
	}
	if len(steps) != len(traceSteps) {
		t.Fatalf("trace carries %d step spans, want %d: %v", len(steps), len(traceSteps), steps)
	}
	for i, want := range traceSteps {
		if steps[i] != want {
			t.Errorf("step span %d = %q, want %q", i, steps[i], want)
		}
	}
	if !sawCrypto {
		t.Error("no crypto spans recorded")
	}
	if !sawIO {
		t.Error("no application I/O spans recorded")
	}
	if hsDetail == "" {
		t.Error("handshake span has no suite detail")
	}
}

func TestUnsampledConnectionHasNoTrace(t *testing.T) {
	tracer := trace.NewTracer(trace.Config{SampleEvery: 1 << 20})
	id := identity(t)
	sCfg := &Config{Rand: NewPRNG(3), Key: id.Key, CertDER: id.CertDER, Observers: []probe.Observer{tracer}}
	client, server := connect(t, clientCfg(nil), sCfg)
	defer client.Close()
	defer server.Close()
	if server.nb.bus != nil {
		t.Fatal("unsampled connection carries a trace")
	}
	if st := tracer.Stats(); st.Sampled != 0 || st.Seen != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTracedClientHandshake(t *testing.T) {
	tracer := trace.NewTracer(trace.Config{SampleEvery: 1})
	id := identity(t)
	sCfg := &Config{Rand: NewPRNG(3), Key: id.Key, CertDER: id.CertDER}
	cCfg := clientCfg(func(c *Config) { c.Observers = []probe.Observer{tracer} })
	client, server := connect(t, cCfg, sCfg)
	client.Close()
	server.Close()
	traces := tracer.Traces()
	if len(traces) != 1 || traces[0].Role != "client" {
		t.Fatalf("traces = %+v", traces)
	}
	// Clients have no step observer: the trace is the handshake span
	// plus record-layer work, and it must not pollute the profiler's
	// handshake count.
	if got := tracer.Profiler().Snapshot().Handshakes; got != 0 {
		t.Fatalf("client trace counted as %d step-bearing handshakes", got)
	}
}

// TestTraceBatchLinks is the acceptance-shaped cross-trace run:
// concurrent handshakes against the batch RSA engine, every connection
// sampled, checking that batch spans carry links that resolve to
// distinct handshake traces.
func TestTraceBatchLinks(t *testing.T) {
	tracer := trace.NewTracer(trace.Config{SampleEvery: 1})
	setup := newBatchSetup(t, rsabatch.Config{
		BatchSize: 4,
		Linger:    2 * time.Millisecond,
		Rand:      NewPRNG(99),
		Probes:    []probe.Sink{trace.EngineSink(tracer)},
	})
	defer setup.engine.Close()

	const conns = 16
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(setup.ks.Keys)
			ct := tracer.ConnBegin()
			sCfg := setup.serverConfig(g, NewPRNG(uint64(1000+g)), nil)
			sCfg.Observers = []probe.Observer{ct}
			sCfg.Decrypter = setup.engine.DecrypterTraced(i, ct.Ref)
			cCfg := &Config{Rand: NewPRNG(uint64(2000 + g)), InsecureSkipVerify: true}
			tc, tsrv := Pipe()
			client := ClientConn(tc, cCfg)
			server := ServerConn(tsrv, sCfg)
			errs := make(chan error, 1)
			go func() { errs <- client.Handshake() }()
			if err := server.Handshake(); err != nil {
				t.Errorf("conn %d: server handshake: %v", g, err)
				return
			}
			if err := <-errs; err != nil {
				t.Errorf("conn %d: client handshake: %v", g, err)
				return
			}
			client.Close()
			server.Close()
		}(g)
	}
	wg.Wait()

	if st := setup.engine.Stats(); st.Batched == 0 {
		t.Skipf("no decryption batched this run (stats: %+v)", st)
	}
	spans := tracer.EngineSpans()
	if len(spans) == 0 {
		t.Fatal("engine emitted batches but no engine spans")
	}
	linkedTraces := map[uint64]bool{}
	multi := false
	for _, sp := range spans {
		if sp.Name != "rsa_batch" || sp.Category != trace.CatEngine {
			t.Fatalf("unexpected engine span %+v", sp)
		}
		if sp.Duration <= 0 {
			t.Errorf("engine span has no duration: %+v", sp)
		}
		seen := map[uint64]bool{}
		for _, l := range sp.Links {
			if l.Trace == 0 {
				t.Errorf("zero link on %+v", sp)
			}
			seen[l.Trace] = true
			linkedTraces[l.Trace] = true
		}
		if len(seen) >= 2 {
			multi = true
		}
	}
	if !multi {
		t.Errorf("no batch span links two distinct handshake traces (spans: %d)", len(spans))
	}
	if len(linkedTraces) < 2 {
		t.Errorf("links cover %d traces, want >= 2", len(linkedTraces))
	}
}
