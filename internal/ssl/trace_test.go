package ssl

import (
	"sync"
	"testing"
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/rsabatch"
	"sslperf/internal/trace"
)

// tracing returns a tracer sampling 1 in every and the conn table that
// keeps its sampled connections' detail.
func tracing(every int) (*trace.Tracer, *lifecycle.Table) {
	tracer := trace.NewTracer(trace.Config{SampleEvery: every})
	return tracer, lifecycle.NewTable(lifecycle.Options{Tracer: tracer, Ring: 64})
}

var traceSteps = []string{
	"init", "get_client_hello", "send_server_hello", "send_server_cert",
	"send_server_done", "get_client_kx", "get_cipher_spec/get_finished",
	"send_cipher_spec", "send_finished", "server_flush",
}

func TestTracedServerHandshake(t *testing.T) {
	tracer, table := tracing(1)
	id := identity(t)
	sCfg := &Config{Rand: NewPRNG(3), Key: id.Key, CertDER: id.CertDER, Observers: []probe.Observer{table}}
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

	// ...but the record retires at Close, so bulk I/O is on it.
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := readFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if recs := table.Records(0); len(recs) != 1 || recs[0].State != "established" {
		t.Fatalf("records before close = %+v, want the one open connection", recs)
	}
	client.Close()
	server.Close()

	recs := table.Records(0)
	if len(recs) != 1 {
		t.Fatalf("retained %d records, want 1 (the sampled server)", len(recs))
	}
	rec := recs[0]
	if rec.Role != "server" || rec.State != "closed" || rec.Detail != trace.DetailFull {
		t.Fatalf("record role/state/detail = %s/%s/%s", rec.Role, rec.State, rec.Detail)
	}
	sawCrypto, sawIO := false, false
	for _, call := range rec.Calls {
		switch call.Kind {
		case trace.CatCrypto:
			sawCrypto = true
		case trace.CatIO:
			sawIO = true
		}
	}
	if len(rec.Steps) != len(traceSteps) {
		t.Fatalf("record carries %d steps, want %d: %v", len(rec.Steps), len(traceSteps), rec.Steps)
	}
	for i, want := range traceSteps {
		if rec.Steps[i].Step != want {
			t.Errorf("step %d = %q, want %q", i, rec.Steps[i].Step, want)
		}
	}
	if !sawCrypto {
		t.Error("no crypto calls recorded")
	}
	if !sawIO {
		t.Error("no application I/O recorded")
	}
	if rec.Suite == "" || rec.HandshakeUs <= 0 {
		t.Error("record has no suite or handshake duration")
	}
}

func TestUnsampledConnectionHasNoTrace(t *testing.T) {
	tracer, table := tracing(1 << 20)
	id := identity(t)
	sCfg := &Config{Rand: NewPRNG(3), Key: id.Key, CertDER: id.CertDER, Observers: []probe.Observer{table}}
	client, server := connect(t, clientCfg(nil), sCfg)
	client.Close()
	server.Close()
	// Passed over by the sampler, the record keeps its timeline and
	// totals, no detail, and stays out of the anatomy.
	rec := table.Records(0)[0]
	if rec.Detail != trace.DetailSampledOut || len(rec.Calls) != 0 || len(rec.Steps) != len(traceSteps) {
		t.Fatalf("unsampled record = %+v", rec)
	}
	if st := tracer.Stats(); st.Sampled != 0 || st.Seen != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := tracer.Profiler().Snapshot().Traces; got != 0 {
		t.Fatalf("unsampled connection folded into the profiler (%d traces)", got)
	}
}

func TestTracedClientHandshake(t *testing.T) {
	tracer, table := tracing(1)
	id := identity(t)
	sCfg := &Config{Rand: NewPRNG(3), Key: id.Key, CertDER: id.CertDER}
	cCfg := clientCfg(func(c *Config) { c.Observers = []probe.Observer{table} })
	client, server := connect(t, cCfg, sCfg)
	client.Close()
	server.Close()
	recs := table.Records(0)
	if len(recs) != 1 || recs[0].Role != "client" {
		t.Fatalf("records = %+v", recs)
	}
	// Clients have no step observer: the record is the handshake
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
	tracer, table := tracing(1)
	setup := newBatchSetup(t, rsabatch.Config{
		BatchSize: 4,
		Linger:    2 * time.Millisecond,
		Rand:      NewPRNG(99),
		Probes:    []probe.Sink{table},
	})
	defer setup.engine.Close()

	const conns = 16
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(setup.ks.Keys)
			entry := table.Begin()
			sCfg := setup.serverConfig(g, NewPRNG(uint64(1000+g)), nil)
			sCfg.Observers = []probe.Observer{entry}
			sCfg.Decrypter = setup.engine.DecrypterTraced(i, entry.Ref)
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
	// Every link names a retained connection and the step the batch
	// served, so the export can draw the arrow.
	recs := map[uint64]bool{}
	for _, rec := range table.Records(0) {
		recs[rec.ID] = true
	}
	for _, sp := range spans {
		for _, l := range sp.Links {
			if !recs[l.Trace] || probe.Step(l.Span) != probe.StepGetClientKX {
				t.Errorf("link %+v does not name a retained connection's get_client_kx step", l)
			}
		}
	}
}
