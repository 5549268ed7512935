package ssl

import (
	"testing"

	"sslperf/internal/lifecycle"
	"sslperf/internal/telemetry"
)

// tracing returns the registry the handshakes fold into and the conn
// table that keeps 1 in every connections in detail.
func tracing(every int) (*telemetry.Registry, *lifecycle.Table) {
	reg := telemetry.NewRegistry()
	return reg, lifecycle.NewTable(lifecycle.Options{SampleEvery: every, Registry: reg, Ring: 64})
}

var traceSteps = []string{
	"init", "get_client_hello", "send_server_hello", "send_server_cert",
	"send_server_done", "get_client_kx", "get_cipher_spec/get_finished",
	"send_cipher_spec", "send_finished", "server_flush",
}

func TestTracedServerHandshake(t *testing.T) {
	reg, table := tracing(1)
	id := identity(t)
	sCfg := &Config{Rand: NewPRNG(3), Key: id.Key, CertDER: id.CertDER, Observer: table}
	client, server := connect(t, clientCfg(nil), sCfg)

	// The handshake folds into the anatomy immediately...
	snap := reg.Anatomy()
	if snap.Handshakes != 1 || snap.Sampled != 1 {
		t.Fatalf("anatomy saw %d handshakes (%d sampled) before close, want 1", snap.Handshakes, snap.Sampled)
	}
	if len(snap.Steps) != len(traceSteps) {
		t.Fatalf("anatomy folded %d steps, want %d: %+v", len(snap.Steps), len(traceSteps), snap.Steps)
	}
	for i, want := range traceSteps {
		if snap.Steps[i].Name != want {
			t.Errorf("anatomy step %d = %q, want %q", i, snap.Steps[i].Name, want)
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
	if rec.Role != "server" || rec.State != "closed" || rec.Detail != lifecycle.DetailFull {
		t.Fatalf("record role/state/detail = %s/%s/%s", rec.Role, rec.State, rec.Detail)
	}
	sawCrypto, sawIO := false, false
	for _, call := range rec.Calls {
		switch call.Kind {
		case telemetry.CatCrypto:
			sawCrypto = true
		case telemetry.CatIO:
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
	reg, table := tracing(1 << 20)
	id := identity(t)
	sCfg := &Config{Rand: NewPRNG(3), Key: id.Key, CertDER: id.CertDER, Observer: table}
	client, server := connect(t, clientCfg(nil), sCfg)
	client.Close()
	server.Close()
	// Passed over by the sampler, the record keeps its timeline and
	// totals and no detail: it counts in the anatomy's step rows and
	// stays out of its crypto rows.
	rec := table.Records(0)[0]
	if rec.Detail != lifecycle.DetailSampledOut || len(rec.Calls) != 0 || len(rec.Steps) != len(traceSteps) {
		t.Fatalf("unsampled record = %+v", rec)
	}
	if st := reg.Snapshot().Observatory; st.DetailSampledOut != 1 {
		t.Fatalf("observatory = %+v, want 1 sampled out", st)
	}
	if a := reg.Anatomy(); a.Handshakes != 1 || a.Sampled != 0 || len(a.Crypto) != 0 {
		t.Fatalf("unsampled connection: anatomy %d handshakes, %d sampled, %d crypto rows, want 1/0/0",
			a.Handshakes, a.Sampled, len(a.Crypto))
	}
}

func TestTracedClientHandshake(t *testing.T) {
	reg, table := tracing(1)
	id := identity(t)
	sCfg := &Config{Rand: NewPRNG(3), Key: id.Key, CertDER: id.CertDER}
	cCfg := clientCfg(func(c *Config) { c.Observer = table })
	client, server := connect(t, cCfg, sCfg)
	client.Close()
	server.Close()
	recs := table.Records(0)
	if len(recs) != 1 || recs[0].Role != "client" {
		t.Fatalf("records = %+v", recs)
	}
	// Clients have no step observer: the record is the handshake
	// plus record-layer work, and it must not pollute the anatomy's
	// handshake count.
	if a := reg.Anatomy(); a.Handshakes != 0 || a.Sampled != 0 {
		t.Fatalf("client trace counted as %d step-bearing handshakes (%d sampled)", a.Handshakes, a.Sampled)
	}
}
