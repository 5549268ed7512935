package ssl

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/rsabatch"
	"sslperf/internal/suite"
	"sslperf/internal/telemetry"
	"sslperf/internal/x509lite"
)

// batchServerSetup is everything a batched server deploys: a shared-
// modulus key set, one certificate per key, and the running engine.
type batchServerSetup struct {
	ks     *rsabatch.KeySet
	certs  [][]byte
	engine *rsabatch.Engine
}

func newBatchSetup(t *testing.T, cfg rsabatch.Config) *batchServerSetup {
	t.Helper()
	rnd := NewPRNG(4242)
	ks, err := rsabatch.GenerateKeySet(rnd, 512, rsabatch.MaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	certs := make([][]byte, len(ks.Keys))
	for i, key := range ks.Keys {
		cn := fmt.Sprintf("batch-key-%d", i)
		cert, err := x509lite.Create(rnd, cn, &key.PublicKey, cn, key,
			now.Add(-time.Hour), now.Add(24*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		certs[i] = cert.Raw
	}
	return &batchServerSetup{ks: ks, certs: certs, engine: rsabatch.NewEngine(ks, cfg)}
}

// serverConfig builds the per-connection server Config for set key i,
// the round-robin assignment a batched deployment uses.
func (s *batchServerSetup) serverConfig(i int, rnd *PRNG, tab *lifecycle.Table) *Config {
	i %= len(s.ks.Keys)
	cfg := &Config{
		Rand:      rnd,
		Key:       s.ks.Keys[i],
		Decrypter: s.engine.Decrypter(i),
		CertDER:   s.certs[i],
		Suites:    []suite.ID{suite.RSAWithRC4128MD5},
	}
	if tab != nil {
		cfg.Observers = []probe.Observer{tab}
	}
	return cfg
}

// TestBatchedHandshakes32Concurrent is the acceptance-shaped run: 32
// concurrent full handshakes against engine-backed server configs
// (round-robin across the key set), with echo traffic, under the race
// detector when make check runs it. It also checks the engine's
// telemetry lands in the registry the /metrics endpoint serves.
func TestBatchedHandshakes32Concurrent(t *testing.T) {
	tel := telemetry.NewRegistry()
	tab := lifecycle.NewTable(lifecycle.Options{Registry: tel})
	setup := newBatchSetup(t, rsabatch.Config{
		BatchSize: 4,
		Linger:    2 * time.Millisecond,
		Rand:      NewPRNG(99),
		Probes:    []probe.Sink{tab},
	})
	defer setup.engine.Close()

	const conns = 32
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each connection gets its own PRNGs: ssl.PRNG is not
			// thread-safe and must never be shared across goroutines.
			sCfg := setup.serverConfig(g, NewPRNG(uint64(1000+g)), tab)
			cCfg := &Config{Rand: NewPRNG(uint64(2000 + g)), InsecureSkipVerify: true}
			ct, st := Pipe()
			client := ClientConn(ct, cCfg)
			server := ServerConn(st, sCfg)
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
			msg := []byte(fmt.Sprintf("batched hello %d", g))
			done := make(chan struct{})
			go func() {
				defer close(done)
				buf := make([]byte, len(msg))
				if _, err := readFull(server, buf); err != nil {
					t.Errorf("conn %d: server read: %v", g, err)
					return
				}
				if _, err := server.Write(buf); err != nil {
					t.Errorf("conn %d: server write: %v", g, err)
				}
			}()
			if _, err := client.Write(msg); err != nil {
				t.Errorf("conn %d: client write: %v", g, err)
				return
			}
			echo := make([]byte, len(msg))
			if _, err := readFull(client, echo); err != nil {
				t.Errorf("conn %d: client read: %v", g, err)
				return
			}
			if !bytes.Equal(echo, msg) {
				t.Errorf("conn %d: echo mismatch", g)
			}
			<-done
			client.Close()
			server.Close()
		}(g)
	}
	wg.Wait()

	st := setup.engine.Stats()
	if st.Batched+st.Direct != conns {
		t.Fatalf("engine resolved %d decryptions, want %d (stats: %+v)",
			st.Batched+st.Direct, conns, st)
	}
	if st.Batched == 0 {
		t.Errorf("no decryption was batched across %d concurrent handshakes (stats: %+v)", conns, st)
	}

	snap := tel.Snapshot()
	if snap.Handshakes.Full != conns {
		t.Fatalf("telemetry counted %d full handshakes, want %d", snap.Handshakes.Full, conns)
	}
	wantValues := map[string]bool{
		rsabatch.MetricBatchSize:  false,
		rsabatch.MetricQueueDepth: false,
	}
	for _, v := range snap.Values {
		if _, ok := wantValues[v.Name]; ok {
			wantValues[v.Name] = v.Values.Count > 0
		}
	}
	for name, seen := range wantValues {
		if !seen {
			t.Errorf("telemetry value histogram %q missing or empty", name)
		}
	}
	foundLinger := false
	for _, h := range snap.Timers {
		if h.Name == rsabatch.MetricLinger && h.Latency.Count > 0 {
			foundLinger = true
		}
	}
	if !foundLinger {
		t.Errorf("telemetry timer histogram %q missing or empty", rsabatch.MetricLinger)
	}
}

// TestBatchedHandshakeFallbackKey checks a conventional e=65537
// identity still handshakes through DecrypterFor (the transparent
// fallback), with zero batched operations.
func TestBatchedHandshakeFallbackKey(t *testing.T) {
	setup := newBatchSetup(t, rsabatch.Config{Rand: NewPRNG(5)})
	defer setup.engine.Close()
	id := identity(t)
	sCfg := &Config{
		Rand:      NewPRNG(11),
		Key:       id.Key,
		Decrypter: setup.engine.DecrypterFor(id.Key),
		CertDER:   id.CertDER,
		Suites:    []suite.ID{suite.RSAWithRC4128MD5},
	}
	client, server := connect(t, clientCfg(nil), sCfg)
	defer client.Close()
	defer server.Close()
	if st := setup.engine.Stats(); st.Batched != 0 || st.Direct != 0 {
		t.Fatalf("foreign key touched the engine (stats: %+v)", st)
	}
}

// readFull reads exactly len(p) bytes from c.
func readFull(c *Conn, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := c.Read(p[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
