package ssl

import (
	"io"
	"strings"
	"sync"
	"testing"

	"sslperf/internal/handshake"
	"sslperf/internal/lifecycle"
	"sslperf/internal/telemetry"
)

// observing returns the one observer a connection gets: a conn table
// folding into reg, every connection kept in detail and the last ring
// of them retained.
func observing(reg *telemetry.Registry, ring int) *lifecycle.Table {
	tab := lifecycle.NewTable(lifecycle.Options{
		Registry:    reg,
		SampleEvery: 1,
		Ring:        ring,
	})
	return tab
}

// TestTelemetryHandshakeEmission checks a single instrumented
// connection populates counters, step histograms, and the flight
// recorder with the full step-by-step record.
func TestTelemetryHandshakeEmission(t *testing.T) {
	id := identity(t)
	reg := telemetry.NewRegistry()
	tab := observing(reg, 4)
	scfg := id.ServerConfig(NewPRNG(8))
	scfg.Observer = tab
	ccfg := clientCfg(func(c *Config) { c.Observer = tab })
	client, server := connect(t, ccfg, scfg)

	// Push a little application data through so byte counters move.
	go func() { client.Write([]byte("hello telemetry")) }()
	buf := make([]byte, 64)
	if _, err := io.ReadAtLeast(server, buf, 5); err != nil {
		t.Fatal(err)
	}
	client.Close()
	server.Close()

	s := reg.Snapshot()
	if s.Connections != 2 {
		t.Fatalf("connections = %d, want 2 (client+server)", s.Connections)
	}
	if s.Handshakes.Full != 2 || s.Handshakes.Failed != 0 {
		t.Fatalf("handshakes = %+v", s.Handshakes)
	}
	if len(s.Handshakes.BySuite) == 0 {
		t.Fatal("no suite counters")
	}
	if s.IO.BytesIn == 0 || s.IO.BytesOut == 0 || s.IO.RecordsIn == 0 {
		t.Fatalf("io counters empty: %+v", s.IO)
	}
	if s.FullLatency.Count != 2 || s.FullLatency.Mean == 0 {
		t.Fatalf("latency histogram = %+v", s.FullLatency)
	}
	// Server-side anatomy must have produced the Table 2 steps.
	stepNames := map[string]bool{}
	for _, st := range reg.Anatomy().Steps {
		stepNames[st.Name] = true
		if st.Count == 0 {
			t.Fatalf("step %q has empty histogram", st.Name)
		}
	}
	for _, want := range []string{"init", "get_client_hello", "send_server_hello",
		"get_client_kx", "send_finished", "server_flush"} {
		if !stepNames[want] {
			t.Fatalf("missing step %q in %v", want, stepNames)
		}
	}

	// Flight recorder: the server connection's record must show the
	// handshake lifecycle in order.
	var serverConn uint64
	for _, rec := range tab.Records(0) {
		if rec.Role == "server" {
			serverConn = rec.ID
		}
	}
	if serverConn == 0 {
		t.Fatal("no server record retained")
	}
	var kinds []string
	for _, line := range strings.Split(lifecycle.FlightText(tab.Records(serverConn)), "\n")[1:] {
		if f := strings.Fields(line); len(f) >= 2 {
			kinds = append(kinds, f[1])
		}
	}
	if kinds[0] != "handshake_start" {
		t.Fatalf("record starts with %v", kinds[0])
	}
	var sawStep, sawCrypto, sawDone, sawClose bool
	for _, k := range kinds {
		switch k {
		case "step":
			sawStep = true
		case "crypto":
			sawCrypto = true
		case "handshake_done":
			sawDone = true
		case "close":
			sawClose = true
		}
	}
	if !sawStep || !sawCrypto || !sawDone || !sawClose || kinds[len(kinds)-1] != "close" {
		t.Fatalf("incomplete record: step=%v crypto=%v done=%v close=%v (%v)",
			sawStep, sawCrypto, sawDone, sawClose, kinds)
	}
}

// TestTelemetryCountsFailures checks a failing handshake lands in the
// failure counter with a reason tag and a failed record.
func TestTelemetryCountsFailures(t *testing.T) {
	id := identity(t)
	reg := telemetry.NewRegistry()
	tab := observing(reg, 4)
	scfg := id.ServerConfig(NewPRNG(9))
	scfg.Observer = tab

	ct, st := Pipe()
	server := ServerConn(st, scfg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		server.Handshake() // will fail: the peer is not speaking SSL
	}()
	ct.Write([]byte("GET / HTTP/1.0\r\n\r\nplaintext, not a ClientHello"))
	<-done
	ct.Close()

	s := reg.Snapshot()
	if s.Handshakes.Failed != 1 {
		t.Fatalf("failed = %d, want 1", s.Handshakes.Failed)
	}
	if len(s.Handshakes.FailReasons) != 1 {
		t.Fatalf("fail reasons = %v", s.Handshakes.FailReasons)
	}
	var sawFail bool
	for _, rec := range tab.Records(0) {
		if rec.State == "failed" {
			sawFail = true
			if rec.FailTag == "" || rec.FailDetail == "" {
				t.Fatalf("failed record missing reason/detail: %+v", rec)
			}
		}
	}
	if !sawFail {
		t.Fatal("no failed record retained")
	}
}

// TestTelemetryConcurrentConnections drives many handshakes in
// parallel into one shared registry — the -race acceptance test for
// live emission.
func TestTelemetryConcurrentConnections(t *testing.T) {
	id := identity(t)
	reg := telemetry.NewRegistry()
	tab := observing(reg, 8)
	cache := handshake.NewSessionCache(64)
	const conns = 16

	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scfg := id.ServerConfig(NewPRNG(uint64(100 + i)))
			scfg.Observer = tab
			scfg.SessionCache = cache
			ccfg := clientCfg(func(c *Config) {
				c.Rand = NewPRNG(uint64(200 + i))
				c.Observer = tab
			})
			ct, st := Pipe()
			client, server := ClientConn(ct, ccfg), ServerConn(st, scfg)
			errs := make(chan error, 1)
			go func() { errs <- client.Handshake() }()
			if err := server.Handshake(); err != nil {
				t.Errorf("server %d: %v", i, err)
				return
			}
			if err := <-errs; err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			go client.Write([]byte("ping"))
			buf := make([]byte, 4)
			io.ReadFull(server, buf)
			client.Close()
			server.Close()
		}(i)
	}
	wg.Wait()

	s := reg.Snapshot()
	if s.Connections != 2*conns {
		t.Fatalf("connections = %d, want %d", s.Connections, 2*conns)
	}
	if s.Handshakes.Full != 2*conns {
		t.Fatalf("full handshakes = %d, want %d", s.Handshakes.Full, 2*conns)
	}
	if s.FullLatency.Count != 2*conns {
		t.Fatalf("latency observations = %d", s.FullLatency.Count)
	}
	for _, st := range reg.Anatomy().Steps {
		if st.Name == "init" && st.Count != conns {
			t.Fatalf("init step count = %d, want %d", st.Count, conns)
		}
	}
}
