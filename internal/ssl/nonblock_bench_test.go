package ssl

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"sslperf/internal/suite"
)

// These benchmarks quantify the two claims the sans-IO refactor
// makes: the FSM costs no handshake throughput against the blocking
// path (NonBlockHandshake vs GoroutinePerConnHandshake — the same
// crypto either way, minus the goroutine hand-off), and an idle
// event-loop connection costs a fraction of an idle goroutine-per-
// conn connection (IdleConns/eventloop vs IdleConns/goroutine,
// bytes/conn). TestIdleConnCheaperWithoutGoroutine holds the memory
// ordering and TestNonBlockSteadyStateZeroAlloc the zero-alloc read
// path; the handshake timings are for go test -bench.

// BenchmarkNonBlockHandshake drives one full handshake per op by
// shuttling the two sans-IO cores in memory — no goroutines, no pipe.
func BenchmarkNonBlockHandshake(b *testing.B) {
	ccfg, scfg := benchConfigs(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cli, srv := nbEstablishedPair(b, ccfg, scfg)
		cli.Close()
		srv.Close()
	}
}

// BenchmarkGoroutinePerConnHandshake is the blocking baseline: the
// same handshake over the in-memory pipe with the client on its own
// goroutine, as the goroutine-per-connection server runs it.
func BenchmarkGoroutinePerConnHandshake(b *testing.B) {
	ccfg, scfg := benchConfigs(b, nil)
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
		ct.Close()
		st.Close()
	}
}

// measureIdleBytes reports the resident heap+stack delta per idle
// connection: establish n server-side connections, let the garbage
// collector settle, and attribute what remains.
func measureIdleBytes(n int, setup func(i int)) float64 {
	// Twice: a sync.Pool's contents survive one collection in its
	// victim cache, and what earlier tests left pooled would otherwise
	// be freed mid-measurement and read as negative bytes per conn.
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		setup(i)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	held := float64(after.HeapAlloc+after.StackInuse) -
		float64(before.HeapAlloc+before.StackInuse)
	return held / float64(n)
}

// idleConfigs returns the seeded RC4-MD5 client/server configs of
// idle connection i.
func idleConfigs(tb testing.TB, i int) (ccfg, scfg *Config) {
	id := identity(tb)
	ccfg = &Config{Rand: NewPRNG(uint64(i)*2 + 1), InsecureSkipVerify: true,
		Suites: []suite.ID{suite.RSAWithRC4128MD5}}
	scfg = &Config{Rand: NewPRNG(uint64(i)*2 + 2), Key: id.Key, CertDER: id.CertDER}
	return ccfg, scfg
}

// idleEventLoopBytes is the bytes/conn of n established idle server
// connections as an event loop holds them: only the NonBlockingConn
// core (buffers and session state).
func idleEventLoopBytes(tb testing.TB, n int) float64 {
	conns := make([]*NonBlockingConn, n)
	per := measureIdleBytes(n, func(i int) {
		ccfg, scfg := idleConfigs(tb, i)
		_, conns[i] = nbEstablishedPair(tb, ccfg, scfg)
	})
	for _, c := range conns {
		c.Close()
	}
	return per
}

// idleGoroutineBytes is the same n connections as the goroutine-per-
// connection server holds them: a per-connection goroutine parked in
// Read after handshaking on it — exactly what serve() leaves behind —
// so its stack growth from the handshake is charged to the
// connection, as it is in production.
func idleGoroutineBytes(tb testing.TB, n int) float64 {
	clients := make([]*Conn, n)
	transports := make([]io.ReadWriteCloser, n)
	per := measureIdleBytes(n, func(i int) {
		ct, st := Pipe()
		ccfg, scfg := idleConfigs(tb, i)
		client, server := ClientConn(ct, ccfg), ServerConn(st, scfg)
		done := make(chan error, 1)
		go func() {
			err := server.Handshake()
			done <- err
			if err == nil {
				var one [1]byte
				server.Read(one[:]) // park, as serve() does between requests
			}
		}()
		if err := client.Handshake(); err != nil {
			tb.Fatal(err)
		}
		if err := <-done; err != nil {
			tb.Fatal(err)
		}
		clients[i] = client
		transports[i] = st
	})
	for i := range clients {
		transports[i].Close() // unparks the reader goroutine
		clients[i].Close()
	}
	return per
}

// BenchmarkIdleConns measures the memory an established-but-idle
// server connection pins in each serving model.
func BenchmarkIdleConns(b *testing.B) {
	b.Run("eventloop", func(b *testing.B) {
		b.ReportMetric(idleEventLoopBytes(b, b.N), "bytes/conn")
	})
	b.Run("goroutine", func(b *testing.B) {
		b.ReportMetric(idleGoroutineBytes(b, b.N), "bytes/conn")
	})
}

// TestIdleConnCheaperWithoutGoroutine pins the economics the sans-IO
// core exists for: a fixed set of idle established server connections
// pins fewer heap+stack bytes held as NonBlockingConns than as Conns
// with a goroutine parked in Read (3.2 KB vs 11.3 KB per connection
// measured).
func TestIdleConnCheaperWithoutGoroutine(t *testing.T) {
	const n = 64
	el, gr := idleEventLoopBytes(t, n), idleGoroutineBytes(t, n)
	if el <= 0 || el >= gr {
		t.Fatalf("idle event-loop conn pins %.0f bytes, goroutine conn %.0f: want 0 < eventloop < goroutine", el, gr)
	}
}

// BenchmarkNonBlockReadSteady times the steady-state data path
// TestNonBlockSteadyStateZeroAlloc pins at zero allocations: server
// seals, client feeds and reads, all buffers reused.
func BenchmarkNonBlockReadSteady(b *testing.B) {
	id := identity(b)
	cli, srv := nbEstablishedPair(b,
		&Config{Rand: NewPRNG(7), InsecureSkipVerify: true, Suites: []suite.ID{suite.RSAWithRC4128MD5}},
		&Config{Rand: NewPRNG(8), Key: id.Key, CertDER: id.CertDER},
	)
	payload := bytes.Repeat([]byte("z"), 1024)
	buf := make([]byte, 2048)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.WriteData(payload); err != nil {
			b.Fatal(err)
		}
		o := srv.Outgoing()
		cli.Feed(o)
		srv.ConsumeOutgoing(len(o))
		for got := 0; got < len(payload); {
			n, err := cli.ReadData(buf)
			if err != nil {
				b.Fatal(err)
			}
			got += n
		}
	}
}
