package ssl

import (
	"runtime"
	"testing"

	"sslperf/internal/suite"
)

// serverHandshakeAllocs runs one full DES-CBC3-SHA handshake over a
// sans-IO pair on this goroutine and returns the heap objects the
// server's half allocated: its Feed, HandshakeStep and
// ConsumeOutgoing calls, which is what a server process pays per
// connection (and how bench's ssl.hs_full_allocs counts).
func serverHandshakeAllocs(t *testing.T) uint64 {
	t.Helper()
	id := identity(t)
	cli := NonBlockingClient(&Config{Rand: NewPRNG(71), InsecureSkipVerify: true,
		Suites: []suite.ID{suite.RSAWith3DESEDECBCSHA}})
	srv := NonBlockingServer(&Config{Rand: NewPRNG(72), Key: id.Key, CertDER: id.CertDER})
	defer cli.Close()
	defer srv.Close()
	var before, after runtime.MemStats
	var allocs uint64
	server := func(fn func()) {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
	}
	for i := 0; !cli.HandshakeDone() || !srv.HandshakeDone(); i++ {
		if i > 10000 {
			t.Fatal("handshake did not converge")
		}
		if err := cli.HandshakeStep(); err != nil && err != ErrWouldBlock {
			t.Fatalf("client: %v", err)
		}
		if o := cli.Outgoing(); len(o) > 0 {
			server(func() { srv.Feed(o) })
			cli.ConsumeOutgoing(len(o))
		}
		server(func() {
			if err := srv.HandshakeStep(); err != nil && err != ErrWouldBlock {
				t.Fatalf("server: %v", err)
			}
		})
		if o := srv.Outgoing(); len(o) > 0 {
			cli.Feed(o)
			server(func() { srv.ConsumeOutgoing(len(o)) })
		}
	}
	return allocs
}

// TestFullHandshakeServerAllocs pins what the zero-allocation RSA
// decrypt bought the connection: a full handshake costs the server at
// most 200 heap objects (it was 4,077, of which 3,984 were step 7's
// bignum temporaries — garbage the one-CPU server collected at
// 260 MB/s under load).
func TestFullHandshakeServerAllocs(t *testing.T) {
	serverHandshakeAllocs(t) // first use builds the key's contexts and fills the pools
	const runs = 10
	var total uint64
	for i := 0; i < runs; i++ {
		total += serverHandshakeAllocs(t)
	}
	if mean := float64(total) / runs; mean > 200 {
		t.Fatalf("full handshake allocates %.0f objects on the server, want <= 200", mean)
	} else {
		t.Logf("full handshake: %.0f server allocs", mean)
	}
}
