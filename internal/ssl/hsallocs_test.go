package ssl

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sslperf/internal/handshake"
	"sslperf/internal/suite"
	"sslperf/internal/testenv"
)

// handshakeAllocs runs one DES-CBC3-SHA handshake — full, or resuming
// sess from cache when sess is non-nil — over a sans-IO pair on this
// goroutine and returns the heap objects one end's half allocated: its
// Feed, HandshakeStep and ConsumeOutgoing calls. The server's count
// (client false) is what a server process pays per connection (and how
// bench's ssl.hs_full_allocs and ssl.hs_resumed_allocs count); the
// client's is what the benchmark's load generator pays. It also returns
// the client's session, to resume.
func handshakeAllocs(t *testing.T, client bool, cache *handshake.SessionCache, sess *handshake.Session) (uint64, *handshake.Session) {
	t.Helper()
	id := identity(t)
	cli := NonBlockingClient(&Config{Rand: NewPRNG(71), InsecureSkipVerify: true,
		Suites: []suite.ID{suite.RSAWith3DESEDECBCSHA}, Session: sess})
	srv := NonBlockingServer(&Config{Rand: NewPRNG(72), Key: id.Key, CertDER: id.CertDER, SessionCache: cache})
	defer cli.Close()
	defer srv.Close()
	counted := srv
	if client {
		counted = cli
	}
	var before, after runtime.MemStats
	var allocs uint64
	call := func(c *NonBlockingConn, fn func()) {
		if c != counted {
			fn()
			return
		}
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
	}
	step := func(c *NonBlockingConn) func() {
		return func() {
			if err := c.HandshakeStep(); err != nil && err != ErrWouldBlock {
				t.Fatalf("%s: %v", c.role(), err)
			}
		}
	}
	for i := 0; !cli.HandshakeDone() || !srv.HandshakeDone(); i++ {
		if i > 10000 {
			t.Fatal("handshake did not converge")
		}
		call(cli, step(cli))
		if o := cli.Outgoing(); len(o) > 0 {
			call(srv, func() { srv.Feed(o) })
			call(cli, func() { cli.ConsumeOutgoing(len(o)) })
		}
		call(srv, step(srv))
		if o := srv.Outgoing(); len(o) > 0 {
			call(cli, func() { cli.Feed(o) })
			call(srv, func() { srv.ConsumeOutgoing(len(o)) })
		}
	}
	if st, _ := srv.ConnectionState(); st.Resumed != (sess != nil) {
		t.Fatalf("resumed = %v with a session offered = %v", st.Resumed, sess != nil)
	}
	out, err := cli.Session()
	if err != nil {
		t.Fatal(err)
	}
	return allocs, out
}

// meanAllocs is handshakeAllocs' mean over ten handshakes, after one
// that builds the key's contexts and fills the pools. It runs them on
// one P with the collector off: a collection empties the pools the
// handshake draws from, and a goroutine moved to another P misses the
// objects its old P holds privately, and either shows as a burst of a
// dozen or more objects in whichever handshake follows — the
// runtime's, not the connection's. The count is then exact.
func meanAllocs(t *testing.T, client bool, cache *handshake.SessionCache, sess *handshake.Session) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	handshakeAllocs(t, client, cache, sess)
	const runs = 10
	var total uint64
	for i := 0; i < runs; i++ {
		n, _ := handshakeAllocs(t, client, cache, sess)
		total += n
	}
	return float64(total) / runs
}

// meanResumedAllocs is meanAllocs over handshakes that resume one
// session from a fresh cache.
func meanResumedAllocs(t *testing.T, client bool) float64 {
	cache := handshake.NewSessionCache(4)
	_, sess := handshakeAllocs(t, client, cache, nil)
	return meanAllocs(t, client, cache, sess)
}

// The handshake allocation pins, each the count measured when it was
// last tightened + 2, with that count in the comment of its test.
const (
	maxFullServerAllocs    = 45
	maxResumedServerAllocs = 38
	maxFullClientAllocs    = 122.1
	maxResumedClientAllocs = 38
)

// TestFullHandshakeServerAllocs pins what the zero-allocation RSA
// decrypt bought the connection: a full handshake costs the server 43
// heap objects since the Certificate message is built in one
// allocation (44 before; 47 before each handshake machine was one
// object reading the caller's Config; it was 4,077, of which 3,984 were step
// 7's bignum temporaries — garbage the one-CPU server collected at
// 260 MB/s under load).
func TestFullHandshakeServerAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race runtime allocates on sync paths and drops pooled objects")
	}
	if mean := meanAllocs(t, false, nil, nil); mean > maxFullServerAllocs {
		t.Fatalf("full handshake allocates %.1f objects on the server, want <= %v", mean, maxFullServerAllocs)
	} else {
		t.Logf("full handshake: %.1f server allocs", mean)
	}
}

// TestResumedHandshakeServerAllocs pins the resumed handshake, where
// nothing but hashing, the key schedules and message handling runs, at
// 36 server objects measured (39 before the handshake machine became
// one object; 74 before the allocation diet: the SSLv3 pad bytes built
// per use, KDF labels and digests summed into fresh slices, and a
// resumed session put back into the cache it came from).
func TestResumedHandshakeServerAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race runtime allocates on sync paths")
	}
	if mean := meanResumedAllocs(t, false); mean > maxResumedServerAllocs {
		t.Fatalf("resumed handshake allocates %.1f objects on the server, want <= %v", mean, maxResumedServerAllocs)
	} else {
		t.Logf("resumed handshake: %.1f server allocs", mean)
	}
}

// TestFullHandshakeClientAllocs pins the client's half of the same
// full handshake, which is the benchmark load generator's per-handshake
// cost: 120.1 objects measured (123.1 before the handshake machine
// became one object). The client pays more than the server: it parses
// the certificate and encrypts the pre-master.
func TestFullHandshakeClientAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race runtime allocates on sync paths and drops pooled objects")
	}
	if mean := meanAllocs(t, true, nil, nil); mean > maxFullClientAllocs {
		t.Fatalf("full handshake allocates %.1f objects on the client, want <= %v", mean, maxFullClientAllocs)
	} else {
		t.Logf("full handshake: %.1f client allocs", mean)
	}
}

// TestResumedHandshakeClientAllocs pins the client's half of the
// resumed handshake: 36 objects measured (39 before the handshake
// machine became one object).
func TestResumedHandshakeClientAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race runtime allocates on sync paths")
	}
	if mean := meanResumedAllocs(t, true); mean > maxResumedClientAllocs {
		t.Fatalf("resumed handshake allocates %.1f objects on the client, want <= %v", mean, maxResumedClientAllocs)
	} else {
		t.Logf("resumed handshake: %.1f client allocs", mean)
	}
}
