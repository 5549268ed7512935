package ssl

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sslperf/internal/handshake"
	"sslperf/internal/suite"
	"sslperf/internal/testenv"
)

// serverHandshakeAllocs runs one DES-CBC3-SHA handshake — full, or
// resuming sess from cache when sess is non-nil — over a sans-IO pair
// on this goroutine and returns the heap objects the server's half
// allocated: its Feed, HandshakeStep and ConsumeOutgoing calls, which
// is what a server process pays per connection (and how bench's
// ssl.hs_full_allocs and ssl.hs_resumed_allocs count). It also returns
// the client's session, to resume.
func serverHandshakeAllocs(t *testing.T, cache *handshake.SessionCache, sess *handshake.Session) (uint64, *handshake.Session) {
	t.Helper()
	id := identity(t)
	cli := NonBlockingClient(&Config{Rand: NewPRNG(71), InsecureSkipVerify: true,
		Suites: []suite.ID{suite.RSAWith3DESEDECBCSHA}, Session: sess})
	srv := NonBlockingServer(&Config{Rand: NewPRNG(72), Key: id.Key, CertDER: id.CertDER, SessionCache: cache})
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
	if st, _ := srv.ConnectionState(); st.Resumed != (sess != nil) {
		t.Fatalf("resumed = %v with a session offered = %v", st.Resumed, sess != nil)
	}
	out, err := cli.Session()
	if err != nil {
		t.Fatal(err)
	}
	return allocs, out
}

// meanServerAllocs is serverHandshakeAllocs' mean over ten handshakes,
// after one that builds the key's contexts and fills the pools. It runs
// them on one P with the collector off: a collection empties the pools
// the handshake draws from, and a goroutine moved to another P misses
// the objects its old P holds privately, and either shows as a burst of
// a dozen or more objects in whichever handshake follows — the
// runtime's, not the connection's. The count is then exact.
func meanServerAllocs(t *testing.T, cache *handshake.SessionCache, sess *handshake.Session) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serverHandshakeAllocs(t, cache, sess)
	const runs = 10
	var total uint64
	for i := 0; i < runs; i++ {
		n, _ := serverHandshakeAllocs(t, cache, sess)
		total += n
	}
	return float64(total) / runs
}

// TestFullHandshakeServerAllocs pins what the zero-allocation RSA
// decrypt bought the connection: a full handshake costs the server at
// most 49 heap objects (47 measured since the CBC record cipher holds
// its chaining value inline; it was 4,077, of which 3,984 were step
// 7's bignum temporaries — garbage the one-CPU server collected at
// 260 MB/s under load).
func TestFullHandshakeServerAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race runtime allocates on sync paths and drops pooled objects")
	}
	if mean := meanServerAllocs(t, nil, nil); mean > 49 {
		t.Fatalf("full handshake allocates %.0f objects on the server, want <= 49", mean)
	} else {
		t.Logf("full handshake: %.0f server allocs", mean)
	}
}

// TestResumedHandshakeServerAllocs pins the resumed handshake, where
// nothing but hashing, the key schedules and message handling runs, at
// 41 server objects (39 measured; 74 before the allocation diet: the SSLv3
// pad bytes built per use, KDF labels and digests summed into fresh
// slices, and a resumed session put back into the cache it came from).
func TestResumedHandshakeServerAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race runtime allocates on sync paths")
	}
	cache := handshake.NewSessionCache(4)
	_, sess := serverHandshakeAllocs(t, cache, nil)
	if mean := meanServerAllocs(t, cache, sess); mean > 41 {
		t.Fatalf("resumed handshake allocates %.0f objects on the server, want <= 41", mean)
	} else {
		t.Logf("resumed handshake: %.0f server allocs", mean)
	}
}
