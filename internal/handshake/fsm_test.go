package handshake

import (
	"testing"

	"sslperf/internal/record"
	"sslperf/internal/suite"
)

// shuttle drives a sans-IO client/server FSM pair entirely in memory:
// each round steps both machines and ferries Outgoing bytes into the
// peer's Feed, chunked to at most chunk bytes per transfer (chunk<=0
// means everything at once). Returns the step counts.
func shuttle(t *testing.T, cliCore, srvCore *record.Core, cli *ClientFSM, srv *ServerFSM, chunk int) (int, int) {
	t.Helper()
	cliSteps, srvSteps := 0, 0
	move := func(from, to *record.Core) bool {
		out := from.Outgoing()
		if len(out) == 0 {
			return false
		}
		n := len(out)
		if chunk > 0 && n > chunk {
			n = chunk
		}
		to.Feed(out[:n])
		from.ConsumeOutgoing(n)
		return true
	}
	for i := 0; i < 100000; i++ {
		progress := false
		if cli.Result() == nil {
			cliSteps++
			if err := cli.Step(); err == nil {
				progress = true
			} else if err != ErrWouldBlock {
				t.Fatalf("client step: %v", err)
			}
		}
		if move(cliCore, srvCore) {
			progress = true
		}
		if srv.Result() == nil {
			srvSteps++
			if err := srv.Step(); err == nil {
				progress = true
			} else if err != ErrWouldBlock {
				t.Fatalf("server step: %v", err)
			}
		}
		if move(srvCore, cliCore) {
			progress = true
		}
		if cli.Result() != nil && srv.Result() != nil {
			return cliSteps, srvSteps
		}
		if !progress {
			t.Fatal("shuttle deadlocked: no progress and neither side done")
		}
	}
	t.Fatal("shuttle did not converge")
	return 0, 0
}

// nonBlockPair builds a sans-IO FSM pair for one suite.
func nonBlockPair(t *testing.T, id suite.ID, seed uint64, scache *SessionCache, sess *Session) (*record.Core, *record.Core, *ClientFSM, *ServerFSM) {
	t.Helper()
	key, _ := intIdentity(t)
	cliCore, srvCore := record.NewCore(), record.NewCore()
	srv, err := NewServerFSM(srvCore, &Config{
		Key: key, CertDER: intCert.Raw, SessionCache: scache,
	}, nil, rnd(seed))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClientFSM(cliCore, &Config{
		Suites: []suite.ID{id}, InsecureSkipVerify: true, Session: sess,
	}, nil, rnd(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return cliCore, srvCore, cli, srv
}

// Every suite must complete a sans-IO handshake with both ends
// suspending on WouldBlock, and the two results must agree.
func TestNonBlockingHandshakeAllSuites(t *testing.T) {
	for _, s := range suite.All() {
		t.Run(s.Name, func(t *testing.T) {
			cliCore, srvCore, cli, srv := nonBlockPair(t, s.ID, 77, nil, nil)
			cliSteps, srvSteps := shuttle(t, cliCore, srvCore, cli, srv, 0)
			if cliSteps < 2 || srvSteps < 2 {
				t.Fatalf("no suspension happened (client %d steps, server %d): the non-blocking path was not exercised", cliSteps, srvSteps)
			}
			cres, sres := cli.Result(), srv.Result()
			if cres == nil || sres == nil {
				t.Fatal("missing results")
			}
			if cres.Suite.ID != s.ID || sres.Suite.ID != s.ID {
				t.Fatalf("suite mismatch: client %v server %v", cres.Suite.ID, sres.Suite.ID)
			}
			if string(cres.Session.Master) != string(sres.Session.Master) {
				t.Fatal("master secrets differ")
			}
			if cres.Resumed || sres.Resumed {
				t.Fatal("fresh handshake reported resumed")
			}
		})
	}
}

// Resumption through the sans-IO path: first handshake populates the
// cache, second resumes through the short tail.
func TestNonBlockingResumption(t *testing.T) {
	cache := NewSessionCache(16)
	cliCore, srvCore, cli, srv := nonBlockPair(t, suite.RSAWithRC4128MD5, 101, cache, nil)
	shuttle(t, cliCore, srvCore, cli, srv, 0)
	sess := cli.Result().Session

	cliCore2, srvCore2, cli2, srv2 := nonBlockPair(t, suite.RSAWithRC4128MD5, 202, cache, sess)
	shuttle(t, cliCore2, srvCore2, cli2, srv2, 0)
	if !cli2.Result().Resumed || !srv2.Result().Resumed {
		t.Fatalf("resumption failed: client=%v server=%v",
			cli2.Result().Resumed, srv2.Result().Resumed)
	}
	if string(cli2.Result().Session.Master) != string(sess.Master) {
		t.Fatal("resumed master secret changed")
	}
}

// Byte-at-a-time delivery: the incremental msgreader must survive a
// record (and every message in it) arriving one byte per feed.
func TestNonBlockingByteAtATime(t *testing.T) {
	cliCore, srvCore, cli, srv := nonBlockPair(t, suite.RSAWithAES128CBCSHA, 55, nil, nil)
	cliSteps, srvSteps := shuttle(t, cliCore, srvCore, cli, srv, 1)
	// The full handshake is ~2KB of wire traffic; byte-at-a-time it
	// must suspend hundreds of times without double-running any state.
	if cliSteps < 100 || srvSteps < 100 {
		t.Fatalf("expected deep suspension, got client=%d server=%d steps", cliSteps, srvSteps)
	}
	if cli.Result().Suite.ID != suite.RSAWithAES128CBCSHA {
		t.Fatal("wrong suite")
	}
}

// A terminal failure must queue a fatal alert in the outgoing buffer
// and stick: further Steps return the same error.
func TestNonBlockingTerminalErrorQueuesAlert(t *testing.T) {
	key, _ := intIdentity(t)
	srvCore := record.NewCore()
	srv, err := NewServerFSM(srvCore, &Config{Key: key, CertDER: intCert.Raw}, nil, rnd(3))
	if err != nil {
		t.Fatal(err)
	}
	// Feed garbage that parses as a record but fails the handshake.
	srvCore.Feed([]byte{byte(record.TypeHandshake), 0x03, 0x00, 0x00, 0x04, 99, 0, 0, 0})
	first := srv.Step()
	if first == nil || first == ErrWouldBlock {
		t.Fatalf("expected terminal error, got %v", first)
	}
	if second := srv.Step(); second != first {
		t.Fatalf("terminal error not sticky: %v then %v", first, second)
	}
	out := srvCore.Outgoing()
	if len(out) == 0 {
		t.Fatal("no alert queued")
	}
	if record.ContentType(out[0]) != record.TypeAlert {
		t.Fatalf("queued record type %d, want alert", out[0])
	}
}
