package ssl

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/suite"
)

// fixedTestTime pins Config.Time so hello randoms (whose first four
// bytes are the wall clock) are identical across runs.
func fixedTestTime() time.Time { return time.Unix(1101081600, 0) }

// recordingRW wraps a transport and logs every byte written through
// it — the blocking side of the wire-equivalence comparison. Bytes
// are logged before the underlying write, so a best-effort
// close_notify into an already-closed pipe still lands in the
// transcript (the sans-IO side always captures its queued alerts).
type recordingRW struct {
	rw  io.ReadWriteCloser
	mu  sync.Mutex
	log bytes.Buffer
}

func (r *recordingRW) Read(p []byte) (int, error) { return r.rw.Read(p) }

func (r *recordingRW) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.log.Write(p)
	r.mu.Unlock()
	return r.rw.Write(p)
}

func (r *recordingRW) Close() error { return r.rw.Close() }

func (r *recordingRW) bytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.log.Bytes()...)
}

// An exchange is what one run of a transcript helper returns: each
// side's complete wire transcript, the client's session, whether the
// handshake resumed, and the kernels the run's objects report at its
// end — each side's record write state, then the server key's
// Montgomery contexts.
type exchange struct {
	cli, srv []byte
	sess     *handshake.Session
	resumed  bool
	kernels  []string
}

// kernelsOf collects what the objects of one connection pair report.
func kernelsOf(cli, srv *NonBlockingConn) []string {
	ks := append(cli.core.Kernels(), srv.core.Kernels()...)
	return append(ks, srv.cfg.Key.Kernels()...)
}

// blockingTranscript runs one full blocking-Conn exchange — handshake,
// client request, server response, server close, client close — over
// an in-memory pipe with recording transports, returning each side's
// complete wire transcript, the client's session, and whether the
// handshake resumed.
func blockingTranscript(t *testing.T, id suite.ID, seedC, seedS uint64,
	cache *handshake.SessionCache, sess *handshake.Session,
	req, resp []byte) (cliWire, srvWire []byte, out *handshake.Session, resumed bool) {
	t.Helper()
	x := blockingExchange(t, id, seedC, seedS, cache, sess, req, resp)
	return x.cli, x.srv, x.sess, x.resumed
}

// blockingExchange is blockingTranscript, returning its exchange.
func blockingExchange(t *testing.T, id suite.ID, seedC, seedS uint64,
	cache *handshake.SessionCache, sess *handshake.Session, req, resp []byte) exchange {
	t.Helper()
	var out *handshake.Session
	var resumed bool
	ct, st := Pipe()
	rc := &recordingRW{rw: ct}
	rs := &recordingRW{rw: st}
	client := ClientConn(rc, &Config{
		Rand: NewPRNG(seedC), Suites: []suite.ID{id}, Time: fixedTestTime,
		InsecureSkipVerify: true, Session: sess,
	})
	server := ServerConn(rs, &Config{
		Rand: NewPRNG(seedS), Key: identity(t).Key, CertDER: identity(t).CertDER,
		Time: fixedTestTime, SessionCache: cache,
	})
	errs := make(chan error, 1)
	go func() {
		errs <- func() error {
			if _, err := client.Write(req); err != nil {
				return fmt.Errorf("client write: %w", err)
			}
			buf := make([]byte, len(resp))
			if _, err := io.ReadFull(client, buf); err != nil {
				return fmt.Errorf("client read: %w", err)
			}
			var one [1]byte
			if _, err := client.Read(one[:]); err != io.EOF {
				return fmt.Errorf("after close_notify: want EOF, got %v", err)
			}
			out, _ = client.Session()
			st, err := client.ConnectionState()
			if err != nil {
				return err
			}
			resumed = st.Resumed
			return client.Close()
		}()
	}()
	rbuf := make([]byte, len(req))
	if _, err := io.ReadFull(server, rbuf); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if _, err := server.Write(resp); err != nil {
		t.Fatalf("server write: %v", err)
	}
	server.Close()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	return exchange{rc.bytes(), rs.bytes(), out, resumed, kernelsOf(&client.nb, &server.nb)}
}

// nonBlockingTranscript runs the identical exchange through a
// NonBlockingConn pair shuttled entirely in memory, capturing every
// outgoing byte of each side.
func nonBlockingTranscript(t *testing.T, id suite.ID, seedC, seedS uint64,
	cache *handshake.SessionCache, sess *handshake.Session,
	req, resp []byte) (cliWire, srvWire []byte, out *handshake.Session, resumed bool) {
	t.Helper()
	x := nonBlockingExchange(t, id, seedC, seedS, cache, sess, req, resp)
	return x.cli, x.srv, x.sess, x.resumed
}

// nonBlockingExchange is nonBlockingTranscript, returning its exchange.
func nonBlockingExchange(t *testing.T, id suite.ID, seedC, seedS uint64,
	cache *handshake.SessionCache, sess *handshake.Session, req, resp []byte) exchange {
	t.Helper()
	cli := NonBlockingClient(&Config{
		Rand: NewPRNG(seedC), Suites: []suite.ID{id}, Time: fixedTestTime,
		InsecureSkipVerify: true, Session: sess,
	})
	srv := NonBlockingServer(&Config{
		Rand: NewPRNG(seedS), Key: identity(t).Key, CertDER: identity(t).CertDER,
		Time: fixedTestTime, SessionCache: cache,
	})
	var cliLog, srvLog bytes.Buffer
	move := func(from, to *NonBlockingConn, log *bytes.Buffer) bool {
		o := from.Outgoing()
		if len(o) == 0 {
			return false
		}
		log.Write(o)
		if to != nil {
			to.Feed(o)
		}
		from.ConsumeOutgoing(len(o))
		return true
	}
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("non-blocking handshake did not converge")
		}
		progress := false
		if !cli.HandshakeDone() {
			if err := cli.HandshakeStep(); err == nil {
				progress = true
			} else if err != ErrWouldBlock {
				t.Fatalf("client step: %v", err)
			}
		}
		if move(cli, srv, &cliLog) {
			progress = true
		}
		if !srv.HandshakeDone() {
			if err := srv.HandshakeStep(); err == nil {
				progress = true
			} else if err != ErrWouldBlock {
				t.Fatalf("server step: %v", err)
			}
		}
		if move(srv, cli, &srvLog) {
			progress = true
		}
		if cli.HandshakeDone() && srv.HandshakeDone() {
			break
		}
		if !progress {
			t.Fatal("non-blocking shuttle deadlocked")
		}
	}
	if _, err := cli.WriteData(req); err != nil {
		t.Fatalf("client write: %v", err)
	}
	move(cli, srv, &cliLog)
	buf := make([]byte, 4096)
	for got := 0; got < len(req); {
		n, err := srv.ReadData(buf)
		if err != nil {
			t.Fatalf("server read: %v", err)
		}
		got += n
	}
	if _, err := srv.WriteData(resp); err != nil {
		t.Fatalf("server write: %v", err)
	}
	srv.Close()
	move(srv, cli, &srvLog)
	for got := 0; got < len(resp); {
		n, err := cli.ReadData(buf)
		if err != nil {
			t.Fatalf("client read: %v", err)
		}
		got += n
	}
	if _, err := cli.ReadData(buf); err != io.EOF {
		t.Fatalf("after close_notify: want EOF, got %v", err)
	}
	out, _ := cli.Session()
	st, err := cli.ConnectionState()
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	move(cli, nil, &cliLog) // capture the client's close_notify
	return exchange{cliLog.Bytes(), srvLog.Bytes(), out, st.Resumed, kernelsOf(cli, srv)}
}

// The golden wire-equivalence gate: for every suite, full and resumed,
// the blocking Conn and the NonBlockingConn must emit byte-identical
// transcripts in both directions given the same seeds and clock. The
// response is larger than one record so the fragmenting (and the
// blocking side's flight path) is covered too.
func TestNonBlockingWireEquivalence(t *testing.T) {
	req := bytes.Repeat([]byte("q"), 512)
	resp := bytes.Repeat([]byte("r"), 20000)
	for _, s := range suite.All() {
		t.Run(s.Name, func(t *testing.T) {
			cacheB := handshake.NewSessionCache(16)
			cacheN := handshake.NewSessionCache(16)
			bc, bs, bsess, bres := blockingTranscript(t, s.ID, 31, 32, cacheB, nil, req, resp)
			nc, ns, nsess, nres := nonBlockingTranscript(t, s.ID, 31, 32, cacheN, nil, req, resp)
			if bres || nres {
				t.Fatal("full handshake reported resumed")
			}
			if !bytes.Equal(bc, nc) {
				t.Errorf("full: client transcripts differ (blocking %d bytes, non-blocking %d)", len(bc), len(nc))
			}
			if !bytes.Equal(bs, ns) {
				t.Errorf("full: server transcripts differ (blocking %d bytes, non-blocking %d)", len(bs), len(ns))
			}
			if bsess == nil || nsess == nil {
				t.Fatal("missing sessions")
			}

			bc2, bs2, _, bres2 := blockingTranscript(t, s.ID, 41, 42, cacheB, bsess, req, resp)
			nc2, ns2, _, nres2 := nonBlockingTranscript(t, s.ID, 41, 42, cacheN, nsess, req, resp)
			if !bres2 || !nres2 {
				t.Fatalf("resumed handshake did not resume (blocking=%v non-blocking=%v)", bres2, nres2)
			}
			if !bytes.Equal(bc2, nc2) {
				t.Errorf("resumed: client transcripts differ (blocking %d bytes, non-blocking %d)", len(bc2), len(nc2))
			}
			if !bytes.Equal(bs2, ns2) {
				t.Errorf("resumed: server transcripts differ (blocking %d bytes, non-blocking %d)", len(bs2), len(ns2))
			}
		})
	}
}

// nbEstablishedPair shuttles a NonBlockingConn pair to established.
func nbEstablishedPair(t testing.TB, ccfg, scfg *Config) (*NonBlockingConn, *NonBlockingConn) {
	t.Helper()
	cli := NonBlockingClient(ccfg)
	srv := NonBlockingServer(scfg)
	for i := 0; !cli.HandshakeDone() || !srv.HandshakeDone(); i++ {
		if i > 10000 {
			t.Fatal("handshake did not converge")
		}
		if err := cli.HandshakeStep(); err != nil && err != ErrWouldBlock {
			t.Fatalf("client: %v", err)
		}
		if o := cli.Outgoing(); len(o) > 0 {
			srv.Feed(o)
			cli.ConsumeOutgoing(len(o))
		}
		if err := srv.HandshakeStep(); err != nil && err != ErrWouldBlock {
			t.Fatalf("server: %v", err)
		}
		if o := srv.Outgoing(); len(o) > 0 {
			cli.Feed(o)
			srv.ConsumeOutgoing(len(o))
		}
	}
	return cli, srv
}

// tee is a connection's one observer made of two: every event goes to
// the entry the table answers with, then to the counting sink.
type tee struct {
	table *lifecycle.Table
	sink  probe.Sink
}

func (o tee) Observe() probe.Sink {
	entry := o.table.Observe()
	return probe.SinkFunc(func(e probe.Event) {
		entry.Emit(e)
		o.sink.Emit(e)
	})
}

// A sans-IO connection parked on ErrWouldBlock mid-handshake is
// handshaking on the lifecycle table, with its open Table-2 step
// preserved; however often it parks, every step is entered and exited
// once and its duration counts active time only. Established on
// completion, gone after close.
func TestNonBlockingLifecycleSuspended(t *testing.T) {
	table := lifecycle.NewTable(lifecycle.Options{})
	var enters, exits []probe.Step
	var parks int
	var helloDur time.Duration
	steps := probe.SinkFunc(func(e probe.Event) {
		switch e.Kind {
		case probe.KindStepEnter:
			enters = append(enters, e.Step)
		case probe.KindStepExit:
			exits = append(exits, e.Step)
			if e.Step == probe.StepGetClientHello {
				helloDur = e.Dur
			}
		case probe.KindHandshakeSuspend:
			parks++
		}
	})
	scfg := &Config{
		Rand: NewPRNG(5), Key: identity(t).Key, CertDER: identity(t).CertDER,
		Observer: tee{table, steps},
	}
	srv := NonBlockingServer(scfg)
	srv.SetRemoteAddr("10.0.0.9:999")
	if err := srv.HandshakeStep(); err != ErrWouldBlock {
		t.Fatalf("first step with no bytes: want ErrWouldBlock, got %v", err)
	}
	if c := table.Counts(); c.Handshaking != 1 || c.Live != 1 {
		t.Fatalf("parked: handshaking=%d live=%d, want 1/1", c.Handshaking, c.Live)
	}
	snap := table.Snapshot(lifecycle.SnapshotOptions{})
	if len(snap.Conns) != 1 || snap.Conns[0].State != "handshaking" {
		t.Fatalf("snapshot state = %+v, want one handshaking conn", snap.Conns)
	}
	if snap.Conns[0].Remote != "10.0.0.9:999" {
		t.Fatalf("remote = %q", snap.Conns[0].Remote)
	}
	if got, want := snap.Conns[0].Step, probe.StepGetClientHello.Name(); got != want {
		t.Fatalf("parked conn's open step = %q, want %q", got, want)
	}
	const parked = 30 * time.Millisecond
	time.Sleep(parked) // waiting for the ClientHello: must not count

	// Drive it to completion with a client.
	cli := NonBlockingClient(&Config{Rand: NewPRNG(6), InsecureSkipVerify: true})
	for i := 0; !cli.HandshakeDone() || !srv.HandshakeDone(); i++ {
		if i > 10000 {
			t.Fatal("no convergence")
		}
		cli.HandshakeStep()
		if o := cli.Outgoing(); len(o) > 0 {
			srv.Feed(o)
			cli.ConsumeOutgoing(len(o))
		}
		srv.HandshakeStep()
		if o := srv.Outgoing(); len(o) > 0 {
			cli.Feed(o)
			srv.ConsumeOutgoing(len(o))
		}
	}
	if c := table.Counts(); c.Established != 1 || c.Handshaking != 0 {
		t.Fatalf("after handshake: established=%d handshaking=%d, want 1/0", c.Established, c.Handshaking)
	}
	if parks < 2 {
		t.Fatalf("the handshake parked %d times: it never waited on the client, so the test proved nothing", parks)
	}
	if !stepsEqual(enters, fullHandshakeSteps) || !stepsEqual(exits, fullHandshakeSteps) {
		t.Fatalf("steps entered %v, exited %v, want each of %v once", enters, exits, fullHandshakeSteps)
	}
	if helloDur <= 0 || helloDur >= parked {
		t.Fatalf("%s took %v with %v of it parked: want active time only",
			probe.StepGetClientHello.Name(), helloDur, parked)
	}
	srv.Close()
	if c := table.Counts(); c.Live != 0 {
		t.Fatalf("after close: live=%d, want 0", c.Live)
	}
}

// The steady-state non-blocking data path must not allocate: write,
// feed, read round trips reuse the core's incoming/outgoing buffers
// and the conn's read stash.
func TestNonBlockSteadyStateZeroAlloc(t *testing.T) {
	cli, srv := nbEstablishedPair(t,
		&Config{Rand: NewPRNG(7), InsecureSkipVerify: true, Suites: []suite.ID{suite.RSAWithRC4128MD5}},
		&Config{Rand: NewPRNG(8), Key: identity(t).Key, CertDER: identity(t).CertDER},
	)
	payload := bytes.Repeat([]byte("z"), 1024)
	buf := make([]byte, 2048)
	roundTrip := func() {
		if _, err := srv.WriteData(payload); err != nil {
			t.Fatal(err)
		}
		o := srv.Outgoing()
		cli.Feed(o)
		srv.ConsumeOutgoing(len(o))
		for got := 0; got < len(payload); {
			n, err := cli.ReadData(buf)
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	for i := 0; i < 16; i++ {
		roundTrip() // warm the buffers
	}
	if a := testing.AllocsPerRun(200, roundTrip); a > 0 {
		t.Fatalf("steady-state round trip allocates %.1f/op, want 0", a)
	}
}
