package ssl

import (
	"testing"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
)

// A flavour drives the lifecycle scenarios over one of the two
// connection types, closing every connection it opens.
type flavour struct {
	name string
	// established handshakes a pair, answers one request, and returns
	// the client's session.
	established func(t *testing.T, ccfg, scfg *Config) *handshake.Session
	// garbage hands the server bytes that are no ClientHello.
	garbage func(t *testing.T, scfg *Config)
	// hangup starts the server's handshake and ends the connection
	// while it waits for a ClientHello: the peer closes the transport
	// under a blocking Conn; the driver of a sans-IO one, told of the
	// hang-up, closes it.
	hangup func(t *testing.T, scfg *Config)
}

var flavours = []flavour{
	{
		name: "blocking",
		established: func(t *testing.T, ccfg, scfg *Config) *handshake.Session {
			client, server := connect(t, ccfg, scfg)
			buf := make([]byte, 4)
			client.Write([]byte("ping"))
			if _, err := readFull(server, buf); err != nil {
				t.Fatal(err)
			}
			server.Write([]byte("pong"))
			if _, err := readFull(client, buf); err != nil {
				t.Fatal(err)
			}
			sess, err := client.Session()
			if err != nil {
				t.Fatal(err)
			}
			client.Close()
			server.Close()
			return sess
		},
		garbage: func(t *testing.T, scfg *Config) {
			ct, st := Pipe()
			server := ServerConn(st, scfg)
			ct.Write([]byte("GET / HTTP/1.0\r\n\r\nplaintext, not a ClientHello"))
			if server.Handshake() == nil {
				t.Fatal("handshake over plaintext succeeded")
			}
			server.Close()
		},
		hangup: func(t *testing.T, scfg *Config) {
			ct, st := Pipe()
			server := ServerConn(st, scfg)
			ct.Close()
			if server.Handshake() == nil {
				t.Fatal("handshake with a vanished peer succeeded")
			}
			server.Close()
		},
	},
	{
		name: "sans-io",
		established: func(t *testing.T, ccfg, scfg *Config) *handshake.Session {
			cli, srv := nbEstablishedPair(t, ccfg, scfg)
			buf := make([]byte, 4)
			send := func(from, to *NonBlockingConn, msg string) {
				t.Helper()
				from.WriteData([]byte(msg))
				to.Feed(from.Outgoing())
				from.ConsumeOutgoing(len(from.Outgoing()))
				if n, err := to.ReadData(buf); err != nil || n != len(msg) {
					t.Fatalf("read = %d, %v", n, err)
				}
			}
			send(cli, srv, "ping")
			send(srv, cli, "pong")
			sess, err := cli.Session()
			if err != nil {
				t.Fatal(err)
			}
			cli.Close()
			srv.Close()
			return sess
		},
		garbage: func(t *testing.T, scfg *Config) {
			srv := NonBlockingServer(scfg)
			srv.Feed([]byte("GET / HTTP/1.0\r\n\r\nplaintext, not a ClientHello"))
			if err := srv.HandshakeStep(); err == nil || err == ErrWouldBlock {
				t.Fatalf("handshake over plaintext = %v", err)
			}
			srv.Close()
		},
		hangup: func(t *testing.T, scfg *Config) {
			srv := NonBlockingServer(scfg)
			if err := srv.HandshakeStep(); err != ErrWouldBlock {
				t.Fatalf("first step with no bytes = %v, want ErrWouldBlock", err)
			}
			srv.Close()
		},
	},
}

var resumedHandshakeSteps = []probe.Step{
	probe.StepInit,
	probe.StepGetClientHello,
	probe.StepSendServerHello,
	probe.StepGenKeyBlock,
	probe.StepSendCipherSpec,
	probe.StepSendFinished,
	probe.StepGetFinished,
	probe.StepServerFlush,
}

// checkTimeline asserts the shape every connection's event stream has:
// one open first, one handshake start, the steps, exactly one outcome,
// application I/O only after a done, one close last, one ID throughout.
// wantSteps nil means any non-empty prefix of the full sequence
// (a handshake that did not get to the end); wantFail FailNone means
// the handshake must complete.
func checkTimeline(t *testing.T, evs []probe.Event, role string, wantSteps []probe.Step, wantFail probe.FailClass) {
	t.Helper()
	if len(evs) < 4 {
		t.Fatalf("%s saw %d events", role, len(evs))
	}
	first, last := evs[0], evs[len(evs)-1]
	if first.Kind != probe.KindConnOpen || first.Fn != role || first.Conn == 0 {
		t.Fatalf("%s stream opens with %+v", role, first)
	}
	if last.Kind != probe.KindConnClose {
		t.Fatalf("%s stream ends with kind %d, want the close", role, last.Kind)
	}
	count := map[probe.Kind]int{}
	at := map[probe.Kind]int{}
	var enters, exits []probe.Step
	for i, e := range evs {
		if e.Conn != first.Conn {
			t.Fatalf("%s event %d carries conn %d, the open said %d", role, i, e.Conn, first.Conn)
		}
		count[e.Kind]++
		at[e.Kind] = i
		switch e.Kind {
		case probe.KindStepEnter:
			enters = append(enters, e.Step)
		case probe.KindStepExit:
			exits = append(exits, e.Step)
		}
	}
	for _, k := range []probe.Kind{probe.KindConnOpen, probe.KindHandshakeStart, probe.KindConnClose} {
		if count[k] != 1 {
			t.Fatalf("%s saw %d events of kind %d, want exactly 1", role, count[k], k)
		}
	}
	if at[probe.KindHandshakeStart] != 1 {
		t.Fatalf("%s handshake start is event %d, want 1", role, at[probe.KindHandshakeStart])
	}

	outcome := probe.KindHandshakeDone
	if wantFail != probe.FailNone {
		outcome = probe.KindHandshakeFail
	}
	if count[probe.KindHandshakeDone]+count[probe.KindHandshakeFail] != 1 || count[outcome] != 1 {
		t.Fatalf("%s saw %d done and %d fail events", role,
			count[probe.KindHandshakeDone], count[probe.KindHandshakeFail])
	}
	end := at[outcome]
	if wantFail != probe.FailNone {
		if e := evs[end]; e.Class != wantFail || e.Fn == "" || e.Detail == "" {
			t.Fatalf("%s fail event %+v, want class %v with tag and detail", role, e, wantFail)
		}
	} else if e := evs[end]; e.Fn == "" || e.Version == 0 {
		t.Fatalf("%s done event %+v names no suite or version", role, e)
	}

	switch {
	case role == "client":
		wantSteps = []probe.Step{} // the client FSM has no Table 2 steps
	case wantSteps == nil:
		if len(enters) == 0 || len(enters) > len(fullHandshakeSteps) {
			t.Fatalf("unfinished handshake entered steps %v", enters)
		}
		wantSteps = fullHandshakeSteps[:len(enters)]
	}
	if !stepsEqual(enters, wantSteps) || !stepsEqual(exits, wantSteps) {
		t.Fatalf("%s steps entered %v, exited %v, want %v", role, enters, exits, wantSteps)
	}
	for i, e := range evs {
		switch e.Kind {
		case probe.KindStepEnter, probe.KindStepExit, probe.KindCrypto,
			probe.KindHandshakeSuspend, probe.KindHandshakeResume:
			if i < 2 || i > end {
				t.Fatalf("%s event %d (kind %d) lies outside the handshake [1, %d]", role, i, e.Kind, end)
			}
		case probe.KindAppIO:
			if wantFail != probe.FailNone || i < end {
				t.Fatalf("%s application I/O at event %d without a finished handshake before it", role, i)
			}
		}
	}
	if wantFail == probe.FailNone && count[probe.KindAppIO] != 2 {
		t.Fatalf("%s saw %d application I/O events, want one read and one write", role, count[probe.KindAppIO])
	}
}

// TestLifecycleEventOrder pins the timeline a connection puts on the
// spine, over both connection types and every way a handshake ends.
func TestLifecycleEventOrder(t *testing.T) {
	id := identity(t)
	for _, f := range flavours {
		// recorded returns a config pair whose connections append
		// their events to the returned slices.
		recorded := func(seed uint64) (ccfg, scfg *Config, cli, srv *[]probe.Event) {
			cli, srv = new([]probe.Event), new([]probe.Event)
			record := func(into *[]probe.Event) probe.Observer {
				return probe.SinkFunc(func(e probe.Event) { *into = append(*into, e) })
			}
			scfg = id.ServerConfig(NewPRNG(seed))
			scfg.Observer = record(srv)
			ccfg = clientCfg(func(c *Config) { c.Observer = record(cli) })
			return ccfg, scfg, cli, srv
		}
		parks := func(evs []probe.Event) (suspends, resumes int) {
			for _, e := range evs {
				switch e.Kind {
				case probe.KindHandshakeSuspend:
					suspends++
				case probe.KindHandshakeResume:
					resumes++
				}
			}
			return
		}

		t.Run(f.name+"/full", func(t *testing.T) {
			ccfg, scfg, cli, srv := recorded(701)
			f.established(t, ccfg, scfg)
			checkTimeline(t, *srv, "server", fullHandshakeSteps, probe.FailNone)
			checkTimeline(t, *cli, "client", nil, probe.FailNone)
			if (*cli)[0].Conn == (*srv)[0].Conn {
				t.Fatal("the two ends share a connection ID")
			}
			// Every park is resumed: a blocking handshake parks across
			// its transport reads, a sans-IO one across ErrWouldBlock,
			// which it always meets.
			s, r := parks(*srv)
			if s != r || (f.name == "sans-io" && s == 0) {
				t.Fatalf("%d suspends, %d resumes", s, r)
			}
		})
		t.Run(f.name+"/resumed", func(t *testing.T) {
			cache := handshake.NewSessionCache(4)
			first := id.ServerConfig(NewPRNG(702))
			first.SessionCache = cache
			sess := f.established(t, clientCfg(nil), first)

			ccfg, scfg, cli, srv := recorded(703)
			scfg.SessionCache = cache
			ccfg.Session = sess
			f.established(t, ccfg, scfg)
			checkTimeline(t, *srv, "server", resumedHandshakeSteps, probe.FailNone)
			checkTimeline(t, *cli, "client", nil, probe.FailNone)
			for _, e := range *srv {
				if e.Kind == probe.KindHandshakeDone && !e.Resumed {
					t.Fatalf("server's outcome %+v is not a resumed handshake", e)
				}
			}
		})
		t.Run(f.name+"/failed", func(t *testing.T) {
			_, scfg, _, srv := recorded(704)
			f.garbage(t, scfg)
			checkTimeline(t, *srv, "server", nil, probe.FailVersionMismatch)
		})
		t.Run(f.name+"/closed-mid-handshake", func(t *testing.T) {
			_, scfg, _, srv := recorded(705)
			f.hangup(t, scfg)
			checkTimeline(t, *srv, "server", nil, probe.FailIOEOF)
			if s, r := parks(*srv); s-r > 1 {
				t.Fatalf("%d suspends, %d resumes", s, r)
			}
		})
	}
}

// TestMidHandshakeCloseSettlesEverySink is the slow-loris regression:
// a connection that ends while its handshake waits for bytes used to
// vanish from every ledger — closed, never failed — and leak the
// table's in-flight (handshaking) count. It must end as an io_eof failure everywhere.
func TestMidHandshakeCloseSettlesEverySink(t *testing.T) {
	const conns = 5
	for _, f := range flavours {
		t.Run(f.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tab := lifecycle.NewTable(lifecycle.Options{Registry: reg})
			for i := 0; i < conns; i++ {
				scfg := identity(t).ServerConfig(NewPRNG(uint64(710 + i)))
				scfg.Observer = tab
				f.hangup(t, scfg)
			}
			if got := tab.Counts().Handshaking; got != 0 {
				t.Errorf("in-flight gauge = %d after every connection closed, want 0", got)
			}
			snap := tab.Snapshot(lifecycle.SnapshotOptions{})
			if snap.Opened != conns || snap.Closed != conns || snap.Failed != conns {
				t.Errorf("table opened/closed/failed = %d/%d/%d, want %d/%d/%d",
					snap.Opened, snap.Closed, snap.Failed, conns, conns, conns)
			}
			if got := snap.FailClasses["io_eof"]; got != conns {
				t.Errorf("table fail classes = %v, want io_eof=%d", snap.FailClasses, conns)
			}
			hs := reg.Snapshot().Handshakes
			if hs.Full != 0 || hs.Failed != conns || hs.FailReasons["io_eof"] != conns {
				t.Errorf("registry handshakes = %+v, want %d failed as io_eof", hs, conns)
			}
		})
	}
}

// TestBlockingReadParksStep: a blocking server charges its Table 2
// steps for its own work, not for the peer. Over a Pipe the client
// stalls before its hello; the server's get_client_hello must park
// across the wait and report the microseconds of parsing it, not the
// stall.
func TestBlockingReadParksStep(t *testing.T) {
	const stall = 30 * time.Millisecond
	var evs []probe.Event
	scfg := identity(t).ServerConfig(NewPRNG(720))
	scfg.Observer = probe.SinkFunc(func(e probe.Event) { evs = append(evs, e) })
	ct, st := Pipe()
	client, server := ClientConn(ct, clientCfg(nil)), ServerConn(st, scfg)
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() {
		time.Sleep(stall)
		done <- client.Handshake()
	}()
	if err := server.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	suspends, dur := 0, time.Duration(-1)
	for _, e := range evs {
		switch {
		case e.Step != probe.StepGetClientHello:
		case e.Kind == probe.KindHandshakeSuspend:
			suspends++
		case e.Kind == probe.KindStepExit:
			dur = e.Dur
		}
	}
	if suspends == 0 || dur < 0 || dur >= stall/2 {
		t.Fatalf("get_client_hello: %d suspends, %v in-step after a %v stall; want a park and under %v",
			suspends, dur, stall, stall/2)
	}
}
