package ssl

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"

	"sslperf/internal/handshake"
	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/suite"
	"sslperf/internal/telemetry"
)

// Behaviour the merge of Conn onto NonBlockingConn could silently
// change: both connection flavours now run one read loop, one write
// entry, one handshake start/finish, so each test below drives the
// shared code through both record conns (Core and Layer).

// TestShortReadSurvivesFeed reads one record through a buffer smaller
// than it, feeding more ciphertext between the two reads. The opened
// payload aliases the core's incoming buffer, which Feed compacts, so
// the unread remainder must have been copied out by the first read.
func TestShortReadSurvivesFeed(t *testing.T) {
	id := identity(t)
	client, server := nbEstablishedPair(t, clientCfg(nil), id.ServerConfig(NewPRNG(611)))

	// The second record is smaller than the first so that, when its
	// bytes are fed, they fit in the incoming buffer's existing
	// capacity and land on top of the first record's old position.
	first := bytes.Repeat([]byte("0123456789abcdef"), 64) // one 1 KiB record
	second := bytes.Repeat([]byte{0xEE}, 512)
	seal := func(p []byte) []byte {
		t.Helper()
		if _, err := client.WriteData(p); err != nil {
			t.Fatal(err)
		}
		wire := append([]byte(nil), client.Outgoing()...)
		client.ConsumeOutgoing(len(wire))
		return wire
	}
	wireFirst, wireSecond := seal(first), seal(second)

	// Feed the first record plus a sliver of the second, so the parse
	// cursor is non-zero and the buffer non-empty when the next Feed
	// compacts it.
	server.Feed(wireFirst)
	server.Feed(wireSecond[:3])
	sip := make([]byte, 10)
	n, err := server.ReadData(sip)
	if err != nil || n != len(sip) {
		t.Fatalf("first read = %d, %v", n, err)
	}
	got := append([]byte(nil), sip...)
	server.Feed(wireSecond[3:])
	p := make([]byte, 4096)
	for len(got) < len(first)+len(second) {
		n, err := server.ReadData(p)
		if err != nil {
			t.Fatalf("read after %d bytes: %v", len(got), err)
		}
		got = append(got, p[:n]...)
	}
	if !bytes.Equal(got, append(first, second...)) {
		t.Fatal("bytes read across a Feed differ from the bytes written")
	}
}

// TestShortReadBlocking is the same contract over a Layer: the opened
// payload aliases the layer's read scratch, which the next record
// overwrites, so sips smaller than a record must still see its bytes
// after a later record has been read into the same scratch.
func TestShortReadBlocking(t *testing.T) {
	id := identity(t)
	client, server := connect(t, clientCfg(nil), id.ServerConfig(NewPRNG(612)))
	first := bytes.Repeat([]byte("0123456789abcdef"), 64)
	second := bytes.Repeat([]byte{0xEE}, 1024)
	client.Write(first)
	client.Write(second)
	want := append(first, second...)
	got := make([]byte, 0, len(want))
	p := make([]byte, 1000) // not a divisor of 1024: each record ends in a short tail
	for len(got) < len(want) {
		n, err := server.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p[:n]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("short blocking reads returned different bytes")
	}
}

// readSignal closes entered the first time the SSL layer reads from
// the transport: the moment a blocking server handshake parks waiting
// for the ClientHello.
type readSignal struct {
	net.Conn
	once    sync.Once
	entered chan struct{}
}

func (r *readSignal) Read(p []byte) (int, error) {
	r.once.Do(func() { close(r.entered) })
	return r.Conn.Read(p)
}

// TestBlockingConnLifecycleRegistration pins the two lifecycle facts a
// blocking Conn must keep now that the sans-IO conn (which registers
// lazily) does its bookkeeping: the entry exists from construction
// under the transport's peer address, and a handshake parked in a
// transport read is handshaking.
func TestBlockingConnLifecycleRegistration(t *testing.T) {
	id := identity(t)
	table := lifecycle.NewTable(lifecycle.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	scfg := id.ServerConfig(NewPRNG(613))
	scfg.Observer = table

	sendHello := make(chan struct{})
	clientDone := make(chan error, 1)
	go func() {
		tc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			clientDone <- err
			return
		}
		defer tc.Close()
		<-sendHello
		clientDone <- ClientConn(tc, clientCfg(nil)).Handshake()
	}()
	tc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	sig := &readSignal{Conn: tc, entered: make(chan struct{})}
	server := ServerConn(sig, scfg)
	defer server.Close()

	if c := table.Counts(); c.Live != 1 || c.Accepted != 1 {
		t.Fatalf("at construction: live=%d accepted=%d, want 1/1", c.Live, c.Accepted)
	}
	snap := table.Snapshot(lifecycle.SnapshotOptions{})
	if got, want := snap.Conns[0].Remote, tc.RemoteAddr().String(); got != want {
		t.Fatalf("remote = %q, want the transport's %q", got, want)
	}

	serverDone := make(chan error, 1)
	go func() { serverDone <- server.Handshake() }()
	<-sig.entered // the server is waiting for a ClientHello nobody has sent
	if c := table.Counts(); c.Handshaking != 1 {
		t.Fatalf("parked in the transport: handshaking=%d, want 1", c.Handshaking)
	}
	close(sendHello)
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
	if err := <-clientDone; err != nil {
		t.Fatal(err)
	}
	if c := table.Counts(); c.Established != 1 {
		t.Fatalf("after handshake: established=%d, want 1", c.Established)
	}
}

// Transport writes and reads per operation (blocking Conn over the
// in-memory pipe, RSA key exchange): the syscall shape the benchmark's
// end-to-end workloads see. A Layer holds a handshake flight until it
// would block in a read, so a handshake is one write per flight a side
// sends — the protocol's two a side, less the resumed server's second,
// which it never sends — where it was one per record: 4/5 full and
// 3/3 resumed (client/server) before ISSUE 29. A server's first read
// takes the whole ClientHello, and the client's closing
// ChangeCipherSpec + Finished arrive in one read: 2 reads either way,
// where a header read and then a body read made the ClientHello alone
// cost 2.
const (
	fullHandshakeClientWrites    = 2
	fullHandshakeServerWrites    = 2
	resumedHandshakeClientWrites = 2
	resumedHandshakeServerWrites = 1
	fullHandshakeServerReads     = 2
	resumedHandshakeServerReads  = 2
	write256Writes               = 1
	write1MiB7Writes             = 2 // one 64-record flight window, then the 65th record
)

func TestWriteCallsPinned(t *testing.T) {
	id := identity(t)
	aes, err := suite.ByName("AES128-SHA")
	if err != nil {
		t.Fatal(err)
	}
	scfg := id.ServerConfig(NewPRNG(614))
	scfg.SessionCache = handshake.NewSessionCache(4)
	scfg.Suites = []suite.ID{aes.ID}
	client, server := connect(t, clientCfg(nil), scfg)
	check := func(what string, got, want int) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %d transport calls, want %d", what, got, want)
		}
	}
	check("full handshake, client writes", client.Stats().WriteCalls, fullHandshakeClientWrites)
	check("full handshake, server writes", server.Stats().WriteCalls, fullHandshakeServerWrites)
	check("full handshake, server reads", server.Stats().ReadCalls, fullHandshakeServerReads)

	before := server.Stats().WriteCalls
	if _, err := server.Write(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	check("256 B write", server.Stats().WriteCalls-before, write256Writes)
	before = server.Stats().WriteCalls
	if _, err := server.Write(make([]byte, 1<<20+7)); err != nil {
		t.Fatal(err)
	}
	check("1 MiB+7 B write", server.Stats().WriteCalls-before, write1MiB7Writes)
	if _, err := io.ReadFull(client, make([]byte, 256+1<<20+7)); err != nil {
		t.Fatal(err)
	}

	sess, err := client.Session()
	if err != nil {
		t.Fatal(err)
	}
	scfg.Rand = NewPRNG(615)
	rclient, rserver := connect(t, clientCfg(func(c *Config) { c.Session = sess }), scfg)
	if st, _ := rserver.ConnectionState(); !st.Resumed {
		t.Fatal("second connection did not resume")
	}
	check("resumed handshake, client writes", rclient.Stats().WriteCalls, resumedHandshakeClientWrites)
	check("resumed handshake, server writes", rserver.Stats().WriteCalls, resumedHandshakeServerWrites)
	check("resumed handshake, server reads", rserver.Stats().ReadCalls, resumedHandshakeServerReads)
}

// TestFailedFlightCarriesAlert: a server whose handshake fails with a
// flight sealed and held (ServerHello + Certificate, then a DHE suite
// it cannot sign for without its key) sends flight and fatal alert in
// one write, and the client reads the flight and then why it ended.
func TestFailedFlightCarriesAlert(t *testing.T) {
	id := identity(t)
	ct, st := Pipe()
	client := ClientConn(ct, clientCfg(func(c *Config) {
		c.Suites = []suite.ID{suite.DHERSAWithAES128CBCSHA}
	}))
	server := ServerConn(st, &Config{Rand: NewPRNG(618), Decrypter: id.Key, CertDER: id.CertDER})
	clientErr := make(chan error, 1)
	go func() { clientErr <- client.Handshake() }()
	if err := server.Handshake(); err == nil {
		t.Fatal("a DHE handshake without the signing key succeeded")
	}
	if s := server.Stats(); s.WriteCalls != 1 || s.RecordsWritten != 3 || s.AlertsWritten != 1 {
		t.Fatalf("server wrote %d records (%d alerts) in %d writes, want ServerHello, Certificate and the alert in 1",
			s.RecordsWritten, s.AlertsWritten, s.WriteCalls)
	}
	if got := FailureReason(<-clientErr); got != "peer_alert:handshake_failure" {
		t.Fatalf("client failure = %s, want peer_alert:handshake_failure", got)
	}
}

// failingWrites passes its first ok writes to the transport and fails
// every later one with err.
type failingWrites struct {
	io.ReadWriteCloser
	ok  int
	err error
}

func (f *failingWrites) Write(p []byte) (int, error) {
	if f.ok == 0 {
		return 0, f.err
	}
	f.ok--
	return f.ReadWriteCloser.Write(p)
}

// TestFlushErrorSurfaces: a held flight's write failing is the
// handshake's error, classified, whether the flush is the client's
// before its first read or the server's in step 9 — never a hang in a
// read the peer cannot answer, nor an error that lost its cause.
func TestFlushErrorSurfaces(t *testing.T) {
	id := identity(t)
	broken := &net.OpError{Op: "write", Net: "pipe", Err: syscall.EPIPE}
	check := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, syscall.EPIPE) {
			t.Fatalf("handshake error = %v, want the transport's %v", err, broken)
		}
		if c := Classify(err); c != probe.FailIOEOF {
			t.Fatalf("classified %s, want %s", c.Name(), probe.FailIOEOF.Name())
		}
	}
	t.Run("client first flight", func(t *testing.T) {
		ct, _ := Pipe()
		client := ClientConn(&failingWrites{ReadWriteCloser: ct, err: broken}, clientCfg(nil))
		check(t, client.Handshake())
	})
	t.Run("server step 9", func(t *testing.T) {
		ct, st := Pipe()
		client := ClientConn(ct, clientCfg(nil))
		server := ServerConn(&failingWrites{ReadWriteCloser: st, ok: 1, err: broken}, id.ServerConfig(NewPRNG(619)))
		clientErr := make(chan error, 1)
		go func() { clientErr <- client.Handshake() }()
		check(t, server.Handshake())
		server.Close() // the client waits for a Finished that will not come
		if <-clientErr == nil {
			t.Fatal("the client completed a handshake whose last server flight was never sent")
		}
	})
}

// TestIOEventsFromSharedEntry checks that a sampled connection's
// trace carries the "read" and "write" CatIO events whichever record
// conn it runs over: blocking conns had them before the merge and the
// event-loop conns gain them from the same read/write entry.
func TestIOEventsFromSharedEntry(t *testing.T) {
	id := identity(t)
	newCfg := func(seed uint64) (*Config, *lifecycle.Table) {
		scfg := id.ServerConfig(NewPRNG(seed))
		table := lifecycle.NewTable(lifecycle.Options{
			SampleEvery: 1,
			Ring:        1,
		})
		scfg.Observer = table
		return scfg, table
	}
	// check counts the io events on the one retired (server) record.
	check := func(t *testing.T, table *lifecycle.Table) {
		t.Helper()
		recs := table.Records(0)
		if len(recs) != 1 {
			t.Fatalf("retired %d records, want 1", len(recs))
		}
		got := map[string]int{}
		for _, call := range recs[0].Calls {
			if call.Kind == telemetry.CatIO {
				got[call.Name]++
			}
		}
		if got["read"] != 1 || got["write"] != 1 || len(got) != 2 {
			t.Fatalf("io events = %v, want one read and one write", got)
		}
	}

	t.Run("blocking", func(t *testing.T) {
		scfg, table := newCfg(616)
		client, server := connect(t, clientCfg(nil), scfg)
		client.Write([]byte("ping"))
		if _, err := server.Read(make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := server.Write([]byte("pong")); err != nil {
			t.Fatal(err)
		}
		server.Close()
		check(t, table)
	})
	t.Run("nonblocking", func(t *testing.T) {
		scfg, table := newCfg(617)
		client, server := nbEstablishedPair(t, clientCfg(nil), scfg)
		client.WriteData([]byte("ping"))
		server.Feed(client.Outgoing())
		if _, err := server.ReadData(make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		// A read that parks opened no record and must not count.
		if _, err := server.ReadData(make([]byte, 16)); err != ErrWouldBlock {
			t.Fatalf("drained read = %v, want ErrWouldBlock", err)
		}
		if _, err := server.WriteData([]byte("pong")); err != nil {
			t.Fatal(err)
		}
		server.Close()
		check(t, table)
	})
}
