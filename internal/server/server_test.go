package server

import (
	"bytes"
	"errors"
	"io"
	"log"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/lifecycle"
	"sslperf/internal/record"
	"sslperf/internal/ssl"
	"sslperf/internal/trace"
	"sslperf/internal/workload"
)

// identities are two 512-bit server identities, generated once.
var identities = sync.OnceValue(func() []*ssl.Identity {
	ids := make([]*ssl.Identity, 2)
	for i := range ids {
		id, err := ssl.NewIdentity(ssl.NewPRNG(uint64(900+i)), 512, "server-test", time.Now())
		if err != nil {
			panic(err)
		}
		ids[i] = id
	}
	return ids
})

// newServer returns a Server over the first nkeys test identities
// answering every request with response.
func newServer(nkeys int, seed uint64, response []byte) *Server {
	s := &Server{
		Cache:   handshake.NewSessionCache(16),
		Seed:    seed,
		Handler: Respond(response),
	}
	for _, id := range identities()[:nkeys] {
		s.Keys = append(s.Keys, id.Key)
		s.Certs = append(s.Certs, id.CertDER)
	}
	return s
}

// pipeListener is a stub net.Listener: Accept hands out what the test
// queued, accept errors and the server ends of in-memory pipes.
type pipeListener struct {
	next   chan any // error or net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{next: make(chan any, 8), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case v := <-l.next:
		if err, ok := v.(error); ok {
			return nil, err
		}
		return v.(net.Conn), nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial queues a connection and returns its client end, which records
// every byte the server sends.
func (l *pipeListener) dial() *tee {
	ct, st := ssl.Pipe()
	l.next <- pipeConn{st}
	return &tee{ReadWriteCloser: ct}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeConn dresses a pipe end as a net.Conn.
type pipeConn struct{ io.ReadWriteCloser }

func (pipeConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (pipeConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (pipeConn) SetDeadline(time.Time) error      { return nil }
func (pipeConn) SetReadDeadline(time.Time) error  { return nil }
func (pipeConn) SetWriteDeadline(time.Time) error { return nil }

type tee struct {
	io.ReadWriteCloser
	got bytes.Buffer
}

func (t *tee) Read(p []byte) (int, error) {
	n, err := t.ReadWriteCloser.Read(p)
	t.got.Write(p[:n])
	return n, err
}

// start runs s.Serve(ln) and returns a stop function that closes the
// server and reports what Serve returned.
func start(s *Server, ln net.Listener) (stop func() error) {
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	return func() error {
		s.Close()
		return <-served
	}
}

// transact handshakes over transport, sends one request and checks
// the response.
func transact(t *testing.T, transport io.ReadWriteCloser, seed uint64, response []byte) {
	t.Helper()
	c := ssl.ClientConn(transport, &ssl.Config{Rand: ssl.NewPRNG(seed), InsecureSkipVerify: true})
	defer c.Close()
	if _, err := c.Write([]byte("GET /\n")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(response))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, response) {
		t.Fatal("response differs from the server's payload")
	}
}

// A failed Accept must not end the server: EMFILE under load is
// logged, waited out with a doubling delay, and the next connection is
// served.
func TestServeSurvivesAcceptErrors(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	response := workload.Response(256)
	s := newServer(1, 1, response)
	s.Log = NewLog(100)
	ln := newPipeListener()
	for i := 0; i < 3; i++ {
		ln.next <- &net.OpError{Op: "accept", Net: "pipe", Err: syscall.EMFILE}
	}
	stop := start(s, ln)
	transact(t, ln.dial(), 2, response)
	if err := stop(); err != nil {
		t.Fatalf("Serve returned %v after Close, want nil", err)
	}
	for _, want := range []string{"retrying in 5ms", "retrying in 10ms", "retrying in 20ms"} {
		if !strings.Contains(logged.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logged.String())
		}
	}
}

// A listener closed by anyone but Close cannot be retried.
func TestServeReturnsWhenListenerCloses(t *testing.T) {
	ln := newPipeListener()
	ln.Close()
	if err := newServer(1, 1, nil).Serve(ln); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve on a closed listener returned %v, want net.ErrClosed", err)
	}
}

// Close stops accepting, waits for the connections in flight, and can
// be called again (and before Serve).
func TestCloseDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback:", err)
	}
	s := newServer(1, 3, nil)
	entered, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	s.Handler = func(*ssl.Conn) {
		close(entered)
		<-release
		finished.Store(true)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	client, err := ssl.Dial("tcp", ln.Addr().String(),
		&ssl.Config{Rand: ssl.NewPRNG(4), InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	<-entered

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after Close, want nil", err)
	}
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		c.Close()
		t.Fatal("the listener still accepts after Close")
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a connection in flight")
	default:
	}
	close(release)
	<-closed
	if !finished.Load() {
		t.Fatal("Close returned before the handler did")
	}
	s.Close()

	early := newServer(1, 3, nil)
	early.Close()
	if err := early.Serve(newPipeListener()); err != nil {
		t.Fatalf("Serve after Close returned %v, want nil", err)
	}
}

// serverFlights serves n sequential connections from a fresh two-key
// server and returns what each client read during its handshake.
func serverFlights(t *testing.T, seed uint64, n int) [][]byte {
	t.Helper()
	s := newServer(2, seed, nil)
	ln := newPipeListener()
	stop := start(s, ln)
	var flights [][]byte
	for i := 0; i < n; i++ {
		transport := ln.dial()
		c := ssl.ClientConn(transport, &ssl.Config{Rand: ssl.NewPRNG(7), InsecureSkipVerify: true})
		if err := c.Handshake(); err != nil {
			t.Fatal(err)
		}
		c.Close()
		flights = append(flights, transport.got.Bytes())
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	return flights
}

// helloRandom cuts the 28 PRNG bytes of the ServerHello random out of
// a server flight: record header 5, handshake header 4, version 2,
// then the random, whose first 4 bytes are the clock.
func helloRandom(flight []byte) []byte { return flight[15:43] }

// Every connection draws from its own PRNG, NewPRNG(Seed + 17n): no
// two ServerHello randoms agree, and a seed reproduces the sequence.
// Keys alternate round-robin.
func TestPerConnectionConfig(t *testing.T) {
	a, b := serverFlights(t, 11, 4), serverFlights(t, 11, 4)
	other := serverFlights(t, 12, 1)
	ids := identities()
	for i := range a {
		if !bytes.Equal(helloRandom(a[i]), helloRandom(b[i])) {
			t.Errorf("connection %d: seed 11 gave two different ServerHello randoms", i)
		}
		for j := 0; j < i; j++ {
			if bytes.Equal(helloRandom(a[i]), helloRandom(a[j])) {
				t.Errorf("connections %d and %d share a ServerHello random", j, i)
			}
		}
		// Connection n (from 1) uses key n mod 2.
		want, not := ids[(i+1)%2].CertDER, ids[i%2].CertDER
		if !bytes.Contains(a[i], want) || bytes.Contains(a[i], not) {
			t.Errorf("connection %d was not served key %d's certificate", i, (i+1)%2)
		}
	}
	if bytes.Equal(helloRandom(a[0]), helloRandom(other[0])) {
		t.Error("seeds 11 and 12 gave the same ServerHello random")
	}
}

// An observed server: every connection's record carries the accept
// mark, failures fold under their class, and the table is empty once
// the server has closed. An unobserved one attaches nothing.
func TestTableRecordsEveryConnection(t *testing.T) {
	table := lifecycle.NewTable(lifecycle.Options{
		Tracer: trace.NewTracer(trace.Config{SampleEvery: 1}),
		Ring:   8,
	})
	response := workload.Response(64)
	s := newServer(1, 21, response)
	s.Table = table
	ln := newPipeListener()
	stop := start(s, ln)
	transact(t, ln.dial(), 22, response)
	transact(t, ln.dial(), 23, response)
	ln.dial().Close() // connect and hang up
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	snap := table.Snapshot(lifecycle.SnapshotOptions{})
	if snap.Live != 0 || snap.Opened != 3 || snap.Closed != 3 || snap.Failed != 1 {
		t.Fatalf("live=%d opened=%d closed=%d failed=%d, want 0/3/3/1",
			snap.Live, snap.Opened, snap.Closed, snap.Failed)
	}
	if snap.FailClasses["io_eof"] != 1 {
		t.Fatalf("fail classes %v, want io_eof=1", snap.FailClasses)
	}
	recs := table.Records(0)
	if len(recs) != 3 {
		t.Fatalf("%d records retained, want 3", len(recs))
	}
	for _, r := range recs {
		if len(r.Calls) == 0 || r.Calls[0].Name != "accept" || r.Calls[0].Kind != trace.CatConn {
			t.Errorf("conn %d: record does not open with the accept mark: %+v", r.ID, r.Calls)
		}
	}

	cfg, entry := newServer(1, 21, nil).configFor()
	if entry != nil || cfg.Observers != nil {
		t.Fatalf("a server without a table attached observers %v (entry %v)", cfg.Observers, entry)
	}
}

// tapListener counts the bytes each accepted connection has written
// and whether a Write is in progress.
type tapListener struct {
	net.Listener
	written atomic.Int64
	inWrite atomic.Bool
}

type tapConn struct {
	net.Conn
	l *tapListener
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tapConn{c, l}, nil
}

func (c tapConn) Write(p []byte) (int, error) {
	c.l.inWrite.Store(true)
	n, err := c.Conn.Write(p)
	c.l.inWrite.Store(false)
	c.l.written.Add(int64(n))
	return n, err
}

// heapAlloc is the live heap. Two collections: the second frees what
// the first moved to sync.Pool's victim cache — an idle pooled window
// buffer is no connection's backlog.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// A peer that pipelines requests and does not read must not make the
// server buffer its answers: the blocking Write parks once the socket
// is full, so the connection holds one sealed window and one response
// however many requests wait. Once the peer reads, every response
// arrives, intact and in order.
func TestPipelinedBacklogBounded(t *testing.T) {
	const requests = 256
	response := workload.Response(64 << 10)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback:", err)
	}
	ln := &tapListener{Listener: inner}
	stop := start(newServer(1, 31, response), ln)

	client, err := ssl.Dial("tcp", ln.Addr().String(),
		&ssl.Config{Rand: ssl.NewPRNG(32), InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	before := heapAlloc()
	for i := 0; i < requests; i++ {
		if _, err := client.Write([]byte("GET /\n")); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the server has stopped making progress inside a Write.
	deadline := time.Now().Add(30 * time.Second)
	for last, quiet := int64(-1), 0; quiet < 5; {
		if time.Now().After(deadline) {
			t.Fatal("the server never parked in a Write")
		}
		time.Sleep(20 * time.Millisecond)
		if w := ln.written.Load(); w == last && ln.inWrite.Load() {
			quiet++
		} else {
			last, quiet = w, 0
		}
	}
	total := int64(requests * len(response))
	if w := ln.written.Load(); w >= total/2 {
		t.Fatalf("the server wrote %d of %d bytes to a peer that reads nothing: the socket never filled, so the test proved nothing", w, total)
	}
	ceiling := uint64(64*record.MaxFragment + len(response) + 256<<10) // one window, one response, slack
	if grew := int64(heapAlloc()) - int64(before); grew > int64(ceiling) {
		t.Fatalf("heap grew %d bytes with %d unread requests pipelined, want <= %d", grew, requests, ceiling)
	}

	got := make([]byte, len(response))
	for i := 0; i < requests; i++ {
		if _, err := io.ReadFull(client, got); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !bytes.Equal(got, response) {
			t.Fatalf("response %d differs from the server's payload", i)
		}
	}
	client.Close()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
