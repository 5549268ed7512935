package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	sslworkload "sslperf/internal/workload"
)

// request is what every op sends; the server answers any read with
// its payload, so only the length (6 bytes, one record) matters.
var request = []byte("GET /\n")

// opTimeout bounds every network wait of one op. A server that stops
// answering turns into failed ops, not a hung benchmark.
const opTimeout = 10 * time.Second

// Span kinds: an op and the four steps it can consist of. Spans of one
// op share its id; the steps are children of the op span.
type spanKind uint8

const (
	spanOp spanKind = iota
	spanConnect
	spanHandshake
	spanRequest
	spanClose
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"op", "connect", "handshake", "request", "close"}

// A span is one timed interval of the generator, in nanoseconds since
// the run's epoch.
type span struct {
	Op         uint64
	Kind       spanKind
	Start, End int64
}

// A client is one generator goroutine's state: it owns one connection
// at a time, its own PRNG and its own session chain.
type client struct {
	id    int
	w     *workload
	raddr *net.TCPAddr
	base  ssl.Config
	epoch time.Time

	session *handshake.Session // resumed_handshake: the session to offer next
	tc      *net.TCPConn       // persistent workloads: the live connection
	conn    *ssl.Conn

	want []byte // the exact response: "LEN <n>\n" + Payload(n)
	buf  []byte

	dials uint32
	opSeq uint64

	// Filled during a round, drained by the coordinator after it.
	lat                 []time.Duration // latency of each op that passed
	ends                []time.Time     // when each of them completed
	ops, failed, primed int64
	firstErr            error
	spans               []span
}

func newClient(id int, w *workload, raddr *net.TCPAddr, seed uint64, epoch time.Time) (*client, error) {
	s, err := suite.ByName(w.Suite)
	if err != nil {
		return nil, err
	}
	payload := sslworkload.Payload(w.FileSize)
	want := append([]byte(fmt.Sprintf("LEN %d\n", len(payload))), payload...)
	return &client{
		id:    id,
		w:     w,
		raddr: raddr,
		epoch: epoch,
		base: ssl.Config{
			Rand:               ssl.NewPRNG(seed*1000003 + uint64(id)*7919 + 1),
			Suites:             []suite.ID{s.ID},
			InsecureSkipVerify: true,
		},
		want: want,
		buf:  make([]byte, len(want)),
	}, nil
}

// nextLocal rotates the source address through 127.<1+id>.0.1-250.
// Every address of 127/8 is local, and each has its own ephemeral port
// space, so the client-side TIME_WAIT sockets that closing first
// leaves behind cannot exhaust it, whatever tcp_tw_reuse says.
func (c *client) nextLocal() *net.TCPAddr {
	c.dials++
	return &net.TCPAddr{IP: net.IPv4(127, byte(1+c.id%250), 0, byte(1+c.dials%250))}
}

func (c *client) since(t time.Time) int64 { return int64(t.Sub(c.epoch)) }

func (c *client) addSpan(op uint64, k spanKind, start, end time.Time) {
	c.spans = append(c.spans, span{Op: op, Kind: k, Start: c.since(start), End: c.since(end)})
}

// open connects and handshakes, and checks the negotiated state: the
// suite is the one offered, and the handshake resumed exactly when a
// session was offered.
func (c *client) open(op uint64, traced bool) (*net.TCPConn, *ssl.Conn, error) {
	var t0, t1 time.Time
	if traced {
		t0 = time.Now()
	}
	tc, err := net.DialTCP("tcp", c.nextLocal(), c.raddr)
	if err != nil {
		return nil, nil, fmt.Errorf("connect: %w", err)
	}
	tc.SetDeadline(time.Now().Add(opTimeout))
	if traced {
		t1 = time.Now()
		c.addSpan(op, spanConnect, t0, t1)
	}
	cfg := c.base
	cfg.Session = c.session
	conn := ssl.ClientConn(tc, &cfg)
	if err := conn.Handshake(); err != nil {
		tc.Close()
		return nil, nil, fmt.Errorf("handshake: %w", err)
	}
	if traced {
		c.addSpan(op, spanHandshake, t1, time.Now())
	}
	st, err := conn.ConnectionState()
	if err == nil && st.Suite.Name != c.w.Suite {
		err = fmt.Errorf("negotiated %s, offered %s", st.Suite.Name, c.w.Suite)
	}
	if err == nil && st.Resumed != (c.session != nil) {
		err = fmt.Errorf("resumed=%v with session offered=%v", st.Resumed, c.session != nil)
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return tc, conn, nil
}

// exchange sends one request and verifies the whole response, length
// and bytes.
func (c *client) exchange(conn *ssl.Conn, op uint64, traced bool) error {
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	if _, err := conn.Write(request); err != nil {
		return fmt.Errorf("request: %w", err)
	}
	if _, err := io.ReadFull(conn, c.buf); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	if !bytes.Equal(c.buf, c.want) {
		return errors.New("response bytes differ from \"LEN <n>\\n\" + workload.Payload(n)")
	}
	if traced {
		c.addSpan(op, spanRequest, t0, time.Now())
	}
	return nil
}

// connectionOp is the op of the handshake workloads: connect,
// handshake, one verified exchange, close (the client closes first).
// primed reports an op that had no session to offer yet on the
// resuming workload; it is checked like any other but is not what the
// workload measures.
func (c *client) connectionOp(op uint64, traced bool) (primed bool, err error) {
	primed = c.w.Resume && c.session == nil
	_, conn, err := c.open(op, traced)
	if err != nil {
		return primed, err
	}
	err = c.exchange(conn, op, traced)
	if err == nil && c.w.Resume {
		c.session, err = conn.Session()
	}
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	conn.Close() // close_notify may meet a peer that is already gone
	if traced {
		c.addSpan(op, spanClose, t0, time.Now())
	}
	if err != nil {
		c.session = nil // never offer a session from a failed connection
	}
	return primed, err
}

// requestOp is the op of the persistent workloads: one verified
// exchange on the connection made in set-up. After a failure the
// connection is dropped and the next op reconnects first.
func (c *client) requestOp(op uint64, traced bool) error {
	if c.conn == nil {
		var err error
		if c.tc, c.conn, err = c.open(op, traced); err != nil {
			return err
		}
	}
	c.tc.SetDeadline(time.Now().Add(opTimeout))
	err := c.exchange(c.conn, op, traced)
	if err != nil {
		c.closeConn()
	}
	return err
}

func (c *client) closeConn() {
	if c.conn != nil {
		c.conn.Close()
		c.tc, c.conn = nil, nil
	}
}

// do runs one op of the client's workload.
func (c *client) do(traced bool) (primed bool, err error) {
	c.opSeq++
	op := uint64(c.id)<<48 | c.opSeq
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	if c.w.Persistent {
		err = c.requestOp(op, traced)
	} else {
		primed, err = c.connectionOp(op, traced)
	}
	if traced {
		c.addSpan(op, spanOp, t0, time.Now())
	}
	return primed, err
}

// Round phases, set by the coordinator and read by the clients after
// every op.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// A generator drives one workload against one server: C client
// goroutines in a closed loop, each sending its next op only when the
// previous one has completed.
type generator struct {
	w       *workload
	srv     *server
	clients []*client
	traced  bool // the run records spans (set-up included)

	phase atomic.Int32

	// Accumulated over the measured windows of the whole run.
	attempted, failed, primed int64
	firstErr                  error
	allLat                    []time.Duration
}

// roundStats is what one measured window yields.
type roundStats struct {
	Traced bool
	// Slices is the window cut into sliceLen pieces: every rate, CPU
	// and latency metric is taken over the quiet ones.
	Slices []slice
	// The rest covers the whole window, slow slices included.
	Ops       int64
	ServerCPU cpuTimes // user/system split, in 10 ms ticks
	ClientCPU time.Duration
	CtxSwitch int64 // traced rounds only: it costs a file read per server thread
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters is what the coordinator reads at both edges of a window.
type counters struct {
	server cpuTimes
	self   time.Duration
	ctx    int64
}

func (g *generator) snapshot(traced bool) (c counters, err error) {
	pid := g.srv.pid()
	if c.server, err = readCPU(pid); err != nil {
		return c, err
	}
	if traced {
		if c.ctx, err = readCtxSwitches(pid); err != nil {
			return c, err
		}
	}
	c.self = selfCPU()
	return c, nil
}

// A mark is a slice boundary: when, and the server's on-CPU time then.
type mark struct {
	at  time.Time
	cpu time.Duration
}

func (g *generator) mark() (mark, error) {
	cpu, err := readOnCPU(g.srv.pid())
	return mark{at: time.Now(), cpu: cpu}, err
}

// round runs the clients for warm + measure and returns the measured
// window's numbers. The coordinator cuts the window into slices as it
// goes; an op belongs to the slice it completes in. The clients finish
// their op in flight before round returns, so nothing runs between
// rounds.
func (g *generator) round(warm, measure time.Duration, traced bool) (roundStats, error) {
	g.phase.Store(phaseWarm)
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(&g.phase, traced)
		}(c)
	}
	time.Sleep(warm)

	rs := roundStats{Traced: traced}
	before, err := g.snapshot(traced)
	m, e := g.mark()
	if err == nil {
		err = e
	}
	marks := []mark{m}
	g.phase.Store(phaseMeasure)
	for err == nil && time.Since(marks[0].at) < measure {
		next := marks[0].at.Add(time.Duration(len(marks)) * sliceLen)
		if end := marks[0].at.Add(measure); next.After(end) {
			next = end
		}
		time.Sleep(time.Until(next))
		m, err = g.mark()
		marks = append(marks, m)
	}
	g.phase.Store(phaseStop)
	after, e := g.snapshot(traced)
	wg.Wait()
	if err == nil {
		err = e
	}
	if err != nil {
		return rs, fmt.Errorf("%s: reading /proc/%d: %w", g.w.Name, g.srv.pid(), err)
	}
	rs.ServerCPU = after.server.sub(before.server)
	rs.ClientCPU = after.self - before.self
	rs.CtxSwitch = after.ctx - before.ctx

	slices := make([]slice, len(marks)-1)
	for i := range slices {
		slices[i].Dur = marks[i+1].at.Sub(marks[i].at)
		slices[i].CPU = marks[i+1].cpu - marks[i].cpu
	}
	for _, c := range g.clients {
		// A client's ops are in time order, so one pass bins them.
		i := 0
		for k, end := range c.ends {
			for i < len(slices) && !end.Before(marks[i+1].at) {
				i++
			}
			if i == len(slices) {
				break // completed after the last mark
			}
			slices[i].Lat = append(slices[i].Lat, c.lat[k])
		}
		rs.Ops += c.ops
		g.allLat = append(g.allLat, c.lat...)
		g.attempted += c.ops + c.failed
		g.failed += c.failed
		g.primed += c.primed
		if g.firstErr == nil {
			g.firstErr = c.firstErr
		}
		c.ops, c.failed, c.primed, c.lat, c.ends = 0, 0, 0, c.lat[:0], c.ends[:0]
	}
	rs.Slices = slices
	if rs.Ops == 0 {
		return rs, fmt.Errorf("%s: no op completed in a %v window (first error: %v)", g.w.Name, measure, g.firstErr)
	}
	return rs, nil
}

// loop repeats the client's op until the coordinator says stop,
// keeping what completes while the window is open.
func (c *client) loop(phase *atomic.Int32, traced bool) {
	for phase.Load() != phaseStop {
		start := time.Now()
		primed, err := c.do(traced)
		end := time.Now()
		if phase.Load() != phaseMeasure {
			if err != nil {
				time.Sleep(time.Millisecond) // do not spin on a dead server
			}
			continue
		}
		switch {
		case err != nil:
			c.failed++
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("client %d: %w", c.id, err)
			}
			time.Sleep(time.Millisecond)
		case primed:
			c.primed++
		default:
			c.ops++
			c.lat = append(c.lat, end.Sub(start))
			c.ends = append(c.ends, end)
		}
	}
}

// setUp starts a server for w and brings the clients to the state the
// workload starts from: the listener answers, a first handshake and
// response have been verified, and every client holds its session
// (resumed_handshake) or its established connection (persistent
// workloads). The time this takes is the set-up metric; compiling is
// not part of it.
func setUp(bin, runDir string, w *workload, seed uint64, pin *pinning, nClients int, traced bool, epoch time.Time) (*generator, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(bin, runDir, w, seed, pin)
	if err != nil {
		return nil, 0, err
	}
	g := &generator{w: w, srv: srv, traced: traced}
	if err := g.connectClients(seed, nClients, epoch); err != nil {
		err = fmt.Errorf("%s set-up: %w\n--- server log tail ---\n%s", w.Name, err, srv.logTail(15))
		g.tearDown()
		return nil, 0, err
	}
	return g, time.Since(t0), nil
}

func (g *generator) connectClients(seed uint64, nClients int, epoch time.Time) error {
	if err := g.srv.waitReady(20 * time.Second); err != nil {
		return err
	}
	for i := 0; i < nClients; i++ {
		c, err := newClient(i, g.w, g.srv.addr, seed, epoch)
		if err != nil {
			return err
		}
		g.clients = append(g.clients, c)
		// One verified op per client leaves it primed or connected;
		// full_handshake keeps no state, so its first client's op is
		// the "first verified handshake" and the others need none.
		if i > 0 && !g.w.Persistent && !g.w.Resume {
			continue
		}
		if _, err := c.do(g.traced); err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	return nil
}

// tearDown closes the clients' connections, then kills the server and
// waits for it.
func (g *generator) tearDown() {
	for _, c := range g.clients {
		c.closeConn()
	}
	g.srv.stop()
}

// spans returns every span the run recorded, in client order.
func (g *generator) spans() []span {
	var all []span
	for _, c := range g.clients {
		all = append(all, c.spans...)
	}
	return all
}
