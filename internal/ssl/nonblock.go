package ssl

import (
	"errors"
	"io"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/telemetry"
	"sslperf/internal/trace"
)

// ErrWouldBlock is the sans-IO sentinel: a NonBlockingConn call made
// all the progress it could with the bytes fed so far and needs more
// input (or its output drained) before it can continue. It is never a
// terminal error — feed more bytes and call again.
var ErrWouldBlock = record.ErrWouldBlock

// recordConn is what a connection needs of its record layer: the
// surface the handshake FSM drives, plus close_notify. A *record.Core
// never blocks; a *record.Layer shadows the same entry points with
// transport-backed ones that never return ErrWouldBlock — the only
// difference between a sans-IO connection and a blocking one.
type recordConn interface {
	handshake.RecordConn
	SendClose() error
}

// handshakeFSM is the resumable client or server machine.
type handshakeFSM interface {
	Step() error
	Result() *handshake.Result
}

// A NonBlockingConn is one end of an SSL connection with no transport
// attached: the sans-IO core for event-driven servers, and the one
// connection state machine of this package (Conn is this type behind
// a mutex, driving a transport-backed record layer). Wire bytes go
// in through Feed and come out through Outgoing/ConsumeOutgoing; the
// caller owns the socket, the readiness notification, and the buffer
// shuttling. HandshakeStep advances the resumable handshake FSM until
// it either completes, fails terminally, or suspends with
// ErrWouldBlock; ReadData/WriteData move application data through the
// negotiated channel the same way.
//
// A NonBlockingConn performs no locking: it is designed for a single
// event-loop goroutine and all methods must be called from one
// goroutine at a time. Handshake-step attribution pauses across
// suspensions so parked wall-time never pollutes step durations.
//
// Nothing in this type may touch a transport — it is what the epoll
// loop runs, so one blocking read would park every connection (make
// blocklint enforces it).
type NonBlockingConn struct {
	rc       recordConn
	core     *record.Core  // rc's core: stats, probe pointer, Feed/Outgoing buffers
	flight   *record.Layer // rc when it is a Layer with the flight path on, else nil
	cfg      *Config
	isClient bool

	fsm handshakeFSM

	remote       string
	lcRegistered bool

	handshakeDone bool
	hsErr         error     // sticky terminal handshake error
	hsStart       time.Time // zero until the first HandshakeStep
	result        *handshake.Result
	anatomy       *handshake.Anatomy
	telemetryID   uint64 // flight-recorder connection ID (0 = none)

	bus       *probe.Bus   // the connection's probe spine (nil = off)
	baseSinks []probe.Sink // sinks armed at handshake time
	cryptoObs func(op record.CryptoOp, bytes int, d time.Duration)

	lc *lifecycle.Conn // live table entry (nil = no table)

	ct           *trace.ConnTrace // non-nil only on sampled connections
	traceHS      uint64           // the trace's top-level handshake span
	traceOutcome string           // outcome Finish reports at Close

	// readBuf is the tail of an application record that did not fit
	// the caller's buffer, held in readArr: a stable backing array
	// keeps the steady-state read path allocation-free.
	readArr []byte
	readBuf []byte
	eof     bool
	closed  bool
}

// NonBlockingClient builds the client end of a sans-IO connection.
func NonBlockingClient(cfg *Config) *NonBlockingConn {
	core := record.NewCore()
	return &NonBlockingConn{rc: core, core: core, cfg: cfg, isClient: true}
}

// NonBlockingServer builds the server end of a sans-IO connection.
func NonBlockingServer(cfg *Config) *NonBlockingConn {
	core := record.NewCore()
	return &NonBlockingConn{rc: core, core: core, cfg: cfg}
}

// SetRemoteAddr records the peer address for the lifecycle table
// entry. Call before the first HandshakeStep/Feed; later calls are
// ignored (the entry is registered lazily on first use, since a
// sans-IO core has no transport to ask).
func (c *NonBlockingConn) SetRemoteAddr(addr string) { c.remote = addr }

// ensureRegistered creates the lifecycle entry on first use.
func (c *NonBlockingConn) ensureRegistered() {
	if c.lcRegistered {
		return
	}
	c.lcRegistered = true
	if c.cfg.Lifecycle != nil {
		c.lc = c.cfg.Lifecycle.Register(c.remote)
	}
}

// Feed hands the connection ciphertext read from the transport. The
// bytes are copied; the caller's buffer can be reused immediately.
func (c *NonBlockingConn) Feed(b []byte) {
	c.ensureRegistered()
	c.core.Feed(b)
}

// Buffered reports how many fed bytes are not yet consumed.
func (c *NonBlockingConn) Buffered() int { return c.core.Buffered() }

// Outgoing returns the ciphertext waiting to be written to the
// transport. The slice is valid until the next method call; write
// some prefix of it, then ConsumeOutgoing what was written.
func (c *NonBlockingConn) Outgoing() []byte { return c.core.Outgoing() }

// ConsumeOutgoing discards n sent bytes from the outgoing buffer.
func (c *NonBlockingConn) ConsumeOutgoing(n int) { c.core.ConsumeOutgoing(n) }

// HandshakeDone reports whether the handshake has completed.
func (c *NonBlockingConn) HandshakeDone() bool { return c.handshakeDone }

// LifecycleEntry returns the connection's live table entry, nil when
// no Config.Lifecycle is attached or nothing has run yet.
func (c *NonBlockingConn) LifecycleEntry() *lifecycle.Conn { return c.lc }

// SetAnatomy installs a recorder that will capture the server-side
// handshake anatomy (Table 2). Must be called before the first
// HandshakeStep.
func (c *NonBlockingConn) SetAnatomy(a *handshake.Anatomy) { c.anatomy = a }

// SetTrace attaches a pre-started connection trace (e.g. one begun at
// TCP accept). Must be called before the first HandshakeStep; a nil
// ConnTrace is ignored.
func (c *NonBlockingConn) SetTrace(ct *trace.ConnTrace) {
	if ct != nil {
		c.ct = ct
	}
}

// Trace returns the connection's sampled trace, nil when unsampled.
func (c *NonBlockingConn) Trace() *trace.ConnTrace { return c.ct }

// Stats returns the record-layer counters.
func (c *NonBlockingConn) Stats() record.Stats { return c.core.Stats }

// SetCryptoObserver routes bulk-phase record-layer crypto timings to
// fn; pass nil to remove. See Conn.SetCryptoObserver.
func (c *NonBlockingConn) SetCryptoObserver(fn func(op record.CryptoOp, bytes int, d time.Duration)) {
	c.cryptoObs = fn
	c.refreshBus()
}

// role names the connection's end for telemetry and trace records.
func (c *NonBlockingConn) role() string {
	if c.isClient {
		return "client"
	}
	return "server"
}

// startHandshake performs the one-time setup — telemetry open,
// lifecycle transition, tracer sampling, bus assembly — then
// constructs the FSM over the record conn.
func (c *NonBlockingConn) startHandshake() error {
	c.hsStart = time.Now()
	tel := c.cfg.Telemetry
	if tel != nil {
		c.telemetryStart(tel)
	}
	c.lc.HandshakeStart()
	if c.ct != nil || c.cfg.Tracer != nil {
		c.traceStart()
	}
	c.armProbes(tel)
	var err error
	if c.isClient {
		c.fsm, err = handshake.NewClientFSM(c.rc, &handshake.ClientConfig{
			Rand:               c.cfg.rand(),
			Suites:             c.cfg.Suites,
			Time:               c.cfg.Time,
			Version:            c.cfg.Version,
			Session:            c.cfg.Session,
			RootCert:           c.cfg.RootCert,
			ServerName:         c.cfg.ServerName,
			InsecureSkipVerify: c.cfg.InsecureSkipVerify,
		})
	} else {
		// The anatomy (when any) is already a sink on the bus, so the
		// FSM gets the bus alone.
		c.fsm, err = handshake.NewServerFSM(c.rc, &handshake.ServerConfig{
			Key:        c.cfg.Key,
			Decrypter:  c.cfg.Decrypter,
			CertDER:    c.cfg.CertDER,
			Chain:      c.cfg.CertChain,
			Rand:       c.cfg.rand(),
			Cache:      c.cfg.SessionCache,
			Suites:     c.cfg.Suites,
			Time:       c.cfg.Time,
			MaxVersion: c.cfg.Version,
			Probe:      c.bus,
		}, nil)
	}
	return err
}

// HandshakeStep advances the handshake as far as the fed bytes allow.
// It returns nil once the handshake has completed (and on every call
// thereafter), ErrWouldBlock when more input is needed — drain
// Outgoing, feed more ciphertext, call again — or a terminal error,
// which is sticky and has already queued a fatal alert in Outgoing.
// Probe-step attribution suspends across ErrWouldBlock, so parked
// time never enters /debug/anatomy or the telemetry step histograms.
// Over a Layer the record conn blocks instead, so one call runs the
// whole handshake and the lifecycle entry never reads suspended.
func (c *NonBlockingConn) HandshakeStep() error {
	if c.handshakeDone {
		return nil
	}
	if c.hsErr != nil {
		return c.hsErr
	}
	if c.closed {
		return errors.New("ssl: connection closed")
	}
	c.ensureRegistered()
	var err error
	if c.hsStart.IsZero() {
		err = c.startHandshake()
	} else {
		c.lc.Resume()
	}
	if err == nil {
		err = c.fsm.Step()
	}
	if err == ErrWouldBlock {
		c.lc.Suspend()
		return err
	}
	d := time.Since(c.hsStart)
	if err == nil {
		c.result = c.fsm.Result()
	}
	// The machine is finished either way; an idle connection should
	// not pin its transcript hashes and message buffers.
	c.fsm = nil
	if tel := c.cfg.Telemetry; tel != nil {
		c.telemetryFinish(tel, d, err)
	}
	if c.ct != nil {
		c.traceFinish(err)
	}
	if err != nil {
		c.hsErr = err
		c.lc.Failed(Classify(err), FailureReason(err), err.Error(), d)
		return err
	}
	c.lc.Established(c.result.Suite.Name, c.result.Session.Version, c.result.Resumed, d)
	c.handshakeDone = true
	return nil
}

// ConnectionState returns the post-handshake state.
func (c *NonBlockingConn) ConnectionState() (ConnectionState, error) {
	if !c.handshakeDone {
		return ConnectionState{}, errors.New("ssl: handshake has not completed")
	}
	return ConnectionState{
		Suite:     c.result.Suite,
		Resumed:   c.result.Resumed,
		SessionID: c.result.Session.ID,
		Version:   c.result.Session.Version,
	}, nil
}

// Session returns the resumable session state; valid after the
// handshake completes.
func (c *NonBlockingConn) Session() (*handshake.Session, error) {
	if !c.handshakeDone {
		return nil, errors.New("ssl: handshake has not completed")
	}
	return c.result.Session, nil
}

// ReadData copies decrypted application data into p. Before the
// handshake completes it advances the handshake instead (so a pure
// read-driven event loop works); once established it decodes fed
// records, returning ErrWouldBlock when no complete record is
// buffered and io.EOF after the peer's close_notify. Post-handshake
// handshake records (e.g. HelloRequest) are skipped; renegotiation is
// not supported.
func (c *NonBlockingConn) ReadData(p []byte) (int, error) {
	if !c.handshakeDone {
		if err := c.HandshakeStep(); err != nil {
			return 0, err
		}
	}
	if len(c.readBuf) > 0 {
		n := copy(p, c.readBuf)
		c.readBuf = c.readBuf[n:]
		return n, nil
	}
	for {
		if c.eof {
			return 0, io.EOF
		}
		var ioStart time.Time
		if c.ct != nil {
			ioStart = time.Now()
		}
		typ, payload, err := c.rc.ReadRecord()
		if err != nil {
			if ae, ok := err.(*record.AlertError); ok &&
				ae.Description == record.AlertCloseNotify {
				c.eof = true
				return 0, io.EOF
			}
			return 0, err
		}
		if c.ct != nil {
			c.ct.Event("read", trace.CatIO, c.traceHS, ioStart, time.Since(ioStart))
		}
		switch typ {
		case record.TypeApplicationData:
			if len(payload) == 0 {
				continue
			}
			// The payload aliases the record conn's buffer, which the
			// next Feed (Core) or record read (Layer) overwrites: copy
			// straight to the caller and keep only what did not fit.
			n := copy(p, payload)
			if n < len(payload) {
				c.readArr = append(c.readArr[:0], payload[n:]...)
				c.readBuf = c.readArr
			}
			return n, nil
		case record.TypeHandshake:
		default:
			return 0, errors.New("ssl: unexpected record type " + typ.String())
		}
	}
}

// WriteData seals p into application-data records (fragmenting as
// needed). Over a Core it never blocks: the records land in Outgoing
// and the caller flushes at its own pace.
func (c *NonBlockingConn) WriteData(p []byte) (int, error) {
	if c.closed {
		return 0, errors.New("ssl: connection closed")
	}
	if !c.handshakeDone {
		if err := c.HandshakeStep(); err != nil {
			return 0, err
		}
	}
	var ioStart time.Time
	if c.ct != nil {
		ioStart = time.Now()
	}
	// Large writes over a Layer take the flight pipeline: fragments
	// MACed in parallel, sealed zero-copy in sequence order, and
	// flushed as one vectored write per window. Wire bytes are
	// identical to the sequential path's.
	var err error
	if c.flight != nil && len(p) > record.MaxFragment {
		err = c.flight.WriteFlight(record.TypeApplicationData, p)
	} else {
		err = c.rc.WriteRecord(record.TypeApplicationData, p)
	}
	if err != nil {
		return 0, err
	}
	if c.ct != nil {
		c.ct.Event("write", trace.CatIO, c.traceHS, ioStart, time.Since(ioStart))
	}
	return len(p), nil
}

// Close sends close_notify (when established) and finalizes the
// observability surfaces. Over a Core the alert bytes land in
// Outgoing — flush them before dropping the transport if a clean
// close matters.
func (c *NonBlockingConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.ensureRegistered()
	c.lc.Draining()
	if c.handshakeDone {
		c.rc.SendClose() // best effort
	}
	if c.telemetryID != 0 {
		c.cfg.Telemetry.Event(c.telemetryID, telemetry.EventClose, "", "", 0)
	}
	if c.ct != nil {
		outcome := c.traceOutcome
		if outcome == "" {
			outcome = "closed_before_handshake"
		}
		c.ct.Finish(outcome)
	}
	c.lc.Close()
	c.lc = nil
	return nil
}
