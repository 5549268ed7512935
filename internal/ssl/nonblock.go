package ssl

import (
	"errors"
	"io"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/probe"
	"sslperf/internal/record"
)

// ErrWouldBlock is the sans-IO sentinel: a NonBlockingConn call made
// all the progress it could with the bytes fed so far and needs more
// input (or its output drained) before it can continue. It is never a
// terminal error — feed more bytes and call again.
var ErrWouldBlock = record.ErrWouldBlock

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
// A NonBlockingConn performs no locking: all methods must be called
// from one goroutine at a time. Handshake-step attribution pauses across
// suspensions so parked wall-time never pollutes step durations.
//
// Nothing in this type may touch a transport — the benchmark's layer
// probes and the golden wire test drive both ends of a connection from
// one goroutine, where one blocking read would hang (make blocklint
// enforces it).
type NonBlockingConn struct {
	// rc is the record layer the FSM and the data path drive. A
	// *record.Core never blocks; a *record.Layer pumps a transport
	// around the same core and never returns ErrWouldBlock — the only
	// difference between a sans-IO connection and a blocking one.
	rc       handshake.RecordConn
	core     *record.Core // rc's core: stats, probe pointer, Feed/Outgoing buffers
	cfg      *Config
	isClient bool

	fsm handshakeFSM

	remote string
	opened bool // the observer was offered the connection

	hsStarted     bool
	handshakeDone bool
	hsErr         error // sticky terminal handshake error
	result        *handshake.Result

	// The connection's probe spine (nil = off), over the sink
	// Config.Observer answered with.
	bus *probe.Bus

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

// SetRemoteAddr records the peer address the open event reports. Call
// before the first HandshakeStep/Feed; later calls are ignored (the
// connection opens lazily on first use, since a sans-IO core has no
// transport to ask).
func (c *NonBlockingConn) SetRemoteAddr(addr string) { c.remote = addr }

// Feed hands the connection ciphertext read from the transport. The
// bytes are copied; the caller's buffer can be reused immediately.
func (c *NonBlockingConn) Feed(b []byte) {
	c.open()
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

// Stats returns the record-layer counters.
func (c *NonBlockingConn) Stats() record.Stats { return c.core.Stats }

// role names the connection's end on its open and handshake-start
// events.
func (c *NonBlockingConn) role() string {
	if c.isClient {
		return "client"
	}
	return "server"
}

// startHandshake puts the handshake-start event on the bus, then
// constructs the FSM over the record conn. The FSM reads the caller's
// Config; a nil Rand resolves here to one time-seeded PRNG for this
// connection.
func (c *NonBlockingConn) startHandshake() error {
	c.hsStarted = true
	c.bus.HandshakeStart(c.role())
	rnd := c.cfg.Rand
	if rnd == nil {
		rnd = NewPRNG(uint64(time.Now().UnixNano()))
	}
	var err error
	if c.isClient {
		c.fsm, err = handshake.NewClientFSM(c.rc, c.cfg, c.bus, rnd)
	} else {
		// The server FSM emits its Table 2 steps on the same bus.
		c.fsm, err = handshake.NewServerFSM(c.rc, c.cfg, c.bus, rnd)
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
// whole handshake, and the Layer suspends the step across each
// blocking transport read the same way.
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
	c.open()
	var err error
	if !c.hsStarted {
		err = c.startHandshake()
	}
	if err == nil {
		err = c.fsm.Step()
	}
	if err == ErrWouldBlock {
		return err
	}
	// The machine is finished either way; an idle connection should
	// not pin its transcript hashes and message buffers.
	if err == nil {
		c.result = c.fsm.Result()
	}
	c.fsm = nil
	if err != nil {
		c.hsErr = err
		if c.bus != nil {
			c.bus.HandshakeFail(Classify(err), FailureReason(err), err.Error())
		}
		return err
	}
	c.bus.HandshakeDone(c.result.Suite.Name, c.result.Session.Version, c.result.Resumed)
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
		ioStart := c.bus.Stamp()
		typ, payload, err := c.rc.ReadRecord()
		if err != nil {
			if ae, ok := err.(*record.AlertError); ok &&
				ae.Description == record.AlertCloseNotify {
				c.eof = true
				return 0, io.EOF
			}
			return 0, err
		}
		c.bus.AppIO(false, len(payload), ioStart)
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
			return 0, probe.Failf(probe.FailBadMessage, "ssl: unexpected record type %v", typ)
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
	ioStart := c.bus.Stamp()
	if err := c.rc.WriteRecord(record.TypeApplicationData, p); err != nil {
		return 0, err
	}
	c.bus.AppIO(true, len(p), ioStart)
	return len(p), nil
}

// Close sends close_notify (when established) and ends the event
// stream. A handshake that was started and never finished ends as a
// failure first — the peer hung up, or the server gave up on it — so
// every observer settles what the start event opened. Over a Core the
// alert bytes land in Outgoing — flush them before dropping the
// transport if a clean close matters.
func (c *NonBlockingConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.open()
	if c.handshakeDone {
		// close_notify, best effort
		c.rc.WriteRecord(record.TypeAlert, []byte{record.AlertLevelWarning, record.AlertCloseNotify})
	} else if c.hsStarted && c.hsErr == nil {
		c.bus.StepExit() // the step it was parked in
		c.bus.HandshakeFail(probe.FailIOEOF, probe.FailIOEOF.Name(), "closed mid-handshake")
	}
	c.bus.ConnClose()
	return nil
}
