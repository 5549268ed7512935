// Package ssl ties the record layer and handshake protocol into a
// connection API modeled on crypto/tls: Conn wraps any
// io.ReadWriteCloser transport (TCP, or the in-memory Pipe) and
// exposes Read/Write over the negotiated SSLv3 channel.
//
// This package reproduces a 2005 performance study. SSLv3 and these
// cipher suites are obsolete and the default randomness source is a
// seedable PRNG; do not use it to protect real data.
package ssl

import (
	"io"
	"net"
	"sync"

	"sslperf/internal/handshake"
	"sslperf/internal/record"
	"sslperf/internal/suite"
)

// Config carries the parameters for both connection ends. It is the
// handshake's own config type: a connection reads the caller's Config
// and keeps no copy of it (see handshake.Config for the fields).
type Config = handshake.Config

// A Conn is one end of an SSL connection over a blocking transport.
// Read/Write trigger the handshake on first use. It is a lock and a
// transport pump around the one connection state machine,
// NonBlockingConn, whose record core is a record.Layer's: each method
// calls the machine, writes what it queued, and where it returned
// ErrWouldBlock reads the transport once and calls it again — the
// blocking mode is a loop over the sans-IO one, so a wait for the peer
// happens between calls and no handshake step or I/O span is charged
// for it. Conn serializes access internally, but the handshake itself
// must not race with Read/Write from other goroutines.
type Conn struct {
	mu        sync.Mutex
	transport io.ReadWriteCloser
	layer     *record.Layer // pumps transport; its Core is nb's
	nb        NonBlockingConn
}

// ClientConn wraps transport as the client end.
func ClientConn(transport io.ReadWriteCloser, cfg *Config) *Conn {
	return newConn(transport, cfg, true)
}

// ServerConn wraps transport as the server end.
func ServerConn(transport io.ReadWriteCloser, cfg *Config) *Conn {
	return newConn(transport, cfg, false)
}

// newConn builds the state machine over the Core of a Layer on
// transport. Unlike a sans-IO conn it knows its peer already, so it
// opens — its observer sees it — from construction.
func newConn(transport io.ReadWriteCloser, cfg *Config, isClient bool) *Conn {
	layer := record.NewLayer(transport)
	c := &Conn{transport: transport, layer: layer, nb: NonBlockingConn{
		core: &layer.Core, cfg: cfg, isClient: isClient,
		remote: remoteAddr(transport),
	}}
	c.nb.open()
	return c
}

// pump runs call until it stops returning ErrWouldBlock: after every
// call it writes whatever the machine queued (a flight, a record, an
// alert), and on ErrWouldBlock it reads the transport once. A failed
// transport ends the record core's input, so the next call meets the
// failure where it would have blocked and ends on it as the machine
// ends on any error: a handshake still running fails through the FSM's
// own terminal path (step exit, queued alert, one classified failure).
// A failed write after the machine is done is call's error.
func (c *Conn) pump(call func() error) error {
	for {
		err := call()
		ferr := c.layer.Flush()
		if err != ErrWouldBlock {
			if err == nil {
				err = ferr
			}
			return err
		}
		c.layer.Fill() // a failure ends the core's input: the next call returns it
	}
}

// remoteAddr extracts the peer address when the transport has one
// (net.Conn does; in-memory pipes do not).
func remoteAddr(transport io.ReadWriteCloser) string {
	type remote interface{ RemoteAddr() net.Addr }
	if r, ok := transport.(remote); ok {
		if a := r.RemoteAddr(); a != nil {
			return a.String()
		}
	}
	return ""
}

// Handshake runs the handshake if it has not run yet. An error writing
// its last flight, after the machine is done, is returned here, as a
// sans-IO caller sees it from its own transport write.
func (c *Conn) Handshake() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pump(c.nb.HandshakeStep)
}

// ConnectionState reports the negotiated parameters; valid after
// Handshake.
type ConnectionState struct {
	Suite     *suite.Suite
	Resumed   bool
	SessionID []byte
	Version   uint16 // record.VersionSSL30 or record.VersionTLS10
}

// ConnectionState returns the post-handshake state.
func (c *Conn) ConnectionState() (ConnectionState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nb.ConnectionState()
}

// Session returns the resumable session state; valid after Handshake.
func (c *Conn) Session() (*handshake.Session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nb.Session()
}

// Write sends application data: it seals a window of up to
// record.WindowRecords records and writes it in one transport Write,
// window by window, so a record-sized write costs one Write and a
// 1 MiB + 7 B one two, while a connection never holds more than a
// window of sealed bytes.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.pump(c.nb.HandshakeStep); err != nil {
		return 0, err
	}
	const window = record.WindowRecords * record.MaxFragment
	for n := 0; ; {
		w := min(len(p)-n, window)
		if _, err := c.nb.WriteData(p[n : n+w]); err != nil {
			return n, err
		}
		if err := c.layer.Flush(); err != nil {
			return n, err
		}
		if n += w; n == len(p) {
			return n, nil
		}
	}
}

// Read receives application data.
func (c *Conn) Read(p []byte) (n int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	err = c.pump(func() error {
		n, err = c.nb.ReadData(p)
		return err
	})
	return n, err
}

// Close sends close_notify and closes the transport.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nb.closed {
		return nil
	}
	c.nb.Close()
	c.layer.Flush() // close_notify is best effort
	return c.transport.Close()
}

// Stats returns the record-layer counters.
func (c *Conn) Stats() record.Stats { return c.nb.Stats() }
