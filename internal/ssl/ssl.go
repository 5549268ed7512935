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
// transport around the one connection state machine, NonBlockingConn,
// here driving a record.Layer — whose reads park in the transport
// instead of returning ErrWouldBlock, so every step call runs to
// completion. Conn serializes access internally, but the handshake
// itself must not race with Read/Write from other goroutines.
type Conn struct {
	mu        sync.Mutex
	transport io.ReadWriteCloser
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

// newConn builds the state machine over a Layer on transport. Unlike
// a sans-IO conn it knows its peer already, so it opens — its observer
// sees it — from construction.
func newConn(transport io.ReadWriteCloser, cfg *Config, isClient bool) *Conn {
	layer := record.NewLayer(transport)
	c := &Conn{transport: transport, nb: NonBlockingConn{
		rc: layer, core: &layer.Core, cfg: cfg, isClient: isClient,
		remote: remoteAddr(transport),
	}}
	c.nb.open()
	return c
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

// Handshake runs the handshake if it has not run yet.
func (c *Conn) Handshake() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nb.HandshakeStep()
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

// Write sends application data.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nb.WriteData(p)
}

// Read receives application data.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nb.ReadData(p)
}

// Close sends close_notify and closes the transport.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nb.closed {
		return nil
	}
	c.nb.Close() // close_notify is best effort
	return c.transport.Close()
}

// Stats returns the record-layer counters.
func (c *Conn) Stats() record.Stats { return c.nb.Stats() }
