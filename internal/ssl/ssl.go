// Package ssl ties the record layer and handshake protocol into a
// connection API modeled on crypto/tls: Conn wraps any
// io.ReadWriteCloser transport (TCP, or the in-memory pipe that
// replicates the paper's standalone ssltest setup) and exposes
// Read/Write over the negotiated SSLv3 channel.
//
// This package reproduces a 2005 performance study. SSLv3 and these
// cipher suites are obsolete and the default randomness source is a
// seedable PRNG; do not use it to protect real data.
package ssl

import (
	"io"
	"net"
	"sync"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/rsa"
	"sslperf/internal/suite"
	"sslperf/internal/x509lite"
)

// Config carries the parameters for both connection ends.
type Config struct {
	// Rand is the randomness source; NewPRNG(seed) gives the
	// deterministic generator the experiments use. Defaults to a
	// time-seeded PRNG.
	Rand io.Reader

	// Suites restricts the cipher suites offered/accepted, in
	// preference order. Nil means all registered suites.
	Suites []suite.ID

	// Version selects the protocol: for clients the version to offer
	// (default SSL 3.0, the paper's protocol; record.VersionTLS10
	// enables the TLS 1.0 extension), for servers the maximum to
	// accept (default TLS 1.0, i.e. both).
	Version uint16

	// Time supplies the current time (certificate validity and hello
	// randoms). Defaults to time.Now.
	Time func() time.Time

	// Server side.
	Key *rsa.PrivateKey
	// Decrypter, when non-nil, handles the ClientKeyExchange RSA
	// decryption instead of Key — the seam a constant-shape decrypter
	// (no branch or allocation that depends on the padding) plugs
	// into. Key remains required for DHE signing.
	Decrypter rsa.Decrypter
	CertDER   []byte
	// CertChain holds intermediate certificates (leaf's issuer
	// first) sent after the leaf.
	CertChain    [][]byte
	SessionCache *handshake.SessionCache

	// Client side.
	Session            *handshake.Session
	RootCert           *x509lite.Certificate
	ServerName         string
	InsecureSkipVerify bool

	// Observers watch every connection using this config through its
	// instrumentation spine (internal/probe). Each is offered the
	// connection once, as it opens — at construction for a Conn, on
	// first use for a NonBlockingConn — and answers with the sink that
	// then receives the connection's whole timeline in order: open,
	// handshake start, every Table 2 step boundary and attributed
	// crypto call, park and resume, the handshake's outcome,
	// record-layer cipher/MAC passes and record I/O, application reads
	// and writes, close — all stamped with the one connection ID the
	// open event carries. The metrics registry, the span tracer (or a
	// trace begun at accept), the live connection table and the
	// path-length collector are all Observers; a sampler declines a
	// connection by answering nil. A sink shared across connections
	// must be safe for concurrent Emit calls. With no observer
	// configured, or all declining, the spine is off and the hot path
	// pays one nil test per hook.
	Observers []probe.Observer
}

func (c *Config) rand() io.Reader {
	if c.Rand != nil {
		return c.Rand
	}
	return NewPRNG(uint64(time.Now().UnixNano()))
}

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
// a sans-IO conn it knows its peer already, so it opens — observers
// see it — from construction.
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

// SetAnatomy installs a recorder that will capture the server-side
// handshake anatomy (Table 2). Must be called before Handshake.
func (c *Conn) SetAnatomy(a *handshake.Anatomy) { c.nb.SetAnatomy(a) }

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

// SetCryptoObserver routes bulk-phase record-layer crypto timings
// (cipher and MAC operations with their primitive — record.PrimAESSHA1
// for a stitched seal, one timing for both — and payload sizes) to fn;
// pass nil to remove. Handshake-phase record work (the encrypted finished
// messages) is attributed to Table 2 rows on the spine instead, as it
// always was. The Figure 2 and Table 1 experiments use this to
// measure the crypto share of bulk transfers.
func (c *Conn) SetCryptoObserver(fn func(op record.CryptoOp, prim string, bytes int, d time.Duration)) {
	c.nb.SetCryptoObserver(fn)
}
