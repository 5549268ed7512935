// Package sslperf reproduces "Anatomy and Performance of SSL
// Processing" (Zhao, Iyer, Makineni, Bhuyan — ISPASS 2005) as a
// from-scratch Go library: a complete SSL 3.0 stack (multi-precision
// arithmetic, RSA, AES, DES/3DES, RC4, MD5, SHA-1, X.509, record
// layer, handshake) plus the measurement harness that regenerates
// every table and figure in the paper's evaluation.
//
// This top-level package is the public facade. The important entry
// points:
//
//   - Pipe, ClientConn, ServerConn, Config — SSL connections over any
//     transport (Pipe is the paper's in-memory "ssltest" setup).
//   - NonBlockingClient, NonBlockingServer — the sans-IO form of the
//     same connections, driven by Feed/HandshakeStep/Outgoing with
//     ErrWouldBlock suspension: no transport, no goroutine (what
//     the benchmark's layer probes and the golden wire test drive).
//   - NewIdentity — server key + self-signed certificate.
//   - SuiteByName — the cipher suites ("DES-CBC3-SHA" is the paper's).
//   - Experiments / ExperimentByID — the Table/Figure reproductions
//     (Tables 2 and 3 are the per-step handshake anatomy).
//   - Config.Observer — the one way to watch a connection's events,
//     through the one sink it answers with.
//
// It is a performance-study artifact, not a secure transport: SSLv3
// is obsolete and the default randomness is a seedable PRNG.
package sslperf

import (
	"io"

	"sslperf/internal/core"
	"sslperf/internal/handshake"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
)

// Connection API (see internal/ssl for details).
type (
	// Config carries client and server connection parameters.
	Config = ssl.Config
	// Conn is one end of an SSL connection.
	Conn = ssl.Conn
	// Identity is a server key pair plus self-signed certificate.
	Identity = ssl.Identity
	// PRNG is the deterministic randomness source experiments use.
	PRNG = ssl.PRNG
)

// Handshake and session types.
type (
	// Session is resumable session state.
	Session = handshake.Session
	// SessionCache stores server-side resumable sessions.
	SessionCache = handshake.SessionCache
)

// Cipher-suite types.
type (
	// Suite describes one cipher suite.
	Suite = suite.Suite
	// SuiteID is a suite's wire identifier.
	SuiteID = suite.ID
)

// Experiment types (the paper-reproduction harness).
type (
	// Experiment regenerates one paper table or figure.
	Experiment = core.Experiment
	// ExperimentConfig controls experiment scale and seeding.
	ExperimentConfig = core.Config
	// Report is a rendered experiment result.
	Report = core.Report
)

// Pipe returns two ends of an in-memory duplex transport, the
// paper's standalone measurement setup.
func Pipe() (io.ReadWriteCloser, io.ReadWriteCloser) { return ssl.Pipe() }

// Listener accepts SSL server connections (the tls.Listen analogue).
type Listener = ssl.Listener

// Listen announces on a network address and wraps accepted
// connections as SSL servers.
func Listen(network, addr string, cfg *Config) (*Listener, error) {
	return ssl.Listen(network, addr, cfg)
}

// Dial connects, handshakes as a client, and returns the connection.
func Dial(network, addr string, cfg *Config) (*Conn, error) {
	return ssl.Dial(network, addr, cfg)
}

// NewPRNG returns a deterministic randomness source.
func NewPRNG(seed uint64) *PRNG { return ssl.NewPRNG(seed) }

// NonBlockingConn is a sans-IO SSL connection: no transport, no
// goroutines. Wire bytes go in through Feed, sealed bytes come out
// through Outgoing/ConsumeOutgoing, and HandshakeStep/ReadData
// return ErrWouldBlock instead of blocking when they need more input.
type NonBlockingConn = ssl.NonBlockingConn

// ErrWouldBlock is the sans-IO suspension sentinel: the call made all
// the progress the fed bytes allow — feed more and call again.
var ErrWouldBlock = ssl.ErrWouldBlock

// NonBlockingClient returns the client end of a sans-IO connection.
func NonBlockingClient(cfg *Config) *NonBlockingConn { return ssl.NonBlockingClient(cfg) }

// NonBlockingServer returns the server end of a sans-IO connection.
func NonBlockingServer(cfg *Config) *NonBlockingConn { return ssl.NonBlockingServer(cfg) }

// ClientConn wraps transport as the client end of an SSL connection.
func ClientConn(transport io.ReadWriteCloser, cfg *Config) *Conn {
	return ssl.ClientConn(transport, cfg)
}

// ServerConn wraps transport as the server end of an SSL connection.
func ServerConn(transport io.ReadWriteCloser, cfg *Config) *Conn {
	return ssl.ServerConn(transport, cfg)
}

// NewIdentity generates a server RSA key and self-signed certificate.
var NewIdentity = ssl.NewIdentity

// NewSessionCache returns a bounded server-side session store.
func NewSessionCache(capacity int) *SessionCache {
	return handshake.NewSessionCache(capacity)
}

// SuiteByName finds a cipher suite by its OpenSSL-style name, e.g.
// "DES-CBC3-SHA".
func SuiteByName(name string) (*Suite, error) { return suite.ByName(name) }

// Suites lists every registered cipher suite.
func Suites() []*Suite { return suite.All() }

// Experiments returns every paper experiment in paper order.
func Experiments() []*Experiment { return core.All() }

// ExperimentByID finds one experiment (e.g. "table2", "fig3").
func ExperimentByID(id string) (*Experiment, error) { return core.ByID(id) }
