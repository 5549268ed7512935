package handshake

import (
	"io"
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/rsa"
	"sslperf/internal/suite"
	"sslperf/internal/x509lite"
)

// Config carries the parameters for both connection ends. It is the
// one connection config: ssl.Config is this type, and both handshake
// machines read the caller's Config directly and never write it, as
// an OpenSSL SSL object reads its shared SSL_CTX.
type Config struct {
	// Rand is the randomness source; ssl.NewPRNG(seed) gives the
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
	SessionCache *SessionCache

	// Client side.
	Session            *Session
	RootCert           *x509lite.Certificate
	ServerName         string
	InsecureSkipVerify bool

	// Observer watches every connection using this config through its
	// instrumentation spine (internal/probe). It is offered the
	// connection once, as it opens — at construction for a Conn, on
	// first use for a NonBlockingConn — and answers with the one sink
	// that then receives the connection's whole timeline in order:
	// open, handshake start, every Table 2 step boundary and attributed
	// crypto call, park and resume, the handshake's outcome,
	// record-layer cipher/MAC passes and record I/O, application reads
	// and writes, close — all stamped with the one connection ID the
	// open event carries. The live connection table (and, through each
	// entry, the metrics registry) is the product's Observer; it may
	// decline a connection by answering nil. A sink shared across
	// connections must be safe for concurrent Emit calls. With no
	// observer, or one declining, the spine is off and the hot path
	// pays one nil test per hook.
	Observer probe.Observer
}

func (c *Config) now() time.Time {
	if c.Time != nil {
		return c.Time()
	}
	return time.Now() // lint:allow-clock — config default, not a hot-path stamp
}

// offeredVersion is the version a client offers.
func (c *Config) offeredVersion() uint16 {
	if c.Version == 0 {
		return record.VersionSSL30
	}
	return c.Version
}

// maxVersion is the highest version a server negotiates.
func (c *Config) maxVersion() uint16 {
	if c.Version == 0 {
		return record.VersionTLS10
	}
	return c.Version
}

// offered is the client's suite list in preference order.
func (c *Config) offered() []suite.ID {
	if c.Suites != nil {
		return c.Suites
	}
	all := suite.All()
	out := make([]suite.ID, len(all))
	for i, s := range all {
		out[i] = s.ID
	}
	return out
}
