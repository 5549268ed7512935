// Package webmodel reproduces the paper's web-server environment
// measurements. The SSL side of an HTTPS transaction — handshake and
// bulk transfer — is *measured* on this library's own stack: a client
// and a server driven in turn on one goroutine over a Pair, ssltest's
// BIO pair, which times the server's calls alone. The non-SSL
// components the paper reports in Table 1 (Apache httpd, the Linux
// kernel's TCP stack, libc) are *modeled* with per-request and
// per-byte cost coefficients calibrated once against the paper's own
// Table 1 at the 1 KB point.
//
// The shape that matters — how the crypto share moves as the file
// size grows (Figure 2), and how SSL dwarfs the server application —
// then emerges from measurement, not from the calibration.
package webmodel

import (
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/telemetry"
	"sslperf/internal/workload"
)

// CryptoSplit attributes server-side crypto time to the paper's four
// Figure 2 categories, plus the bulk records whose cipher and MAC ran
// as one stitched pass, which no clock can split between the two.
type CryptoSplit struct {
	Public  time.Duration // RSA private-key op (the handshake's key exchange)
	Private time.Duration // bulk cipher (and finished-message) operations
	Hash    time.Duration // MACs, key derivation, transcript hashes
	Other   time.Duration // randomness, X509, miscellany
	// Stitched is the stitched AES-CBC + SHA-1 seals
	// (record.PrimAESSHA1): private-key encryption and hashing at once.
	Stitched time.Duration
}

// Total sums the categories.
func (c CryptoSplit) Total() time.Duration {
	return c.Public + c.Private + c.Hash + c.Other + c.Stitched
}

// TransactionResult is what one session measured that the server's
// registry cannot know.
type TransactionResult struct {
	SSLTotal  time.Duration // all server-side SSL work (crypto + framing): the Pair's Spent
	Resumed   bool
	BytesSent int
}

// Server is a reusable measured SSL server endpoint. Its connections
// are observed the way a live server's are: one conn table, every
// connection kept in detail, folding into one metrics registry.
type Server struct {
	Identity *ssl.Identity
	Suite    *suite.Suite
	Cache    *handshake.SessionCache
	Seed     uint64
	// Version pins the protocol version (0 = SSL 3.0, the paper's).
	Version uint16

	reg   *telemetry.Registry
	table *lifecycle.Table
}

// NewServer builds a measurement server with a session cache.
func NewServer(id *ssl.Identity, s *suite.Suite) *Server {
	reg := telemetry.NewRegistry()
	return &Server{
		Identity: id,
		Suite:    s,
		Cache:    handshake.NewSessionCache(4096),
		Seed:     1,
		reg:      reg,
		// A ring of one keeps the record RunSession just closed.
		table: lifecycle.NewTable(lifecycle.Options{
			Registry:    reg,
			SampleEvery: 1,
			Ring:        1,
		}),
	}
}

// Registry is the registry every handshake the server ran folds into:
// its Anatomy is Tables 2 and 3 over those handshakes, and Reset
// scopes it to a measured loop.
func (srv *Server) Registry() *telemetry.Registry { return srv.reg }

// Records returns the connection record the server retains: the
// session it ran last, every call kept.
func (srv *Server) Records() []lifecycle.Record { return srv.table.Records(0) }

// Split reads the crypto split of every session since the registry's
// last Reset, summed: the handshakes' crypto calls by Table 3 category,
// and every record pass — the finished messages' and the transfer's —
// from the per-primitive cells, as private-key encryption (cipher),
// hashing (MAC) or a stitched seal (both at once). The cells, not the
// calls, count the passes: a record's calls stop at its cap.
func (srv *Server) Split() CryptoSplit {
	counts := srv.reg.Counts()
	return split(srv.reg.Anatomy().Crypto, counts.Crypto.Groups())
}

// split adds Table 2's crypto rows to the record cells by category,
// less the in-step record rows the cells already count.
func split(rows []telemetry.AnatomyCrypto, cells [3]telemetry.CryptoCell) CryptoSplit {
	c := CryptoSplit{
		Private:  time.Duration(cells[0].Nanos),
		Hash:     time.Duration(cells[1].Nanos),
		Stitched: time.Duration(cells[2].Nanos),
	}
	for _, row := range rows {
		switch {
		case row.Name == probe.FnPriEncryption, row.Name == probe.FnPriDecryption, row.Name == probe.FnMac:
			// An in-step record pass, counted from the cells.
		case row.Category == probe.CategoryPublic:
			c.Public += row.Total
		case row.Category == probe.CategoryPrivate:
			c.Private += row.Total
		case row.Category == probe.CategoryHash:
			c.Hash += row.Total
		default:
			c.Other += row.Total
		}
	}
	return c
}

// RunTransaction performs one HTTPS-like exchange: the client sends a
// request, the server responds with fileSize bytes. It returns the
// measured server-side result and the session (for resumption).
func (srv *Server) RunTransaction(fileSize int, resume *handshake.Session) (*TransactionResult, *handshake.Session, error) {
	return srv.RunSession([]workload.Transaction{
		{RequestLen: workload.DefaultRequestLen, ResponseLen: fileSize},
	}, resume)
}

// RunSession performs a full SSL session carrying the given
// transactions on a Pair, measuring the server side.
func (srv *Server) RunSession(txs []workload.Transaction, resume *handshake.Session) (*TransactionResult, *handshake.Session, error) {
	srv.Seed += 2
	p := NewPair(&ssl.Config{
		Rand:               ssl.NewPRNG(srv.Seed),
		Suites:             []suite.ID{srv.Suite.ID},
		InsecureSkipVerify: true,
		Session:            resume,
		Version:            srv.Version,
	}, &ssl.Config{
		Rand:         ssl.NewPRNG(srv.Seed + 1),
		Key:          srv.Identity.Key,
		CertDER:      srv.Identity.CertDER,
		SessionCache: srv.Cache,
		Version:      srv.Version,
		Observer:     srv.table,
	})
	defer p.Close()
	if err := p.Handshake(); err != nil {
		return nil, nil, err
	}
	res := &TransactionResult{}
	for _, tx := range txs {
		if err := p.Exchange(workload.Payload(tx.RequestLen), workload.Payload(tx.ResponseLen)); err != nil {
			return nil, nil, err
		}
		res.BytesSent += tx.ResponseLen
	}
	p.Close()
	res.SSLTotal = p.Spent()
	state, err := p.Server.ConnectionState()
	if err != nil {
		return nil, nil, err
	}
	res.Resumed = state.Resumed
	sess, err := p.Client.Session()
	if err != nil {
		return nil, nil, err
	}
	return res, sess, nil
}
