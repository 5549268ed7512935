// Package webmodel reproduces the paper's web-server environment
// measurements. The SSL side of an HTTPS transaction — handshake and
// bulk transfer — is *measured* on this library's own stack over an
// in-memory transport; the non-SSL components the paper reports in
// Table 1 (Apache httpd, the Linux kernel's TCP stack, libc) are
// *modeled* with per-request and per-byte cost coefficients
// calibrated once against the paper's own Table 1 at the 1 KB point.
//
// The shape that matters — how the crypto share moves as the file
// size grows (Figure 2), and how SSL dwarfs the server application —
// then emerges from measurement, not from the calibration.
package webmodel

import (
	"errors"
	"io"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/perf"
	"sslperf/internal/record"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
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

// Add accumulates another split.
func (c *CryptoSplit) Add(o CryptoSplit) {
	c.Public += o.Public
	c.Private += o.Private
	c.Hash += o.Hash
	c.Other += o.Other
	c.Stitched += o.Stitched
}

// Scale divides every category by n (for averaging over runs).
func (c *CryptoSplit) Scale(n int) {
	if n <= 0 {
		return
	}
	d := time.Duration(n)
	c.Public /= d
	c.Private /= d
	c.Hash /= d
	c.Other /= d
	c.Stitched /= d
}

// Breakdown renders the split as a perf.Breakdown in Figure 2's
// category order, with a private+hash row when records were stitched.
func (c CryptoSplit) Breakdown() *perf.Breakdown {
	b := perf.NewBreakdown()
	b.Add("public", c.Public)
	b.Add("private", c.Private)
	b.Add("hash", c.Hash)
	b.Add("other", c.Other)
	if c.Stitched > 0 {
		b.Add("private+hash", c.Stitched)
	}
	return b
}

// TransactionResult is the measured server-side cost of one HTTPS
// transaction.
type TransactionResult struct {
	Crypto    CryptoSplit
	SSLTotal  time.Duration      // all server-side SSL work (crypto + framing)
	Anatomy   *handshake.Anatomy // per-step handshake record
	Resumed   bool
	BytesSent int
}

// SSLNonCrypto is the libssl share: SSL work that is not crypto.
func (r *TransactionResult) SSLNonCrypto() time.Duration {
	nc := r.SSLTotal - r.Crypto.Total()
	if nc < 0 {
		return 0
	}
	return nc
}

// Server is a reusable measured SSL server endpoint.
type Server struct {
	Identity *ssl.Identity
	Suite    *suite.Suite
	Cache    *handshake.SessionCache
	Seed     uint64
	// Version pins the protocol version (0 = SSL 3.0, the paper's).
	Version uint16
}

// NewServer builds a measurement server with a session cache.
func NewServer(id *ssl.Identity, s *suite.Suite) *Server {
	return &Server{
		Identity: id,
		Suite:    s,
		Cache:    handshake.NewSessionCache(4096),
		Seed:     1,
	}
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
// transactions, measuring the server side.
func (srv *Server) RunSession(txs []workload.Transaction, resume *handshake.Session) (*TransactionResult, *handshake.Session, error) {
	srv.Seed += 2
	ct, st := ssl.Pipe()

	clientCfg := &ssl.Config{
		Rand:               ssl.NewPRNG(srv.Seed),
		Suites:             []suite.ID{srv.Suite.ID},
		InsecureSkipVerify: true,
		Session:            resume,
		Version:            srv.Version,
	}
	serverCfg := &ssl.Config{
		Rand:         ssl.NewPRNG(srv.Seed + 1),
		Key:          srv.Identity.Key,
		CertDER:      srv.Identity.CertDER,
		SessionCache: srv.Cache,
		Version:      srv.Version,
	}

	client := ssl.ClientConn(ct, clientCfg)
	server := ssl.ServerConn(st, serverCfg)

	anatomy := handshake.NewAnatomy()
	server.SetAnatomy(anatomy)

	res := &TransactionResult{Anatomy: anatomy}
	// Observe bulk crypto: cipher ops count as private-key
	// encryption, MAC ops as hashing (Figure 2's categories), and a
	// stitched seal, both at once, as itself.
	server.SetCryptoObserver(func(op record.CryptoOp, prim string, n int, d time.Duration) {
		switch {
		case prim == record.PrimAESSHA1:
			res.Crypto.Stitched += d
		case op == record.OpCipherEncrypt, op == record.OpCipherDecrypt:
			res.Crypto.Private += d
		case op == record.OpMACCompute, op == record.OpMACVerify:
			res.Crypto.Hash += d
		}
	})

	// Drive the client in a goroutine.
	clientErr := make(chan error, 1)
	go func() {
		defer client.Close()
		for _, tx := range txs {
			req := workload.Payload(tx.RequestLen)
			if _, err := client.Write(req); err != nil {
				clientErr <- err
				return
			}
			buf := make([]byte, tx.ResponseLen)
			if _, err := io.ReadFull(client, buf); err != nil {
				clientErr <- err
				return
			}
		}
		clientErr <- nil
	}()

	// Server side, measured. Transport stalls (waiting for the
	// client's bytes) are excluded via the pipe's ReadWait counter,
	// so SSLTotal reflects server-side processing only.
	waiter, _ := st.(ssl.ReadWaiter)
	readWait := func() time.Duration {
		if waiter == nil {
			return 0
		}
		return waiter.ReadWait()
	}
	waitStart := readWait()
	var sslTimer perf.Timer
	sslTimer.Start()
	if err := server.Handshake(); err != nil {
		sslTimer.Stop()
		return nil, nil, err
	}
	sslTimer.Stop()

	for _, tx := range txs {
		buf := make([]byte, tx.RequestLen)
		sslTimer.Start()
		_, err := io.ReadFull(server, buf)
		sslTimer.Stop()
		if err != nil {
			return nil, nil, err
		}
		resp := workload.Payload(tx.ResponseLen)
		sslTimer.Start()
		_, err = server.Write(resp)
		sslTimer.Stop()
		if err != nil {
			return nil, nil, err
		}
		res.BytesSent += tx.ResponseLen
	}
	if err := <-clientErr; err != nil {
		return nil, nil, err
	}
	server.Close()

	// Fold the handshake's crypto calls into the categories.
	cb := anatomy.CryptoBreakdown()
	res.Crypto.Public += cb.Elapsed(handshake.CategoryPublic)
	res.Crypto.Private += cb.Elapsed(handshake.CategoryPrivate)
	res.Crypto.Hash += cb.Elapsed(handshake.CategoryHash)
	res.Crypto.Other += cb.Elapsed(handshake.CategoryOther)

	res.SSLTotal = sslTimer.Elapsed() - (readWait() - waitStart)
	if res.SSLTotal < res.Crypto.Total() {
		// The observer windows can slightly exceed the outer timer
		// due to timer granularity; clamp.
		res.SSLTotal = res.Crypto.Total()
	}
	state, err := server.ConnectionState()
	if err != nil {
		return nil, nil, err
	}
	res.Resumed = state.Resumed

	sess, err := client.Session()
	if err != nil {
		return nil, nil, err
	}
	return res, sess, nil
}

// ErrNoTransactions is returned for an empty session.
var ErrNoTransactions = errors.New("webmodel: session has no transactions")
