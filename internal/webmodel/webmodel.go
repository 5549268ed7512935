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
	"io"
	"math"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/lifecycle"
	"sslperf/internal/perf"
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

// Add accumulates another split.
func (c *CryptoSplit) Add(o CryptoSplit) {
	c.Public += o.Public
	c.Private += o.Private
	c.Hash += o.Hash
	c.Other += o.Other
	c.Stitched += o.Stitched
}

// add charges d to a Table 3 category (probe.Category*).
func (c *CryptoSplit) add(category string, d time.Duration) {
	switch category {
	case probe.CategoryPublic:
		c.Public += d
	case probe.CategoryPrivate:
		c.Private += d
	case probe.CategoryHash:
		c.Hash += d
	default:
		c.Other += d
	}
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

// TransactionResult is the measured server-side cost of one HTTPS
// transaction.
type TransactionResult struct {
	Crypto    CryptoSplit
	SSLTotal  time.Duration // all server-side SSL work (crypto + framing)
	Handshake time.Duration // the handshake's summed step time (Table 2's total)
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
		Observer:     srv.table,
	}

	client := ssl.ClientConn(ct, clientCfg)
	server := ssl.ServerConn(st, serverCfg)
	defer server.Close()
	res := &TransactionResult{}

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
	srv.fold(res)

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

// fold reads the connection's closed record into res: the handshake's
// step time, its crypto calls by Table 3 category, and every record
// pass — the finished messages' and the transfer's — from the
// per-primitive cells, as private-key encryption (cipher), hashing
// (MAC) or a stitched seal (both at once). The cells, not the calls,
// count the passes: a record's calls stop at its cap.
func (srv *Server) fold(res *TransactionResult) {
	// The ring keeps one record, the newest: the one just closed.
	recs := srv.table.Records(0)
	rec := recs[len(recs)-1]
	for _, st := range rec.Steps {
		res.Handshake += usDuration(st.Us)
	}
	for _, c := range rec.Calls {
		if c.Kind != telemetry.CatCrypto {
			continue
		}
		switch c.Name {
		case probe.FnPriEncryption, probe.FnPriDecryption, probe.FnMac:
			// An in-step record pass, counted from the cells.
		default:
			res.Crypto.add(probe.CategoryOf(c.Name), usDuration(c.Us))
		}
	}
	g := rec.Crypto.Groups()
	res.Crypto.Private += time.Duration(g[0].Nanos)
	res.Crypto.Hash += time.Duration(g[1].Nanos)
	res.Crypto.Stitched += time.Duration(g[2].Nanos)
}

// usDuration converts a record's microsecond figure back to the
// duration it was rendered from.
func usDuration(us float64) time.Duration { return time.Duration(math.Round(us * 1e3)) }
