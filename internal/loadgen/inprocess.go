package loadgen

import (
	"net"
	"sync"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/probe"
	"sslperf/internal/ssl"
	"sslperf/internal/workload"
)

// ServerOptions configures an in-process target server.
type ServerOptions struct {
	KeyBits  int // RSA key size (default 1024)
	FileSize int // response payload bytes (default 1024)
	Seed     uint64

	// Observers watch every server connection exactly as they would
	// under cmd/sslserver — a metrics registry, a tracer, the live
	// connection table — so an in-process run can smoke /debug/conns,
	// /debug/slo and /debug/health end to end without a second
	// process.
	Observers []probe.Observer
}

// A Server is a minimal in-process sslserver: the same LEN-framed
// request/response protocol over a real TCP listener, so the load
// generator (and `make loadsmoke`) can run self-contained.
type Server struct {
	ln       net.Listener
	cfgBase  ssl.Config
	response []byte
	connSeq  uint64
	mu       sync.Mutex
	wg       sync.WaitGroup
	closed   bool
}

// StartServer generates an identity, listens on 127.0.0.1:0, and
// serves until Close.
func StartServer(opt ServerOptions) (*Server, error) {
	if opt.KeyBits <= 0 {
		opt.KeyBits = 1024
	}
	if opt.FileSize <= 0 {
		opt.FileSize = 1024
	}
	if opt.Seed == 0 {
		opt.Seed = uint64(time.Now().UnixNano())
	}
	id, err := ssl.NewIdentity(ssl.NewPRNG(opt.Seed), opt.KeyBits, "loadgen-selftest", time.Now())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln: ln,
		cfgBase: ssl.Config{
			Key:          id.Key,
			CertDER:      id.CertDER,
			SessionCache: handshake.NewSessionCache(4096),
			Observers:    opt.Observers,
		},
		response: workload.Response(opt.FileSize),
	}
	seed := opt.Seed
	go func() {
		for {
			tc, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				tc.Close()
				return
			}
			s.connSeq++
			id := s.connSeq
			s.wg.Add(1)
			s.mu.Unlock()
			go func() {
				defer s.wg.Done()
				s.serve(tc, seed+17*id)
			}()
		}
	}()
	return s, nil
}

// Addr returns the listener's host:port.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and waits for in-flight connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

func (s *Server) serve(tc net.Conn, prngSeed uint64) {
	cfg := s.cfgBase // per-connection copy
	cfg.Rand = ssl.NewPRNG(prngSeed)
	conn := ssl.ServerConn(tc, &cfg)
	defer conn.Close()
	if err := conn.Handshake(); err != nil {
		return
	}
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
		if _, err := conn.Write(s.response); err != nil {
			return
		}
	}
}
