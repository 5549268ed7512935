package loadgen

import (
	"net"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/lifecycle"
	"sslperf/internal/server"
	"sslperf/internal/ssl"
	"sslperf/internal/workload"
)

// ServerOptions configures an in-process target server.
type ServerOptions struct {
	KeyBits  int // RSA key size (default 1024)
	FileSize int // response payload bytes (default 1024)
	Seed     uint64

	// Table observes every server connection exactly as it would under
	// cmd/sslserver, so an in-process run can smoke /debug/conns and
	// /debug/slo end to end without a second process. Nil runs
	// sink-free.
	Table *lifecycle.Table
}

// A Server is sslserver in-process — the same server.Server, the same
// any-read-one-response handler — on a loopback listener, so the load
// generator (and `make loadsmoke`) can run self-contained.
type Server struct {
	srv *server.Server
	ln  net.Listener
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
	s := &Server{ln: ln, srv: &server.Server{
		Config:  ssl.Config{Key: id.Key, CertDER: id.CertDER, SessionCache: handshake.NewSessionCache(4096)},
		Seed:    opt.Seed,
		Table:   opt.Table,
		Handler: server.Respond(workload.Response(opt.FileSize)),
	}}
	go s.srv.Serve(ln) // returns nil once Close is called
	return s, nil
}

// Addr returns the listener's host:port.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and waits for in-flight connections.
func (s *Server) Close() { s.srv.Close() }
