// Package server is the one serve loop: cmd/sslserver, the load
// generator's in-process target and examples/webserver are all a
// Server with a different Handler. It holds the only accept loop and
// the only per-connection config builder outside bench/, so a deadline,
// a connection cap or an admission rule lands here once.
//
// The shape is the paper's (Apache + OpenSSL): a blocking worker — a
// goroutine — per connection, which the runtime preempts, so one
// connection's RSA decrypt never stalls another's read.
package server

import (
	"errors"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/ssl"
)

// A Server serves SSL connections from one listener. Set the exported
// fields before Serve; they are read-only afterwards.
type Server struct {
	// Config is every connection's template: the identity it presents
	// (Key, CertDER), its SessionCache, Suites and Version. Each
	// connection reads a copy whose Rand and Observer are its own.
	Config ssl.Config
	// Seed makes the run reproducible: connection n draws its
	// randomness from NewPRNG(Seed + 17n).
	Seed uint64

	// Table is every connection's one observer; nil runs the sink-free
	// path.
	Table *lifecycle.Table
	// Log receives one line per connection and per failed accept; nil
	// is silent.
	Log *Log
	// Handler runs on each connection once its handshake has
	// succeeded; the connection is closed when it returns.
	Handler func(*ssl.Conn)

	connSeq atomic.Uint64

	mu   sync.Mutex
	ln   net.Listener
	done chan struct{}  // closed by Close
	wg   sync.WaitGroup // the accept loop and every connection
}

// Respond is the measured server's Handler: any read is a request and
// is answered with payload, until the peer closes.
func Respond(payload []byte) func(*ssl.Conn) {
	return func(conn *ssl.Conn) {
		buf := make([]byte, 4096)
		// The bulk loop runs under the bulk_transfer pprof label (a no-op
		// unless -pprof-labels armed them), so CPU profiles separate data
		// transfer from Table 2 handshake steps.
		probe.LabelBulkPhase(func() {
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
				if _, err := conn.Write(payload); err != nil {
					return
				}
			}
		})
	}
}

// doneLocked returns the channel Close closes. Callers hold s.mu.
func (s *Server) doneLocked() chan struct{} {
	if s.done == nil {
		s.done = make(chan struct{})
	}
	return s.done
}

// Serve accepts connections on ln, each served on its own goroutine,
// until Close, and then returns nil. A failed Accept does not end it:
// the error is logged and the loop retries after 5 ms, doubling to 1 s
// while failures repeat — EMFILE under load is a reason to wait, not
// to exit. Only a listener closed behind the server's back is returned
// as an error. Serve may be called once.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	done := s.doneLocked()
	select {
	case <-done:
		s.mu.Unlock()
		return ln.Close()
	default:
	}
	s.ln = ln
	// The loop holds the group open, so the Adds below cannot race a
	// Wait at zero.
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()

	var delay time.Duration
	for {
		tc, err := ln.Accept()
		if err != nil {
			select {
			case <-done:
				return nil
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			s.Log.Printf("accept: %v; retrying in %v", err, delay)
			select {
			case <-done:
				return nil
			case <-time.After(delay):
			}
			continue
		}
		delay = 0
		s.wg.Add(1)
		go s.serve(tc)
	}
}

// Close stops accepting and waits for the connections in flight to
// finish. It is safe to call more than once, and before Serve.
func (s *Server) Close() {
	s.mu.Lock()
	done := s.doneLocked()
	select {
	case <-done:
	default:
		close(done)
	}
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close() // its error is Accept's to report
	}
	s.wg.Wait()
}

// configFor copies the template into the per-connection Config. Every
// connection gets its own PRNG (ssl.PRNG is not safe for concurrent
// use); the accept count that seeds it is not an identity — the
// connection's ID is the one its open event carries. The returned
// entry is the connection's record, non-nil when the server is
// observed: it is taken here, at accept time, so the caller can mark
// the accept on it, and it is the connection's one observer.
func (s *Server) configFor() (*ssl.Config, *lifecycle.Conn) {
	n := s.connSeq.Add(1)
	cfg := s.Config
	cfg.Rand, cfg.Observer = ssl.NewPRNG(s.Seed+17*n), nil
	entry := s.Table.Begin()
	if entry != nil {
		cfg.Observer = entry
	}
	return &cfg, entry
}

func (s *Server) serve(tc net.Conn) {
	defer s.wg.Done()
	accepted := time.Now()
	cfg, entry := s.configFor()
	entry.Mark("accept", accepted, time.Since(accepted))
	conn := ssl.ServerConn(tc, cfg)
	defer conn.Close()
	if err := conn.Handshake(); err != nil {
		// The connection's record (when the server is observed) has
		// already folded this failure under the same canonical fail
		// class; the console line rides the token bucket so a failure
		// storm cannot flood the log.
		s.Log.Printf("%s: handshake failed (%s): %v",
			tc.RemoteAddr(), ssl.FailureReason(err), err)
		return
	}
	state, _ := conn.ConnectionState()
	s.Log.Printf("%s: %s resumed=%v", tc.RemoteAddr(), state.Suite.Name, state.Resumed)
	s.Handler(conn)
}

// A Log is a token bucket over console lines: under a failure storm
// (or a high-rate success run) the log stays readable at the
// configured rate, and each emitted line is preceded by a one-line
// summary of how many lines the bucket swallowed since the last one. A
// nil Log drops everything.
type Log struct {
	mu         sync.Mutex
	rate       float64 // tokens per second, and the burst
	tokens     float64
	last       time.Time
	suppressed uint64
}

// NewLog returns a Log passing linesPerSec lines a second.
func NewLog(linesPerSec int) *Log {
	r := float64(linesPerSec)
	return &Log{rate: r, tokens: r, last: time.Now()}
}

// Printf logs one line if the bucket allows it, prefixed by a summary
// of any suppressed backlog; otherwise it counts the line silently.
func (l *Log) Printf(format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	now := time.Now()
	l.tokens = min(l.tokens+now.Sub(l.last).Seconds()*l.rate, l.rate)
	l.last = now
	if l.tokens < 1 {
		l.suppressed++
		l.mu.Unlock()
		return
	}
	l.tokens--
	sup := l.suppressed
	l.suppressed = 0
	l.mu.Unlock()
	if sup > 0 {
		log.Printf("(%d connection log lines suppressed)", sup)
	}
	log.Printf(format, args...)
}
