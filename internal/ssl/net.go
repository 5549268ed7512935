package ssl

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"
)

// Listener wraps a net.Listener, returning SSL server connections —
// the tls.Listen analogue.
type Listener struct {
	inner net.Listener
	cfg   *Config
	mu    sync.Mutex // serializes draws from cfg.Rand
}

// Listen announces on the network address and wraps accepted
// connections as SSL servers with cfg.
func Listen(network, addr string, cfg *Config) (*Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &Listener{inner: ln, cfg: cfg}, nil
}

// Accept waits for a connection and returns it wrapped as an SSL
// server Conn. The handshake is deferred to the first Read/Write (or
// an explicit Handshake call), as crypto/tls does. A PRNG is not safe
// for concurrent use and accepted connections handshake concurrently,
// so each gets a copy of the config whose Rand is its own PRNG, seeded
// from the listener's source (a nil Rand already means one per use).
func (l *Listener) Accept() (*Conn, error) {
	tc, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	cfg := l.cfg
	if cfg.Rand != nil {
		var seed [8]byte
		l.mu.Lock()
		_, err = io.ReadFull(cfg.Rand, seed[:])
		l.mu.Unlock()
		if err != nil {
			tc.Close()
			return nil, err
		}
		perConn := *cfg
		perConn.Rand = NewPRNG(binary.LittleEndian.Uint64(seed[:]))
		cfg = &perConn
	}
	return ServerConn(tc, cfg), nil
}

// Addr reports the listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Close stops the listener.
func (l *Listener) Close() error { return l.inner.Close() }

// Dial connects to addr, runs the SSL handshake as a client with cfg,
// and returns the connection — the tls.Dial analogue. On handshake
// failure the TCP connection is closed.
func Dial(network, addr string, cfg *Config) (*Conn, error) {
	return DialTimeout(network, addr, cfg, 0)
}

// DialTimeout is Dial with a connect timeout (0 = none; the timeout
// covers TCP establishment, not the handshake).
func DialTimeout(network, addr string, cfg *Config, timeout time.Duration) (*Conn, error) {
	d := net.Dialer{Timeout: timeout}
	tc, err := d.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	conn := ClientConn(tc, cfg)
	if err := conn.Handshake(); err != nil {
		tc.Close()
		return nil, err
	}
	return conn, nil
}
