package ssl

import (
	"errors"
	"io"
	"sync"
	"time"
)

// pipeHalf is one direction of the in-memory transport: an unbounded
// buffer with blocking reads, so a writer never stalls — the analogue
// of the memory buffers the paper's standalone ssltest relays
// messages through.
type pipeHalf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
	// waited accumulates time readers spent blocked waiting for
	// data. Measurement code subtracts it so transport stalls are
	// not charged to SSL processing.
	waited time.Duration
}

func newPipeHalf() *pipeHalf {
	h := &pipeHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *pipeHalf) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, errors.New("ssl: write on closed pipe")
	}
	h.buf = append(h.buf, p...)
	h.cond.Broadcast()
	return len(p), nil
}

func (h *pipeHalf) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.buf) == 0 && !h.closed {
		start := time.Now()
		for len(h.buf) == 0 && !h.closed {
			h.cond.Wait()
		}
		h.waited += time.Since(start)
	}
	if len(h.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, h.buf)
	h.buf = h.buf[n:]
	return n, nil
}

func (h *pipeHalf) close() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

// pipeEnd is one endpoint of the duplex pipe.
type pipeEnd struct {
	in  *pipeHalf
	out *pipeHalf
}

func (e *pipeEnd) Read(p []byte) (int, error)  { return e.in.read(p) }
func (e *pipeEnd) Write(p []byte) (int, error) { return e.out.write(p) }

func (e *pipeEnd) Close() error {
	e.out.close()
	e.in.close()
	return nil
}

// ReadWait reports how long reads on this end have blocked waiting
// for the peer — transport stall, not SSL work.
func (e *pipeEnd) ReadWait() time.Duration {
	e.in.mu.Lock()
	defer e.in.mu.Unlock()
	return e.in.waited
}

// ReadWaiter is implemented by Pipe ends; measurement code uses it to
// exclude transport stalls from SSL-processing time.
type ReadWaiter interface {
	ReadWait() time.Duration
}

// Pipe returns the two ends of an in-memory duplex transport with
// unbounded buffering: writes always succeed immediately, reads block
// until data or close. This is the paper's standalone-measurement
// transport — no sockets, no kernel, no network.
func Pipe() (io.ReadWriteCloser, io.ReadWriteCloser) {
	a2b := newPipeHalf()
	b2a := newPipeHalf()
	return &pipeEnd{in: b2a, out: a2b}, &pipeEnd{in: a2b, out: b2a}
}
