package ssl

import (
	"errors"
	"io"
	"sync"
)

// pipeHalf is one direction of the in-memory transport: an unbounded
// buffer with blocking reads, so a writer never stalls.
type pipeHalf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
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
	for len(h.buf) == 0 && !h.closed {
		h.cond.Wait()
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

// Pipe returns the two ends of an in-memory duplex transport with
// unbounded buffering: writes always succeed immediately, reads block
// until data or close: two Conns on one machine, no sockets, no
// kernel, no network. It measures nothing; the offline experiments run
// on webmodel.Pair, which has no transport at all.
func Pipe() (io.ReadWriteCloser, io.ReadWriteCloser) {
	a2b := newPipeHalf()
	b2a := newPipeHalf()
	return &pipeEnd{in: b2a, out: a2b}, &pipeEnd{in: a2b, out: b2a}
}
