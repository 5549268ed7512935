package webmodel

import (
	"errors"
	"fmt"
	"time"

	"sslperf/internal/record"
	"sslperf/internal/ssl"
)

// A Pair is ssltest's BIO pair: a client and a server sans-IO
// connection driven in turn on the calling goroutine, each end's
// Outgoing bytes moved into the other end's Feed. There is no
// transport and nothing ever waits, so every server call it times is
// server work.
type Pair struct {
	Client, Server *ssl.NonBlockingConn
	// Wire, when non-nil, sees every chunk the pair moves, in wire
	// order. A chunk is whole records: an end's Outgoing only ever
	// holds records it sealed.
	Wire func(toServer bool, b []byte)

	spent time.Duration
	buf   []byte // the reads' scratch: one record's plaintext
}

// NewPair builds the two ends over their configs.
func NewPair(client, server *ssl.Config) *Pair {
	return &Pair{Client: ssl.NonBlockingClient(client), Server: ssl.NonBlockingServer(server)}
}

// Spent is the time the server's Feed, HandshakeStep, ReadData and
// WriteData calls took, summed over the pair's life.
func (p *Pair) Spent() time.Duration { return p.spent }

// move hands one end's Outgoing to the other end's Feed, timing the
// server's.
func (p *Pair) move(toServer bool) {
	from, to := p.Server, p.Client
	if toServer {
		from, to = p.Client, p.Server
	}
	o := from.Outgoing()
	if len(o) == 0 {
		return
	}
	if p.Wire != nil {
		p.Wire(toServer, o)
	}
	start := time.Now()
	to.Feed(o)
	if toServer {
		p.spent += time.Since(start)
	}
	from.ConsumeOutgoing(len(o))
}

// Handshake steps the client, moves its bytes, steps the server and
// moves its bytes back, until both ends are done.
func (p *Pair) Handshake() error {
	for i := 0; !p.Client.HandshakeDone() || !p.Server.HandshakeDone(); i++ {
		if i > 100 {
			return errors.New("webmodel: handshake did not converge")
		}
		if err := p.Client.HandshakeStep(); err != nil && err != ssl.ErrWouldBlock {
			return fmt.Errorf("client: %w", err)
		}
		p.move(true)
		start := time.Now()
		err := p.Server.HandshakeStep()
		p.spent += time.Since(start)
		if err != nil && err != ssl.ErrWouldBlock {
			return fmt.Errorf("server: %w", err)
		}
		p.move(false)
	}
	return nil
}

// Exchange is one request and response: the client sends req, the
// server reads all of it and answers with resp, and the client reads
// all of that.
func (p *Pair) Exchange(req, resp []byte) error {
	if p.buf == nil {
		p.buf = make([]byte, record.MaxFragment)
	}
	if _, err := p.Client.WriteData(req); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	p.move(true)
	start := time.Now()
	err := p.read(p.Server, len(req))
	if err == nil {
		_, err = p.Server.WriteData(resp)
	}
	p.spent += time.Since(start)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	p.move(false)
	if err := p.read(p.Client, len(resp)); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	return nil
}

// read reads n bytes of application data from c, all of them fed
// already.
func (p *Pair) read(c *ssl.NonBlockingConn, n int) error {
	for got := 0; got < n; {
		m, err := c.ReadData(p.buf)
		if err != nil {
			return err
		}
		got += m
	}
	return nil
}

// Close closes the client and then the server, untimed. Wire sees
// their close_notify alerts; neither end reads again, so neither is
// fed the other's.
func (p *Pair) Close() {
	for _, c := range []*ssl.NonBlockingConn{p.Client, p.Server} {
		c.Close()
		if o := c.Outgoing(); len(o) > 0 {
			if p.Wire != nil {
				p.Wire(c == p.Client, o)
			}
			c.ConsumeOutgoing(len(o))
		}
	}
}
