package core

import (
	"io"
	"sync"

	"sslperf/internal/handshake"
	"sslperf/internal/record"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
)

// wireEvent is one record observed on the wire for Figure 1.
type wireEvent struct {
	dir        string // "C -> S" or "S -> C"
	recordType string
	message    string
	bytes      int
}

// eventLog collects wire events from both directions; client and
// server write concurrently, so appends are locked.
type eventLog struct {
	mu     sync.Mutex
	events []wireEvent
}

func (l *eventLog) add(ev wireEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// sniffer parses the record stream written through it and appends
// wire events. All writes come from our record layer, so records
// arrive as a clean header+body byte stream.
type sniffer struct {
	inner     io.ReadWriteCloser
	dir       string
	log       *eventLog
	buf       []byte
	encrypted bool
}

func (s *sniffer) Read(p []byte) (int, error) { return s.inner.Read(p) }
func (s *sniffer) Close() error               { return s.inner.Close() }

func (s *sniffer) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	for len(s.buf) >= 5 {
		length := int(s.buf[3])<<8 | int(s.buf[4])
		if len(s.buf) < 5+length {
			break
		}
		typ := record.ContentType(s.buf[0])
		body := s.buf[5 : 5+length]
		s.emit(typ, body)
		s.buf = s.buf[5+length:]
	}
	return s.inner.Write(p)
}

func (s *sniffer) emit(typ record.ContentType, body []byte) {
	ev := wireEvent{dir: s.dir, recordType: typ.String(), bytes: len(body)}
	switch typ {
	case record.TypeHandshake:
		if s.encrypted {
			ev.message = "Finished (encrypted)"
		} else if len(body) > 0 {
			ev.message = handshake.MessageName(body[0])
		}
	case record.TypeChangeCipherSpec:
		s.encrypted = true
	case record.TypeApplicationData:
		ev.message = "(encrypted data)"
	}
	s.log.add(ev)
}

// traceHandshake runs one full handshake plus a small data exchange
// over sniffed pipes and returns the observed wire events in
// client-then-server interleaved capture order.
func traceHandshake(cfg *Config, id *ssl.Identity) ([]wireEvent, error) {
	log := &eventLog{}
	ct, st := ssl.Pipe()
	cs := &sniffer{inner: ct, dir: "C -> S", log: log}
	ss := &sniffer{inner: st, dir: "S -> C", log: log}

	client := ssl.ClientConn(cs, &ssl.Config{
		Rand:               ssl.NewPRNG(cfg.seed() + 100),
		Suites:             []suite.ID{paperSuite().ID},
		InsecureSkipVerify: true,
	})
	server := ssl.ServerConn(ss, &ssl.Config{
		Rand:    ssl.NewPRNG(cfg.seed() + 101),
		Key:     id.Key,
		CertDER: id.CertDER,
	})
	errc := make(chan error, 1)
	go func() {
		defer client.Close()
		if _, err := client.Write([]byte("GET / HTTP/1.0\r\n\r\n")); err != nil {
			errc <- err
			return
		}
		buf := make([]byte, 64)
		_, err := io.ReadFull(client, buf)
		errc <- err
	}()
	if err := server.Handshake(); err != nil {
		return nil, err
	}
	req := make([]byte, 18)
	if _, err := io.ReadFull(server, req); err != nil {
		return nil, err
	}
	if _, err := server.Write(make([]byte, 64)); err != nil {
		return nil, err
	}
	if err := <-errc; err != nil {
		return nil, err
	}
	server.Close()
	log.mu.Lock()
	defer log.mu.Unlock()
	return log.events, nil
}
