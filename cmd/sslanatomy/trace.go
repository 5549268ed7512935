package main

import (
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
)

// captureHandshakeTrace runs one full handshake over the in-memory
// pipe with the server's record kept in full and returns it as Chrome
// trace-event JSON — the single-handshake counterpart of sslserver's
// live /debug/trace, for loading in chrome://tracing or Perfetto.
func captureHandshakeTrace(seed uint64, keyBits int, suiteName string, version uint16) ([]byte, error) {
	id, err := ssl.NewIdentity(ssl.NewPRNG(seed), keyBits, "sslanatomy", time.Now())
	if err != nil {
		return nil, err
	}
	var suites []suite.ID
	if suiteName != "" {
		s, err := suite.ByName(suiteName)
		if err != nil {
			return nil, err
		}
		suites = []suite.ID{s.ID}
	}
	table := lifecycle.NewTable(lifecycle.Options{
		SampleEvery: 1,
		Ring:        1,
	})
	clientT, serverT := ssl.Pipe()
	server := ssl.ServerConn(serverT, &ssl.Config{
		Rand:     ssl.NewPRNG(seed + 1),
		Key:      id.Key,
		CertDER:  id.CertDER,
		Suites:   suites,
		Observer: table,
	})
	client := ssl.ClientConn(clientT, &ssl.Config{
		Rand:               ssl.NewPRNG(seed + 2),
		Suites:             suites,
		Version:            version,
		InsecureSkipVerify: true,
	})
	errc := make(chan error, 1)
	go func() { errc <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		return nil, err
	}
	if err := <-errc; err != nil {
		return nil, err
	}
	// One request/response round trip so the trace shows the bulk
	// phase (read/write I/O spans and record-layer crypto) too.
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		if _, err := server.Read(buf); err == nil {
			server.Write([]byte("sslanatomy trace payload"))
		}
	}()
	if _, err := client.Write([]byte("ping")); err != nil {
		return nil, err
	}
	buf := make([]byte, 64)
	if _, err := client.Read(buf); err != nil {
		return nil, err
	}
	<-done
	client.Close()
	server.Close() // retires the record into the ring
	return lifecycle.ChromeTrace(table.Records(0))
}
