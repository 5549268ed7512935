package ssl

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/suite"
)

// captureStreams records both directions of a successful handshake
// driven by deterministic seeds, so adversarial replays can mutate
// real wire bytes.
func captureStreams(t *testing.T, clientSeed, serverSeed uint64) (c2s, s2c []byte) {
	t.Helper()
	id := identity(t)
	ct, st := Pipe()
	var c2sBuf, s2cBuf bytes.Buffer
	cTap := &tapRW{inner: ct, readTap: &s2cBuf, writeTap: &c2sBuf}
	client := ClientConn(cTap, &Config{
		Rand:               NewPRNG(clientSeed),
		Suites:             []suite.ID{suite.RSAWith3DESEDECBCSHA},
		InsecureSkipVerify: true,
	})
	server := ServerConn(st, id.ServerConfig(NewPRNG(serverSeed)))
	errc := make(chan error, 1)
	go func() { errc <- client.Handshake() }()
	if err := server.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	return c2sBuf.Bytes(), s2cBuf.Bytes()
}

// tapRW copies traffic passing through a transport.
type tapRW struct {
	inner    io.ReadWriteCloser
	readTap  *bytes.Buffer
	writeTap *bytes.Buffer
}

func (t *tapRW) Read(p []byte) (int, error) {
	n, err := t.inner.Read(p)
	t.readTap.Write(p[:n])
	return n, err
}
func (t *tapRW) Write(p []byte) (int, error) {
	t.writeTap.Write(p)
	return t.inner.Write(p)
}
func (t *tapRW) Close() error { return t.inner.Close() }

// replayTransport feeds a fixed inbound stream and discards output.
type replayTransport struct{ r *bytes.Reader }

func (r *replayTransport) Read(p []byte) (int, error)  { return r.r.Read(p) }
func (r *replayTransport) Write(p []byte) (int, error) { return len(p), nil }
func (r *replayTransport) Close() error                { return nil }

// runClientAgainst replays a server->client stream into a
// deterministic client, returning the handshake error. Panics are
// converted to errors so the sweep reports them as failures.
func runClientAgainst(clientSeed uint64, stream []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("PANIC: %v", r)
		}
	}()
	client := ClientConn(&replayTransport{r: bytes.NewReader(stream)}, &Config{
		Rand:               NewPRNG(clientSeed),
		Suites:             []suite.ID{suite.RSAWith3DESEDECBCSHA},
		InsecureSkipVerify: true,
	})
	return client.Handshake()
}

// runServerAgainst replays a client->server stream into a server.
func runServerAgainst(t *testing.T, serverSeed uint64, stream []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("PANIC: %v", r)
		}
	}()
	id := identity(t)
	server := ServerConn(&replayTransport{r: bytes.NewReader(stream)},
		id.ServerConfig(NewPRNG(serverSeed)))
	return server.Handshake()
}

func TestClientSurvivesTruncatedStreams(t *testing.T) {
	_, s2c := captureStreams(t, 1001, 1002)
	// Every truncation point must produce a clean error.
	step := len(s2c)/64 + 1
	for cut := 0; cut < len(s2c); cut += step {
		if err := runClientAgainst(1001, s2c[:cut]); err == nil {
			t.Fatalf("client accepted a stream truncated at %d/%d", cut, len(s2c))
		} else if len(err.Error()) > 5 && err.Error()[:5] == "PANIC" {
			t.Fatalf("truncation at %d caused %v", cut, err)
		}
	}
}

func TestServerSurvivesTruncatedStreams(t *testing.T) {
	c2s, _ := captureStreams(t, 1003, 1004)
	step := len(c2s)/64 + 1
	for cut := 0; cut < len(c2s); cut += step {
		if err := runServerAgainst(t, 1004, c2s[:cut]); err == nil {
			t.Fatalf("server accepted a stream truncated at %d/%d", cut, len(c2s))
		} else if len(err.Error()) > 5 && err.Error()[:5] == "PANIC" {
			t.Fatalf("truncation at %d caused %v", cut, err)
		}
	}
}

func TestClientRejectsBitFlips(t *testing.T) {
	_, s2c := captureStreams(t, 1005, 1006)
	// Flip one bit at a sample of positions; the handshake must fail
	// every time (transcript hashes, MACs, or parsers catch it).
	step := len(s2c)/96 + 1
	for pos := 0; pos < len(s2c); pos += step {
		mutated := append([]byte{}, s2c...)
		mutated[pos] ^= 0x40
		err := runClientAgainst(1005, mutated)
		if err == nil {
			t.Fatalf("client accepted a stream with bit flipped at %d/%d", pos, len(s2c))
		}
		if len(err.Error()) > 5 && err.Error()[:5] == "PANIC" {
			t.Fatalf("bit flip at %d caused %v", pos, err)
		}
	}
}

func TestServerRejectsBitFlips(t *testing.T) {
	c2s, _ := captureStreams(t, 1007, 1008)
	step := len(c2s)/96 + 1
	for pos := 0; pos < len(c2s); pos += step {
		mutated := append([]byte{}, c2s...)
		mutated[pos] ^= 0x40
		err := runServerAgainst(t, 1008, mutated)
		if err == nil {
			t.Fatalf("server accepted a stream with bit flipped at %d/%d", pos, len(c2s))
		}
		if len(err.Error()) > 5 && err.Error()[:5] == "PANIC" {
			t.Fatalf("bit flip at %d caused %v", pos, err)
		}
	}
}

func TestServerSurvivesGarbageStreams(t *testing.T) {
	rnd := NewPRNG(2024)
	for i := 0; i < 50; i++ {
		garbage := make([]byte, 10+i*13)
		rnd.Read(garbage)
		if err := runServerAgainst(t, uint64(3000+i), garbage); err == nil {
			t.Fatalf("server completed a handshake against garbage (%d bytes)", len(garbage))
		}
	}
}

// A server reads nothing larger than a ClientHello or ClientKeyExchange,
// so a header announcing 100 KB must fail on the first record — not
// park for the rest of a "message" an unauthenticated peer chose.
func TestServerCapsHandshakeMessage(t *testing.T) {
	srv := NonBlockingServer(identity(t).ServerConfig(NewPRNG(4100)))
	body := make([]byte, 60)
	srv.Feed(append([]byte{22, 3, 0, 0, byte(4 + len(body)), 1, 0x01, 0x86, 0xa0}, body...))
	err := srv.HandshakeStep()
	if err == nil || err == ErrWouldBlock {
		t.Fatalf("server waits for a 100 KB handshake message: %v", err)
	}
	if got := Classify(err); got != probe.FailBadMessage {
		t.Fatalf("oversized message classified %v (%v), want %v", got, err, probe.FailBadMessage)
	}
}

func TestHandshakeTimeBound(t *testing.T) {
	// A pathological stream must fail promptly, not spin: a record
	// claiming the maximum length but delivering nothing.
	hdr := []byte{22, 0x03, 0x00, 0xff, 0xff}
	done := make(chan error, 1)
	go func() { done <- runClientAgainst(4000, hdr) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("accepted truncated max-length record")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handshake hung on truncated record")
	}
}
