package ssl

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/record"
	"sslperf/internal/suite"
)

var (
	idOnce sync.Once
	testID *Identity
)

func identity(t testing.TB) *Identity {
	t.Helper()
	idOnce.Do(func() {
		var err error
		testID, err = NewIdentity(NewPRNG(42), 512, "ssl-test", time.Now())
		if err != nil {
			panic(err)
		}
	})
	return testID
}

// connect runs a full handshake over an in-memory pipe, returning the
// connected client and server conns.
func connect(t testing.TB, clientCfg, serverCfg *Config) (*Conn, *Conn) {
	t.Helper()
	ct, st := Pipe()
	client := ClientConn(ct, clientCfg)
	server := ServerConn(st, serverCfg)
	errs := make(chan error, 1)
	go func() { errs <- client.Handshake() }()
	if err := server.Handshake(); err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	return client, server
}

// readFull reads exactly len(p) bytes from c.
func readFull(c *Conn, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := c.Read(p[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func clientCfg(mod func(*Config)) *Config {
	cfg := &Config{Rand: NewPRNG(7), InsecureSkipVerify: true}
	if mod != nil {
		mod(cfg)
	}
	return cfg
}

func TestHandshakeAndEchoAllSuites(t *testing.T) {
	id := identity(t)
	for _, s := range suite.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			ccfg := clientCfg(func(c *Config) { c.Suites = []suite.ID{s.ID} })
			scfg := id.ServerConfig(NewPRNG(8))
			client, server := connect(t, ccfg, scfg)

			cs, err := client.ConnectionState()
			if err != nil || cs.Suite.ID != s.ID {
				t.Fatalf("negotiated %v, want %v", cs.Suite, s.Name)
			}

			msg := []byte("ping over " + s.Name)
			done := make(chan error, 1)
			go func() {
				buf := make([]byte, len(msg))
				if _, err := io.ReadFull(server, buf); err != nil {
					done <- err
					return
				}
				_, err := server.Write(bytes.ToUpper(buf))
				done <- err
			}()
			if _, err := client.Write(msg); err != nil {
				t.Fatal(err)
			}
			reply := make([]byte, len(msg))
			if _, err := io.ReadFull(client, reply); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reply, bytes.ToUpper(msg)) {
				t.Fatalf("reply %q", reply)
			}
		})
	}
}

func TestLargeTransfer(t *testing.T) {
	id := identity(t)
	client, server := connect(t, clientCfg(nil), id.ServerConfig(NewPRNG(9)))
	const size = 200_000 // crosses many fragment boundaries
	data := make([]byte, size)
	NewPRNG(1).Read(data)
	go func() {
		client.Write(data)
		client.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer corrupted: %d bytes vs %d", len(got), len(data))
	}
}

func TestCloseNotifyGivesEOF(t *testing.T) {
	id := identity(t)
	client, server := connect(t, clientCfg(nil), id.ServerConfig(NewPRNG(10)))
	client.Write([]byte("bye"))
	client.Close()
	buf := make([]byte, 3)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Read(buf); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestSessionResumption(t *testing.T) {
	id := identity(t)
	cache := handshake.NewSessionCache(16)

	scfg := id.ServerConfig(NewPRNG(11))
	scfg.SessionCache = cache
	client, _ := connect(t, clientCfg(nil), scfg)
	sess, err := client.Session()
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache has %d sessions", cache.Len())
	}

	// Second connection offering the session must resume.
	ccfg2 := clientCfg(func(c *Config) { c.Session = sess })
	scfg2 := id.ServerConfig(NewPRNG(12))
	scfg2.SessionCache = cache
	client2, server2 := connect(t, ccfg2, scfg2)
	cs, _ := client2.ConnectionState()
	if !cs.Resumed {
		t.Fatal("second handshake did not resume")
	}
	ss, _ := server2.ConnectionState()
	if !ss.Resumed {
		t.Fatal("server did not notice resumption")
	}
	// Resumed channel still works.
	go client2.Write([]byte("resumed!"))
	buf := make([]byte, 8)
	if _, err := io.ReadFull(server2, buf); err != nil || string(buf) != "resumed!" {
		t.Fatalf("resumed transfer: %q %v", buf, err)
	}
}

func TestResumptionWithUnknownSessionFallsBack(t *testing.T) {
	id := identity(t)
	cache := handshake.NewSessionCache(16)
	bogus := &handshake.Session{
		ID:     bytes.Repeat([]byte{0xaa}, 32),
		Suite:  suite.RSAWith3DESEDECBCSHA,
		Master: bytes.Repeat([]byte{0xbb}, 48),
	}
	ccfg := clientCfg(func(c *Config) { c.Session = bogus })
	scfg := id.ServerConfig(NewPRNG(13))
	scfg.SessionCache = cache
	client, _ := connect(t, ccfg, scfg)
	cs, _ := client.ConnectionState()
	if cs.Resumed {
		t.Fatal("resumed with a session the server never issued")
	}
}

func TestCertificateVerification(t *testing.T) {
	id := identity(t)
	// Self-signed verification path (InsecureSkipVerify = false).
	ccfg := &Config{Rand: NewPRNG(14), ServerName: "ssl-test"}
	client, _ := connect(t, ccfg, id.ServerConfig(NewPRNG(15)))
	if _, err := client.ConnectionState(); err != nil {
		t.Fatal(err)
	}
}

func TestCertificateNameMismatchFails(t *testing.T) {
	id := identity(t)
	ct, st := Pipe()
	client := ClientConn(ct, &Config{Rand: NewPRNG(16), ServerName: "wrong-name"})
	server := ServerConn(st, id.ServerConfig(NewPRNG(17)))
	go server.Handshake()
	if err := client.Handshake(); err == nil {
		t.Fatal("client accepted mismatched server name")
	}
}

func TestExpiredCertificateFails(t *testing.T) {
	id := identity(t)
	ct, st := Pipe()
	future := func() time.Time { return time.Now().Add(10 * 365 * 24 * time.Hour) }
	client := ClientConn(ct, &Config{Rand: NewPRNG(18), Time: future})
	server := ServerConn(st, id.ServerConfig(NewPRNG(19)))
	go server.Handshake()
	if err := client.Handshake(); err == nil {
		t.Fatal("client accepted expired certificate")
	}
}

func TestNoSharedSuiteFails(t *testing.T) {
	id := identity(t)
	ct, st := Pipe()
	client := ClientConn(ct, clientCfg(func(c *Config) {
		c.Suites = []suite.ID{suite.RSAWithRC4128MD5}
	}))
	scfg := id.ServerConfig(NewPRNG(20))
	scfg.Suites = []suite.ID{suite.RSAWithAES128CBCSHA}
	server := ServerConn(st, scfg)
	cerr := make(chan error, 1)
	go func() { cerr <- client.Handshake() }()
	serr := server.Handshake()
	if serr == nil {
		t.Fatal("server negotiated with no shared suite")
	}
	if err := <-cerr; err == nil {
		t.Fatal("client handshake unexpectedly succeeded")
	}
}

func TestAnatomyCapture(t *testing.T) {
	// The paper's key size: with the shared 512-bit test identity step
	// 7 is two 256-bit exponentiations, too little work on the
	// production kernel to dominate reliably.
	id, err := NewIdentity(NewPRNG(43), 1024, "ssl-test", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	ct, st := Pipe()
	client := ClientConn(ct, clientCfg(nil))
	server := ServerConn(st, id.ServerConfig(NewPRNG(21)))
	a := handshake.NewAnatomy()
	server.SetAnatomy(a)
	go client.Handshake()
	if err := server.Handshake(); err != nil {
		t.Fatal(err)
	}
	if len(a.Steps) < 9 {
		t.Fatalf("recorded %d steps, want >= 9", len(a.Steps))
	}
	// Step 5 (get_client_kx) must carry the RSA private decryption
	// and dominate the handshake, per Table 2.
	var step5 *handshake.Step
	for i := range a.Steps {
		if a.Steps[i].Name == "get_client_kx" {
			step5 = &a.Steps[i]
		}
	}
	if step5 == nil {
		t.Fatal("no get_client_kx step recorded")
	}
	var hasRSA bool
	for _, c := range step5.Crypto {
		if c.Name == handshake.FnRSAPrivateDecrypt {
			hasRSA = true
		}
	}
	if !hasRSA {
		t.Fatalf("step 5 crypto calls: %+v", step5.Crypto)
	}
	if step5.Elapsed < a.Total()/2 {
		t.Fatalf("get_client_kx is %v of %v total; paper says ~92%%",
			step5.Elapsed, a.Total())
	}
	// Table 3: public key encryption dominates the crypto breakdown.
	cb := a.CryptoBreakdown()
	if cb.Percent(handshake.CategoryPublic) < 50 {
		t.Fatalf("public key share %.1f%%, want dominant\n%s",
			cb.Percent(handshake.CategoryPublic), cb)
	}
}

func TestOverTCP(t *testing.T) {
	id := identity(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback networking:", err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		s := ServerConn(conn, id.ServerConfig(NewPRNG(22)))
		defer s.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(s, buf); err != nil {
			done <- err
			return
		}
		_, err = s.Write(buf)
		done <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := ClientConn(conn, clientCfg(nil))
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("echo = %q", buf)
	}
}

func TestPRNGDeterministic(t *testing.T) {
	a := NewPRNG(5)
	b := NewPRNG(5)
	ba := make([]byte, 100)
	bb := make([]byte, 100)
	a.Read(ba)
	b.Read(bb)
	if !bytes.Equal(ba, bb) {
		t.Fatal("same seed produced different streams")
	}
	c := NewPRNG(6)
	bc := make([]byte, 100)
	c.Read(bc)
	if bytes.Equal(ba, bc) {
		t.Fatal("different seeds produced equal streams")
	}
}

func TestStatsAndObserver(t *testing.T) {
	id := identity(t)
	client, server := connect(t, clientCfg(nil), id.ServerConfig(NewPRNG(23)))
	var decrypts, verifies, bytesSeen int
	server.SetCryptoObserver(func(op record.CryptoOp, _ string, n int, d time.Duration) {
		switch op {
		case record.OpCipherDecrypt:
			decrypts++
			bytesSeen += n
		case record.OpMACVerify:
			verifies++
		}
	})
	go client.Write(make([]byte, 1000))
	buf := make([]byte, 1000)
	io.ReadFull(server, buf)
	if server.Stats().BytesRead < 1000 {
		t.Fatalf("stats = %+v", server.Stats())
	}
	if decrypts == 0 || verifies == 0 || bytesSeen < 1000 {
		t.Fatalf("observer saw decrypts=%d verifies=%d bytes=%d",
			decrypts, verifies, bytesSeen)
	}
}

func TestPipeCloseUnblocksReader(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := b.Read(buf)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("err = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not unblocked by close")
	}
}
