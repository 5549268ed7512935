package ssl

import (
	"io"
	"sync"
	"testing"
	"time"

	"sslperf/internal/rsa"
	"sslperf/internal/x509lite"
)

func TestListenDial(t *testing.T) {
	id := identity(t)
	scfg := id.ServerConfig(NewPRNG(501))
	ln, err := Listen("tcp", "127.0.0.1:0", scfg)
	if err != nil {
		t.Skip("no loopback:", err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(conn, buf); err != nil {
			done <- err
			return
		}
		_, err = conn.Write(buf)
		done <- err
	}()

	conn, err := Dial("tcp", ln.Addr().String(), clientCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Dial completes the handshake eagerly.
	if _, err := conn.ConnectionState(); err != nil {
		t.Fatal("Dial returned before handshake completed")
	}
	if _, err := conn.Write([]byte("round")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "round" {
		t.Fatalf("echo = %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDialHandshakeFailureClosesSocket(t *testing.T) {
	id := identity(t)
	scfg := id.ServerConfig(NewPRNG(502))
	ln, err := Listen("tcp", "127.0.0.1:0", scfg)
	if err != nil {
		t.Skip("no loopback:", err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Handshake() // will fail on name mismatch alert
			c.Close()
		}
	}()
	// Wrong server name: client must fail and return an error.
	if _, err := Dial("tcp", ln.Addr().String(), &Config{
		Rand: NewPRNG(503), ServerName: "not-the-server",
	}); err == nil {
		t.Fatal("Dial succeeded despite name mismatch")
	}
}

// Connections accepted from one Listener handshake concurrently, and a
// PRNG is not safe for concurrent use: each must draw its server random
// and session ID from a source of its own. Under -race (make check)
// this fails on a Listener that hands every connection cfg.Rand itself.
func TestListenerConcurrentDials(t *testing.T) {
	const dials = 8
	ln, err := Listen("tcp", "127.0.0.1:0", identity(t).ServerConfig(NewPRNG(504)))
	if err != nil {
		t.Skip("no loopback:", err)
	}
	defer ln.Close()
	var servers sync.WaitGroup
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			servers.Add(1)
			go func() {
				defer servers.Done()
				defer c.Close()
				if err := c.Handshake(); err != nil {
					t.Error(err)
				}
			}()
		}
	}()

	ids := make(chan string, dials)
	for i := 0; i < dials; i++ {
		go func(i int) {
			conn, err := Dial("tcp", ln.Addr().String(),
				&Config{Rand: NewPRNG(uint64(520 + i)), InsecureSkipVerify: true})
			if err != nil {
				t.Error(err)
				ids <- ""
				return
			}
			defer conn.Close()
			state, _ := conn.ConnectionState()
			ids <- string(state.SessionID)
		}(i)
	}
	seen := make(map[string]bool)
	for i := 0; i < dials; i++ {
		id := <-ids
		if id != "" && seen[id] {
			t.Errorf("two connections drew the same session ID %x", id)
		}
		seen[id] = true
	}
	ln.Close()
	servers.Wait()
}

// TestCertificateChain exercises a 3-level chain: root CA ->
// intermediate CA -> server leaf, with the client trusting only the
// root.
func TestCertificateChain(t *testing.T) {
	now := time.Now()
	nb, na := now.Add(-time.Hour), now.Add(time.Hour)
	rootKey, err := rsa.GenerateKey(NewPRNG(510), 512)
	if err != nil {
		t.Fatal(err)
	}
	rootCert, err := x509lite.Create(NewPRNG(511), "root-ca", &rootKey.PublicKey,
		"root-ca", rootKey, nb, na)
	if err != nil {
		t.Fatal(err)
	}
	interKey, err := rsa.GenerateKey(NewPRNG(512), 512)
	if err != nil {
		t.Fatal(err)
	}
	interCert, err := x509lite.Create(NewPRNG(513), "intermediate-ca",
		&interKey.PublicKey, "root-ca", rootKey, nb, na)
	if err != nil {
		t.Fatal(err)
	}
	leafKey, err := rsa.GenerateKey(NewPRNG(514), 512)
	if err != nil {
		t.Fatal(err)
	}
	leafCert, err := x509lite.Create(NewPRNG(515), "chained.example",
		&leafKey.PublicKey, "intermediate-ca", interKey, nb, na)
	if err != nil {
		t.Fatal(err)
	}

	run := func(chain [][]byte, root *x509lite.Certificate) error {
		ct, st := Pipe()
		client := ClientConn(ct, &Config{
			Rand:       NewPRNG(516),
			RootCert:   root,
			ServerName: "chained.example",
		})
		server := ServerConn(st, &Config{
			Rand:      NewPRNG(517),
			Key:       leafKey,
			CertDER:   leafCert.Raw,
			CertChain: chain,
		})
		errc := make(chan error, 1)
		go func() { errc <- server.Handshake() }()
		cerr := client.Handshake()
		<-errc
		return cerr
	}

	// With the intermediate presented, the chain verifies to the root.
	if err := run([][]byte{interCert.Raw}, rootCert); err != nil {
		t.Fatalf("chain handshake failed: %v", err)
	}
	// Without the intermediate, the leaf does not chain to the root.
	if err := run(nil, rootCert); err == nil {
		t.Fatal("missing intermediate accepted")
	}
	// With the wrong root, verification fails.
	otherKey, _ := rsa.GenerateKey(NewPRNG(518), 512)
	otherRoot, _ := x509lite.Create(NewPRNG(519), "other-root",
		&otherKey.PublicKey, "other-root", otherKey, nb, na)
	if err := run([][]byte{interCert.Raw}, otherRoot); err == nil {
		t.Fatal("wrong root accepted")
	}
}
