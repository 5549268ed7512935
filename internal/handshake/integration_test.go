package handshake

import (
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/rsa"
	"sslperf/internal/suite"
	"sslperf/internal/x509lite"
)

var (
	intOnce sync.Once
	intKey  *rsa.PrivateKey
	intCert *x509lite.Certificate
)

type prngReader struct{ r *rand.Rand }

func (p prngReader) Read(b []byte) (int, error) {
	for i := range b {
		b[i] = byte(p.r.Intn(256))
	}
	return len(b), nil
}

func rnd(seed uint64) io.Reader {
	return prngReader{rand.New(rand.NewSource(int64(seed)))}
}

func intIdentity(t *testing.T) (*rsa.PrivateKey, *x509lite.Certificate) {
	t.Helper()
	intOnce.Do(func() {
		var err error
		intKey, err = rsa.GenerateKey(rnd(9001), 512)
		if err != nil {
			panic(err)
		}
		now := time.Now()
		intCert, err = x509lite.Create(rnd(9002), "hs-test", &intKey.PublicKey,
			"hs-test", intKey, now.Add(-time.Hour), now.Add(time.Hour))
		if err != nil {
			panic(err)
		}
	})
	return intKey, intCert
}

// runPair drives both machines over sans-IO record cores on the
// calling goroutine, moving each one's output to the other, and returns
// the first terminal error either side meets.
func runPair(t *testing.T, scfg, ccfg *Config) (*Result, *Result, error) {
	t.Helper()
	return runPairOn(t, scfg, ccfg, nil)
}

// runPairOn is runPair with the server's steps on bus.
func runPairOn(t *testing.T, scfg, ccfg *Config, bus *probe.Bus) (*Result, *Result, error) {
	t.Helper()
	cliCore, srvCore := record.NewCore(), record.NewCore()
	cli, err := NewClientFSM(cliCore, ccfg, nil, ccfg.Rand)
	if err != nil {
		return nil, nil, err
	}
	srv, err := NewServerFSM(srvCore, scfg, bus, scfg.Rand)
	if err != nil {
		return nil, nil, err
	}
	move := func(from, to *record.Core) {
		to.Feed(from.Outgoing())
		from.ConsumeOutgoing(len(from.Outgoing()))
	}
	for i := 0; cli.Result() == nil || srv.Result() == nil; i++ {
		if i > 100 {
			t.Fatal("handshake did not converge")
		}
		if err := cli.Step(); err != nil && err != ErrWouldBlock {
			return nil, nil, err
		}
		move(cliCore, srvCore)
		if err := srv.Step(); err != nil && err != ErrWouldBlock {
			return nil, nil, err
		}
		move(srvCore, cliCore)
	}
	return cli.Result(), srv.Result(), nil
}

func TestDirectHandshakeAgreement(t *testing.T) {
	key, cert := intIdentity(t)
	cres, sres, err := runPair(t,
		&Config{Key: key, CertDER: cert.Raw, Rand: rnd(1)},
		&Config{Rand: rnd(2), InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Suite.ID != sres.Suite.ID {
		t.Fatal("suite disagreement")
	}
	if string(cres.Session.Master) != string(sres.Session.Master) {
		t.Fatal("master secrets differ")
	}
	if string(cres.Session.ID) != string(sres.Session.ID) {
		t.Fatal("session ids differ")
	}
}

func TestServerConfigValidation(t *testing.T) {
	key, cert := intIdentity(t)
	core := record.NewCore()
	if _, err := NewServerFSM(core, &Config{CertDER: cert.Raw}, nil, rnd(1)); err == nil {
		t.Fatal("server without key accepted")
	}
	if _, err := NewServerFSM(core, &Config{Key: key}, nil, rnd(1)); err == nil {
		t.Fatal("server without cert accepted")
	}
	if _, err := NewServerFSM(core, &Config{Key: key, CertDER: cert.Raw}, nil, nil); err == nil {
		t.Fatal("server without randomness accepted")
	}
	if _, err := NewClientFSM(core, &Config{}, nil, nil); err == nil {
		t.Fatal("client without randomness accepted")
	}
}

func TestRootCertChainVerification(t *testing.T) {
	key, _ := intIdentity(t)
	// A CA signs the server's certificate; the client trusts the CA.
	caKey, err := rsa.GenerateKey(rnd(9010), 512)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	caCert, err := x509lite.Create(rnd(9011), "test-ca", &caKey.PublicKey,
		"test-ca", caKey, now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	srvCert, err := x509lite.Create(rnd(9012), "chained-server", &key.PublicKey,
		"test-ca", caKey, now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runPair(t,
		&Config{Key: key, CertDER: srvCert.Raw, Rand: rnd(3)},
		&Config{Rand: rnd(4), RootCert: caCert, ServerName: "chained-server"},
	); err != nil {
		t.Fatalf("chain-verified handshake failed: %v", err)
	}
	// A different CA must be rejected.
	otherKey, _ := rsa.GenerateKey(rnd(9013), 512)
	otherCA, _ := x509lite.Create(rnd(9014), "other-ca", &otherKey.PublicKey,
		"other-ca", otherKey, now.Add(-time.Hour), now.Add(time.Hour))
	if _, _, err := runPair(t,
		&Config{Key: key, CertDER: srvCert.Raw, Rand: rnd(5)},
		&Config{Rand: rnd(6), RootCert: otherCA},
	); err == nil {
		t.Fatal("wrong root accepted")
	}
}

func TestServerSuitePreferenceOrder(t *testing.T) {
	key, cert := intIdentity(t)
	// Server prefers AES256 over RC4 regardless of client order.
	cres, _, err := runPair(t,
		&Config{
			Key: key, CertDER: cert.Raw, Rand: rnd(7),
			Suites: []suite.ID{suite.RSAWithAES256CBCSHA, suite.RSAWithRC4128MD5},
		},
		&Config{
			Rand:               rnd(8),
			InsecureSkipVerify: true,
			Suites:             []suite.ID{suite.RSAWithRC4128MD5, suite.RSAWithAES256CBCSHA},
		})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Suite.ID != suite.RSAWithAES256CBCSHA {
		t.Fatalf("negotiated %v; server preference not honored", cres.Suite.Name)
	}
}

func TestAnatomyResumedShape(t *testing.T) {
	key, cert := intIdentity(t)
	cache := NewSessionCache(4)
	scfg := &Config{Key: key, CertDER: cert.Raw, Rand: rnd(9), SessionCache: cache}
	cres, _, err := runPair(t, scfg, &Config{Rand: rnd(10), InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}

	// Resumed handshake with a step sink on its bus: must not contain
	// get_client_kx.
	var steps []probe.Step
	bus := probe.NewBus(probe.SinkFunc(func(e probe.Event) {
		if e.Kind == probe.KindStepEnter {
			steps = append(steps, e.Step)
		}
	}))
	_, sres, err := runPairOn(t,
		&Config{Key: key, CertDER: cert.Raw, SessionCache: cache, Rand: rnd(12)},
		&Config{InsecureSkipVerify: true, Session: cres.Session, Rand: rnd(11)}, bus)
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Resumed {
		t.Fatal("not resumed")
	}
	if len(steps) == 0 {
		t.Fatal("resumed handshake emitted no steps")
	}
	for _, s := range steps {
		if s.Name() == "get_client_kx" || s.Name() == "send_server_cert" {
			t.Fatalf("resumed handshake ran step %q", s.Name())
		}
	}
}

func TestTLSDirectHandshake(t *testing.T) {
	key, cert := intIdentity(t)
	cres, sres, err := runPair(t,
		&Config{Key: key, CertDER: cert.Raw, Rand: rnd(13)},
		&Config{Rand: rnd(14), InsecureSkipVerify: true,
			Version: record.VersionTLS10})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Session.Version != record.VersionTLS10 ||
		sres.Session.Version != record.VersionTLS10 {
		t.Fatalf("versions: %#04x / %#04x",
			cres.Session.Version, sres.Session.Version)
	}
	if string(cres.Session.Master) != string(sres.Session.Master) {
		t.Fatal("TLS master secrets differ")
	}
}
