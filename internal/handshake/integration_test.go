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

// testPipe is a minimal buffered duplex transport for driving the
// FSMs directly (the ssl package's Pipe can't be imported here — it
// would create an import cycle in tests).
type pipeSide struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newPipeSide() *pipeSide {
	s := &pipeSide{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

type pipeConn struct{ in, out *pipeSide }

func (c *pipeConn) Write(p []byte) (int, error) {
	c.out.mu.Lock()
	defer c.out.mu.Unlock()
	if c.out.closed {
		return 0, io.ErrClosedPipe
	}
	c.out.buf = append(c.out.buf, p...)
	c.out.cond.Broadcast()
	return len(p), nil
}

func (c *pipeConn) Read(p []byte) (int, error) {
	c.in.mu.Lock()
	defer c.in.mu.Unlock()
	for len(c.in.buf) == 0 && !c.in.closed {
		c.in.cond.Wait()
	}
	if len(c.in.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.in.buf)
	c.in.buf = c.in.buf[n:]
	return n, nil
}

func (c *pipeConn) Close() error {
	for _, s := range []*pipeSide{c.in, c.out} {
		s.mu.Lock()
		s.closed = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	return nil
}

func testPipe() (io.ReadWriteCloser, io.ReadWriteCloser) {
	a2b := newPipeSide()
	b2a := newPipeSide()
	return &pipeConn{in: b2a, out: a2b}, &pipeConn{in: a2b, out: b2a}
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

// runToEnd steps a freshly built FSM once. Over a blocking record
// layer that is the whole handshake: its reads park in the transport
// instead of returning ErrWouldBlock.
func runToEnd[F interface {
	Step() error
	Result() *Result
}](fsm F, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	if err := fsm.Step(); err != nil {
		return nil, err
	}
	return fsm.Result(), nil
}

// runPair drives both machines directly over raw record layers.
func runPair(t *testing.T, scfg, ccfg *Config) (*Result, *Result, error) {
	t.Helper()
	ct, st := testPipe()
	clientLayer := record.NewLayer(ct)
	serverLayer := record.NewLayer(st)
	type out struct {
		res *Result
		err error
	}
	cc := make(chan out, 1)
	go func() {
		r, err := runToEnd(NewClientFSM(clientLayer, ccfg, nil, ccfg.Rand))
		cc <- out{r, err}
	}()
	sres, serr := runToEnd(NewServerFSM(serverLayer, scfg, nil, scfg.Rand))
	cres := <-cc
	if serr != nil {
		return nil, nil, serr
	}
	if cres.err != nil {
		return nil, nil, cres.err
	}
	return cres.res, sres, nil
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
	layer := record.NewLayer(struct {
		io.Reader
		io.Writer
	}{})
	if _, err := runToEnd(NewServerFSM(layer, &Config{CertDER: cert.Raw}, nil, rnd(1))); err == nil {
		t.Fatal("server without key accepted")
	}
	if _, err := runToEnd(NewServerFSM(layer, &Config{Key: key}, nil, rnd(1))); err == nil {
		t.Fatal("server without cert accepted")
	}
	if _, err := runToEnd(NewServerFSM(layer, &Config{Key: key, CertDER: cert.Raw}, nil, nil)); err == nil {
		t.Fatal("server without randomness accepted")
	}
	if _, err := runToEnd(NewClientFSM(layer, &Config{}, nil, nil)); err == nil {
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
	ct, st := testPipe()
	var steps []probe.Step
	bus := probe.NewBus(probe.SinkFunc(func(e probe.Event) {
		if e.Kind == probe.KindStepEnter {
			steps = append(steps, e.Step)
		}
	}))
	go runToEnd(NewClientFSM(record.NewLayer(ct), &Config{
		InsecureSkipVerify: true, Session: cres.Session,
	}, nil, rnd(11)))
	sres, err := runToEnd(NewServerFSM(record.NewLayer(st),
		&Config{Key: key, CertDER: cert.Raw, SessionCache: cache}, bus, rnd(12)))
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
