package handshake

import (
	"bytes"
	"sslperf/internal/probe"
	"testing"
	"time"

	"sslperf/internal/suite"
)

func TestClientHelloRoundTrip(t *testing.T) {
	m := clientHelloMsg{
		version:      0x0300,
		sessionID:    bytes.Repeat([]byte{7}, 32),
		cipherSuites: []suite.ID{suite.RSAWith3DESEDECBCSHA, suite.RSAWithRC4128MD5},
		compressions: []byte{0},
	}
	for i := range m.random {
		m.random[i] = byte(i)
	}
	raw := m.marshal()
	if raw[0] != typeClientHello {
		t.Fatalf("type byte = %d", raw[0])
	}
	var got clientHelloMsg
	if err := got.unmarshal(raw[4:]); err != nil {
		t.Fatal(err)
	}
	if got.version != m.version || !bytes.Equal(got.sessionID, m.sessionID) ||
		got.random != m.random || len(got.cipherSuites) != 2 ||
		got.cipherSuites[0] != suite.RSAWith3DESEDECBCSHA {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestClientHelloEmptySessionID(t *testing.T) {
	m := clientHelloMsg{version: 0x0300, cipherSuites: []suite.ID{1}, compressions: []byte{0}}
	var got clientHelloMsg
	if err := got.unmarshal(m.marshal()[4:]); err != nil {
		t.Fatal(err)
	}
	if len(got.sessionID) != 0 {
		t.Fatal("session id should be empty")
	}
}

func TestClientHelloRejectsMalformed(t *testing.T) {
	bad := [][]byte{
		nil,
		make([]byte, 10),
		// session id length runs past the end
		append(append([]byte{3, 0}, make([]byte, 32)...), 33),
	}
	for i, b := range bad {
		var m clientHelloMsg
		if err := m.unmarshal(b); err == nil {
			t.Errorf("malformed ClientHello %d accepted", i)
		}
	}
}

func TestServerHelloRoundTrip(t *testing.T) {
	m := serverHelloMsg{
		version:     0x0300,
		sessionID:   bytes.Repeat([]byte{9}, 32),
		cipherSuite: suite.RSAWithAES128CBCSHA,
	}
	var got serverHelloMsg
	if err := got.unmarshal(m.marshal()[4:]); err != nil {
		t.Fatal(err)
	}
	if got.cipherSuite != m.cipherSuite || !bytes.Equal(got.sessionID, m.sessionID) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCertificateMsgRoundTrip(t *testing.T) {
	m := certificateMsg{certificates: [][]byte{
		bytes.Repeat([]byte{1}, 300),
		bytes.Repeat([]byte{2}, 5),
	}}
	var got certificateMsg
	if err := got.unmarshal(m.marshal()[4:]); err != nil {
		t.Fatal(err)
	}
	if len(got.certificates) != 2 ||
		!bytes.Equal(got.certificates[0], m.certificates[0]) ||
		!bytes.Equal(got.certificates[1], m.certificates[1]) {
		t.Fatal("certificate chain mismatch")
	}
}

func TestCertificateMsgRejectsEmpty(t *testing.T) {
	m := certificateMsg{}
	var got certificateMsg
	if err := got.unmarshal(m.marshal()[4:]); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestFinishedMsgLength(t *testing.T) {
	m := finishedMsg{verify: make([]byte, FinishedLen)}
	var got finishedMsg
	if err := got.unmarshal(m.marshal()[4:], FinishedLen); err != nil {
		t.Fatal(err)
	}
	// A TLS-length finished must be rejected when SSLv3 is expected,
	// and vice versa.
	tls := finishedMsg{verify: make([]byte, 12)}
	if err := got.unmarshal(tls.marshal()[4:], FinishedLen); err == nil {
		t.Fatal("accepted 12-byte finished as SSLv3")
	}
	if err := got.unmarshal(m.marshal()[4:], 12); err == nil {
		t.Fatal("accepted 36-byte finished as TLS")
	}
	if err := got.unmarshal(tls.marshal()[4:], 12); err != nil {
		t.Fatal(err)
	}
}

func TestClientKeyExchangeBare(t *testing.T) {
	// SSLv3 carries the RSA ciphertext with no length prefix.
	ct := bytes.Repeat([]byte{0xcc}, 64)
	m := clientKeyExchangeMsg{encryptedPreMaster: ct}
	raw := m.marshal()
	bodyLen := int(raw[1])<<16 | int(raw[2])<<8 | int(raw[3])
	if bodyLen != len(ct) {
		t.Fatalf("body length %d, want %d (no inner prefix)", bodyLen, len(ct))
	}
	var got clientKeyExchangeMsg
	if err := got.unmarshal(raw[4:]); err != nil || !bytes.Equal(got.encryptedPreMaster, ct) {
		t.Fatal("round trip failed")
	}
}

func TestSessionCachePutGet(t *testing.T) {
	c := NewSessionCache(2)
	s1 := &Session{ID: []byte("id-1"), Master: []byte("m1")}
	s2 := &Session{ID: []byte("id-2"), Master: []byte("m2")}
	c.Put(s1)
	c.Put(s2)
	if got := c.Get([]byte("id-1")); got == nil || string(got.Master) != "m1" {
		t.Fatal("get failed")
	}
	if c.Get([]byte("missing")) != nil {
		t.Fatal("phantom session")
	}
}

func TestSessionCacheEviction(t *testing.T) {
	c := NewSessionCache(2)
	c.Put(&Session{ID: []byte("a")})
	c.Put(&Session{ID: []byte("b")})
	c.Put(&Session{ID: []byte("c")}) // evicts a
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Get([]byte("a")) != nil {
		t.Fatal("oldest not evicted")
	}
	if c.Get([]byte("c")) == nil {
		t.Fatal("newest missing")
	}
}

func TestSessionCacheUpdateDoesNotEvict(t *testing.T) {
	c := NewSessionCache(2)
	c.Put(&Session{ID: []byte("a"), Master: []byte("1")})
	c.Put(&Session{ID: []byte("b")})
	c.Put(&Session{ID: []byte("a"), Master: []byte("2")}) // update in place
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if got := c.Get([]byte("a")); string(got.Master) != "2" {
		t.Fatal("update lost")
	}
	if c.Get([]byte("b")) == nil {
		t.Fatal("b evicted by update")
	}
}

func TestSessionCacheIgnoresNil(t *testing.T) {
	c := NewSessionCache(2)
	c.Put(nil)
	c.Put(&Session{})
	if c.Len() != 0 {
		t.Fatal("cached a nil/empty session")
	}
}

func TestAnatomyNilSafe(t *testing.T) {
	// A typed-nil *Anatomy is a valid no-op sink: a bus holding one
	// must deliver every event kind without panicking.
	var a *Anatomy
	bus := probe.NewBus(a)
	bus.StepEnter(probe.StepInit)
	bus.Crypto("f", func() {})
	bus.StepExit()
	if err := bus.CryptoErr("g", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	bus.RecordCrypto(probe.OpMACCompute, "MD5", 1, bus.Stamp())
	bus.RecordIO(true, false, 1)
}

func TestAnatomyStepAccounting(t *testing.T) {
	a := NewAnatomy()
	bus := probe.NewBus(a)
	bus.StepEnter(probe.StepInit)
	bus.Crypto("op_a", func() { time.Sleep(2 * time.Millisecond) })
	bus.StepExit()
	bus.StepEnter(probe.StepGetClientHello)
	bus.Crypto("op_b", func() { time.Sleep(time.Millisecond) })
	bus.StepExit()
	if len(a.Steps) != 2 {
		t.Fatalf("steps = %d", len(a.Steps))
	}
	if a.Steps[0].Name != probe.StepInit.Name() || a.Steps[1].Index != 1 {
		t.Fatalf("step identity = %+v", a.Steps)
	}
	if a.Steps[0].Elapsed < 2*time.Millisecond {
		t.Fatal("step time too small")
	}
	if a.Steps[0].CryptoTotal() == 0 || a.Steps[1].CryptoTotal() == 0 {
		t.Fatal("crypto not attributed")
	}
	if a.Total() < 3*time.Millisecond {
		t.Fatalf("total = %v", a.Total())
	}
	if a.CryptoTotal() > a.Total() {
		t.Fatal("crypto exceeds total")
	}
}

func TestAnatomyCategoryMapping(t *testing.T) {
	cases := map[string]string{
		FnRSAPrivateDecrypt: CategoryPublic,
		FnPriDecryption:     CategoryPrivate,
		FnPriEncryption:     CategoryPrivate,
		FnFinishMac:         CategoryHash,
		FnGenMasterSecret:   CategoryHash,
		FnGenKeyBlock:       CategoryHash,
		FnRandPseudoBytes:   CategoryOther,
		FnX509:              CategoryOther,
	}
	for fn, want := range cases {
		if got := CategoryOf(fn); got != want {
			t.Errorf("CategoryOf(%s) = %s, want %s", fn, got, want)
		}
	}
}

func TestAnatomyBreakdownOrder(t *testing.T) {
	a := NewAnatomy()
	bus := probe.NewBus(a)
	bus.StepEnter(probe.StepGetClientKX)
	bus.Crypto(FnRSAPrivateDecrypt, func() { time.Sleep(time.Millisecond) })
	bus.StepExit()
	b := a.CryptoBreakdown()
	names := b.Names()
	want := []string{CategoryPublic, CategoryPrivate, CategoryHash, CategoryOther}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("breakdown order %v", names)
		}
	}
}

// The rollback check keeps a 48-byte pre-master only when both
// version bytes match the ClientHello's, whatever the low byte is.
func TestRSAPreMaster(t *testing.T) {
	sub := bytes.Repeat([]byte{0xaa}, 48)
	for _, tc := range []struct {
		version uint16
		prefix  [2]byte
		keep    bool
	}{
		{0x0301, [2]byte{3, 1}, true},
		{0x0301, [2]byte{2, 0}, false},
		{0x0301, [2]byte{2, 1}, false},
		{0x0301, [2]byte{3, 0}, false},
		{0x0301, [2]byte{1, 1}, false},
		{0x0300, [2]byte{3, 0}, true},
		{0x0300, [2]byte{3, 1}, false},
		{0x0300, [2]byte{9, 9}, false},
	} {
		pm := bytes.Repeat([]byte{0x55}, 48)
		pm[0], pm[1] = tc.prefix[0], tc.prefix[1]
		want := sub
		if tc.keep {
			want = append([]byte(nil), pm...)
		}
		if got := rsaPreMaster(pm, tc.version, sub); !bytes.Equal(got, want) {
			t.Errorf("hello %#04x, pre-master % x…: kept=%v, want %v",
				tc.version, tc.prefix, !bytes.Equal(got, sub), tc.keep)
		}
	}
	for _, n := range []int{0, 47, 49} {
		if got := rsaPreMaster(make([]byte, n), 0, sub); !bytes.Equal(got, sub) {
			t.Errorf("%d-byte pre-master kept", n)
		}
	}
}
