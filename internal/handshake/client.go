package handshake

import (
	"bytes"
	"errors"
	"io"

	"sslperf/internal/dh"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/rsa"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/suite"
	"sslperf/internal/x509lite"
)

// ClientFSM is the resumable client handshake, leaving its record
// conn armed with the negotiated bulk cipher in both directions; see
// ServerFSM for the Step contract (ErrWouldBlock / nil / sticky
// terminal error with a queued fatal alert).
type ClientFSM struct {
	c clientState
}

// NewClientFSM returns a machine parked before the ClientHello, which
// reads cfg and draws from rand; see NewServerFSM.
func NewClientFSM(conn *record.Core, cfg *Config, bus *probe.Bus, rand io.Reader) (*ClientFSM, error) {
	if rand == nil {
		return nil, errors.New("handshake: client needs a randomness source")
	}
	// A client must take the server's certificate chain, which can span
	// many records.
	return &ClientFSM{c: clientState{machine: newMachine(conn, cfg, bus, rand, 1<<20)}}, nil
}

// Step advances the machine; see ServerFSM.Step.
func (f *ClientFSM) Step() error { return drive(&f.c.machine, &f.c, &clientPlans) }

// Result returns the completed handshake's outcome, or nil before it
// completes.
func (f *ClientFSM) Result() *Result { return f.c.res }

// clientPlans are the client's three paths. The client is not the
// measured party, so its rows carry no Table 2 step.
var clientPlans = [numPlans][]row[*clientState]{
	planRSA: {
		{in: none, run: (*clientState).sendHello},
		{in: typeServerHello, run: (*clientState).readServerHello},
		{in: typeCertificate, run: (*clientState).readCertificate},
		{in: typeServerHelloDone, run: (*clientState).readServerDone},
		{in: none, run: (*clientState).sendKeyExchange},
		{in: none, run: (*clientState).keyBlock},
		{in: none, run: (*clientState).sendCCSAndFinished},
		{in: ccs, run: (*clientState).prepareFinished},
		{in: typeFinished, run: (*clientState).verifyServerFinished},
		{in: none, run: (*clientState).finish},
	},
	planDHE: {
		{in: none, run: (*clientState).sendHello},
		{in: typeServerHello, run: (*clientState).readServerHello},
		{in: typeCertificate, run: (*clientState).readCertificate},
		{in: typeServerKeyExchange, run: (*clientState).readServerKeyExchange},
		{in: typeServerHelloDone, run: (*clientState).readServerDone},
		{in: none, run: (*clientState).sendKeyExchange},
		{in: none, run: (*clientState).keyBlock},
		{in: none, run: (*clientState).sendCCSAndFinished},
		{in: ccs, run: (*clientState).prepareFinished},
		{in: typeFinished, run: (*clientState).verifyServerFinished},
		{in: none, run: (*clientState).finish},
	},
	planResumed: {
		{in: none, run: (*clientState).sendHello},
		{in: typeServerHello, run: (*clientState).readServerHello},
		{in: none, run: (*clientState).keyBlock},
		{in: ccs, run: (*clientState).prepareFinished},
		{in: typeFinished, run: (*clientState).verifyServerFinished},
		{in: none, run: (*clientState).sendCCSAndFinished},
		{in: none, run: (*clientState).finish},
	},
}

type clientState struct {
	machine

	fin          *sslcrypto.FinishedHash
	version      uint16
	clientRandom [RandomLen]byte
	serverHello  serverHelloMsg
	suite        *suite.Suite
	master       []byte
	keys         connKeys
	resumed      bool

	// cert is the parsed server leaf; ske the DHE parameters — both
	// carried across rows (the key exchange needs them after the
	// reads that produced them).
	cert *x509lite.Certificate
	ske  *serverKeyExchangeMsg

	// expected is the precomputed server finished verify data (the
	// same resume-without-repeating-crypto split as the server's).
	expected []byte
}

// finish records the completed handshake's outcome. (A resumed
// handshake's CCS + Finished are still in Outgoing; the driver writes
// them once Step returns.)
func (c *clientState) finish([]byte) error {
	c.res = &Result{
		Suite:   c.suite,
		Resumed: c.resumed,
		Session: &Session{
			ID:      append([]byte(nil), c.serverHello.sessionID...),
			Suite:   c.suite.ID,
			Master:  append([]byte(nil), c.master...),
			Version: c.version,
		},
	}
	return nil
}

// sendHello builds and sends the ClientHello. The record layer stays
// flexible until the ServerHello pins the negotiated version.
func (c *clientState) sendHello([]byte) error {
	c.fin = sslcrypto.NewFinishedHash()
	hello := clientHelloMsg{
		version:      c.cfg.offeredVersion(),
		cipherSuites: c.cfg.offered(),
		compressions: []byte{0},
	}
	if err := fillRandom(c.rand, &c.clientRandom, c.cfg.now()); err != nil {
		return err
	}
	hello.random = c.clientRandom
	if c.cfg.Session != nil {
		hello.sessionID = c.cfg.Session.ID
	}
	rawHello := hello.marshal()
	c.fin.Write(rawHello)
	return c.conn.WriteRecord(record.TypeHandshake, rawHello)
}

// readServerHello holds the server to what the client offered and
// picks the plan.
func (c *clientState) readServerHello(raw []byte) error {
	if err := c.serverHello.unmarshal(raw[4:]); err != nil {
		return err
	}
	c.fin.Write(raw)
	if c.serverHello.version < record.VersionSSL30 || c.serverHello.version > c.cfg.offeredVersion() {
		return probe.Failf(probe.FailVersionMismatch, "handshake: server version %#04x", c.serverHello.version)
	}
	c.version = c.serverHello.version
	c.conn.SetProtocolVersion(c.version)
	var err error
	if c.suite, err = suite.ByID(c.serverHello.cipherSuite); err != nil {
		return probe.Fail(probe.FailBadMessage, err)
	}
	if !allows(c.cfg.Suites, c.suite.ID) {
		return badMessage("handshake: server chose cipher suite %#04x, which the client did not offer", uint16(c.suite.ID))
	}
	if c.serverHello.compression != 0 {
		return badMessage("handshake: server chose compression method %d, which the client did not offer", c.serverHello.compression)
	}

	// Resumption: the server echoes our offered session id.
	if c.cfg.Session != nil && len(c.cfg.Session.ID) > 0 &&
		bytes.Equal(c.serverHello.sessionID, c.cfg.Session.ID) {
		c.resumed = true
		c.master = append([]byte(nil), c.cfg.Session.Master...)
		if c.suite.ID != c.cfg.Session.Suite {
			return badMessage("handshake: resumed session changed cipher suite")
		}
		if c.cfg.Session.Version != 0 && c.cfg.Session.Version != c.version {
			return probe.Failf(probe.FailVersionMismatch, "handshake: resumed session changed protocol version")
		}
	}
	c.plan = planFor(c.resumed, c.suite)
	return nil
}

func (c *clientState) readCertificate(raw []byte) error {
	var certMsg certificateMsg
	if err := certMsg.unmarshal(raw[4:]); err != nil {
		return err
	}
	c.fin.Write(raw)
	cert, err := x509lite.Parse(certMsg.certificates[0])
	if err != nil {
		return probe.Fail(probe.FailCertVerify, err)
	}
	if err := c.verifyCert(cert, certMsg.certificates[1:]); err != nil {
		return err
	}
	c.cert = cert
	return nil
}

// readServerKeyExchange takes a DHE suite's signed ephemeral
// parameters, sent before ServerHelloDone.
func (c *clientState) readServerKeyExchange(raw []byte) error {
	ske := &serverKeyExchangeMsg{}
	if err := ske.unmarshal(raw[4:]); err != nil {
		return err
	}
	c.fin.Write(raw)
	digest := skeDigest(c.clientRandom[:], c.serverHello.random[:], ske.paramBytes())
	if err := c.cert.PublicKey.VerifyPKCS1(rsa.HashMD5SHA1, digest, ske.sig); err != nil {
		return probe.Failf(probe.FailCertVerify, "handshake: ServerKeyExchange signature: %w", err)
	}
	c.ske = ske
	return nil
}

// readServerDone takes ServerHelloDone (certificate request is not
// sent: clients are not authenticated, as in the paper's setup).
func (c *clientState) readServerDone(raw []byte) error {
	c.fin.Write(raw)
	return nil
}

// sendKeyExchange builds and sends the ClientKeyExchange and derives
// the master secret.
func (c *clientState) sendKeyExchange([]byte) error {
	var preMaster []byte
	var rawCkx []byte
	if c.suite.Kx == suite.KxDHERSA {
		params := &dh.Params{P: newIntFromBytes(c.ske.p), G: newIntFromBytes(c.ske.g)}
		if err := params.Validate(); err != nil {
			return probe.Fail(probe.FailBadMessage, err)
		}
		key, err := dh.GenerateKey(c.rand, params)
		if err != nil {
			return err
		}
		preMaster, err = key.SharedSecret(newIntFromBytes(c.ske.y))
		if err != nil {
			return probe.Fail(probe.FailBadMessage, err)
		}
		key.Cleanse()
		ckx := clientDHPublicMsg{y: key.Y.Bytes()}
		rawCkx = ckx.marshal()
	} else {
		// RSA: encrypt a fresh pre-master prefixed with the OFFERED
		// version (the rollback check of SSLv3 §5.6.7).
		preMaster = make([]byte, sslcrypto.PreMasterLen)
		preMaster[0] = byte(c.cfg.offeredVersion() >> 8)
		preMaster[1] = byte(c.cfg.offeredVersion())
		if _, err := io.ReadFull(c.rand, preMaster[2:]); err != nil { // lint:allow-read — randomness source, not the transport
			return err
		}
		encrypted, err := c.cert.PublicKey.EncryptPKCS1(c.rand, preMaster)
		if err != nil {
			if c.cert.PublicKey.Size() < sslcrypto.PreMasterLen+11 {
				// The certificate's modulus cannot carry a pre-master.
				err = probe.Fail(probe.FailCertVerify, err)
			}
			return err
		}
		if c.version >= record.VersionTLS10 {
			// TLS wraps the ciphertext in a 2-byte length.
			rawCkx = marshalMsg(typeClientKeyExchange, appendOpaque16(nil, encrypted))
		} else {
			ckx := clientKeyExchangeMsg{encryptedPreMaster: encrypted}
			rawCkx = ckx.marshal()
		}
	}
	c.fin.Write(rawCkx)
	if err := c.conn.WriteRecord(record.TypeHandshake, rawCkx); err != nil {
		return err
	}

	c.master = deriveMaster(c.version, preMaster, c.clientRandom[:], c.serverHello.random[:])
	for i := range preMaster {
		preMaster[i] = 0
	}
	return nil
}

// keyBlock derives and slices the key block from the master secret.
func (c *clientState) keyBlock([]byte) error {
	c.keys = sliceKeyBlock(c.version, c.suite, c.master, c.clientRandom[:], c.serverHello.random[:])
	return nil
}

// prepareFinished installs the read state once the server's CCS is
// in and precomputes the expected server finished hashes.
func (c *clientState) prepareFinished([]byte) error {
	if err := armRead(c.version, c.conn, c.suite, c.keys.serverKey, c.keys.serverIV, c.keys.serverMAC); err != nil {
		return err
	}
	c.expected = verifyDataFor(c.version, c.fin, false, c.master)
	return nil
}

// verifyCert validates the leaf and, when intermediates are present,
// walks the chain: leaf signed by intermediates[0], each intermediate
// signed by the next, the last signed by the trusted root.
func (c *clientState) verifyCert(cert *x509lite.Certificate, intermediates [][]byte) error {
	if c.cfg.InsecureSkipVerify {
		return nil
	}
	now := c.cfg.now()
	if !cert.ValidAt(now) {
		return probe.Failf(probe.FailCertVerify, "handshake: server certificate expired or not yet valid")
	}
	if c.cfg.ServerName != "" && cert.SubjectCN != c.cfg.ServerName {
		return probe.Failf(probe.FailCertVerify, "handshake: certificate CN %q does not match %q",
			cert.SubjectCN, c.cfg.ServerName)
	}
	if c.cfg.RootCert == nil {
		if err := cert.CheckSignature(cert.PublicKey); err != nil {
			return probe.Failf(probe.FailCertVerify, "handshake: self-signed certificate: %w", err)
		}
		return nil
	}
	current := cert
	for i, der := range intermediates {
		inter, err := x509lite.Parse(der)
		if err != nil {
			return probe.Failf(probe.FailCertVerify, "handshake: intermediate %d: %w", i, err)
		}
		if !inter.ValidAt(now) {
			return probe.Failf(probe.FailCertVerify, "handshake: intermediate %d expired", i)
		}
		if err := current.CheckSignatureFrom(inter); err != nil {
			return probe.Failf(probe.FailCertVerify, "handshake: chain link %d: %w", i, err)
		}
		current = inter
	}
	return probe.Fail(probe.FailCertVerify, current.CheckSignatureFrom(c.cfg.RootCert))
}

func (c *clientState) sendCCSAndFinished([]byte) error {
	if err := c.conn.WriteRecord(record.TypeChangeCipherSpec, []byte{1}); err != nil {
		return err
	}
	if err := armWrite(c.version, c.conn, c.suite, c.keys.clientKey, c.keys.clientIV, c.keys.clientMAC); err != nil {
		return err
	}
	verify := verifyDataFor(c.version, c.fin, true, c.master)
	msg := finishedMsg{verify: verify}
	raw := msg.marshal()
	c.fin.Write(raw)
	return c.conn.WriteRecord(record.TypeHandshake, raw)
}

// verifyServerFinished compares the server Finished to the hashes
// prepareFinished precomputed.
func (c *clientState) verifyServerFinished(raw []byte) error {
	var fin finishedMsg
	if err := fin.unmarshal(raw[4:], finishedLenFor(c.version)); err != nil {
		return err
	}
	if !bytes.Equal(fin.verify, c.expected) {
		return probe.Failf(probe.FailFinishedVerify, "handshake: server finished verification failed")
	}
	c.fin.Write(raw)
	return nil
}
