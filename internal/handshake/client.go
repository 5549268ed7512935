package handshake

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"sslperf/internal/dh"
	"sslperf/internal/record"
	"sslperf/internal/rsa"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/suite"
	"sslperf/internal/x509lite"
)

// ClientConfig holds the client-side handshake parameters.
type ClientConfig struct {
	Rand   io.Reader
	Suites []suite.ID // offered suites in preference order; nil = all
	Time   func() time.Time

	// Version is the protocol version to offer: record.VersionSSL30
	// (the default, the paper's protocol) or record.VersionTLS10.
	Version uint16

	// Session, when non-nil, is offered for resumption.
	Session *Session

	// RootCert, when non-nil, must have signed the server's
	// certificate. When nil together with InsecureSkipVerify=false,
	// the server certificate must be self-signed and valid.
	RootCert *x509lite.Certificate

	// InsecureSkipVerify disables certificate validation (the
	// standalone-measurement configuration).
	InsecureSkipVerify bool

	// ServerName, when set, must match the certificate subject CN.
	ServerName string
}

func (c *ClientConfig) version() uint16 {
	if c.Version == 0 {
		return record.VersionSSL30
	}
	return c.Version
}

func (c *ClientConfig) now() time.Time {
	if c.Time != nil {
		return c.Time()
	}
	return time.Now() // lint:allow-clock — config default, not a hot-path stamp
}

func (c *ClientConfig) offered() []suite.ID {
	if c.Suites != nil {
		return c.Suites
	}
	all := suite.All()
	out := make([]suite.ID, len(all))
	for i, s := range all {
		out[i] = s.ID
	}
	return out
}

// cliPhase enumerates the client FSM's resumable states; the same
// one-suspension-point discipline as srvPhase applies (the only read
// is at a phase's head, so re-entry after WouldBlock repeats no
// work).
type cliPhase int

const (
	cliSendHello cliPhase = iota
	cliServerHello
	cliCertificate
	cliPostCert
	cliServerDone
	cliSendKX
	cliResumedKeys
	cliServerCCS
	cliServerFinished
	cliSendFinal
	cliDone
)

// ClientFSM is the resumable client handshake, leaving its record
// conn armed with the negotiated bulk cipher in both directions; see
// ServerFSM for the Step contract (ErrWouldBlock / nil / sticky
// terminal error with a queued fatal alert).
type ClientFSM struct {
	c *clientState
}

// NewClientFSM validates the configuration, returning a machine
// parked before the ClientHello.
func NewClientFSM(conn RecordConn, cfg *ClientConfig) (*ClientFSM, error) {
	if cfg.Rand == nil {
		return nil, errors.New("handshake: client needs a randomness source")
	}
	// A client must take the server's certificate chain, which can span
	// many records.
	c := &clientState{conn: conn, cfg: cfg, msgs: newMsgReader(conn, 1<<20)}
	return &ClientFSM{c: c}, nil
}

// Step advances the machine; see ServerFSM.Step.
func (f *ClientFSM) Step() error { return f.c.step() }

// Done reports whether the handshake completed successfully.
func (f *ClientFSM) Done() bool { return f.c.phase == cliDone && f.c.err == nil }

// Result returns the completed handshake's outcome, or nil before
// Done.
func (f *ClientFSM) Result() *Result { return f.c.res }

type clientState struct {
	conn RecordConn
	cfg  *ClientConfig
	msgs *msgReader

	phase cliPhase
	err   error // sticky terminal error
	res   *Result

	fin          *sslcrypto.FinishedHash
	version      uint16
	clientRandom [RandomLen]byte
	serverHello  serverHelloMsg
	suite        *suite.Suite
	master       []byte
	keys         connKeys
	resumed      bool

	// cert is the parsed server leaf; ske the DHE parameters — both
	// carried across phases (the key exchange needs them after the
	// reads that produced them).
	cert *x509lite.Certificate
	ske  *serverKeyExchangeMsg

	// expected is the precomputed server finished verify data (the
	// same resume-without-repeating-crypto split as the server's).
	expected []byte
}

// step is the FSM driver. The client has no probe bus (only the
// server side is the paper's measured party), so the driver is the
// bare phase loop.
func (c *clientState) step() error {
	if c.err != nil {
		return c.err
	}
	if c.phase == cliDone {
		return nil
	}
	for {
		err := c.runPhase()
		if err == ErrWouldBlock {
			return err
		}
		if err != nil {
			c.err = err
			// Best effort: tell the peer before failing.
			c.conn.WriteRecord(record.TypeAlert, []byte{record.AlertLevelFatal, record.AlertHandshakeFailure})
			return err
		}
		if c.phase == cliDone {
			return nil
		}
	}
}

// runPhase executes the current phase's slice of work, advancing
// c.phase on success.
func (c *clientState) runPhase() error {
	switch c.phase {
	case cliSendHello:
		if err := c.sendHello(); err != nil {
			return err
		}
		c.phase = cliServerHello

	case cliServerHello:
		if err := c.readServerHello(); err != nil {
			return err
		}
		if c.resumed {
			c.phase = cliResumedKeys
		} else {
			c.phase = cliCertificate
		}

	case cliCertificate:
		if err := c.readCertificate(); err != nil {
			return err
		}
		c.phase = cliPostCert

	case cliPostCert:
		// For DHE suites the server sends its signed ephemeral
		// parameters before ServerHelloDone; for RSA suites the next
		// message is ServerHelloDone itself.
		msgType, raw, err := c.msgs.next()
		if err != nil {
			return err
		}
		if c.suite.Kx == suite.KxDHERSA {
			if err := c.readServerKeyExchange(msgType, raw); err != nil {
				return err
			}
			c.phase = cliServerDone
		} else {
			if err := c.readServerDone(msgType, raw); err != nil {
				return err
			}
			c.phase = cliSendKX
		}

	case cliServerDone:
		msgType, raw, err := c.msgs.next()
		if err != nil {
			return err
		}
		if err := c.readServerDone(msgType, raw); err != nil {
			return err
		}
		c.phase = cliSendKX

	case cliSendKX:
		// ClientKeyExchange, then CCS + client Finished under the new
		// keys — all writes, no suspension point.
		if err := c.sendKeyExchange(); err != nil {
			return err
		}
		if err := c.sendCCSAndFinished(); err != nil {
			return err
		}
		c.phase = cliServerCCS

	case cliResumedKeys:
		c.keys = sliceKeyBlock(c.version, c.suite, c.master, c.clientRandom[:], c.serverHello.random[:])
		c.phase = cliServerCCS

	case cliServerCCS:
		// Server CCS: arm the read state and precompute the expected
		// server finished hashes.
		if err := c.msgs.readCCS(); err != nil {
			return err
		}
		if err := armRead(c.version, c.conn, c.suite, c.keys.serverKey, c.keys.serverIV, c.keys.serverMAC); err != nil {
			return err
		}
		c.expected = verifyDataFor(c.version, c.fin, false, c.master)
		c.phase = cliServerFinished

	case cliServerFinished:
		if err := c.verifyServerFinished(); err != nil {
			return err
		}
		if c.resumed {
			// Resumed sessions respond with the client's CCS+Finished
			// after the server's.
			c.phase = cliSendFinal
		} else {
			c.finish()
			c.phase = cliDone
		}

	case cliSendFinal:
		if err := c.sendCCSAndFinished(); err != nil {
			return err
		}
		c.finish()
		c.phase = cliDone
	}
	return nil
}

// finish records the completed handshake's outcome.
func (c *clientState) finish() {
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
}

// sendHello builds and sends the ClientHello. The record layer stays
// flexible until the ServerHello pins the negotiated version.
func (c *clientState) sendHello() error {
	c.fin = sslcrypto.NewFinishedHash()
	hello := clientHelloMsg{
		version:      c.cfg.version(),
		cipherSuites: c.cfg.offered(),
		compressions: []byte{0},
	}
	if err := fillRandom(c.cfg.Rand, c.clientRandom[:], c.cfg.now()); err != nil {
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

func (c *clientState) readServerHello() error {
	msgType, raw, err := c.msgs.next()
	if err != nil {
		return err
	}
	if msgType != typeServerHello {
		return fmt.Errorf("handshake: expected ServerHello, got type %d", msgType)
	}
	if err := c.serverHello.unmarshal(raw[4:]); err != nil {
		return err
	}
	c.fin.Write(raw)
	offered := c.cfg.version()
	if c.serverHello.version < record.VersionSSL30 || c.serverHello.version > offered {
		return fmt.Errorf("handshake: server version %#04x", c.serverHello.version)
	}
	c.version = c.serverHello.version
	c.conn.SetProtocolVersion(c.version)
	if c.suite, err = suite.ByID(c.serverHello.cipherSuite); err != nil {
		return err
	}

	// Resumption: the server echoes our offered session id.
	if c.cfg.Session != nil && len(c.cfg.Session.ID) > 0 &&
		bytes.Equal(c.serverHello.sessionID, c.cfg.Session.ID) {
		c.resumed = true
		c.master = append([]byte(nil), c.cfg.Session.Master...)
		if c.suite.ID != c.cfg.Session.Suite {
			return errors.New("handshake: resumed session changed cipher suite")
		}
		if c.cfg.Session.Version != 0 && c.cfg.Session.Version != c.version {
			return errors.New("handshake: resumed session changed protocol version")
		}
	}
	return nil
}

func (c *clientState) readCertificate() error {
	msgType, raw, err := c.msgs.next()
	if err != nil {
		return err
	}
	if msgType != typeCertificate {
		return fmt.Errorf("handshake: expected Certificate, got type %d", msgType)
	}
	var certMsg certificateMsg
	if err := certMsg.unmarshal(raw[4:]); err != nil {
		return err
	}
	c.fin.Write(raw)
	cert, err := x509lite.Parse(certMsg.certificates[0])
	if err != nil {
		return err
	}
	if err := c.verifyCert(cert, certMsg.certificates[1:]); err != nil {
		return err
	}
	c.cert = cert
	return nil
}

func (c *clientState) readServerKeyExchange(msgType byte, raw []byte) error {
	if msgType != typeServerKeyExchange {
		return fmt.Errorf("handshake: expected ServerKeyExchange, got type %d", msgType)
	}
	ske := &serverKeyExchangeMsg{}
	if err := ske.unmarshal(raw[4:]); err != nil {
		return err
	}
	c.fin.Write(raw)
	digest := skeDigest(c.clientRandom[:], c.serverHello.random[:], ske.paramBytes())
	if err := c.cert.PublicKey.VerifyPKCS1(rsa.HashMD5SHA1, digest, ske.sig); err != nil {
		return fmt.Errorf("handshake: ServerKeyExchange signature: %w", err)
	}
	c.ske = ske
	return nil
}

func (c *clientState) readServerDone(msgType byte, raw []byte) error {
	// ServerHelloDone (certificate request is not sent: clients are
	// not authenticated, as in the paper's setup).
	if msgType != typeServerHelloDone {
		return fmt.Errorf("handshake: expected ServerHelloDone, got type %d", msgType)
	}
	c.fin.Write(raw)
	return nil
}

// sendKeyExchange builds and sends the ClientKeyExchange and derives
// the master secret and key block.
func (c *clientState) sendKeyExchange() error {
	var preMaster []byte
	var rawCkx []byte
	if c.suite.Kx == suite.KxDHERSA {
		params := &dh.Params{P: newIntFromBytes(c.ske.p), G: newIntFromBytes(c.ske.g)}
		key, err := dh.GenerateKey(c.cfg.Rand, params)
		if err != nil {
			return err
		}
		preMaster, err = key.SharedSecret(newIntFromBytes(c.ske.y))
		if err != nil {
			return err
		}
		key.Cleanse()
		ckx := clientDHPublicMsg{y: key.Y.Bytes()}
		rawCkx = ckx.marshal()
	} else {
		// RSA: encrypt a fresh pre-master prefixed with the OFFERED
		// version (the rollback check of SSLv3 §5.6.7).
		preMaster = make([]byte, sslcrypto.PreMasterLen)
		preMaster[0] = byte(c.cfg.version() >> 8)
		preMaster[1] = byte(c.cfg.version())
		if _, err := io.ReadFull(c.cfg.Rand, preMaster[2:]); err != nil { // lint:allow-read — randomness source, not the transport
			return err
		}
		encrypted, err := c.cert.PublicKey.EncryptPKCS1(c.cfg.Rand, preMaster)
		if err != nil {
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
	c.keys = sliceKeyBlock(c.version, c.suite, c.master, c.clientRandom[:], c.serverHello.random[:])
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
		return errors.New("handshake: server certificate expired or not yet valid")
	}
	if c.cfg.ServerName != "" && cert.SubjectCN != c.cfg.ServerName {
		return fmt.Errorf("handshake: certificate CN %q does not match %q",
			cert.SubjectCN, c.cfg.ServerName)
	}
	if c.cfg.RootCert == nil {
		return cert.CheckSignature(cert.PublicKey) // self-signed
	}
	current := cert
	for i, der := range intermediates {
		inter, err := x509lite.Parse(der)
		if err != nil {
			return fmt.Errorf("handshake: intermediate %d: %w", i, err)
		}
		if !inter.ValidAt(now) {
			return fmt.Errorf("handshake: intermediate %d expired", i)
		}
		if err := current.CheckSignatureFrom(inter); err != nil {
			return fmt.Errorf("handshake: chain link %d: %w", i, err)
		}
		current = inter
	}
	return current.CheckSignatureFrom(c.cfg.RootCert)
}

func (c *clientState) sendCCSAndFinished() error {
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

// verifyServerFinished reads the server Finished and compares it to
// the hashes cliServerCCS precomputed.
func (c *clientState) verifyServerFinished() error {
	msgType, raw, err := c.msgs.next()
	if err != nil {
		return err
	}
	if msgType != typeFinished {
		return fmt.Errorf("handshake: expected Finished, got type %d", msgType)
	}
	var fin finishedMsg
	if err := fin.unmarshal(raw[4:], finishedLenFor(c.version)); err != nil {
		return err
	}
	if !bytes.Equal(fin.verify, c.expected) {
		return errors.New("handshake: server finished verification failed")
	}
	c.fin.Write(raw)
	return nil
}
