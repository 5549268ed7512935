package handshake

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"sslperf/internal/dh"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/rsa"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/suite"
)

// ServerConfig holds the server-side handshake parameters.
type ServerConfig struct {
	Key *rsa.PrivateKey // server RSA key (decrypts the CKE, signs DHE params)
	// Decrypter, when non-nil, handles the ClientKeyExchange
	// decryption instead of Key — the hook the batch RSA engine plugs
	// into. Key is still required for DHE signing; for RSA key
	// exchange a Decrypter alone suffices.
	Decrypter rsa.Decrypter
	CertDER   []byte // DER leaf certificate presented to clients
	// Chain holds intermediate certificates (leaf's issuer first),
	// sent after the leaf in the Certificate message.
	Chain  [][]byte
	Rand   io.Reader     // randomness source
	Cache  *SessionCache // optional: enables session resumption
	Suites []suite.ID    // acceptable suites in preference order; nil = all
	Time   func() time.Time
	// DHParams is the group for DHE suites; defaults to the 1024-bit
	// Oakley group 2.
	DHParams *dh.Params
	// MaxVersion caps the negotiated protocol version; 0 means
	// TLS 1.0 (the server speaks both SSL 3.0 and TLS 1.0).
	MaxVersion uint16
	// Probe, when non-nil, is the instrumentation bus the handshake
	// emits step/crypto events on. The ssl package passes the
	// connection's bus (already carrying its sinks); direct callers
	// can pass their own or rely on the a parameter of Server.
	Probe *probe.Bus
}

func (c *ServerConfig) maxVersion() uint16 {
	if c.MaxVersion == 0 {
		return record.VersionTLS10
	}
	return c.MaxVersion
}

func (c *ServerConfig) dhParams() *dh.Params {
	if c.DHParams != nil {
		return c.DHParams
	}
	return dh.Group1024()
}

func (c *ServerConfig) now() time.Time {
	if c.Time != nil {
		return c.Time()
	}
	return time.Now() // lint:allow-clock — config default, not a hot-path stamp
}

// Result reports the outcome of a completed handshake.
type Result struct {
	Suite   *suite.Suite
	Session *Session
	Resumed bool
}

// srvPhase enumerates the server FSM's resumable states. Each phase
// is one uninterruptible slice of work whose only suspension point is
// its leading read: a phase either returns ErrWouldBlock having done
// nothing but buffer partial records (safe to re-enter), or runs to
// completion exactly once — so crypto probe events are never emitted
// twice however often a phase resumes.
type srvPhase int

const (
	srvInit srvPhase = iota
	srvClientHello
	srvServerHello
	srvCert
	srvServerKX
	srvServerDone
	srvClientKX
	srvClientCCS
	srvClientFinished
	srvSendCCS
	srvSendFinished
	srvResumedKeyBlock
	srvResumedCCS
	srvResumedFinished
	srvResumedClientCCS
	srvResumedClientFin
	srvFlush
	srvDone
)

// probeStep maps each phase onto its Table-2 step. Adjacent phases
// sharing a step (the CCS-read and finished-verify halves of
// get_finished) stay inside one StepEnter/StepExit pair, and the bus
// suspends rather than exits across WouldBlock, so sinks see exactly
// the event stream the straight-line FSM emitted.
func (p srvPhase) probeStep() probe.Step {
	switch p {
	case srvInit:
		return probe.StepInit
	case srvClientHello:
		return probe.StepGetClientHello
	case srvServerHello:
		return probe.StepSendServerHello
	case srvCert:
		return probe.StepSendServerCert
	case srvServerKX:
		return probe.StepSendServerKX
	case srvServerDone:
		return probe.StepSendServerDone
	case srvClientKX:
		return probe.StepGetClientKX
	case srvClientCCS, srvClientFinished:
		return probe.StepGetFinished
	case srvSendCCS:
		return probe.StepSendCipherSpec
	case srvSendFinished:
		return probe.StepSendFinished
	case srvResumedKeyBlock:
		return probe.StepGenKeyBlock
	case srvResumedCCS:
		return probe.StepSendCipherSpec
	case srvResumedFinished:
		return probe.StepSendFinished
	case srvResumedClientCCS, srvResumedClientFin:
		return probe.StepGetFinished
	case srvFlush:
		return probe.StepServerFlush
	}
	return probe.StepNone
}

// ServerFSM is the resumable server handshake: one Step call advances
// through as many phases as the fed bytes allow, returning
// ErrWouldBlock when the peer's next flight has not arrived (feed the
// record core and call Step again), nil when the handshake is
// complete, or a terminal error (after which a fatal alert has been
// queued on the record connection and further Steps return the same
// error). Over a *record.Layer the reads park in the transport
// instead, so a single Step runs the machine to completion — blocking
// and non-blocking handshakes share every line of FSM code and are
// wire-identical by construction. Either way the record conn is left
// armed with the negotiated bulk cipher in both directions.
type ServerFSM struct {
	s *serverState
}

// NewServerFSM validates the configuration and wires the probe spine,
// returning a machine parked before step 0. When a is non-nil it
// records the Table 2 step/crypto anatomy (it joins cfg.Probe's
// sinks, if any). The record conn's probe bus is pointed at the same
// bus when not already set, so the record-layer work of the encrypted
// finished messages lands on the same spine; it stays attached after
// the handshake (bulk-phase events carry StepNone and the anatomy
// ignores them).
func NewServerFSM(conn RecordConn, cfg *ServerConfig, a *Anatomy) (*ServerFSM, error) {
	if (cfg.Key == nil && cfg.Decrypter == nil) || len(cfg.CertDER) == 0 {
		return nil, errors.New("handshake: server needs a key and certificate")
	}
	if cfg.Rand == nil {
		return nil, errors.New("handshake: server needs a randomness source")
	}
	bus := cfg.Probe
	if a != nil {
		bus = bus.With(a)
	}
	if conn.ProbeBus() == nil || conn.ProbeBus() == cfg.Probe {
		conn.SetProbe(bus)
	}
	// A server reads nothing larger than a ClientHello or a
	// ClientKeyExchange; one record's worth is already generous.
	s := &serverState{conn: conn, cfg: cfg, bus: bus, msgs: newMsgReader(conn, record.MaxFragment)}
	return &ServerFSM{s: s}, nil
}

// Step advances the machine; see ServerFSM.
func (f *ServerFSM) Step() error { return f.s.step() }

// Done reports whether the handshake completed successfully.
func (f *ServerFSM) Done() bool { return f.s.phase == srvDone && f.s.err == nil }

// Result returns the completed handshake's outcome, or nil before
// Done.
func (f *ServerFSM) Result() *Result { return f.s.res }

type serverState struct {
	conn RecordConn
	cfg  *ServerConfig
	bus  *probe.Bus
	msgs *msgReader

	phase    srvPhase
	openStep probe.Step // probe step currently entered (StepNone between steps)
	err      error      // sticky terminal error
	res      *Result

	fin          *sslcrypto.FinishedHash
	version      uint16
	clientHello  clientHelloMsg
	serverRandom [RandomLen]byte
	sessionID    []byte
	suite        *suite.Suite
	master       []byte
	keys         connKeys
	resumed      bool

	// expected is the precomputed client finished verify data: the
	// final_finish_mac runs in the CCS phase (exactly once), so the
	// finished-verify phase can resume across WouldBlock without
	// re-emitting the crypto event.
	expected []byte

	// Pending connection states, built during gen_key_block (as
	// OpenSSL's ssl3_change_cipher_state does) and installed when
	// the ChangeCipherSpec messages fly.
	inCipher, outCipher suite.RecordCipher
	inMAC, outMAC       *sslcrypto.MAC

	// dhKey is the server's ephemeral key for DHE suites.
	dhKey *dh.KeyPair
}

// buildCipherStates derives the key block and constructs both
// directions' cipher and MAC objects — the full gen_key_block work.
func (s *serverState) buildCipherStates() error {
	s.conn.SetPrimitives(s.suite.CipherAlgo, s.suite.MAC.String())
	s.keys = sliceKeyBlock(s.version, s.suite, s.master, s.clientHello.random[:], s.serverRandom[:])
	var err error
	if s.inCipher, err = s.suite.NewCipher(s.keys.clientKey, s.keys.clientIV, false); err != nil {
		return err
	}
	if s.inMAC, err = newVersionMAC(s.version, s.suite, s.keys.clientMAC); err != nil {
		return err
	}
	if s.outCipher, err = s.suite.NewCipher(s.keys.serverKey, s.keys.serverIV, true); err != nil {
		return err
	}
	s.outMAC, err = newVersionMAC(s.version, s.suite, s.keys.serverMAC)
	return err
}

// step is the FSM driver: it opens/closes probe steps at phase
// boundaries, suspends the step clock across WouldBlock, and turns a
// terminal error into a queued fatal alert.
func (s *serverState) step() error {
	if s.err != nil {
		return s.err
	}
	if s.phase == srvDone {
		return nil
	}
	// Re-entry after WouldBlock: restart the suspended step's clock
	// (a no-op on first entry or a nil bus).
	s.bus.StepResume()
	for {
		if st := s.phase.probeStep(); st != s.openStep {
			// StepEnter closes the previous step first, so sinks see
			// the same Exit-then-Enter stream the straight-line code
			// emitted.
			s.bus.StepEnter(st)
			s.openStep = st
		}
		err := s.runPhase()
		if err == ErrWouldBlock {
			s.bus.StepSuspend()
			return err
		}
		if err != nil {
			s.bus.StepExit()
			s.openStep = probe.StepNone
			s.err = err
			// Best effort: tell the peer before failing. Over a
			// sans-IO core this queues the alert for the caller's
			// flush.
			s.conn.WriteRecord(record.TypeAlert, []byte{record.AlertLevelFatal, record.AlertHandshakeFailure})
			return err
		}
		if s.phase == srvDone {
			s.bus.StepExit()
			s.openStep = probe.StepNone
			return nil
		}
	}
}

// runPhase executes the current phase's slice of work, advancing
// s.phase on success.
func (s *serverState) runPhase() error {
	switch s.phase {
	case srvInit:
		// Step 0: init — internal data structures and the transcript
		// hashes (init_finished_mac).
		s.bus.Crypto(FnInitFinishedMac, func() { s.fin = sslcrypto.NewFinishedHash() })
		s.phase = srvClientHello

	case srvClientHello:
		// Step 1: get_client_hello — check version, get client random
		// and session-id, choose a cipher, generate a new session id.
		if err := s.getClientHello(); err != nil {
			return err
		}
		s.phase = srvServerHello

	case srvServerHello:
		// Step 2: send_server_hello.
		if err := s.sendServerHello(); err != nil {
			return err
		}
		if s.resumed {
			s.phase = srvResumedKeyBlock
		} else {
			s.phase = srvCert
		}

	case srvCert:
		// Step 3: send_server_cert. (For RSA suites the server key
		// exchange and certificate request messages are skipped, as in
		// the paper: the certificate's RSA key does the key exchange
		// and clients are not authenticated. DHE suites send the
		// signed ephemeral parameters right after the certificate.)
		if err := s.sendCertificate(); err != nil {
			return err
		}
		if s.suite.Kx == suite.KxDHERSA {
			s.phase = srvServerKX
		} else {
			s.phase = srvServerDone
		}

	case srvServerKX:
		if err := s.sendServerKeyExchange(); err != nil {
			return err
		}
		s.phase = srvServerDone

	case srvServerDone:
		// Step 4: send_server_done + buffer control.
		done := serverHelloDone()
		s.bus.Crypto(FnFinishMac, func() { s.fin.Write(done) })
		if err := s.conn.WriteRecord(record.TypeHandshake, done); err != nil {
			return err
		}
		s.phase = srvClientKX

	case srvClientKX:
		// Step 5: get_client_kx — RSA-decrypt the pre-master, derive
		// the master secret.
		if err := s.getClientKeyExchange(); err != nil {
			return err
		}
		s.phase = srvClientCCS

	case srvClientCCS:
		// Step 6, first half: read the client ChangeCipherSpec,
		// generate the key block, arm the read state, and precompute
		// the expected client finished hashes.
		if err := s.msgs.readCCS(); err != nil {
			return err
		}
		if err := s.bus.CryptoErr(FnGenKeyBlock, s.buildCipherStates); err != nil {
			return err
		}
		s.conn.SetReadState(s.inCipher, s.inMAC)
		s.bus.Crypto(FnFinalFinishMac, func() {
			s.expected = verifyDataFor(s.version, s.fin, true, s.master)
		})
		s.phase = srvClientFinished

	case srvClientFinished:
		// Step 6, second half: verify the (first encrypted) client
		// finished message.
		if err := s.verifyClientFinished(); err != nil {
			return err
		}
		s.phase = srvSendCCS

	case srvSendCCS:
		// Step 7: send_cipher_spec.
		if err := s.sendCCS(); err != nil {
			return err
		}
		s.phase = srvSendFinished

	case srvSendFinished:
		// Step 8: send_finished — server finished hashes with 'SRVR'
		// padding, MACed and encrypted under the new keys.
		if err := s.sendFinished(); err != nil {
			return err
		}
		s.phase = srvFlush

	case srvResumedKeyBlock:
		if err := s.bus.CryptoErr(FnGenKeyBlock, s.buildCipherStates); err != nil {
			return err
		}
		s.phase = srvResumedCCS

	case srvResumedCCS:
		if err := s.sendCCS(); err != nil {
			return err
		}
		s.phase = srvResumedFinished

	case srvResumedFinished:
		if err := s.sendFinished(); err != nil {
			return err
		}
		s.phase = srvResumedClientCCS

	case srvResumedClientCCS:
		if err := s.msgs.readCCS(); err != nil {
			return err
		}
		s.conn.SetReadState(s.inCipher, s.inMAC)
		s.bus.Crypto(FnFinalFinishMac, func() {
			s.expected = verifyDataFor(s.version, s.fin, true, s.master)
		})
		s.phase = srvResumedClientFin

	case srvResumedClientFin:
		if err := s.verifyClientFinished(); err != nil {
			return err
		}
		s.phase = srvFlush

	case srvFlush:
		// Step 9: server_flush — scrub and cache.
		if s.cfg.Cache != nil && len(s.sessionID) > 0 {
			s.cfg.Cache.Put(&Session{
				ID:      append([]byte(nil), s.sessionID...),
				Suite:   s.suite.ID,
				Master:  append([]byte(nil), s.master...),
				Version: s.version,
			})
		}
		s.res = &Result{
			Suite:   s.suite,
			Resumed: s.resumed,
			Session: &Session{
				ID: s.sessionID, Suite: s.suite.ID,
				Master: s.master, Version: s.version,
			},
		}
		s.phase = srvDone
	}
	return nil
}

func (s *serverState) getClientHello() error {
	msgType, raw, err := s.msgs.next()
	if err != nil {
		return err
	}
	if msgType != typeClientHello {
		return fmt.Errorf("handshake: expected ClientHello, got type %d", msgType)
	}
	if err := s.clientHello.unmarshal(raw[4:]); err != nil {
		return err
	}
	if s.clientHello.version < record.VersionSSL30 {
		return fmt.Errorf("handshake: client version %#04x too old", s.clientHello.version)
	}
	s.version = s.clientHello.version
	if max := s.cfg.maxVersion(); s.version > max {
		s.version = max
	}
	s.conn.SetProtocolVersion(s.version)
	// Absorb into the transcript (finish_mac).
	s.bus.Crypto(FnFinishMac, func() { s.fin.Write(raw) })

	// Resumption probe.
	if s.cfg.Cache != nil && len(s.clientHello.sessionID) > 0 {
		if sess := s.cfg.Cache.Get(s.clientHello.sessionID); sess != nil && sess.Version == s.version {
			if sessSuite, err := suite.ByID(sess.Suite); err == nil && s.offered(sess.Suite) {
				s.resumed = true
				s.suite = sessSuite
				s.sessionID = append([]byte(nil), sess.ID...)
				s.master = append([]byte(nil), sess.Master...)
			}
		}
	}
	if s.resumed {
		return nil
	}

	// Choose a cipher from the offered list, honoring cfg.Suites.
	offered := s.clientHello.cipherSuites
	if s.cfg.Suites != nil {
		var filtered []suite.ID
		for _, want := range s.cfg.Suites {
			for _, got := range offered {
				if want == got {
					filtered = append(filtered, want)
				}
			}
		}
		offered = filtered
	}
	chosen, err := suite.Choose(offered)
	if err != nil {
		return err
	}
	s.suite = chosen

	// Generate a fresh session id (rand_pseudo_bytes).
	s.sessionID = make([]byte, SessionIDLen)
	return s.bus.CryptoErr(FnRandPseudoBytes, func() error {
		_, err := io.ReadFull(s.cfg.Rand, s.sessionID) // lint:allow-read — randomness source, not the transport
		return err
	})
}

// offered reports whether the client offered the given suite.
func (s *serverState) offered(id suite.ID) bool {
	for _, cs := range s.clientHello.cipherSuites {
		if cs == id {
			return true
		}
	}
	return false
}

func (s *serverState) sendServerHello() error {
	if err := s.bus.CryptoErr(FnRandPseudoBytes, func() error {
		return fillRandom(s.cfg.Rand, s.serverRandom[:], s.cfg.now())
	}); err != nil {
		return err
	}
	hello := serverHelloMsg{
		version:     s.version,
		sessionID:   s.sessionID,
		cipherSuite: s.suite.ID,
	}
	hello.random = s.serverRandom
	raw := hello.marshal()
	s.bus.Crypto(FnFinishMac, func() { s.fin.Write(raw) })
	return s.conn.WriteRecord(record.TypeHandshake, raw)
}

func (s *serverState) sendCertificate() error {
	var raw []byte
	// Building the certificate message is the "X509 functions" cost
	// of Table 2 step 3.
	s.bus.Crypto(FnX509, func() {
		certs := append([][]byte{s.cfg.CertDER}, s.cfg.Chain...)
		msg := certificateMsg{certificates: certs}
		raw = msg.marshal()
	})
	s.bus.Crypto(FnFinishMac, func() { s.fin.Write(raw) })
	return s.conn.WriteRecord(record.TypeHandshake, raw)
}

// sendServerKeyExchange generates the ephemeral DH key, signs the
// parameters with the server's RSA key, and sends the message.
func (s *serverState) sendServerKeyExchange() error {
	if s.cfg.Key == nil {
		return errors.New("handshake: DHE suites need the full RSA key for signing")
	}
	params := s.cfg.dhParams()
	if err := s.bus.CryptoErr(FnDHGenerateKey, func() error {
		var err error
		s.dhKey, err = dh.GenerateKey(s.cfg.Rand, params)
		return err
	}); err != nil {
		return err
	}
	ske := serverKeyExchangeMsg{
		p: params.P.Bytes(),
		g: params.G.Bytes(),
		y: s.dhKey.Y.Bytes(),
	}
	digest := skeDigest(s.clientHello.random[:], s.serverRandom[:], ske.paramBytes())
	if err := s.bus.CryptoErr(FnRSASign, func() error {
		var err error
		ske.sig, err = s.cfg.Key.SignPKCS1(rsa.HashMD5SHA1, digest)
		return err
	}); err != nil {
		return err
	}
	raw := ske.marshal()
	s.bus.Crypto(FnFinishMac, func() { s.fin.Write(raw) })
	return s.conn.WriteRecord(record.TypeHandshake, raw)
}

func (s *serverState) getClientKeyExchange() error {
	msgType, raw, err := s.msgs.next()
	if err != nil {
		return err
	}
	if msgType != typeClientKeyExchange {
		return fmt.Errorf("handshake: expected ClientKeyExchange, got type %d", msgType)
	}
	s.bus.Crypto(FnFinishMac, func() { s.fin.Write(raw) })

	var preMaster []byte
	if s.suite.Kx == suite.KxDHERSA {
		var ckx clientDHPublicMsg
		if err := ckx.unmarshal(raw[4:]); err != nil {
			return err
		}
		if err := s.bus.CryptoErr(FnDHComputeKey, func() error {
			peerY := newIntFromBytes(ckx.y)
			var err error
			preMaster, err = s.dhKey.SharedSecret(peerY)
			return err
		}); err != nil {
			return err
		}
		s.dhKey.Cleanse()
	} else {
		body := raw[4:]
		if s.version >= record.VersionTLS10 {
			inner, rest, err := readOpaque16(body)
			if err != nil || len(rest) != 0 {
				return errors.New("handshake: malformed TLS ClientKeyExchange")
			}
			body = inner
		}
		var ckx clientKeyExchangeMsg
		if err := ckx.unmarshal(body); err != nil {
			return err
		}
		dec := rsa.Decrypter(s.cfg.Key)
		if s.cfg.Decrypter != nil {
			dec = s.cfg.Decrypter
		}
		// Whether the ciphertext decrypted to a well-formed pre-master
		// is exactly what Bleichenbacher's attack asks the server. So
		// it is never answered here: a substitute is drawn before the
		// decrypt, silently takes the place of a pre-master with bad
		// padding, the wrong length or the wrong version, and the
		// handshake fails where any wrong key does, at Finished. Only
		// failures that depend on public data (ciphertext size or
		// range, the engine) end the handshake at this step.
		var substitute [sslcrypto.PreMasterLen]byte
		if _, err := io.ReadFull(s.cfg.Rand, substitute[:]); err != nil { // lint:allow-read — randomness source, not the transport
			return err
		}
		if err := s.bus.CryptoErr(FnRSAPrivateDecrypt, func() error {
			var err error
			preMaster, err = dec.DecryptPKCS1(s.cfg.Rand, ckx.encryptedPreMaster)
			return err
		}); err != nil && !errors.Is(err, rsa.ErrDecryption) {
			return err
		}
		preMaster = rsaPreMaster(preMaster, s.clientHello.version, substitute[:])
	}
	s.bus.Crypto(FnGenMasterSecret, func() {
		s.master = deriveMaster(s.version, preMaster,
			s.clientHello.random[:], s.serverRandom[:])
	})
	// Scrub the pre-master (the cleanup the paper notes in step 8/9).
	for i := range preMaster {
		preMaster[i] = 0
	}
	return nil
}

// rsaPreMaster returns pm if it is a pre-master secret for the version
// the client offered (the rollback check of SSLv3 §5.6.7), and
// otherwise substitute. The version comparison and the replacement
// are masked rather than branched on.
func rsaPreMaster(pm []byte, version uint16, substitute []byte) []byte {
	if len(pm) != sslcrypto.PreMasterLen {
		return substitute
	}
	diff := uint((pm[0] ^ byte(version>>8)) | (pm[1] ^ byte(version)))
	mask := -byte((diff + 0xff) >> 8) // 0xff iff the version differs
	for i := range pm {
		pm[i] ^= mask & (pm[i] ^ substitute[i])
	}
	return pm
}

// verifyClientFinished reads the first encrypted message
// (pri_decryption + mac via the record layer) and compares it to the
// expected hashes the CCS phase precomputed.
func (s *serverState) verifyClientFinished() error {
	// The record layer's decryption and MAC of the finished message
	// emit on the same bus with the current step attached, so Table 2
	// reports its pri_decryption and mac rows without any observer
	// swapping.
	msgType, raw, err := s.msgs.next()
	if err != nil {
		return err
	}
	if msgType != typeFinished {
		return fmt.Errorf("handshake: expected Finished, got type %d", msgType)
	}
	var fin finishedMsg
	if err := fin.unmarshal(raw[4:], finishedLenFor(s.version)); err != nil {
		return err
	}
	if !bytes.Equal(fin.verify, s.expected) {
		return errors.New("handshake: client finished verification failed")
	}
	// The client's finished message joins the transcript for the
	// server's own finished hash.
	s.bus.Crypto(FnFinishMac, func() { s.fin.Write(raw) })
	return nil
}

func (s *serverState) sendCCS() error {
	if err := s.conn.WriteRecord(record.TypeChangeCipherSpec, []byte{1}); err != nil {
		return err
	}
	s.conn.SetWriteState(s.outCipher, s.outMAC)
	return nil
}

func (s *serverState) sendFinished() error {
	var verify []byte
	s.bus.Crypto(FnFinalFinishMac, func() {
		verify = verifyDataFor(s.version, s.fin, false, s.master)
	})
	msg := finishedMsg{verify: verify}
	raw := msg.marshal()
	s.bus.Crypto(FnFinishMac, func() { s.fin.Write(raw) })
	return s.conn.WriteRecord(record.TypeHandshake, raw)
}

// fillRandom fills buf with a 4-byte timestamp followed by random
// bytes, the SSLv3 hello-random layout.
func fillRandom(rnd io.Reader, buf []byte, now time.Time) error {
	if len(buf) != RandomLen {
		return errors.New("handshake: random buffer must be 32 bytes")
	}
	t := uint32(now.Unix())
	buf[0] = byte(t >> 24)
	buf[1] = byte(t >> 16)
	buf[2] = byte(t >> 8)
	buf[3] = byte(t)
	_, err := io.ReadFull(rnd, buf[4:]) // lint:allow-read — randomness source, not the transport
	return err
}
