package handshake

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"time"

	"sslperf/internal/dh"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/rsa"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/suite"
)

// allows reports whether a configured suite list (nil = all) holds id.
func allows(list []suite.ID, id suite.ID) bool {
	return list == nil || slices.Contains(list, id)
}

// Result reports the outcome of a completed handshake.
type Result struct {
	Suite   *suite.Suite
	Session *Session
	Resumed bool
}

// ServerFSM is the resumable server handshake over a sans-IO record
// core: one Step call advances through as many rows of its plan as the
// fed bytes allow, returning ErrWouldBlock when the peer's next flight
// has not arrived (drain Outgoing, feed the core and call Step again),
// nil when the handshake is complete, or a terminal error (after which
// a fatal alert has been queued in Outgoing and further Steps return
// the same error). A terminal error the peer's bytes caused is a
// *probe.FailError carrying its class, decided here; an unclassified
// one is local (probe.FailInternal). The machine never touches a
// transport: a blocking connection (ssl.Conn) is a loop that writes
// Outgoing and reads once per ErrWouldBlock around this same Step, so
// blocking and sans-IO handshakes run every line of FSM code alike,
// charge each step only its own work, and are wire-identical by
// construction. The core is left armed with the negotiated bulk cipher
// in both directions.
type ServerFSM struct {
	s serverState
}

// NewServerFSM validates the configuration, returning a machine
// parked before step 0 that emits its Table 2 steps on bus (nil: no
// spine) and draws its randomness from rand. It reads cfg and never
// writes it, so the caller's Config is the handshake's only copy of
// its settings.
func NewServerFSM(conn *record.Core, cfg *Config, bus *probe.Bus, rand io.Reader) (*ServerFSM, error) {
	if (cfg.Key == nil && cfg.Decrypter == nil) || len(cfg.CertDER) == 0 {
		return nil, errors.New("handshake: server needs a key and certificate")
	}
	if rand == nil {
		return nil, errors.New("handshake: server needs a randomness source")
	}
	// A server reads nothing larger than a ClientHello or a
	// ClientKeyExchange; one record's worth is already generous.
	return &ServerFSM{s: serverState{machine: newMachine(conn, cfg, bus, rand, record.MaxFragment)}}, nil
}

// Step advances the machine; see ServerFSM.
func (f *ServerFSM) Step() error { return drive(&f.s.machine, &f.s, &serverPlans) }

// Result returns the completed handshake's outcome, or nil before it
// completes.
func (f *ServerFSM) Result() *Result { return f.s.res }

// serverPlans are the server's three paths through Table 2's steps.
// The full plans differ only in the DHE server key exchange; the
// resumed one skips steps 3–7 and sends its CCS and Finished before
// reading the client's.
var serverPlans = [numPlans][]row[*serverState]{
	planRSA: {
		{none, probe.StepInit, (*serverState).initHashes},
		{typeClientHello, probe.StepGetClientHello, (*serverState).getClientHello},
		{none, probe.StepSendServerHello, (*serverState).sendServerHello},
		{none, probe.StepSendServerCert, (*serverState).sendCertificate},
		{none, probe.StepSendServerDone, (*serverState).sendServerDone},
		{typeClientKeyExchange, probe.StepGetClientKX, (*serverState).getClientKeyExchange},
		{ccs, probe.StepGetFinished, (*serverState).genKeyBlock},
		{none, probe.StepGetFinished, (*serverState).prepareFinished},
		{typeFinished, probe.StepGetFinished, (*serverState).verifyClientFinished},
		{none, probe.StepSendCipherSpec, (*serverState).sendCCS},
		{none, probe.StepSendFinished, (*serverState).sendFinished},
		{none, probe.StepServerFlush, (*serverState).flush},
	},
	planDHE: {
		{none, probe.StepInit, (*serverState).initHashes},
		{typeClientHello, probe.StepGetClientHello, (*serverState).getClientHello},
		{none, probe.StepSendServerHello, (*serverState).sendServerHello},
		{none, probe.StepSendServerCert, (*serverState).sendCertificate},
		{none, probe.StepSendServerKX, (*serverState).sendServerKeyExchange},
		{none, probe.StepSendServerDone, (*serverState).sendServerDone},
		{typeClientKeyExchange, probe.StepGetClientKX, (*serverState).getClientKeyExchange},
		{ccs, probe.StepGetFinished, (*serverState).genKeyBlock},
		{none, probe.StepGetFinished, (*serverState).prepareFinished},
		{typeFinished, probe.StepGetFinished, (*serverState).verifyClientFinished},
		{none, probe.StepSendCipherSpec, (*serverState).sendCCS},
		{none, probe.StepSendFinished, (*serverState).sendFinished},
		{none, probe.StepServerFlush, (*serverState).flush},
	},
	planResumed: {
		{none, probe.StepInit, (*serverState).initHashes},
		{typeClientHello, probe.StepGetClientHello, (*serverState).getClientHello},
		{none, probe.StepSendServerHello, (*serverState).sendServerHello},
		{none, probe.StepGenKeyBlock, (*serverState).genKeyBlock},
		{none, probe.StepSendCipherSpec, (*serverState).sendCCS},
		{none, probe.StepSendFinished, (*serverState).sendFinished},
		{ccs, probe.StepGetFinished, (*serverState).prepareFinished},
		{typeFinished, probe.StepGetFinished, (*serverState).verifyClientFinished},
		{none, probe.StepServerFlush, (*serverState).flush},
	},
}

type serverState struct {
	machine

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
	// final_finish_mac runs in prepareFinished (exactly once), so the
	// finished-verify row can resume across WouldBlock without
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

// initHashes is step 0, init: internal data structures and the
// transcript hashes (init_finished_mac).
func (s *serverState) initHashes([]byte) error {
	s.bus.Crypto(probe.FnInitFinishedMac, func() { s.fin = sslcrypto.NewFinishedHash() })
	return nil
}

// genKeyBlock is gen_key_block: step 6's first half after the client
// CCS of a full handshake, a step of its own when resuming.
func (s *serverState) genKeyBlock([]byte) error {
	return s.bus.CryptoErr(probe.FnGenKeyBlock, s.buildCipherStates)
}

// prepareFinished installs the read state once the client's CCS is
// in and precomputes the expected client finished hashes.
func (s *serverState) prepareFinished([]byte) error {
	s.conn.SetReadState(s.inCipher, s.inMAC)
	s.bus.Crypto(probe.FnFinalFinishMac, func() {
		s.expected = verifyDataFor(s.version, s.fin, true, s.master)
	})
	return nil
}

// flush is step 9, server_flush: cache a new session (a resumed one
// is in the cache already). The paper's step 9 also flushes the
// buffered final flight to the socket; here the machine only leaves it
// in Outgoing, and whoever drives it writes it after Step returns, so
// the write is charged to no step on either driver.
func (s *serverState) flush([]byte) error {
	if s.cfg.SessionCache != nil && len(s.sessionID) > 0 && !s.resumed {
		s.cfg.SessionCache.Put(&Session{
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
	return nil
}

// getClientHello is step 1: check version, get client random and
// session-id, choose a cipher (or the session to resume) and the
// plan, generate a new session id.
func (s *serverState) getClientHello(raw []byte) error {
	if err := s.clientHello.unmarshal(raw[4:]); err != nil {
		return err
	}
	if s.clientHello.version < record.VersionSSL30 {
		return probe.Failf(probe.FailVersionMismatch, "handshake: client version %#04x too old", s.clientHello.version)
	}
	if !slices.Contains(s.clientHello.compressions, 0) {
		return badMessage("handshake: ClientHello offers no null compression method")
	}
	s.version = s.clientHello.version
	if max := s.cfg.maxVersion(); s.version > max {
		s.version = max
	}
	s.conn.SetProtocolVersion(s.version)
	// Absorb into the transcript (finish_mac).
	s.bus.Crypto(probe.FnFinishMac, func() { s.fin.Write(raw) })

	// Resumption probe: a session resumes only with a suite the client
	// offered and this server still allows; otherwise, as crypto/tls
	// does, the handshake falls back to a full one.
	if s.cfg.SessionCache != nil && len(s.clientHello.sessionID) > 0 {
		if sess := s.cfg.SessionCache.Get(s.clientHello.sessionID); sess != nil && sess.Version == s.version {
			if sessSuite, err := suite.ByID(sess.Suite); err == nil &&
				slices.Contains(s.clientHello.cipherSuites, sess.Suite) && allows(s.cfg.Suites, sess.Suite) {
				s.resumed = true
				s.suite = sessSuite
				s.sessionID = append([]byte(nil), sess.ID...)
				s.master = append([]byte(nil), sess.Master...)
			}
		}
	}
	if s.resumed {
		s.plan = planResumed
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
		return probe.Fail(probe.FailBadMessage, err)
	}
	s.suite = chosen
	s.plan = planFor(false, chosen)

	// Generate a fresh session id (rand_pseudo_bytes).
	s.sessionID = make([]byte, SessionIDLen)
	return s.bus.CryptoErr(probe.FnRandPseudoBytes, func() error {
		_, err := io.ReadFull(s.rand, s.sessionID) // lint:allow-read — randomness source, not the transport
		return err
	})
}

// sendServerHello is step 2.
func (s *serverState) sendServerHello([]byte) error {
	if err := s.bus.CryptoErr(probe.FnRandPseudoBytes, func() error {
		return fillRandom(s.rand, &s.serverRandom, s.cfg.now())
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
	s.bus.Crypto(probe.FnFinishMac, func() { s.fin.Write(raw) })
	return s.conn.WriteRecord(record.TypeHandshake, raw)
}

// sendCertificate is step 3, send_server_cert. (For RSA suites the
// server key exchange and certificate request messages are skipped, as
// in the paper: the certificate's RSA key does the key exchange and
// clients are not authenticated. DHE suites send the signed ephemeral
// parameters right after the certificate.)
func (s *serverState) sendCertificate([]byte) error {
	var raw []byte
	// Building the certificate message is the "X509 functions" cost
	// of Table 2 step 3.
	s.bus.Crypto(probe.FnX509, func() { raw = marshalCertificate(s.cfg.CertDER, s.cfg.CertChain) })
	s.bus.Crypto(probe.FnFinishMac, func() { s.fin.Write(raw) })
	return s.conn.WriteRecord(record.TypeHandshake, raw)
}

// sendServerKeyExchange generates the ephemeral DH key, signs the
// parameters with the server's RSA key, and sends the message.
func (s *serverState) sendServerKeyExchange([]byte) error {
	if s.cfg.Key == nil {
		return errors.New("handshake: DHE suites need the full RSA key for signing")
	}
	params := dh.Group1024()
	if err := s.bus.CryptoErr(probe.FnDHGenerateKey, func() error {
		var err error
		s.dhKey, err = dh.GenerateKey(s.rand, params)
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
	if err := s.bus.CryptoErr(probe.FnRSASign, func() error {
		var err error
		ske.sig, err = s.cfg.Key.SignPKCS1(rsa.HashMD5SHA1, digest)
		return err
	}); err != nil {
		return err
	}
	raw := ske.marshal()
	s.bus.Crypto(probe.FnFinishMac, func() { s.fin.Write(raw) })
	return s.conn.WriteRecord(record.TypeHandshake, raw)
}

// sendServerDone is step 4, send_server_done + buffer control.
func (s *serverState) sendServerDone([]byte) error {
	done := serverHelloDone()
	s.bus.Crypto(probe.FnFinishMac, func() { s.fin.Write(done) })
	return s.conn.WriteRecord(record.TypeHandshake, done)
}

// getClientKeyExchange is step 5, get_client_kx: RSA-decrypt the
// pre-master (or compute the DHE shared secret) and derive the master
// secret.
func (s *serverState) getClientKeyExchange(raw []byte) error {
	s.bus.Crypto(probe.FnFinishMac, func() { s.fin.Write(raw) })

	var preMaster []byte
	if s.suite.Kx == suite.KxDHERSA {
		var ckx clientDHPublicMsg
		if err := ckx.unmarshal(raw[4:]); err != nil {
			return err
		}
		if err := s.bus.CryptoErr(probe.FnDHComputeKey, func() error {
			peerY := newIntFromBytes(ckx.y)
			var err error
			preMaster, err = s.dhKey.SharedSecret(peerY)
			return err
		}); err != nil {
			return probe.Fail(probe.FailBadMessage, err)
		}
		s.dhKey.Cleanse()
	} else {
		body := raw[4:]
		if s.version >= record.VersionTLS10 {
			inner, rest, err := readOpaque16(body)
			if err != nil || len(rest) != 0 {
				return badMessage("handshake: malformed TLS ClientKeyExchange")
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
		// range, the decrypter) end the handshake at this step.
		var substitute [sslcrypto.PreMasterLen]byte
		if _, err := io.ReadFull(s.rand, substitute[:]); err != nil { // lint:allow-read — randomness source, not the transport
			return err
		}
		err := s.bus.CryptoErr(probe.FnRSAPrivateDecrypt, func() error {
			var err error
			preMaster, err = dec.DecryptPKCS1(s.rand, ckx.encryptedPreMaster)
			return err
		})
		switch {
		case errors.Is(err, rsa.ErrCiphertextLength), errors.Is(err, rsa.ErrCiphertextRange):
			return probe.Fail(probe.FailBadMessage, err)
		case err != nil && !errors.Is(err, rsa.ErrDecryption):
			return err
		}
		preMaster = rsaPreMaster(preMaster, s.clientHello.version, substitute[:])
	}
	s.bus.Crypto(probe.FnGenMasterSecret, func() {
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

// verifyClientFinished takes the first encrypted message and compares
// it to the expected hashes prepareFinished precomputed. The record
// layer's decryption and MAC of it emit on the same bus with the
// current step attached, so Table 2 reports its pri_decryption and mac
// rows without any observer swapping.
func (s *serverState) verifyClientFinished(raw []byte) error {
	var fin finishedMsg
	if err := fin.unmarshal(raw[4:], finishedLenFor(s.version)); err != nil {
		return err
	}
	if !bytes.Equal(fin.verify, s.expected) {
		return probe.Failf(probe.FailFinishedVerify, "handshake: client finished verification failed")
	}
	// The client's finished message joins the transcript for the
	// server's own finished hash.
	s.bus.Crypto(probe.FnFinishMac, func() { s.fin.Write(raw) })
	return nil
}

// sendCCS is step 7, send_cipher_spec.
func (s *serverState) sendCCS([]byte) error {
	if err := s.conn.WriteRecord(record.TypeChangeCipherSpec, []byte{1}); err != nil {
		return err
	}
	s.conn.SetWriteState(s.outCipher, s.outMAC)
	return nil
}

// sendFinished is step 8: the server finished hashes with 'SRVR'
// padding, MACed and encrypted under the new keys.
func (s *serverState) sendFinished([]byte) error {
	var verify []byte
	s.bus.Crypto(probe.FnFinalFinishMac, func() {
		verify = verifyDataFor(s.version, s.fin, false, s.master)
	})
	msg := finishedMsg{verify: verify}
	raw := msg.marshal()
	s.bus.Crypto(probe.FnFinishMac, func() { s.fin.Write(raw) })
	return s.conn.WriteRecord(record.TypeHandshake, raw)
}

// fillRandom fills buf with a 4-byte timestamp followed by random
// bytes, the SSLv3 hello-random layout.
func fillRandom(rnd io.Reader, buf *[RandomLen]byte, now time.Time) error {
	t := uint32(now.Unix())
	buf[0] = byte(t >> 24)
	buf[1] = byte(t >> 16)
	buf[2] = byte(t >> 8)
	buf[3] = byte(t)
	_, err := io.ReadFull(rnd, buf[4:]) // lint:allow-read — randomness source, not the transport
	return err
}
