package ssl

import (
	"bytes"
	"crypto/md5"
	"crypto/sha1"
	"encoding/binary"
	"slices"
	"testing"

	"sslperf/internal/dh"
	"sslperf/internal/handshake"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/rsa"
	"sslperf/internal/suite"
)

// The failures a peer's bytes cause, end to end: a sans-IO connection
// is fed crafted wire bytes, and the error it ends in must carry the
// class its error site decided. The rows are also the seeds of
// FuzzHandshakeFSM, which drives the same two connections.

// peerSession is the session the client under test offers, so a
// ServerHello can echo its ID.
var peerSession = &handshake.Session{
	ID:      bytes.Repeat([]byte{0x5a}, handshake.SessionIDLen),
	Suite:   suite.RSAWith3DESEDECBCSHA,
	Master:  make([]byte, 48),
	Version: 0x0300,
}

// peerConn builds the connection under test: a client offering every
// suite and peerSession, or a server with the test identity and a
// session cache. Both run on fixed seeds and a fixed clock, so the
// bytes one emits are the same on every run.
func peerConn(t testing.TB, client bool) *NonBlockingConn {
	if client {
		return NonBlockingClient(&Config{
			Rand: NewPRNG(71), Time: fixedTestTime,
			InsecureSkipVerify: true, Session: peerSession,
		})
	}
	id := identity(t)
	return NonBlockingServer(&Config{
		Rand: NewPRNG(72), Key: id.Key, CertDER: id.CertDER, Time: fixedTestTime,
		SessionCache: handshake.NewSessionCache(4),
	})
}

// start steps a fresh connection once and drains what it sent: a
// client's ClientHello record (returned), nothing for a server.
func start(c *NonBlockingConn) []byte {
	c.HandshakeStep()
	out := append([]byte(nil), c.Outgoing()...)
	c.ConsumeOutgoing(len(out))
	return out
}

// rec frames payload as one SSL 3.0 record of type typ.
func rec(typ byte, payload ...[]byte) []byte {
	body := bytes.Join(payload, nil)
	return append([]byte{typ, 3, 0, byte(len(body) >> 8), byte(len(body))}, body...)
}

// hs is one handshake message: type, 24-bit length, body.
func hs(typ byte, body ...byte) []byte {
	return append([]byte{typ, byte(len(body) >> 16), byte(len(body) >> 8), byte(len(body))}, body...)
}

// u16 appends v big-endian.
func u16(b []byte, v int) []byte { return binary.BigEndian.AppendUint16(b, uint16(v)) }

// opaque16 is v with its 2-byte length.
func opaque16(v []byte) []byte { return append(u16(nil, len(v)), v...) }

// helloBody is a ClientHello body offering suites; sidLen, csLen and
// compLen are written as given, whatever follows them.
func helloBody(version, sidLen, csLen int, suites []int, compLen int, comp ...byte) []byte {
	b := u16(nil, version)
	b = append(b, make([]byte, handshake.RandomLen)...)
	b = append(b, byte(sidLen))
	b = append(b, make([]byte, min(sidLen, 32))...)
	b = u16(b, csLen)
	for _, s := range suites {
		b = u16(b, s)
	}
	return append(append(b, byte(compLen)), comp...)
}

// clientHello is a well-formed ClientHello record offering one suite.
func clientHello(id suite.ID) []byte {
	return rec(22, hs(1, helloBody(0x0300, 0, 2, []int{int(id)}, 1, 0)...))
}

// serverHello is a ServerHello message choosing id with session id sid.
func serverHello(version int, id suite.ID, sid []byte) []byte {
	b := u16(nil, version)
	b = append(b, make([]byte, handshake.RandomLen)...)
	b = append(append(b, byte(len(sid))), sid...)
	return hs(2, append(u16(b, int(id)), 0)...)
}

// certMsg is a Certificate message carrying one entry.
func certMsg(der []byte) []byte {
	n := len(der)
	entry := append([]byte{byte(n >> 16), byte(n >> 8), byte(n)}, der...)
	n = len(entry)
	return hs(11, append([]byte{byte(n >> 16), byte(n >> 8), byte(n)}, entry...)...)
}

// skeMsg is a ServerKeyExchange over (p, g, y), signed with the test
// key for the randoms of hello (the client's) and an all-zero server
// random, or carrying sig when it is non-nil.
func skeMsg(t testing.TB, hello, p, g, y, sig []byte) []byte {
	params := append(append(opaque16(p), opaque16(g)...), opaque16(y)...)
	if sig == nil {
		signed := append(append(append([]byte(nil), hello[11:11+handshake.RandomLen]...),
			make([]byte, handshake.RandomLen)...), params...)
		m, s := md5.Sum(signed), sha1.Sum(signed)
		var err error
		if sig, err = identity(t).Key.SignPKCS1(rsa.HashMD5SHA1, append(m[:], s[:]...)); err != nil {
			t.Fatal(err)
		}
	}
	return hs(12, append(params, opaque16(sig)...)...)
}

// peerCase is one crafted input: what the peer of the connection
// under test sends, given the client's hello.
type peerCase struct {
	name   string
	client bool // the connection under test is the client
	input  func(t testing.TB, hello []byte) []byte
	text   string // the error's text
	class  probe.FailClass
}

func peerCases() []peerCase {
	group := dh.Group1024()
	p, g := group.P.Bytes(), group.G.Bytes()
	ckx := func(body ...byte) []byte {
		return append(clientHello(suite.RSAWith3DESEDECBCSHA), rec(22, hs(16, body...))...)
	}
	lowCiphertext := append([]byte{0}, bytes.Repeat([]byte{1}, 63)...)
	sh := serverHello(0x0300, suite.RSAWith3DESEDECBCSHA, nil)
	dheHello := serverHello(0x0300, suite.DHERSAWith3DESEDECBCSHA, nil)
	return []peerCase{
		// A client's bytes, fed to a server.
		{"truncated ClientHello", false, func(testing.TB, []byte) []byte {
			return rec(22, hs(1, 3, 0))
		}, "handshake: ClientHello too short", probe.FailBadMessage},
		{"bad cipher-suite list", false, func(testing.TB, []byte) []byte {
			return rec(22, hs(1, helloBody(0x0300, 0, 3, []int{0x000a, 0x0a00}, 1, 0)...))
		}, "handshake: bad cipher suite list", probe.FailBadMessage},
		{"bad compression list", false, func(testing.TB, []byte) []byte {
			return rec(22, hs(1, helloBody(0x0300, 0, 2, []int{0x000a}, 5, 0)...))
		}, "handshake: bad compression list", probe.FailBadMessage},
		{"bad session-id length", false, func(testing.TB, []byte) []byte {
			return rec(22, hs(1, helloBody(0x0300, 33, 2, []int{0x000a}, 1, 0)...))
		}, "handshake: bad session id", probe.FailBadMessage},
		{"no shared cipher suite", false, func(testing.TB, []byte) []byte {
			return rec(22, hs(1, helloBody(0x0300, 0, 2, []int{0xfefe}, 1, 0)...))
		}, "suite: no shared cipher suite", probe.FailBadMessage},
		{"empty ClientKeyExchange", false, func(testing.TB, []byte) []byte {
			return ckx()
		}, "handshake: empty ClientKeyExchange", probe.FailBadMessage},
		{"ClientKeyExchange of the wrong length", false, func(testing.TB, []byte) []byte {
			return ckx(make([]byte, 10)...)
		}, "rsa: ciphertext length does not match key size", probe.FailBadMessage},
		{"ClientKeyExchange out of range", false, func(testing.TB, []byte) []byte {
			return ckx(bytes.Repeat([]byte{0xff}, 64)...)
		}, "rsa: ciphertext out of range", probe.FailBadMessage},
		{"handshake bytes buffered across ChangeCipherSpec", false, func(testing.TB, []byte) []byte {
			return append(clientHello(suite.RSAWith3DESEDECBCSHA),
				rec(22, hs(16, lowCiphertext...), []byte{20, 0, 0})...)
		}, "handshake: data buffered across ChangeCipherSpec", probe.FailBadMessage},
		{"out-of-range DHE public value", false, func(testing.TB, []byte) []byte {
			return append(clientHello(suite.DHERSAWith3DESEDECBCSHA), rec(22, hs(16, opaque16([]byte{1})...))...)
		}, "dh: peer public value too small", probe.FailBadMessage},
		{"client version too old", false, func(testing.TB, []byte) []byte {
			return rec(22, hs(1, helloBody(0x0200, 0, 2, []int{0x000a}, 1, 0)...))
		}, "handshake: client version 0x0200 too old", probe.FailVersionMismatch},
		{"ClientKeyExchange first", false, func(testing.TB, []byte) []byte {
			return rec(22, hs(16, lowCiphertext...))
		}, "handshake: expected ClientHello, got type 16", probe.FailBadMessage},
		{"record version", false, func(testing.TB, []byte) []byte {
			return []byte{22, 4, 0, 0, 1, 0}
		}, "record: unsupported version 0x0400", probe.FailVersionMismatch},
		{"empty record", false, func(testing.TB, []byte) []byte {
			return []byte{22, 3, 0, 0, 0}
		}, "record: implausible record length 0", probe.FailRecordError},

		// A server's bytes, fed to a client.
		{"short ServerHello", true, func(testing.TB, []byte) []byte {
			return rec(22, hs(2, 3))
		}, "handshake: ServerHello too short", probe.FailBadMessage},
		{"unknown suite in ServerHello", true, func(testing.TB, []byte) []byte {
			return rec(22, serverHello(0x0300, 0xfefe, nil))
		}, "suite: unknown cipher suite 0xfefe", probe.FailBadMessage},
		{"resumed session that changes suite", true, func(testing.TB, []byte) []byte {
			return rec(22, serverHello(0x0300, suite.RSAWithAES128CBCSHA, peerSession.ID))
		}, "handshake: resumed session changed cipher suite", probe.FailBadMessage},
		{"Certificate length mismatch", true, func(testing.TB, []byte) []byte {
			return rec(22, sh, hs(11, 0, 0, 5, 1, 2))
		}, "handshake: Certificate length mismatch", probe.FailBadMessage},
		{"truncated certificate entry", true, func(testing.TB, []byte) []byte {
			return rec(22, sh, hs(11, 0, 0, 2, 0, 0))
		}, "handshake: truncated certificate entry", probe.FailBadMessage},
		{"certificate DER that does not parse", true, func(testing.TB, []byte) []byte {
			return rec(22, sh, certMsg([]byte{0x30, 0x05, 1}))
		}, "asn1lite: content truncated", probe.FailCertVerify},
		{"bad ServerKeyExchange signature", true, func(t testing.TB, hello []byte) []byte {
			return rec(22, dheHello, certMsg(identity(t).CertDER),
				skeMsg(t, hello, p, g, []byte{2}, bytes.Repeat([]byte{1}, 64)))
		}, "handshake: ServerKeyExchange signature: rsa: invalid signature padding", probe.FailCertVerify},
		{"DH group with an even modulus", true, func(t testing.TB, hello []byte) []byte {
			even := append([]byte{0x80}, make([]byte, 63)...)
			return rec(22, dheHello, certMsg(identity(t).CertDER),
				skeMsg(t, hello, even, g, []byte{2}, nil), hs(14))
		}, "dh: modulus must be an odd prime of >= 512 bits", probe.FailBadMessage},
		{"server version too new", true, func(testing.TB, []byte) []byte {
			return rec(22, serverHello(0x0302, suite.RSAWith3DESEDECBCSHA, nil))
		}, "handshake: server version 0x0302", probe.FailVersionMismatch},
	}
}

// feedPeer feeds stream to c in chunks of the given sizes (the last
// taking what is left), stepping the handshake after each, and returns
// the first error that is not ErrWouldBlock.
func feedPeer(c *NonBlockingConn, stream []byte, chunk func() int) error {
	for len(stream) > 0 {
		n := min(max(chunk(), 1), len(stream))
		c.Feed(stream[:n])
		stream = stream[n:]
		err := c.HandshakeStep()
		c.ConsumeOutgoing(len(c.Outgoing()))
		if err != nil && err != ErrWouldBlock {
			return err
		}
	}
	return nil
}

// TestPeerBytesFailClass feeds every crafted input whole and a byte
// at a time: the connection ends in the row's error, classified as
// its site decided.
func TestPeerBytesFailClass(t *testing.T) {
	for _, tc := range peerCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, size := range []int{1 << 20, 1} {
				c := peerConn(t, tc.client)
				err := feedPeer(c, tc.input(t, start(c)), func() int { return size })
				if err == nil {
					t.Fatalf("chunks of %d: the handshake did not fail", size)
				}
				if err.Error() != tc.text {
					t.Errorf("chunks of %d: error %q, want %q", size, err, tc.text)
				}
				if got := Classify(err); got != tc.class {
					t.Errorf("chunks of %d: Classify(%q) = %v, want %v", size, err, got, tc.class)
				}
				if got := FailureReason(err); got != tc.class.Name() {
					t.Errorf("chunks of %d: FailureReason(%q) = %q, want %q", size, err, got, tc.class.Name())
				}
			}
		})
	}
}

// genuine runs the two connections of peerConn against each other to
// an established session and one application record each way,
// returning what each sent: the valid prefixes FuzzHandshakeFSM cuts.
func genuine(t testing.TB) (c2s, s2c []byte) {
	cli, srv := peerConn(t, true), peerConn(t, false)
	move := func(from, to *NonBlockingConn, log *[]byte) {
		o := from.Outgoing()
		*log = append(*log, o...)
		to.Feed(o)
		from.ConsumeOutgoing(len(o))
	}
	for i := 0; !cli.HandshakeDone() || !srv.HandshakeDone(); i++ {
		if i > 100 {
			t.Fatal("handshake did not converge")
		}
		for _, c := range []*NonBlockingConn{cli, srv} {
			if err := c.HandshakeStep(); err != nil && err != ErrWouldBlock {
				t.Fatal(err)
			}
		}
		move(cli, srv, &c2s)
		move(srv, cli, &s2c)
	}
	cli.WriteData([]byte("ping"))
	srv.WriteData([]byte("pong"))
	move(cli, srv, &c2s)
	move(srv, cli, &s2c)
	return c2s, s2c
}

// offeredSuites parses the cipher suites of the ClientHello that opens
// stream, gathered from as many handshake records as it spans; nil
// when stream does not open with a whole one.
func offeredSuites(stream []byte) []suite.ID {
	var msg []byte
	for len(stream) >= 5 && stream[0] == 22 {
		n := int(binary.BigEndian.Uint16(stream[3:]))
		if len(stream) < 5+n {
			break
		}
		msg = append(msg, stream[5:5+n]...)
		stream = stream[5+n:]
	}
	if len(msg) < 4+2+handshake.RandomLen+1 || msg[0] != 1 {
		return nil
	}
	body := msg[4+2+handshake.RandomLen:]
	body = body[1+int(body[0]):]
	var ids []suite.ID
	for i := 2; i+1 < len(body) && i < 2+int(binary.BigEndian.Uint16(body)); i += 2 {
		ids = append(ids, suite.ID(binary.BigEndian.Uint16(body[i:])))
	}
	return ids
}

// FuzzHandshakeFSM feeds the client or the server of peerConn a valid
// prefix of what its peer sends (cut anywhere) followed by arbitrary
// bytes, in arbitrary chunks. Neither may panic; a handshake that
// completes must have negotiated a suite its own config allows (and,
// on a server, that the fed ClientHello offered) at a version no
// higher than its own maximum; once established, each application
// read must consume input, so reading stops within a bound; and
// whatever failure the fed bytes cause must be one the peer is to
// blame for, never FailInternal or FailNone.
func FuzzHandshakeFSM(f *testing.F) {
	c2s, s2c := genuine(f)
	hello := start(peerConn(f, true))
	for _, tc := range peerCases() {
		f.Add(tc.client, uint16(0), tc.input(f, hello), uint64(0))
	}
	f.Add(true, uint16(len(s2c)), []byte{23, 3, 0, 0, 1, 0}, uint64(1))
	f.Add(false, uint16(len(c2s)), []byte{21, 3, 0, 0, 2, 1, 0}, uint64(2))
	f.Fuzz(func(t *testing.T, client bool, cut uint16, data []byte, split uint64) {
		valid := c2s
		if client {
			valid = s2c
		}
		valid = valid[:int(cut)%(len(valid)+1)]
		stream := append(append([]byte(nil), valid...), data...)
		c := peerConn(t, client)
		start(c)
		err := feedPeer(c, stream, func() int {
			split = split*6364136223846793005 + 1442695040888963407
			return int(split>>58) + 1
		})
		if err == nil && c.HandshakeDone() {
			st, _ := c.ConnectionState()
			top := c.cfg.Version
			if top == 0 && client {
				top = record.VersionSSL30
			} else if top == 0 {
				top = record.VersionTLS10
			}
			if c.cfg.Suites != nil && !slices.Contains(c.cfg.Suites, st.Suite.ID) ||
				!client && !slices.Contains(offeredSuites(stream), st.Suite.ID) {
				t.Fatalf("negotiated %s, which was not offered and allowed", st.Suite.Name)
			}
			if st.Version > top {
				t.Fatalf("negotiated version %#04x above this side's maximum %#04x", st.Version, top)
			}
			buf := make([]byte, 16)
			for reads := 0; err == nil; reads++ {
				if reads > len(stream) {
					t.Fatalf("%d application reads of a %d-byte stream", reads, len(stream))
				}
				_, err = c.ReadData(buf)
			}
			if err == ErrWouldBlock {
				err = nil
			}
		}
		if class := Classify(err); err != nil && (class == probe.FailInternal || class == probe.FailNone) {
			t.Fatalf("fed bytes ended the connection as %v: %v", class, err)
		}
	})
}
