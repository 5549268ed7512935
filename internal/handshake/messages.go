// Package handshake implements the SSL 3.0 handshake protocol: the
// message codecs and their one table, and each role's handshake as
// plans — lists of rows one driver walks — with the server's rows
// tagged with the ten steps of the paper's Table 2 for per-step and
// per-crypto-call latency capture. Session-ID resumption
// — the paper's "session re-negotiation using the previously setup
// keys" that avoids the RSA operation — is supported on both sides.
package handshake

import (
	"encoding/binary"

	"sslperf/internal/probe"
	"sslperf/internal/suite"
)

// Handshake message types (SSLv3 §5.6).
const (
	typeHelloRequest       = 0
	typeClientHello        = 1
	typeServerHello        = 2
	typeCertificate        = 11
	typeServerKeyExchange  = 12
	typeCertificateRequest = 13
	typeServerHelloDone    = 14
	typeCertificateVerify  = 15
	typeClientKeyExchange  = 16
	typeFinished           = 20
)

// A sender is the role that sends a handshake message.
type sender uint8

const (
	byClient sender = 1 << iota
	byServer
)

// messages is the one table of handshake messages: the name expect
// puts in its error and the Figure 1 sniffer prints, and the role that
// sends each. The plans read their inputs' types from it, and the
// illegal-transition test feeds every row of it to every reading row
// of every plan.
var messages = [...]struct {
	typ  byte
	name string
	from sender
}{
	{typeHelloRequest, "HelloRequest", byServer},
	{typeClientHello, "ClientHello", byClient},
	{typeServerHello, "ServerHello", byServer},
	{typeCertificate, "Certificate", byServer | byClient},
	{typeServerKeyExchange, "ServerKeyExchange", byServer},
	{typeCertificateRequest, "CertificateRequest", byServer},
	{typeServerHelloDone, "ServerHelloDone", byServer},
	{typeCertificateVerify, "CertificateVerify", byClient},
	{typeClientKeyExchange, "ClientKeyExchange", byClient},
	{typeFinished, "Finished", byServer | byClient},
}

// MessageName returns the name of handshake message type typ, or ""
// for a type outside the message table.
func MessageName(typ byte) string {
	for _, m := range messages {
		if m.typ == typ {
			return m.name
		}
	}
	return ""
}

// RandomLen is the hello random length (4-byte timestamp + 28 random).
const RandomLen = 32

// SessionIDLen is the session identifier length this library issues.
const SessionIDLen = 32

// FinishedLen is the SSLv3 finished verify-data length (MD5 ‖ SHA-1).
const FinishedLen = 36

// badMessage is the error of a message whose bytes do not decode, or
// that the protocol does not allow where it came: the peer's fault,
// probe.FailBadMessage.
func badMessage(format string, args ...any) error {
	return probe.Failf(probe.FailBadMessage, format, args...)
}

// header builds the 4-byte handshake message header.
func header(msgType byte, bodyLen int) []byte {
	return []byte{msgType, byte(bodyLen >> 16), byte(bodyLen >> 8), byte(bodyLen)}
}

// marshalMsg wraps a body in its handshake header.
func marshalMsg(msgType byte, body []byte) []byte {
	out := make([]byte, 0, 4+len(body))
	out = append(out, header(msgType, len(body))...)
	return append(out, body...)
}

// clientHelloMsg is the ClientHello payload.
type clientHelloMsg struct {
	version      uint16
	random       [RandomLen]byte
	sessionID    []byte
	cipherSuites []suite.ID
	compressions []byte
}

func (m *clientHelloMsg) marshal() []byte {
	body := make([]byte, 0, 64)
	body = binary.BigEndian.AppendUint16(body, m.version)
	body = append(body, m.random[:]...)
	body = append(body, byte(len(m.sessionID)))
	body = append(body, m.sessionID...)
	body = binary.BigEndian.AppendUint16(body, uint16(2*len(m.cipherSuites)))
	for _, cs := range m.cipherSuites {
		body = binary.BigEndian.AppendUint16(body, uint16(cs))
	}
	body = append(body, byte(len(m.compressions)))
	body = append(body, m.compressions...)
	return marshalMsg(typeClientHello, body)
}

func (m *clientHelloMsg) unmarshal(body []byte) error {
	if len(body) < 2+RandomLen+1 {
		return badMessage("handshake: ClientHello too short")
	}
	m.version = binary.BigEndian.Uint16(body)
	copy(m.random[:], body[2:])
	rest := body[2+RandomLen:]
	idLen := int(rest[0])
	rest = rest[1:]
	if idLen > 32 || len(rest) < idLen+2 {
		return badMessage("handshake: bad session id")
	}
	m.sessionID = append([]byte(nil), rest[:idLen]...)
	rest = rest[idLen:]
	csLen := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if csLen%2 != 0 || len(rest) < csLen+1 {
		return badMessage("handshake: bad cipher suite list")
	}
	m.cipherSuites = m.cipherSuites[:0]
	for i := 0; i < csLen; i += 2 {
		m.cipherSuites = append(m.cipherSuites, suite.ID(binary.BigEndian.Uint16(rest[i:])))
	}
	rest = rest[csLen:]
	compLen := int(rest[0])
	rest = rest[1:]
	if len(rest) < compLen {
		return badMessage("handshake: bad compression list")
	}
	m.compressions = append([]byte(nil), rest[:compLen]...)
	return nil
}

// serverHelloMsg is the ServerHello payload.
type serverHelloMsg struct {
	version     uint16
	random      [RandomLen]byte
	sessionID   []byte
	cipherSuite suite.ID
	compression byte
}

func (m *serverHelloMsg) marshal() []byte {
	body := make([]byte, 0, 64)
	body = binary.BigEndian.AppendUint16(body, m.version)
	body = append(body, m.random[:]...)
	body = append(body, byte(len(m.sessionID)))
	body = append(body, m.sessionID...)
	body = binary.BigEndian.AppendUint16(body, uint16(m.cipherSuite))
	body = append(body, m.compression)
	return marshalMsg(typeServerHello, body)
}

func (m *serverHelloMsg) unmarshal(body []byte) error {
	if len(body) < 2+RandomLen+1 {
		return badMessage("handshake: ServerHello too short")
	}
	m.version = binary.BigEndian.Uint16(body)
	copy(m.random[:], body[2:])
	rest := body[2+RandomLen:]
	idLen := int(rest[0])
	rest = rest[1:]
	if idLen > 32 || len(rest) < idLen+3 {
		return badMessage("handshake: bad ServerHello tail")
	}
	m.sessionID = append([]byte(nil), rest[:idLen]...)
	rest = rest[idLen:]
	m.cipherSuite = suite.ID(binary.BigEndian.Uint16(rest))
	m.compression = rest[2]
	return nil
}

// certificateMsg carries the server certificate chain.
type certificateMsg struct {
	certificates [][]byte
}

// marshalCertificate builds the Certificate message of leaf and then
// chain, header and body in one allocation straight from the DER
// bytes.
func marshalCertificate(leaf []byte, chain [][]byte) []byte {
	inner := 3 + len(leaf)
	for _, c := range chain {
		inner += 3 + len(c)
	}
	out := append(make([]byte, 0, 7+inner), header(typeCertificate, 3+inner)...)
	out = appendCert(append(out, byte(inner>>16), byte(inner>>8), byte(inner)), leaf)
	for _, c := range chain {
		out = appendCert(out, c)
	}
	return out
}

// appendCert appends one entry of a certificate list: its 3-byte length
// and its DER bytes.
func appendCert(out, der []byte) []byte {
	return append(append(out, byte(len(der)>>16), byte(len(der)>>8), byte(len(der))), der...)
}

func (m *certificateMsg) unmarshal(body []byte) error {
	if len(body) < 3 {
		return badMessage("handshake: Certificate too short")
	}
	total := int(body[0])<<16 | int(body[1])<<8 | int(body[2])
	rest := body[3:]
	if total != len(rest) {
		return badMessage("handshake: Certificate length mismatch")
	}
	m.certificates = m.certificates[:0]
	for len(rest) > 0 {
		if len(rest) < 3 {
			return badMessage("handshake: truncated certificate entry")
		}
		n := int(rest[0])<<16 | int(rest[1])<<8 | int(rest[2])
		rest = rest[3:]
		if len(rest) < n {
			return badMessage("handshake: truncated certificate body")
		}
		m.certificates = append(m.certificates, append([]byte(nil), rest[:n]...))
		rest = rest[n:]
	}
	if len(m.certificates) == 0 {
		return badMessage("handshake: empty certificate chain")
	}
	return nil
}

// clientKeyExchangeMsg carries the RSA-encrypted pre-master secret.
// SSLv3 sends the ciphertext bare, with no inner length prefix.
type clientKeyExchangeMsg struct {
	encryptedPreMaster []byte
}

func (m *clientKeyExchangeMsg) marshal() []byte {
	return marshalMsg(typeClientKeyExchange, m.encryptedPreMaster)
}

func (m *clientKeyExchangeMsg) unmarshal(body []byte) error {
	if len(body) == 0 {
		return badMessage("handshake: empty ClientKeyExchange")
	}
	m.encryptedPreMaster = append([]byte(nil), body...)
	return nil
}

// serverKeyExchangeMsg carries signed ephemeral Diffie-Hellman
// parameters (ServerDHParams + Signature, SSLv3 §5.6.4): each of
// p, g, Ys is a 2-byte-length-prefixed opaque, followed by the
// 2-byte-length-prefixed RSA signature over
// MD5(randoms ‖ params) ‖ SHA1(randoms ‖ params).
type serverKeyExchangeMsg struct {
	p, g, y []byte
	sig     []byte
}

func appendOpaque16(out, v []byte) []byte {
	out = binary.BigEndian.AppendUint16(out, uint16(len(v)))
	return append(out, v...)
}

func readOpaque16(in []byte) (v, rest []byte, err error) {
	if len(in) < 2 {
		return nil, nil, badMessage("handshake: truncated vector")
	}
	n := int(binary.BigEndian.Uint16(in))
	if len(in) < 2+n {
		return nil, nil, badMessage("handshake: vector exceeds message")
	}
	return in[2 : 2+n], in[2+n:], nil
}

// paramBytes returns the ServerDHParams encoding, the bytes covered
// (together with the hello randoms) by the signature.
func (m *serverKeyExchangeMsg) paramBytes() []byte {
	out := make([]byte, 0, 6+len(m.p)+len(m.g)+len(m.y))
	out = appendOpaque16(out, m.p)
	out = appendOpaque16(out, m.g)
	return appendOpaque16(out, m.y)
}

func (m *serverKeyExchangeMsg) marshal() []byte {
	body := m.paramBytes()
	body = appendOpaque16(body, m.sig)
	return marshalMsg(typeServerKeyExchange, body)
}

func (m *serverKeyExchangeMsg) unmarshal(body []byte) error {
	var err error
	if m.p, body, err = readOpaque16(body); err != nil {
		return err
	}
	if m.g, body, err = readOpaque16(body); err != nil {
		return err
	}
	if m.y, body, err = readOpaque16(body); err != nil {
		return err
	}
	if m.sig, body, err = readOpaque16(body); err != nil {
		return err
	}
	if len(body) != 0 {
		return badMessage("handshake: trailing bytes in ServerKeyExchange")
	}
	if len(m.p) == 0 || len(m.g) == 0 || len(m.y) == 0 || len(m.sig) == 0 {
		return badMessage("handshake: empty ServerKeyExchange field")
	}
	return nil
}

// clientDHPublicMsg is the DHE form of ClientKeyExchange: the
// client's 2-byte-length-prefixed public value.
type clientDHPublicMsg struct {
	y []byte
}

func (m *clientDHPublicMsg) marshal() []byte {
	return marshalMsg(typeClientKeyExchange, appendOpaque16(nil, m.y))
}

func (m *clientDHPublicMsg) unmarshal(body []byte) error {
	var err error
	if m.y, body, err = readOpaque16(body); err != nil {
		return err
	}
	if len(body) != 0 || len(m.y) == 0 {
		return badMessage("handshake: malformed DH ClientKeyExchange")
	}
	return nil
}

// finishedMsg carries the 36-byte verify data.
type finishedMsg struct {
	verify []byte
}

func (m *finishedMsg) marshal() []byte {
	return marshalMsg(typeFinished, m.verify)
}

func (m *finishedMsg) unmarshal(body []byte, wantLen int) error {
	if len(body) != wantLen {
		return badMessage("handshake: Finished is %d bytes, want %d", len(body), wantLen)
	}
	m.verify = append([]byte(nil), body...)
	return nil
}

// serverHelloDone is the empty ServerHelloDone message.
func serverHelloDone() []byte { return marshalMsg(typeServerHelloDone, nil) }
