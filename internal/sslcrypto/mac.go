package sslcrypto

import (
	"encoding/binary"
	"errors"

	"sslperf/internal/hmacx"
	"sslperf/internal/md5x"
	"sslperf/internal/sha1x"
)

// MACAlgorithm selects the hash under the SSLv3 MAC construction.
type MACAlgorithm int

// Supported MAC hashes.
const (
	MACMD5 MACAlgorithm = iota
	MACSHA1
	MACNull // no MAC (NULL integrity, for baseline experiments)
)

// Size returns the MAC output length in bytes.
func (a MACAlgorithm) Size() int {
	switch a {
	case MACMD5:
		return md5x.Size
	case MACSHA1:
		return sha1x.Size
	default:
		return 0
	}
}

// padLen returns the SSLv3 pad length: 48 for MD5, 40 for SHA-1
// (chosen so secret+pad fills block boundaries).
func (a MACAlgorithm) padLen() int {
	switch a {
	case MACMD5:
		return 48
	case MACSHA1:
		return 40
	default:
		return 0
	}
}

// String names the algorithm.
func (a MACAlgorithm) String() string {
	switch a {
	case MACMD5:
		return "MD5"
	case MACSHA1:
		return "SHA-1"
	default:
		return "NULL"
	}
}

// sslDigest is the common subset of md5x.Digest and sha1x.Digest.
type sslDigest interface {
	Write(p []byte) (int, error)
	Sum(in []byte) []byte
	Reset()
	Size() int
}

func (a MACAlgorithm) newDigest() sslDigest {
	switch a {
	case MACMD5:
		return md5x.New()
	case MACSHA1:
		return sha1x.New()
	default:
		return nil
	}
}

// errTLSMACSecret reports a keying mistake for TLS MACs.
var errTLSMACSecret = errors.New("sslcrypto: MAC secret must equal hash size")

// A MAC computes a record MAC. In SSL 3.0 form (NewMAC) it is the
// pre-HMAC construction
//
//	hash(secret ‖ pad2 ‖ hash(secret ‖ pad1 ‖ seq ‖ type ‖ length ‖ data))
//
// with pad1 = 0x36…, pad2 = 0x5c… — what the paper's DES-CBC3-SHA
// suite uses for every record. In TLS 1.0 form (NewTLSMAC) it is
// HMAC over a header that additionally includes the protocol version.
type MAC struct {
	alg    MACAlgorithm
	secret []byte
	pad1   []byte
	pad2   []byte
	h      sslDigest

	tls     bool
	version uint16
	hm      *hmacx.HMAC

	// Scratch reused across records: header and inner-hash buffers
	// passed to the digest through an interface would otherwise escape
	// to the heap on every Compute. A MAC serves one direction of one
	// connection, so reuse is race-free.
	hdrBuf   [13]byte
	innerBuf [maxMACSize]byte
	macBuf   [maxMACSize]byte
}

// NewMAC returns a MAC keyed with secret.
func NewMAC(alg MACAlgorithm, secret []byte) (*MAC, error) {
	if alg == MACNull {
		return &MAC{alg: alg}, nil
	}
	if len(secret) != alg.Size() {
		return nil, errors.New("sslcrypto: MAC secret must equal hash size")
	}
	m := &MAC{alg: alg, secret: append([]byte(nil), secret...), h: alg.newDigest()}
	m.pad1 = repeatByte(0x36, alg.padLen())
	m.pad2 = repeatByte(0x5c, alg.padLen())
	return m, nil
}

func repeatByte(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

// Size returns the MAC length.
func (m *MAC) Size() int { return m.alg.Size() }

// Compute returns the MAC for a record with the given 64-bit sequence
// number, content type and payload.
func (m *MAC) Compute(seq uint64, contentType byte, payload []byte) []byte {
	return m.AppendCompute(nil, seq, contentType, payload)
}

// AppendCompute appends the record MAC to dst and returns the extended
// slice. The inner hash result stays in a stack buffer, so when dst
// has capacity the whole computation is allocation-free — the record
// layer's seal path depends on this.
func (m *MAC) AppendCompute(dst []byte, seq uint64, contentType byte, payload []byte) []byte {
	if m.alg == MACNull {
		return dst
	}
	if m.tls {
		hdr := m.hdrBuf[:13]
		binary.BigEndian.PutUint64(hdr[0:], seq)
		hdr[8] = contentType
		binary.BigEndian.PutUint16(hdr[9:], m.version)
		binary.BigEndian.PutUint16(hdr[11:], uint16(len(payload)))
		m.hm.Reset()
		m.hm.Write(hdr)
		m.hm.Write(payload)
		return m.hm.Sum(dst)
	}
	hdr := m.hdrBuf[:11]
	binary.BigEndian.PutUint64(hdr[0:], seq)
	hdr[8] = contentType
	binary.BigEndian.PutUint16(hdr[9:], uint16(len(payload)))

	h := m.h
	h.Reset()
	h.Write(m.secret)
	h.Write(m.pad1)
	h.Write(hdr)
	h.Write(payload)
	inner := h.Sum(m.innerBuf[:0])

	h.Reset()
	h.Write(m.secret)
	h.Write(m.pad2)
	h.Write(inner)
	return h.Sum(dst)
}

// maxMACSize bounds the digest output across supported hashes.
const maxMACSize = sha1x.Size

// Verify recomputes the MAC and compares in constant time.
func (m *MAC) Verify(seq uint64, contentType byte, payload, mac []byte) bool {
	want := m.AppendCompute(m.macBuf[:0], seq, contentType, payload)
	if len(want) != len(mac) {
		return false
	}
	var diff byte
	for i := range want {
		diff |= want[i] ^ mac[i]
	}
	return diff == 0
}
