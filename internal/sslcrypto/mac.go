package sslcrypto

import (
	"encoding/binary"
	"errors"

	"sslperf/internal/aes"
	"sslperf/internal/aessha1"
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

// errMACSecret reports a keying mistake.
var errMACSecret = errors.New("sslcrypto: MAC secret must equal hash size")

// A MAC computes a record MAC. In SSL 3.0 form (NewMAC) it is the
// pre-HMAC construction
//
//	hash(secret ‖ pad2 ‖ hash(secret ‖ pad1 ‖ seq ‖ type ‖ length ‖ data))
//
// with pad1 = 0x36…, pad2 = 0x5c… — what the paper's DES-CBC3-SHA
// suite uses for every record. In TLS 1.0 form (NewTLSMAC) it is
// HMAC over a header that additionally includes the protocol version.
// Either way the keyed part is hashed once, at key set-up (hmacx), and
// a record costs the header, the payload and one outer block.
type MAC struct {
	alg MACAlgorithm
	h   *hmacx.HMAC

	tls     bool
	version uint16

	// Scratch reused across records: a header passed to the digest
	// through an interface would otherwise escape to the heap on every
	// Compute. A MAC serves one direction of one connection, so reuse
	// is race-free.
	hdrBuf [13]byte
	macBuf [maxMACSize]byte
}

// NewMAC returns the SSL 3.0 record MAC keyed with secret.
func NewMAC(alg MACAlgorithm, secret []byte) (*MAC, error) {
	return newMAC(alg, secret, false, 0)
}

// newMAC is NewMAC and NewTLSMAC: the two differ only in the keyed
// hash (the SSL 3.0 pad construction or HMAC) and in the version TLS
// adds to the MACed header.
func newMAC(alg MACAlgorithm, secret []byte, tls bool, version uint16) (*MAC, error) {
	m := &MAC{alg: alg, tls: tls, version: version}
	if alg == MACNull {
		return m, nil
	}
	if len(secret) != alg.Size() {
		return nil, errMACSecret
	}
	switch {
	case alg == MACMD5 && tls:
		m.h = hmacx.NewMD5(secret)
	case alg == MACMD5:
		m.h = hmacx.NewSSL3MD5(secret)
	case tls:
		m.h = hmacx.NewSHA1(secret)
	default:
		m.h = hmacx.NewSSL3SHA1(secret)
	}
	return m, nil
}

// Size returns the MAC length.
func (m *MAC) Size() int { return m.alg.Size() }

// Algorithm returns the hash under the MAC.
func (m *MAC) Algorithm() MACAlgorithm { return m.alg }

// SHA1 returns the running inner digest of a SHA-1 MAC, and nil for a
// nil MAC or any other hash.
func (m *MAC) SHA1() *sha1x.Digest {
	if m == nil || m.alg != MACSHA1 {
		return nil
	}
	return m.h.InnerSHA1()
}

// Compute returns the MAC for a record with the given 64-bit sequence
// number, content type and payload.
func (m *MAC) Compute(seq uint64, contentType byte, payload []byte) []byte {
	return m.AppendCompute(nil, seq, contentType, payload)
}

// AppendCompute appends the record MAC to dst and returns the extended
// slice. When dst has capacity the whole computation is
// allocation-free — the record layer's seal path depends on this.
func (m *MAC) AppendCompute(dst []byte, seq uint64, contentType byte, payload []byte) []byte {
	if m.alg == MACNull {
		return dst
	}
	m.start(seq, contentType, len(payload))
	m.h.Write(payload)
	return m.h.Sum(dst)
}

// AppendComputeCBC is AppendCompute for a SHA-1 MAC whose record is
// AES-CBC encrypted under c. body is the payload's place in the
// record, len(payload) long: the payload's leading 64-byte groups are
// encrypted into it, from the chaining value iv, in the pass that
// hashes them (aessha1.EncryptHash), and the MAC is appended after it.
// It returns the extended body and how many payload bytes it
// encrypted, a multiple of 64 that may be 0; the caller fills in the
// rest of the payload and encrypts the rest of the record from iv.
func (m *MAC) AppendComputeCBC(body []byte, seq uint64, contentType byte, payload []byte, c *aes.Cipher, iv []byte) ([]byte, int) {
	m.start(seq, contentType, len(payload))
	n := aessha1.EncryptHash(c, body, iv, m.SHA1(), payload)
	return m.h.Sum(body), n
}

// start rewinds the hash to its keyed state and absorbs the record
// header: sequence number, content type, (TLS) version and length.
func (m *MAC) start(seq uint64, contentType byte, n int) {
	hdr := binary.BigEndian.AppendUint64(m.hdrBuf[:0], seq)
	hdr = append(hdr, contentType)
	if m.tls {
		hdr = binary.BigEndian.AppendUint16(hdr, m.version)
	}
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(n))
	m.h.Reset()
	m.h.Write(hdr)
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
