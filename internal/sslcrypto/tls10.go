package sslcrypto

import (
	"sslperf/internal/hmacx"
	"sslperf/internal/md5x"
	"sslperf/internal/sha1x"
)

// TLS 1.0 key derivation (RFC 2246 §5): the PRF splits the secret
// between HMAC-MD5 and HMAC-SHA1 expansion streams and XORs them.
// This library's SSLv3 focus follows the paper; TLS 1.0 support is
// the natural extension the paper's background mentions.

// pHash implements P_hash(secret, seed) producing n bytes with the
// given HMAC constructor.
func pHash(newMAC func(key []byte) *hmacx.HMAC, secret, seed []byte, n int) []byte {
	h := newMAC(secret)
	// A(1) = HMAC(secret, seed)
	h.Write(seed)
	a := h.Sum(nil)
	out := make([]byte, 0, n+h.Size())
	for len(out) < n {
		h.Reset()
		h.Write(a)
		h.Write(seed)
		out = h.Sum(out)
		h.Reset()
		h.Write(a)
		a = h.Sum(nil)
	}
	return out[:n]
}

// PRF10 is the TLS 1.0 pseudorandom function:
// P_MD5(S1, label‖seed) XOR P_SHA1(S2, label‖seed).
func PRF10(secret []byte, label string, seed []byte, n int) []byte {
	ls := make([]byte, 0, len(label)+len(seed))
	ls = append(ls, label...)
	ls = append(ls, seed...)
	half := (len(secret) + 1) / 2
	s1 := secret[:half]
	s2 := secret[len(secret)-half:]
	out := pHash(hmacx.NewMD5, s1, ls, n)
	sha := pHash(hmacx.NewSHA1, s2, ls, n)
	for i := range out {
		out[i] ^= sha[i]
	}
	return out
}

// TLSMasterSecret derives the 48-byte TLS 1.0 master secret.
func TLSMasterSecret(preMaster, clientRandom, serverRandom []byte) []byte {
	seed := make([]byte, 0, len(clientRandom)+len(serverRandom))
	seed = append(seed, clientRandom...)
	seed = append(seed, serverRandom...)
	return PRF10(preMaster, "master secret", seed, MasterSecretLen)
}

// TLSKeyBlock derives n bytes of TLS 1.0 key material
// (server random first, like SSLv3's key block).
func TLSKeyBlock(master, clientRandom, serverRandom []byte, n int) []byte {
	seed := make([]byte, 0, len(clientRandom)+len(serverRandom))
	seed = append(seed, serverRandom...)
	seed = append(seed, clientRandom...)
	return PRF10(master, "key expansion", seed, n)
}

// TLSFinishedLen is the TLS 1.0 finished verify-data length.
const TLSFinishedLen = 12

// TLSVerifyData computes the TLS 1.0 finished value over the
// transcript digests: PRF(master, label, MD5(hs) ‖ SHA1(hs))[0:12].
func (f *FinishedHash) TLSVerifyData(isClient bool, master []byte) []byte {
	label := "server finished"
	if isClient {
		label = "client finished"
	}
	md := *f.md5
	sha := *f.sha
	seed := make([]byte, 0, md5x.Size+sha1x.Size)
	seed = md.Sum(seed)
	seed = sha.Sum(seed)
	return PRF10(master, label, seed, TLSFinishedLen)
}

// NewTLSMAC returns the TLS 1.0 record MAC: HMAC over
// seq ‖ type ‖ version ‖ length ‖ data. version is the negotiated
// protocol version included in the MACed header.
func NewTLSMAC(alg MACAlgorithm, secret []byte, version uint16) (*MAC, error) {
	if alg == MACNull {
		return &MAC{alg: alg}, nil
	}
	if len(secret) != alg.Size() {
		return nil, errMACSecret
	}
	m := &MAC{alg: alg, tls: true, version: version}
	if alg == MACMD5 {
		m.h = hmacx.NewMD5(secret)
	} else {
		m.h = hmacx.NewSHA1(secret)
	}
	return m, nil
}
