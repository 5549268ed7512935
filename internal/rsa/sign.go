package rsa

import (
	"bytes"
	"errors"
)

// HashID identifies the digest algorithm wrapped inside a PKCS#1 v1.5
// signature's DigestInfo.
type HashID int

// Supported signature digests. MD5SHA1 is the SSLv3/TLS1.0 convention:
// the 36-byte MD5‖SHA-1 concatenation signed raw, with no DigestInfo.
const (
	HashMD5 HashID = iota
	HashSHA1
	HashMD5SHA1
)

// digestInfoPrefix returns the DER prefix for the DigestInfo of each
// hash (AlgorithmIdentifier + OCTET STRING header), per PKCS#1.
func digestInfoPrefix(h HashID) ([]byte, int, error) {
	switch h {
	case HashMD5:
		return []byte{
			0x30, 0x20, 0x30, 0x0c, 0x06, 0x08, 0x2a, 0x86, 0x48, 0x86,
			0xf7, 0x0d, 0x02, 0x05, 0x05, 0x00, 0x04, 0x10,
		}, 16, nil
	case HashSHA1:
		return []byte{
			0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02,
			0x1a, 0x05, 0x00, 0x04, 0x14,
		}, 20, nil
	case HashMD5SHA1:
		return nil, 36, nil // raw, no DigestInfo
	}
	return nil, 0, errors.New("rsa: unknown hash id")
}

// SignPKCS1 signs digest (which must already be the hash output) with
// PKCS#1 v1.5 block type 1 padding.
func (priv *PrivateKey) SignPKCS1(h HashID, digest []byte) ([]byte, error) {
	prefix, dlen, err := digestInfoPrefix(h)
	if err != nil {
		return nil, err
	}
	if len(digest) != dlen {
		return nil, errors.New("rsa: digest length mismatch for hash")
	}
	t := make([]byte, 0, len(prefix)+dlen)
	t = append(t, prefix...)
	t = append(t, digest...)
	k := priv.Size()
	if len(t) > k-11 {
		return nil, errors.New("rsa: key too small for digest")
	}
	// EB = 00 || 01 || FF..FF || 00 || T
	eb := make([]byte, k)
	eb[1] = 1
	for i := 2; i < k-len(t)-1; i++ {
		eb[i] = 0xff
	}
	copy(eb[k-len(t):], t)
	m := newIntFromBytes(eb)
	s, err := priv.privateCRT(m)
	if err != nil {
		return nil, err
	}
	return s.FillBytes(make([]byte, k)), nil
}

// VerifyPKCS1 checks a PKCS#1 v1.5 signature over digest.
func (pub *PublicKey) VerifyPKCS1(h HashID, digest, sig []byte) error {
	prefix, dlen, err := digestInfoPrefix(h)
	if err != nil {
		return err
	}
	if len(digest) != dlen {
		return errors.New("rsa: digest length mismatch for hash")
	}
	k := pub.Size()
	if len(sig) != k {
		return errors.New("rsa: signature length mismatch")
	}
	s := newIntFromBytes(sig)
	if s.Cmp(pub.N) >= 0 {
		return errors.New("rsa: signature out of range")
	}
	m := pub.public(s)
	eb := m.FillBytes(make([]byte, k))
	t := make([]byte, 0, len(prefix)+dlen)
	t = append(t, prefix...)
	t = append(t, digest...)
	if len(eb) < len(t)+11 || eb[0] != 0 || eb[1] != 1 {
		return errors.New("rsa: invalid signature padding")
	}
	// FF padding then 00 then T.
	i := 2
	for ; i < len(eb)-len(t)-1; i++ {
		if eb[i] != 0xff {
			return errors.New("rsa: invalid signature padding")
		}
	}
	if eb[i] != 0 {
		return errors.New("rsa: invalid signature padding")
	}
	if !bytes.Equal(eb[i+1:], t) {
		return errors.New("rsa: signature mismatch")
	}
	return nil
}
