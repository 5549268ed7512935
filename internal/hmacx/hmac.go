// Package hmacx implements the record layer's two keyed-hash
// constructions over this library's MD5 and SHA-1: HMAC (RFC 2104),
// which TLS 1.0 adopted, and the SSL 3.0 MAC it grew out of. Both are
//
//	hash(outer ‖ hash(inner ‖ message))
//
// and differ only in the two key-derived prefixes: HMAC XORs the key
// into a block of 0x36 / 0x5c bytes, SSL 3.0 follows the key with 48
// (MD5) or 40 (SHA-1) of them.
//
// The prefixes never change under a key, so they are hashed once: an
// HMAC keeps the digest state after absorbing each and every message
// starts from a copy of it. For HMAC and the SSL 3.0 MD5 form each
// prefix is exactly one block, which saves two compressions per MAC.
package hmacx

import (
	"sslperf/internal/md5x"
	"sslperf/internal/sha1x"
)

// digest is the hash contract HMAC wraps.
type digest interface {
	Write(p []byte) (int, error)
	Sum(in []byte) []byte
	Size() int
	BlockSize() int
}

// HMAC is a streaming keyed-hash computation.
type HMAC struct {
	// innerKeyed and outerKeyed are the hash after absorbing the inner
	// and the outer prefix; nothing writes to them after construction.
	innerKeyed, outerKeyed digest
	// inner is the running hash of the message; outer is scratch for
	// Sum's second pass, which must leave inner undisturbed.
	inner, outer digest
	sum          [sha1x.Size]byte // the inner digest on its way into the outer pass
}

// md5States and sha1States return the four digests an HMAC works
// with, initialized and carved from one allocation.
func md5States() [4]digest {
	d := new([4]md5x.Digest)
	for i := range d {
		d[i].Reset()
	}
	return [4]digest{&d[0], &d[1], &d[2], &d[3]}
}

func sha1States() [4]digest {
	d := new([4]sha1x.Digest)
	for i := range d {
		d[i].Reset()
	}
	return [4]digest{&d[0], &d[1], &d[2], &d[3]}
}

// restore sets the running digest dst to the state saved in src, a
// digest of the same hash.
func restore(dst, src digest) {
	switch s := src.(type) {
	case *md5x.Digest:
		*dst.(*md5x.Digest) = *s
	case *sha1x.Digest:
		*dst.(*sha1x.Digest) = *s
	}
}

// keyed absorbs the two prefixes, held back to back in prefixes, into
// the keyed states.
func keyed(st [4]digest, prefixes []byte) *HMAC {
	h := &HMAC{innerKeyed: st[0], outerKeyed: st[1], inner: st[2], outer: st[3]}
	n := len(prefixes) / 2
	h.innerKeyed.Write(prefixes[:n])
	h.outerKeyed.Write(prefixes[n:])
	h.Reset()
	return h
}

func newHMAC(st [4]digest, key []byte) *HMAC {
	bs := st[0].BlockSize()
	if len(key) > bs {
		st[2].Write(key)
		key = st[2].Sum(nil)
	}
	pads := make([]byte, 2*bs)
	copy(pads, key)
	copy(pads[bs:], key)
	for i := 0; i < bs; i++ {
		pads[i] ^= 0x36
		pads[bs+i] ^= 0x5c
	}
	return keyed(st, pads)
}

func newSSL3(st [4]digest, secret []byte, padLen int) *HMAC {
	n := len(secret) + padLen
	prefixes := make([]byte, 2*n)
	copy(prefixes, secret)
	copy(prefixes[n:], secret)
	for i := len(secret); i < n; i++ {
		prefixes[i] = 0x36
		prefixes[n+i] = 0x5c
	}
	return keyed(st, prefixes)
}

// NewMD5 returns HMAC-MD5.
func NewMD5(key []byte) *HMAC { return newHMAC(md5States(), key) }

// NewSHA1 returns HMAC-SHA1.
func NewSHA1(key []byte) *HMAC { return newHMAC(sha1States(), key) }

// NewSSL3MD5 returns the SSL 3.0 MAC construction over MD5: the
// secret followed by 48 pad bytes, which together fill one block.
func NewSSL3MD5(secret []byte) *HMAC { return newSSL3(md5States(), secret, 48) }

// NewSSL3SHA1 returns the SSL 3.0 MAC construction over SHA-1: the
// secret followed by 40 pad bytes.
func NewSSL3SHA1(secret []byte) *HMAC { return newSSL3(sha1States(), secret, 40) }

// Size returns the MAC length.
func (h *HMAC) Size() int { return h.inner.Size() }

// BlockSize returns the underlying hash's block size.
func (h *HMAC) BlockSize() int { return h.inner.BlockSize() }

// Reset rewinds to the keyed initial state.
func (h *HMAC) Reset() { restore(h.inner, h.innerKeyed) }

// Write absorbs message bytes. It never fails.
func (h *HMAC) Write(p []byte) (int, error) { return h.inner.Write(p) }

// Sum appends the MAC of everything written since Reset to in. The
// inner state is not disturbed, so writing may continue.
func (h *HMAC) Sum(in []byte) []byte {
	innerSum := h.inner.Sum(h.sum[:0])
	restore(h.outer, h.outerKeyed)
	h.outer.Write(innerSum)
	return h.outer.Sum(in)
}
