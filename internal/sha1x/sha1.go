// Package sha1x implements the SHA-1 secure hash (FIPS 180-2) from
// scratch, factored like md5x into the Init/Update/Final phases of
// the paper's Table 10. SHA-1's compression is more compute-intensive
// than MD5's — 80 rounds over an expanded 80-word message schedule —
// which is why the paper measures it ~60% slower.
package sha1x

import "encoding/binary"

// Size is the SHA-1 digest length in bytes (160 bits).
const Size = 20

// BlockSize is the SHA-1 compression block size in bytes.
const BlockSize = 64

// Round constants, one per 20-round stage.
const (
	k0 = 0x5a827999
	k1 = 0x6ed9eba1
	k2 = 0x8f1bbcdc
	k3 = 0xca62c1d6
)

// A Digest is a running SHA-1 computation. Use New.
type Digest struct {
	s   [5]uint32
	buf [BlockSize]byte
	n   int
	len uint64
}

// New returns an initialized SHA-1 digest.
func New() *Digest {
	d := &Digest{}
	d.Reset()
	return d
}

// Reset reinitializes the digest state. SHA-1 carries five chaining
// words to MD5's four — the "more states" of the paper's Table 10
// Init row.
func (d *Digest) Reset() {
	d.s = [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	d.n = 0
	d.len = 0
}

// Size returns the digest length (20).
func (d *Digest) Size() int { return Size }

// BlockSize returns the compression block size (64).
func (d *Digest) BlockSize() int { return BlockSize }

// Write absorbs p into the digest. It never fails.
func (d *Digest) Write(p []byte) (int, error) {
	n := len(p)
	d.len += uint64(n)
	if d.n > 0 {
		c := copy(d.buf[d.n:], p)
		d.n += c
		p = p[c:]
		if d.n == BlockSize {
			block(&d.s, d.buf[:])
			d.n = 0
		}
	}
	if whole := len(p) &^ (BlockSize - 1); whole > 0 {
		block(&d.s, p[:whole])
		p = p[whole:]
	}
	if len(p) > 0 {
		d.n = copy(d.buf[:], p)
	}
	return n, nil
}

// Sum appends the digest of everything written so far to in, leaving
// the running state unchanged.
func (d *Digest) Sum(in []byte) []byte {
	// Finalize copies: the 0x80 marker and zero fill go into the
	// partial block, the bit length into the last eight bytes of it or,
	// when those are taken, of one more block.
	s, buf := d.s, d.buf
	buf[d.n] = 0x80
	clear(buf[d.n+1:])
	if d.n >= BlockSize-8 {
		block(&s, buf[:])
		clear(buf[:BlockSize-8])
	}
	binary.BigEndian.PutUint64(buf[BlockSize-8:], d.len*8)
	block(&s, buf[:])
	var out [Size]byte
	for i, v := range s {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return append(in, out[:]...)
}

// Sum20 is a convenience one-shot SHA-1.
func Sum20(data []byte) [Size]byte {
	d := New()
	d.Write(data)
	var out [Size]byte
	copy(out[:], d.Sum(nil))
	return out
}
