// Package md5x implements the MD5 message digest (RFC 1321) from
// scratch, factored into the three phases of the paper's Table 10:
// Init (state setup), Update (the 64-byte block compression applied
// over the input), and Final (padding + length block + digest
// extraction).
package md5x

import (
	"encoding/binary"
	"math"
)

// Size is the MD5 digest length in bytes (128 bits).
const Size = 16

// BlockSize is the MD5 compression block size in bytes.
const BlockSize = 64

// sineTable holds the 64 per-step additive constants
// K[i] = floor(abs(sin(i+1)) * 2^32), computed at init rather than
// transcribed.
var sineTable [64]uint32

func init() {
	for i := range sineTable {
		sineTable[i] = uint32(math.Floor(math.Abs(math.Sin(float64(i+1))) * (1 << 32)))
	}
}

// A Digest is a running MD5 computation. The zero value is not valid;
// use New.
type Digest struct {
	s   [4]uint32
	buf [BlockSize]byte
	n   int    // bytes buffered
	len uint64 // total bytes written
}

// New returns an initialized MD5 digest (the paper's Init phase).
func New() *Digest {
	d := &Digest{}
	d.Reset()
	return d
}

// Reset reinitializes the digest state.
func (d *Digest) Reset() {
	d.s = [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}
	d.n = 0
	d.len = 0
}

// Size returns the digest length (16).
func (d *Digest) Size() int { return Size }

// BlockSize returns the compression block size (64).
func (d *Digest) BlockSize() int { return BlockSize }

// Write absorbs p into the digest (the paper's Update phase). It
// never fails.
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

// Sum appends the digest of everything written so far to in and
// returns the result (the paper's Final phase). It does not change
// the running state, so more data may be written afterwards.
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
	binary.LittleEndian.PutUint64(buf[BlockSize-8:], d.len*8)
	block(&s, buf[:])
	var out [Size]byte
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return append(in, out[:]...)
}

// Sum16 is a convenience one-shot MD5.
func Sum16(data []byte) [Size]byte {
	d := New()
	d.Write(data)
	var out [Size]byte
	copy(out[:], d.Sum(nil))
	return out
}
