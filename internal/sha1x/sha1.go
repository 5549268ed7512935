// Package sha1x implements the SHA-1 secure hash (FIPS 180-2) from
// scratch, factored like md5x into the Init/Update/Final phases of
// the paper's Table 10. SHA-1's compression is more compute-intensive
// than MD5's — 80 rounds over an expanded 80-word message schedule —
// which is why the paper measures it ~60% slower.
//
// The compression function has two forms: the written-out scalar
// rounds (blockGeneric, block.go), which Table 10 times, and, on an
// amd64 CPU that reports the SHA extensions, SHA1RNDS4
// (block_amd64.s), about three times faster. Digest runs whichever
// this CPU has (HardwareRounds).
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
	d.write(p, false)
	return len(p), nil
}

// compress runs blockGeneric when generic is set and otherwise the
// kernel this CPU runs (block). The choice is a bool, not a function
// value: an indirect call would make every hashed buffer escape.
func compress(s *[5]uint32, p []byte, generic bool) {
	if generic {
		blockGeneric(s, p)
	} else {
		block(s, p)
	}
}

// write is Write on the kernel compress picks.
func (d *Digest) write(p []byte, generic bool) {
	d.len += uint64(len(p))
	if d.n > 0 {
		c := copy(d.buf[d.n:], p)
		d.n += c
		p = p[c:]
		if d.n == BlockSize {
			compress(&d.s, d.buf[:], generic)
			d.n = 0
		}
	}
	if whole := len(p) &^ (BlockSize - 1); whole > 0 {
		compress(&d.s, p[:whole], generic)
		p = p[whole:]
	}
	if len(p) > 0 {
		d.n = copy(d.buf[:], p)
	}
}

// Sum appends the digest of everything written so far to in, leaving
// the running state unchanged.
func (d *Digest) Sum(in []byte) []byte { return d.sum(in, false) }

// sum is Sum on the kernel compress picks.
func (d *Digest) sum(in []byte, generic bool) []byte {
	// Finalize copies: the 0x80 marker and zero fill go into the
	// partial block, the bit length into the last eight bytes of it or,
	// when those are taken, of one more block.
	s, buf := d.s, d.buf
	buf[d.n] = 0x80
	clear(buf[d.n+1:])
	if d.n >= BlockSize-8 {
		compress(&s, buf[:], generic)
		clear(buf[:BlockSize-8])
	}
	binary.BigEndian.PutUint64(buf[BlockSize-8:], d.len*8)
	compress(&s, buf[:], generic)
	var out [Size]byte
	for i, v := range s {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return append(in, out[:]...)
}

// Buffered returns how many bytes of a partial block the digest holds.
func (d *Digest) Buffered() int { return d.n }

// Chain is for a kernel outside this package that compresses whole
// blocks of the message itself, the stitched AES-CBC + SHA-1 loop
// (internal/aessha1): it counts the next n bytes, a multiple of
// BlockSize, as written and returns the chaining words, which the
// caller must advance over exactly those bytes before the digest is
// used again. The digest must hold no partial block.
func (d *Digest) Chain(n int) *[5]uint32 {
	if d.n != 0 || n%BlockSize != 0 {
		panic("sha1x: Chain off a block boundary")
	}
	d.len += uint64(n)
	return &d.s
}

// HardwareRounds reports whether this CPU runs Digest on the SHA
// extensions (SHA1RNDS4) rather than the scalar rounds.
func HardwareRounds() bool { return hasSHANI }

// Sum20 is a convenience one-shot SHA-1.
func Sum20(data []byte) [Size]byte {
	d := New()
	d.Write(data)
	var out [Size]byte
	copy(out[:], d.Sum(nil))
	return out
}
