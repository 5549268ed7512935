package md5x

import (
	"encoding/binary"
	"math/bits"
)

// block runs the MD5 compression function over the whole 64-byte
// blocks of p, the chaining value in locals from the first block to
// the last. MD5 is one serial dependency chain — every step needs the
// step before it — so the 64 steps are written out with their
// constants (floor(|sin(i+1)|·2^32), RFC 1321 §3.4) and each boolean
// function arranged so that as little as possible stands between the
// previous step's result and this step's sum. The four working variables trade roles from step
// to step instead of being moved.
//
// The paper's Figure 4 operations appear here: (a) is F's
// (X∧Y)∨(¬X∧Z), (b) is H's three-input XOR.
func block(s *[4]uint32, p []byte) {
	h0, h1, h2, h3 := s[0], s[1], s[2], s[3]
	for ; len(p) >= BlockSize; p = p[BlockSize:] {
		a, b, c, d := h0, h1, h2, h3
		_ = p[BlockSize-1]
		m0 := binary.LittleEndian.Uint32(p[0:])
		m1 := binary.LittleEndian.Uint32(p[4:])
		m2 := binary.LittleEndian.Uint32(p[8:])
		m3 := binary.LittleEndian.Uint32(p[12:])
		m4 := binary.LittleEndian.Uint32(p[16:])
		m5 := binary.LittleEndian.Uint32(p[20:])
		m6 := binary.LittleEndian.Uint32(p[24:])
		m7 := binary.LittleEndian.Uint32(p[28:])
		m8 := binary.LittleEndian.Uint32(p[32:])
		m9 := binary.LittleEndian.Uint32(p[36:])
		m10 := binary.LittleEndian.Uint32(p[40:])
		m11 := binary.LittleEndian.Uint32(p[44:])
		m12 := binary.LittleEndian.Uint32(p[48:])
		m13 := binary.LittleEndian.Uint32(p[52:])
		m14 := binary.LittleEndian.Uint32(p[56:])
		m15 := binary.LittleEndian.Uint32(p[60:])

		// Round 1: F, (b∧c)∨(¬b∧d) as d⊕(b∧(c⊕d)) — c⊕d is ready before b is.
		a += m0 + sineTable[0]
		a += d ^ (b & (c ^ d))
		a = b + bits.RotateLeft32(a, 7)
		d += m1 + sineTable[1]
		d += c ^ (a & (b ^ c))
		d = a + bits.RotateLeft32(d, 12)
		c += m2 + sineTable[2]
		c += b ^ (d & (a ^ b))
		c = d + bits.RotateLeft32(c, 17)
		b += m3 + sineTable[3]
		b += a ^ (c & (d ^ a))
		b = c + bits.RotateLeft32(b, 22)
		a += m4 + sineTable[4]
		a += d ^ (b & (c ^ d))
		a = b + bits.RotateLeft32(a, 7)
		d += m5 + sineTable[5]
		d += c ^ (a & (b ^ c))
		d = a + bits.RotateLeft32(d, 12)
		c += m6 + sineTable[6]
		c += b ^ (d & (a ^ b))
		c = d + bits.RotateLeft32(c, 17)
		b += m7 + sineTable[7]
		b += a ^ (c & (d ^ a))
		b = c + bits.RotateLeft32(b, 22)
		a += m8 + sineTable[8]
		a += d ^ (b & (c ^ d))
		a = b + bits.RotateLeft32(a, 7)
		d += m9 + sineTable[9]
		d += c ^ (a & (b ^ c))
		d = a + bits.RotateLeft32(d, 12)
		c += m10 + sineTable[10]
		c += b ^ (d & (a ^ b))
		c = d + bits.RotateLeft32(c, 17)
		b += m11 + sineTable[11]
		b += a ^ (c & (d ^ a))
		b = c + bits.RotateLeft32(b, 22)
		a += m12 + sineTable[12]
		a += d ^ (b & (c ^ d))
		a = b + bits.RotateLeft32(a, 7)
		d += m13 + sineTable[13]
		d += c ^ (a & (b ^ c))
		d = a + bits.RotateLeft32(d, 12)
		c += m14 + sineTable[14]
		c += b ^ (d & (a ^ b))
		c = d + bits.RotateLeft32(c, 17)
		b += m15 + sineTable[15]
		b += a ^ (c & (d ^ a))
		b = c + bits.RotateLeft32(b, 22)
		// Round 2: G, (d∧b)∨(¬d∧c). The two halves share no set bit, so they
		// are added as two terms: ¬d∧c waits for nothing, and only d∧b sits
		// between b and the sum.
		a += m1 + sineTable[16]
		a += (^d & c) + (d & b)
		a = b + bits.RotateLeft32(a, 5)
		d += m6 + sineTable[17]
		d += (^c & b) + (c & a)
		d = a + bits.RotateLeft32(d, 9)
		c += m11 + sineTable[18]
		c += (^b & a) + (b & d)
		c = d + bits.RotateLeft32(c, 14)
		b += m0 + sineTable[19]
		b += (^a & d) + (a & c)
		b = c + bits.RotateLeft32(b, 20)
		a += m5 + sineTable[20]
		a += (^d & c) + (d & b)
		a = b + bits.RotateLeft32(a, 5)
		d += m10 + sineTable[21]
		d += (^c & b) + (c & a)
		d = a + bits.RotateLeft32(d, 9)
		c += m15 + sineTable[22]
		c += (^b & a) + (b & d)
		c = d + bits.RotateLeft32(c, 14)
		b += m4 + sineTable[23]
		b += (^a & d) + (a & c)
		b = c + bits.RotateLeft32(b, 20)
		a += m9 + sineTable[24]
		a += (^d & c) + (d & b)
		a = b + bits.RotateLeft32(a, 5)
		d += m14 + sineTable[25]
		d += (^c & b) + (c & a)
		d = a + bits.RotateLeft32(d, 9)
		c += m3 + sineTable[26]
		c += (^b & a) + (b & d)
		c = d + bits.RotateLeft32(c, 14)
		b += m8 + sineTable[27]
		b += (^a & d) + (a & c)
		b = c + bits.RotateLeft32(b, 20)
		a += m13 + sineTable[28]
		a += (^d & c) + (d & b)
		a = b + bits.RotateLeft32(a, 5)
		d += m2 + sineTable[29]
		d += (^c & b) + (c & a)
		d = a + bits.RotateLeft32(d, 9)
		c += m7 + sineTable[30]
		c += (^b & a) + (b & d)
		c = d + bits.RotateLeft32(c, 14)
		b += m12 + sineTable[31]
		b += (^a & d) + (a & c)
		b = c + bits.RotateLeft32(b, 20)
		// Round 3: H, b⊕c⊕d with c⊕d taken first.
		a += m5 + sineTable[32]
		a += b ^ (c ^ d)
		a = b + bits.RotateLeft32(a, 4)
		d += m8 + sineTable[33]
		d += a ^ (b ^ c)
		d = a + bits.RotateLeft32(d, 11)
		c += m11 + sineTable[34]
		c += d ^ (a ^ b)
		c = d + bits.RotateLeft32(c, 16)
		b += m14 + sineTable[35]
		b += c ^ (d ^ a)
		b = c + bits.RotateLeft32(b, 23)
		a += m1 + sineTable[36]
		a += b ^ (c ^ d)
		a = b + bits.RotateLeft32(a, 4)
		d += m4 + sineTable[37]
		d += a ^ (b ^ c)
		d = a + bits.RotateLeft32(d, 11)
		c += m7 + sineTable[38]
		c += d ^ (a ^ b)
		c = d + bits.RotateLeft32(c, 16)
		b += m10 + sineTable[39]
		b += c ^ (d ^ a)
		b = c + bits.RotateLeft32(b, 23)
		a += m13 + sineTable[40]
		a += b ^ (c ^ d)
		a = b + bits.RotateLeft32(a, 4)
		d += m0 + sineTable[41]
		d += a ^ (b ^ c)
		d = a + bits.RotateLeft32(d, 11)
		c += m3 + sineTable[42]
		c += d ^ (a ^ b)
		c = d + bits.RotateLeft32(c, 16)
		b += m6 + sineTable[43]
		b += c ^ (d ^ a)
		b = c + bits.RotateLeft32(b, 23)
		a += m9 + sineTable[44]
		a += b ^ (c ^ d)
		a = b + bits.RotateLeft32(a, 4)
		d += m12 + sineTable[45]
		d += a ^ (b ^ c)
		d = a + bits.RotateLeft32(d, 11)
		c += m15 + sineTable[46]
		c += d ^ (a ^ b)
		c = d + bits.RotateLeft32(c, 16)
		b += m2 + sineTable[47]
		b += c ^ (d ^ a)
		b = c + bits.RotateLeft32(b, 23)
		// Round 4: I, c⊕(b∨¬d).
		a += m0 + sineTable[48]
		a += c ^ (b | ^d)
		a = b + bits.RotateLeft32(a, 6)
		d += m7 + sineTable[49]
		d += b ^ (a | ^c)
		d = a + bits.RotateLeft32(d, 10)
		c += m14 + sineTable[50]
		c += a ^ (d | ^b)
		c = d + bits.RotateLeft32(c, 15)
		b += m5 + sineTable[51]
		b += d ^ (c | ^a)
		b = c + bits.RotateLeft32(b, 21)
		a += m12 + sineTable[52]
		a += c ^ (b | ^d)
		a = b + bits.RotateLeft32(a, 6)
		d += m3 + sineTable[53]
		d += b ^ (a | ^c)
		d = a + bits.RotateLeft32(d, 10)
		c += m10 + sineTable[54]
		c += a ^ (d | ^b)
		c = d + bits.RotateLeft32(c, 15)
		b += m1 + sineTable[55]
		b += d ^ (c | ^a)
		b = c + bits.RotateLeft32(b, 21)
		a += m8 + sineTable[56]
		a += c ^ (b | ^d)
		a = b + bits.RotateLeft32(a, 6)
		d += m15 + sineTable[57]
		d += b ^ (a | ^c)
		d = a + bits.RotateLeft32(d, 10)
		c += m6 + sineTable[58]
		c += a ^ (d | ^b)
		c = d + bits.RotateLeft32(c, 15)
		b += m13 + sineTable[59]
		b += d ^ (c | ^a)
		b = c + bits.RotateLeft32(b, 21)
		a += m4 + sineTable[60]
		a += c ^ (b | ^d)
		a = b + bits.RotateLeft32(a, 6)
		d += m11 + sineTable[61]
		d += b ^ (a | ^c)
		d = a + bits.RotateLeft32(d, 10)
		c += m2 + sineTable[62]
		c += a ^ (d | ^b)
		c = d + bits.RotateLeft32(c, 15)
		b += m9 + sineTable[63]
		b += d ^ (c | ^a)
		b = c + bits.RotateLeft32(b, 21)

		h0 += a
		h1 += b
		h2 += c
		h3 += d
	}
	s[0], s[1], s[2], s[3] = h0, h1, h2, h3
}
