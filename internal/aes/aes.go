// Package aes implements the AES block cipher (FIPS 197) from
// scratch in the table-driven style of the OpenSSL code the paper
// profiles: four 256-entry 32-bit lookup tables (Te0–Te3) combine
// SubBytes, ShiftRows and MixColumns into four lookups and four XORs
// per output word per round.
//
// The block operation exists in three forms held equal by
// FuzzCBCKernels. The profiled form, in this file, is factored into
// the three parts of the paper's Table 5: (1) load state + initial
// round-key addition, (2) the main rounds, (3) the final round +
// store; each part is callable on its own so the anatomy harness can
// time them in batch, and nothing else calls them. The fused
// EncryptCBC/DecryptCBC and the single-block Encrypt/Decrypt run one
// of two fast forms: on an amd64 CPU whose CPUID reports AES-NI, the
// round instructions (aesni_amd64.s, where a single block is one-block
// CBC); on any other, the table kernel (kernel.go).
package aes

import (
	"encoding/binary"
	"errors"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// sbox and its inverse, computed at init from GF(2^8) arithmetic
// (multiplicative inverse followed by the affine transform) rather
// than transcribed, since this library builds everything from scratch.
var sbox, invSbox [256]byte

// Te tables for encryption: te[0][x] (Te0) packs S[x] pre-multiplied by
// the MixColumns coefficients (02,01,01,03); Te1–Te3 are byte
// rotations. Td tables are the decryption counterparts over the
// inverse S-box with coefficients (0e,09,0d,0b). Each set is one array
// so a round addresses all four off a single base register.
var te, td [4][256]uint32

// xtime multiplies by x in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1.
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

// gmul multiplies a and b in GF(2^8).
func gmul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

func init() {
	// Multiplicative inverses by brute force (256x256 is trivial at init).
	var inv [256]byte
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if gmul(byte(a), byte(b)) == 1 {
				inv[a] = byte(b)
				break
			}
		}
	}
	// Affine transform: s = b ^ rot(b,1) ^ rot(b,2) ^ rot(b,3) ^ rot(b,4) ^ 0x63.
	rotl8 := func(b byte, n uint) byte { return b<<n | b>>(8-n) }
	for i := 0; i < 256; i++ {
		b := inv[i]
		s := b ^ rotl8(b, 1) ^ rotl8(b, 2) ^ rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63
		sbox[i] = s
		invSbox[s] = byte(i)
	}
	for i := 0; i < 256; i++ {
		s := sbox[i]
		s2 := xtime(s)
		s3 := s2 ^ s
		w := uint32(s2)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s3)
		te[0][i] = w
		te[1][i] = w>>8 | w<<24
		te[2][i] = w>>16 | w<<16
		te[3][i] = w>>24 | w<<8
		is := invSbox[i]
		e := gmul(is, 0x0e)
		n9 := gmul(is, 0x09)
		d := gmul(is, 0x0d)
		bb := gmul(is, 0x0b)
		dw := uint32(e)<<24 | uint32(n9)<<16 | uint32(d)<<8 | uint32(bb)
		td[0][i] = dw
		td[1][i] = dw>>8 | dw<<24
		td[2][i] = dw>>16 | dw<<16
		td[3][i] = dw>>24 | dw<<8
	}
}

// A Cipher holds the expanded key schedules for one AES key.
type Cipher struct {
	enc, dec schedule
	nr       int  // number of rounds: 10/12/14
	hasDec   bool // dec has been derived
}

// New expands key (16, 24, or 32 bytes) into an AES cipher. Key
// expansion is the "key setup" phase of the paper's Figure 3. The
// decryption schedule (InvMixColumns over the round keys) is derived
// lazily on first Decrypt, so an encrypt-only user pays exactly the
// encryption key setup — the quantity Figure 3 plots.
func New(key []byte) (*Cipher, error) {
	var nr int
	switch len(key) {
	case 16:
		nr = 10
	case 24:
		nr = 12
	case 32:
		nr = 14
	default:
		return nil, errors.New("aes: key must be 16, 24, or 32 bytes")
	}
	c := &Cipher{nr: nr}
	expandKey(&c.enc, key, nr)
	return c, nil
}

// expandKey implements the FIPS 197 key schedule.
func expandKey(xk *schedule, key []byte, nr int) {
	nk := len(key) / 4
	w := xk[:4*(nr+1)]
	for i := 0; i < nk; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := uint32(1)
	for i := nk; i < len(w); i++ {
		t := w[i-1]
		if i%nk == 0 {
			// RotWord + SubWord + Rcon.
			t = t<<8 | t>>24
			t = subWord(t) ^ rcon<<24
			rcon = uint32(xtime(byte(rcon)))
		} else if nk > 6 && i%nk == 4 {
			t = subWord(t)
		}
		w[i] = w[i-nk] ^ t
	}
}

func subWord(t uint32) uint32 {
	return uint32(sbox[t>>24])<<24 | uint32(sbox[t>>16&0xff])<<16 |
		uint32(sbox[t>>8&0xff])<<8 | uint32(sbox[t&0xff])
}

// needDec derives the equivalent-inverse-cipher schedule on first
// use: reversed round order with InvMixColumns applied to the middle
// keys. Concurrent first use from multiple goroutines is not
// supported (record-layer cipher states are unidirectional and
// single-goroutine).
func (c *Cipher) needDec() {
	if c.hasDec {
		return
	}
	nr := c.nr
	for i := 0; i <= nr; i++ {
		copy(c.dec[4*i:4*i+4], c.enc[4*(nr-i):4*(nr-i)+4])
	}
	for i := 4; i < 4*nr; i++ {
		// InvMixColumns via the Td tables over the S-box domain.
		w := c.dec[i]
		c.dec[i] = td[0][sbox[w>>24]] ^ td[1][sbox[w>>16&0xff]] ^
			td[2][sbox[w>>8&0xff]] ^ td[3][sbox[w&0xff]]
	}
	c.hasDec = true
}

// Rounds returns the number of rounds (10, 12, or 14).
func (c *Cipher) Rounds() int { return c.nr }

// EncSchedule returns the encryption key schedule, big-endian words
// with the first 4*(Rounds()+1) used, for a kernel outside this package
// that runs the rounds itself: the stitched AES-CBC + SHA-1 loop
// (internal/aessha1).
func (c *Cipher) EncSchedule() *[60]uint32 { return (*[60]uint32)(&c.enc) }

// BlockSize returns the AES block size (16).
func (c *Cipher) BlockSize() int { return BlockSize }

// state is the four-word cipher state.
type state [4]uint32

// encPart1 is Table 5 part 1: map the byte block to cipher state and
// add the initial round key.
func (c *Cipher) encPart1(s *state, src []byte) {
	s[0] = binary.BigEndian.Uint32(src[0:]) ^ c.enc[0]
	s[1] = binary.BigEndian.Uint32(src[4:]) ^ c.enc[1]
	s[2] = binary.BigEndian.Uint32(src[8:]) ^ c.enc[2]
	s[3] = binary.BigEndian.Uint32(src[12:]) ^ c.enc[3]
}

// encPart2 is Table 5 part 2: the nr-1 main rounds. Each output word
// is four table lookups XORed together with the round key — the
// dataflow of the paper's Figure 5 hardware unit.
func (c *Cipher) encPart2(s *state) {
	rk := 4
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for r := 1; r < c.nr; r++ {
		t0 := te[0][s0>>24] ^ te[1][s1>>16&0xff] ^ te[2][s2>>8&0xff] ^ te[3][s3&0xff] ^ c.enc[rk]
		t1 := te[0][s1>>24] ^ te[1][s2>>16&0xff] ^ te[2][s3>>8&0xff] ^ te[3][s0&0xff] ^ c.enc[rk+1]
		t2 := te[0][s2>>24] ^ te[1][s3>>16&0xff] ^ te[2][s0>>8&0xff] ^ te[3][s1&0xff] ^ c.enc[rk+2]
		t3 := te[0][s3>>24] ^ te[1][s0>>16&0xff] ^ te[2][s1>>8&0xff] ^ te[3][s2&0xff] ^ c.enc[rk+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		rk += 4
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
}

// encPart3 is Table 5 part 3: the final round (SubBytes + ShiftRows +
// AddRoundKey, no MixColumns) and mapping the state back to bytes.
func (c *Cipher) encPart3(s *state, dst []byte) {
	rk := 4 * c.nr
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	t0 := uint32(sbox[s0>>24])<<24 | uint32(sbox[s1>>16&0xff])<<16 |
		uint32(sbox[s2>>8&0xff])<<8 | uint32(sbox[s3&0xff])
	t1 := uint32(sbox[s1>>24])<<24 | uint32(sbox[s2>>16&0xff])<<16 |
		uint32(sbox[s3>>8&0xff])<<8 | uint32(sbox[s0&0xff])
	t2 := uint32(sbox[s2>>24])<<24 | uint32(sbox[s3>>16&0xff])<<16 |
		uint32(sbox[s0>>8&0xff])<<8 | uint32(sbox[s1&0xff])
	t3 := uint32(sbox[s3>>24])<<24 | uint32(sbox[s0>>16&0xff])<<16 |
		uint32(sbox[s1>>8&0xff])<<8 | uint32(sbox[s2&0xff])
	binary.BigEndian.PutUint32(dst[0:], t0^c.enc[rk])
	binary.BigEndian.PutUint32(dst[4:], t1^c.enc[rk+1])
	binary.BigEndian.PutUint32(dst[8:], t2^c.enc[rk+2])
	binary.BigEndian.PutUint32(dst[12:], t3^c.enc[rk+3])
}

// HardwareRounds reports whether this CPU runs EncryptCBC, DecryptCBC,
// Encrypt and Decrypt on its AES round instructions (AESENC/AESDEC)
// rather than on the table kernel.
func HardwareRounds() bool { return hasAESNI }
