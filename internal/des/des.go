// Package des implements the DES and Triple-DES (EDE) block ciphers
// from scratch, structured the way the paper's Table 6 dissects them:
// an initial permutation (IP), sixteen Feistel rounds of key mixing +
// S-box substitution + P permutation (one set for DES, three for
// 3DES), and a final permutation (FP).
//
// Like OpenSSL's libdes code the paper measured, the S-boxes and the
// P permutation are fused into eight 64-entry 32-bit SP tables, and
// 3DES applies IP and FP once around the three sets of rounds (the
// middle permutations cancel).
//
// The block operation exists in two forms held equal by
// FuzzCBCKernels. The profiled form in this file (permute over
// ipTab/fpTab, rounds16 over feistel and expand) is the one
// anatomy.go times part by part for Table 6, and nothing else calls
// it. The production form (kernel.go) is what Encrypt, Decrypt and the
// fused EncryptCBC/DecryptCBC run.
package des

import (
	"encoding/binary"
	"errors"
)

// BlockSize is the DES block size in bytes.
const BlockSize = 8

// Spec permutation tables (FIPS 46-3). Entries are 1-indexed input
// bit positions, MSB first.
var ipSpec = [64]byte{
	58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
	62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
	57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
	61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
}

var fpSpec = [64]byte{
	40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
	38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
	36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
	34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
}

var pc1 = [56]byte{
	57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
	10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
	63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
	14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
}

var pc2 = [48]byte{
	14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
	23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
	41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
	44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
}

var leftRotations = [16]byte{1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1}

// The eight S-boxes (FIPS 46-3), each 4 rows x 16 columns.
var sBoxes = [8][4][16]byte{
	{{14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7},
		{0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8},
		{4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0},
		{15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13}},
	{{15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10},
		{3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5},
		{0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15},
		{13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9}},
	{{10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8},
		{13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1},
		{13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7},
		{1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12}},
	{{7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15},
		{13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9},
		{10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4},
		{3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14}},
	{{2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9},
		{14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6},
		{4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14},
		{11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3}},
	{{12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11},
		{10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8},
		{9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6},
		{4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13}},
	{{4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1},
		{13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6},
		{1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2},
		{6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12}},
	{{13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7},
		{1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2},
		{7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8},
		{2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11}},
}

var pPerm = [32]byte{
	16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
	2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
}

// Fused S-box + P tables: sp[i][v] is S-box i applied to the 6-bit
// value v, placed in its output nibble, with P applied — so one round
// is eight lookups XORed together.
var sp [8][64]uint32

// Byte-indexed permutation tables: ipTab[i][b] is the contribution of
// input byte i having value b to the permuted 64-bit output, making
// IP eight lookups + ORs instead of 64 bit moves; likewise fpTab, and
// for the key schedule pc1Tab (the 64-bit key to the 56-bit C‖D) and
// pc2Tab (the 56-bit C‖D, seven bytes, to a 48-bit subkey).
var (
	ipTab, fpTab, pc1Tab [8][256]uint64
	pc2Tab               [7][256]uint64
)

// buildPermTab fills tab for the bit selection spec (1-indexed input
// positions, MSB first, over an input of len(tab) bytes; one entry per
// output bit, MSB first). A selection moves every bit on its own, so
// the OR of one lookup per input byte is the whole permutation, and a
// byte value's entry is the OR of its single bits' entries.
func buildPermTab(tab [][256]uint64, spec []byte) {
	for out, in := range spec {
		in-- // 0-indexed from the MSB
		tab[in/8][0x80>>(in%8)] |= 1 << (len(spec) - 1 - out)
	}
	for i := range tab {
		for b := 1; b < 256; b++ {
			low := b & -b
			tab[i][b] = tab[i][b^low] | tab[i][low]
		}
	}
}

func init() {
	buildPermTab(ipTab[:], ipSpec[:])
	buildPermTab(fpTab[:], fpSpec[:])
	buildPermTab(pc1Tab[:], pc1[:])
	buildPermTab(pc2Tab[:], pc2[:])
	var turned uint
	for i, n := range leftRotations {
		turned += uint(n)
		rotationsBefore[i] = turned
	}
	for i := 0; i < 8; i++ {
		for v := 0; v < 64; v++ {
			row := (v>>4)&2 | v&1
			col := (v >> 1) & 0xf
			s := sBoxes[i][row][col]
			// Place in nibble i of the 32-bit S output (S1 highest).
			word := uint32(s) << uint(28-4*i)
			// Apply P.
			var p uint32
			for outBit := 0; outBit < 32; outBit++ {
				inBit := int(pPerm[outBit]) - 1
				if word&(1<<uint(31-inBit)) != 0 {
					p |= 1 << uint(31-outBit)
				}
			}
			sp[i][v] = p
			spRot[i][v] = p<<1 | p>>31
		}
	}
}

// permute applies a byte-indexed permutation table to a 64-bit block.
func permute(tab *[8][256]uint64, v uint64) uint64 {
	return tab[0][v>>56] | tab[1][v>>48&0xff] | tab[2][v>>40&0xff] |
		tab[3][v>>32&0xff] | tab[4][v>>24&0xff] | tab[5][v>>16&0xff] |
		tab[6][v>>8&0xff] | tab[7][v&0xff]
}

// expand computes the E expansion of r as a 48-bit value in 8 six-bit
// groups (group 0 in bits 47..42).
func expand(r uint32) uint64 {
	// v = r32 · r1..r32 · r1 (34 bits); group i = bits 33-4i..28-4i.
	v := uint64(r&1)<<33 | uint64(r)<<1 | uint64(r>>31)
	var e uint64
	for i := 0; i < 8; i++ {
		e = e<<6 | (v>>(28-4*i))&0x3f
	}
	return e
}

// feistel computes the DES round function f(r, k) for a 48-bit
// subkey: expansion, key mixing, and eight fused SP lookups.
func feistel(r uint32, k uint64) uint32 {
	x := expand(r) ^ k
	return sp[0][x>>42&0x3f] ^ sp[1][x>>36&0x3f] ^ sp[2][x>>30&0x3f] ^
		sp[3][x>>24&0x3f] ^ sp[4][x>>18&0x3f] ^ sp[5][x>>12&0x3f] ^
		sp[6][x>>6&0x3f] ^ sp[7][x&0x3f]
}

// rotationsBefore[i] is the sum of leftRotations[:i+1]: how far round
// i's C and D have turned from PC-1's output (filled by init).
var rotationsBefore [16]uint

// subkeys derives the sixteen 48-bit round subkeys from an 8-byte key
// (parity bits ignored), the "key setup" of the paper's Figure 3: PC-1
// by eight lookups, then per round C and D rotated and PC-2 by seven.
// Each 28-bit half is held twice over, side by side, so its rotation by
// n is one shift right by 28-n. Nothing branches on a key bit, so a
// fresh key per connection costs what a repeated one does.
func subkeys(key []byte) [16]uint64 {
	cd := permute(&pc1Tab, binary.BigEndian.Uint64(key))
	cc, dd := (cd>>28)*(1<<28+1), (cd&0x0fffffff)*(1<<28+1)
	var out [16]uint64
	for round, n := range rotationsBefore {
		s := (28 - n) & 63 // the mask drops the compiler's shift-overflow guard
		cd = (cc>>s&0x0fffffff)<<28 | dd>>s&0x0fffffff
		out[round] = pc2Tab[0][cd>>48&0xff] | pc2Tab[1][cd>>40&0xff] | pc2Tab[2][cd>>32&0xff] |
			pc2Tab[3][cd>>24&0xff] | pc2Tab[4][cd>>16&0xff] | pc2Tab[5][cd>>8&0xff] |
			pc2Tab[6][cd&0xff]
	}
	return out
}

// A Cipher is a single-DES cipher.
type Cipher struct {
	enc      [16]uint64 // the profiled form's schedule (anatomy.go)
	fwd, rev roundKeys  // the same subkeys packed for the kernel, in encryption and decryption order
}

// New expands an 8-byte key into a DES cipher.
func New(key []byte) (*Cipher, error) {
	if len(key) != 8 {
		return nil, errors.New("des: key must be 8 bytes")
	}
	c := &Cipher{enc: subkeys(key)}
	packKeys(&c.fwd, &c.rev, &c.enc)
	return c, nil
}

// BlockSize returns 8.
func (c *Cipher) BlockSize() int { return BlockSize }

// rounds16 runs the 16 Feistel rounds (the paper's "substitution"
// part) including the final half swap.
func rounds16(l, r uint32, keys *[16]uint64) (uint32, uint32) {
	for i := 0; i < 16; i++ {
		l, r = r, l^feistel(r, keys[i])
	}
	return r, l
}

// Encrypt encrypts one 8-byte block.
func (c *Cipher) Encrypt(dst, src []byte) { cryptBlock(dst, src, &c.fwd, nil, nil) }

// Decrypt decrypts one 8-byte block.
func (c *Cipher) Decrypt(dst, src []byte) { cryptBlock(dst, src, &c.rev, nil, nil) }

// EncryptCBC CBC-encrypts the whole blocks of src into dst, chaining
// from iv and leaving the last ciphertext block there for the next
// call. dst may be src.
func (c *Cipher) EncryptCBC(dst, src, iv []byte) { encryptCBC(dst, src, iv, &c.fwd, nil, nil) }

// DecryptCBC is the inverse of EncryptCBC. dst may be src.
func (c *Cipher) DecryptCBC(dst, src, iv []byte) { decryptCBC(dst, src, iv, &c.rev, nil, nil) }

// A TripleCipher is a 3DES (EDE3) cipher. As in libdes, IP and FP are
// applied once around the three sets of rounds; the inner
// permutations cancel algebraically.
type TripleCipher struct {
	k1enc, k2dec, k3enc [16]uint64 // the profiled form's schedules (anatomy.go)

	// The packed round keys in the order each direction runs them:
	// E(K1) D(K2) E(K3) to encrypt, D(K3) E(K2) D(K1) to decrypt.
	enc, dec [3]roundKeys
}

// NewTriple expands a 24-byte key into an EDE3 cipher. A 16-byte key
// selects two-key 3DES (K3 = K1).
func NewTriple(key []byte) (*TripleCipher, error) {
	if len(key) != 16 && len(key) != 24 {
		return nil, errors.New("des: 3DES key must be 16 or 24 bytes")
	}
	t := &TripleCipher{}
	k2enc := subkeys(key[8:16])
	t.k1enc = subkeys(key[0:8])
	if len(key) == 24 {
		t.k3enc = subkeys(key[16:24])
	} else {
		t.k3enc = t.k1enc
	}
	for i := range k2enc {
		t.k2dec[i] = k2enc[15-i]
	}
	packKeys(&t.enc[0], &t.dec[2], &t.k1enc)
	packKeys(&t.dec[1], &t.enc[1], &k2enc)
	packKeys(&t.enc[2], &t.dec[0], &t.k3enc)
	return t, nil
}

// BlockSize returns 8.
func (t *TripleCipher) BlockSize() int { return BlockSize }

// Encrypt encrypts one block: E(K3, D(K2, E(K1, ·))).
func (t *TripleCipher) Encrypt(dst, src []byte) {
	cryptBlock(dst, src, &t.enc[0], &t.enc[1], &t.enc[2])
}

// Decrypt decrypts one block.
func (t *TripleCipher) Decrypt(dst, src []byte) {
	cryptBlock(dst, src, &t.dec[0], &t.dec[1], &t.dec[2])
}

// EncryptCBC CBC-encrypts the whole blocks of src into dst, chaining
// from iv and leaving the last ciphertext block there for the next
// call. dst may be src.
func (t *TripleCipher) EncryptCBC(dst, src, iv []byte) {
	encryptCBC(dst, src, iv, &t.enc[0], &t.enc[1], &t.enc[2])
}

// DecryptCBC is the inverse of EncryptCBC. dst may be src.
func (t *TripleCipher) DecryptCBC(dst, src, iv []byte) {
	decryptCBC(dst, src, iv, &t.dec[0], &t.dec[1], &t.dec[2])
}
