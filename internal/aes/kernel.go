package aes

import "encoding/binary"

// The table kernel: what the entry points at the end of this file run
// on a Cipher built without AES round instructions, and the reference
// the round-instruction kernel is tested against. aes.go's
// encPart1/2/3 are the same cipher split the way the paper's Table 5
// times it, and only anatomy.go (and the tests that hold the forms
// equal) call them.
//
// The state stays in eight locals that alternate as a round's input
// and output, the key schedule is a fixed array so every index is a
// constant, and the last nine main rounds plus the final round — all
// of AES-128 — are written out; the two or four extra rounds of the
// longer keys run in a loop ahead of them.

// schedule is an expanded key, 4*(nr+1) words of it used.
type schedule [60]uint32

// encryptWords encrypts one block held as four big-endian words.
func encryptWords(xk *schedule, nr int, s0, s1, s2, s3 uint32) (uint32, uint32, uint32, uint32) {
	s0 ^= xk[0]
	s1 ^= xk[1]
	s2 ^= xk[2]
	s3 ^= xk[3]
	k := 4
	for ; nr > 10; nr-- {
		t0 := te[0][s0>>24] ^ te[1][s1>>16&0xff] ^ te[2][s2>>8&0xff] ^ te[3][s3&0xff] ^ xk[k&31+0]
		t1 := te[0][s1>>24] ^ te[1][s2>>16&0xff] ^ te[2][s3>>8&0xff] ^ te[3][s0&0xff] ^ xk[k&31+1]
		t2 := te[0][s2>>24] ^ te[1][s3>>16&0xff] ^ te[2][s0>>8&0xff] ^ te[3][s1&0xff] ^ xk[k&31+2]
		t3 := te[0][s3>>24] ^ te[1][s0>>16&0xff] ^ te[2][s1>>8&0xff] ^ te[3][s2&0xff] ^ xk[k&31+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	rk := (*[40]uint32)(xk[k : k+40])
	var t0, t1, t2, t3 uint32
	t0 = te[0][s0>>24] ^ te[1][s1>>16&0xff] ^ te[2][s2>>8&0xff] ^ te[3][s3&0xff] ^ rk[0]
	t1 = te[0][s1>>24] ^ te[1][s2>>16&0xff] ^ te[2][s3>>8&0xff] ^ te[3][s0&0xff] ^ rk[1]
	t2 = te[0][s2>>24] ^ te[1][s3>>16&0xff] ^ te[2][s0>>8&0xff] ^ te[3][s1&0xff] ^ rk[2]
	t3 = te[0][s3>>24] ^ te[1][s0>>16&0xff] ^ te[2][s1>>8&0xff] ^ te[3][s2&0xff] ^ rk[3]
	s0 = te[0][t0>>24] ^ te[1][t1>>16&0xff] ^ te[2][t2>>8&0xff] ^ te[3][t3&0xff] ^ rk[4]
	s1 = te[0][t1>>24] ^ te[1][t2>>16&0xff] ^ te[2][t3>>8&0xff] ^ te[3][t0&0xff] ^ rk[5]
	s2 = te[0][t2>>24] ^ te[1][t3>>16&0xff] ^ te[2][t0>>8&0xff] ^ te[3][t1&0xff] ^ rk[6]
	s3 = te[0][t3>>24] ^ te[1][t0>>16&0xff] ^ te[2][t1>>8&0xff] ^ te[3][t2&0xff] ^ rk[7]
	t0 = te[0][s0>>24] ^ te[1][s1>>16&0xff] ^ te[2][s2>>8&0xff] ^ te[3][s3&0xff] ^ rk[8]
	t1 = te[0][s1>>24] ^ te[1][s2>>16&0xff] ^ te[2][s3>>8&0xff] ^ te[3][s0&0xff] ^ rk[9]
	t2 = te[0][s2>>24] ^ te[1][s3>>16&0xff] ^ te[2][s0>>8&0xff] ^ te[3][s1&0xff] ^ rk[10]
	t3 = te[0][s3>>24] ^ te[1][s0>>16&0xff] ^ te[2][s1>>8&0xff] ^ te[3][s2&0xff] ^ rk[11]
	s0 = te[0][t0>>24] ^ te[1][t1>>16&0xff] ^ te[2][t2>>8&0xff] ^ te[3][t3&0xff] ^ rk[12]
	s1 = te[0][t1>>24] ^ te[1][t2>>16&0xff] ^ te[2][t3>>8&0xff] ^ te[3][t0&0xff] ^ rk[13]
	s2 = te[0][t2>>24] ^ te[1][t3>>16&0xff] ^ te[2][t0>>8&0xff] ^ te[3][t1&0xff] ^ rk[14]
	s3 = te[0][t3>>24] ^ te[1][t0>>16&0xff] ^ te[2][t1>>8&0xff] ^ te[3][t2&0xff] ^ rk[15]
	t0 = te[0][s0>>24] ^ te[1][s1>>16&0xff] ^ te[2][s2>>8&0xff] ^ te[3][s3&0xff] ^ rk[16]
	t1 = te[0][s1>>24] ^ te[1][s2>>16&0xff] ^ te[2][s3>>8&0xff] ^ te[3][s0&0xff] ^ rk[17]
	t2 = te[0][s2>>24] ^ te[1][s3>>16&0xff] ^ te[2][s0>>8&0xff] ^ te[3][s1&0xff] ^ rk[18]
	t3 = te[0][s3>>24] ^ te[1][s0>>16&0xff] ^ te[2][s1>>8&0xff] ^ te[3][s2&0xff] ^ rk[19]
	s0 = te[0][t0>>24] ^ te[1][t1>>16&0xff] ^ te[2][t2>>8&0xff] ^ te[3][t3&0xff] ^ rk[20]
	s1 = te[0][t1>>24] ^ te[1][t2>>16&0xff] ^ te[2][t3>>8&0xff] ^ te[3][t0&0xff] ^ rk[21]
	s2 = te[0][t2>>24] ^ te[1][t3>>16&0xff] ^ te[2][t0>>8&0xff] ^ te[3][t1&0xff] ^ rk[22]
	s3 = te[0][t3>>24] ^ te[1][t0>>16&0xff] ^ te[2][t1>>8&0xff] ^ te[3][t2&0xff] ^ rk[23]
	t0 = te[0][s0>>24] ^ te[1][s1>>16&0xff] ^ te[2][s2>>8&0xff] ^ te[3][s3&0xff] ^ rk[24]
	t1 = te[0][s1>>24] ^ te[1][s2>>16&0xff] ^ te[2][s3>>8&0xff] ^ te[3][s0&0xff] ^ rk[25]
	t2 = te[0][s2>>24] ^ te[1][s3>>16&0xff] ^ te[2][s0>>8&0xff] ^ te[3][s1&0xff] ^ rk[26]
	t3 = te[0][s3>>24] ^ te[1][s0>>16&0xff] ^ te[2][s1>>8&0xff] ^ te[3][s2&0xff] ^ rk[27]
	s0 = te[0][t0>>24] ^ te[1][t1>>16&0xff] ^ te[2][t2>>8&0xff] ^ te[3][t3&0xff] ^ rk[28]
	s1 = te[0][t1>>24] ^ te[1][t2>>16&0xff] ^ te[2][t3>>8&0xff] ^ te[3][t0&0xff] ^ rk[29]
	s2 = te[0][t2>>24] ^ te[1][t3>>16&0xff] ^ te[2][t0>>8&0xff] ^ te[3][t1&0xff] ^ rk[30]
	s3 = te[0][t3>>24] ^ te[1][t0>>16&0xff] ^ te[2][t1>>8&0xff] ^ te[3][t2&0xff] ^ rk[31]
	t0 = te[0][s0>>24] ^ te[1][s1>>16&0xff] ^ te[2][s2>>8&0xff] ^ te[3][s3&0xff] ^ rk[32]
	t1 = te[0][s1>>24] ^ te[1][s2>>16&0xff] ^ te[2][s3>>8&0xff] ^ te[3][s0&0xff] ^ rk[33]
	t2 = te[0][s2>>24] ^ te[1][s3>>16&0xff] ^ te[2][s0>>8&0xff] ^ te[3][s1&0xff] ^ rk[34]
	t3 = te[0][s3>>24] ^ te[1][s0>>16&0xff] ^ te[2][s1>>8&0xff] ^ te[3][s2&0xff] ^ rk[35]
	s0 = (uint32(sbox[t0>>24])<<24 | uint32(sbox[t1>>16&0xff])<<16 | uint32(sbox[t2>>8&0xff])<<8 | uint32(sbox[t3&0xff])) ^ rk[36]
	s1 = (uint32(sbox[t1>>24])<<24 | uint32(sbox[t2>>16&0xff])<<16 | uint32(sbox[t3>>8&0xff])<<8 | uint32(sbox[t0&0xff])) ^ rk[37]
	s2 = (uint32(sbox[t2>>24])<<24 | uint32(sbox[t3>>16&0xff])<<16 | uint32(sbox[t0>>8&0xff])<<8 | uint32(sbox[t1&0xff])) ^ rk[38]
	s3 = (uint32(sbox[t3>>24])<<24 | uint32(sbox[t0>>16&0xff])<<16 | uint32(sbox[t1>>8&0xff])<<8 | uint32(sbox[t2&0xff])) ^ rk[39]
	return s0, s1, s2, s3
}

// decryptWords is the equivalent inverse cipher over the schedule
// invertKeySchedule derives.
func decryptWords(xk *schedule, nr int, s0, s1, s2, s3 uint32) (uint32, uint32, uint32, uint32) {
	s0 ^= xk[0]
	s1 ^= xk[1]
	s2 ^= xk[2]
	s3 ^= xk[3]
	k := 4
	for ; nr > 10; nr-- {
		t0 := td[0][s0>>24] ^ td[1][s3>>16&0xff] ^ td[2][s2>>8&0xff] ^ td[3][s1&0xff] ^ xk[k&31+0]
		t1 := td[0][s1>>24] ^ td[1][s0>>16&0xff] ^ td[2][s3>>8&0xff] ^ td[3][s2&0xff] ^ xk[k&31+1]
		t2 := td[0][s2>>24] ^ td[1][s1>>16&0xff] ^ td[2][s0>>8&0xff] ^ td[3][s3&0xff] ^ xk[k&31+2]
		t3 := td[0][s3>>24] ^ td[1][s2>>16&0xff] ^ td[2][s1>>8&0xff] ^ td[3][s0&0xff] ^ xk[k&31+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	rk := (*[40]uint32)(xk[k : k+40])
	var t0, t1, t2, t3 uint32
	t0 = td[0][s0>>24] ^ td[1][s3>>16&0xff] ^ td[2][s2>>8&0xff] ^ td[3][s1&0xff] ^ rk[0]
	t1 = td[0][s1>>24] ^ td[1][s0>>16&0xff] ^ td[2][s3>>8&0xff] ^ td[3][s2&0xff] ^ rk[1]
	t2 = td[0][s2>>24] ^ td[1][s1>>16&0xff] ^ td[2][s0>>8&0xff] ^ td[3][s3&0xff] ^ rk[2]
	t3 = td[0][s3>>24] ^ td[1][s2>>16&0xff] ^ td[2][s1>>8&0xff] ^ td[3][s0&0xff] ^ rk[3]
	s0 = td[0][t0>>24] ^ td[1][t3>>16&0xff] ^ td[2][t2>>8&0xff] ^ td[3][t1&0xff] ^ rk[4]
	s1 = td[0][t1>>24] ^ td[1][t0>>16&0xff] ^ td[2][t3>>8&0xff] ^ td[3][t2&0xff] ^ rk[5]
	s2 = td[0][t2>>24] ^ td[1][t1>>16&0xff] ^ td[2][t0>>8&0xff] ^ td[3][t3&0xff] ^ rk[6]
	s3 = td[0][t3>>24] ^ td[1][t2>>16&0xff] ^ td[2][t1>>8&0xff] ^ td[3][t0&0xff] ^ rk[7]
	t0 = td[0][s0>>24] ^ td[1][s3>>16&0xff] ^ td[2][s2>>8&0xff] ^ td[3][s1&0xff] ^ rk[8]
	t1 = td[0][s1>>24] ^ td[1][s0>>16&0xff] ^ td[2][s3>>8&0xff] ^ td[3][s2&0xff] ^ rk[9]
	t2 = td[0][s2>>24] ^ td[1][s1>>16&0xff] ^ td[2][s0>>8&0xff] ^ td[3][s3&0xff] ^ rk[10]
	t3 = td[0][s3>>24] ^ td[1][s2>>16&0xff] ^ td[2][s1>>8&0xff] ^ td[3][s0&0xff] ^ rk[11]
	s0 = td[0][t0>>24] ^ td[1][t3>>16&0xff] ^ td[2][t2>>8&0xff] ^ td[3][t1&0xff] ^ rk[12]
	s1 = td[0][t1>>24] ^ td[1][t0>>16&0xff] ^ td[2][t3>>8&0xff] ^ td[3][t2&0xff] ^ rk[13]
	s2 = td[0][t2>>24] ^ td[1][t1>>16&0xff] ^ td[2][t0>>8&0xff] ^ td[3][t3&0xff] ^ rk[14]
	s3 = td[0][t3>>24] ^ td[1][t2>>16&0xff] ^ td[2][t1>>8&0xff] ^ td[3][t0&0xff] ^ rk[15]
	t0 = td[0][s0>>24] ^ td[1][s3>>16&0xff] ^ td[2][s2>>8&0xff] ^ td[3][s1&0xff] ^ rk[16]
	t1 = td[0][s1>>24] ^ td[1][s0>>16&0xff] ^ td[2][s3>>8&0xff] ^ td[3][s2&0xff] ^ rk[17]
	t2 = td[0][s2>>24] ^ td[1][s1>>16&0xff] ^ td[2][s0>>8&0xff] ^ td[3][s3&0xff] ^ rk[18]
	t3 = td[0][s3>>24] ^ td[1][s2>>16&0xff] ^ td[2][s1>>8&0xff] ^ td[3][s0&0xff] ^ rk[19]
	s0 = td[0][t0>>24] ^ td[1][t3>>16&0xff] ^ td[2][t2>>8&0xff] ^ td[3][t1&0xff] ^ rk[20]
	s1 = td[0][t1>>24] ^ td[1][t0>>16&0xff] ^ td[2][t3>>8&0xff] ^ td[3][t2&0xff] ^ rk[21]
	s2 = td[0][t2>>24] ^ td[1][t1>>16&0xff] ^ td[2][t0>>8&0xff] ^ td[3][t3&0xff] ^ rk[22]
	s3 = td[0][t3>>24] ^ td[1][t2>>16&0xff] ^ td[2][t1>>8&0xff] ^ td[3][t0&0xff] ^ rk[23]
	t0 = td[0][s0>>24] ^ td[1][s3>>16&0xff] ^ td[2][s2>>8&0xff] ^ td[3][s1&0xff] ^ rk[24]
	t1 = td[0][s1>>24] ^ td[1][s0>>16&0xff] ^ td[2][s3>>8&0xff] ^ td[3][s2&0xff] ^ rk[25]
	t2 = td[0][s2>>24] ^ td[1][s1>>16&0xff] ^ td[2][s0>>8&0xff] ^ td[3][s3&0xff] ^ rk[26]
	t3 = td[0][s3>>24] ^ td[1][s2>>16&0xff] ^ td[2][s1>>8&0xff] ^ td[3][s0&0xff] ^ rk[27]
	s0 = td[0][t0>>24] ^ td[1][t3>>16&0xff] ^ td[2][t2>>8&0xff] ^ td[3][t1&0xff] ^ rk[28]
	s1 = td[0][t1>>24] ^ td[1][t0>>16&0xff] ^ td[2][t3>>8&0xff] ^ td[3][t2&0xff] ^ rk[29]
	s2 = td[0][t2>>24] ^ td[1][t1>>16&0xff] ^ td[2][t0>>8&0xff] ^ td[3][t3&0xff] ^ rk[30]
	s3 = td[0][t3>>24] ^ td[1][t2>>16&0xff] ^ td[2][t1>>8&0xff] ^ td[3][t0&0xff] ^ rk[31]
	t0 = td[0][s0>>24] ^ td[1][s3>>16&0xff] ^ td[2][s2>>8&0xff] ^ td[3][s1&0xff] ^ rk[32]
	t1 = td[0][s1>>24] ^ td[1][s0>>16&0xff] ^ td[2][s3>>8&0xff] ^ td[3][s2&0xff] ^ rk[33]
	t2 = td[0][s2>>24] ^ td[1][s1>>16&0xff] ^ td[2][s0>>8&0xff] ^ td[3][s3&0xff] ^ rk[34]
	t3 = td[0][s3>>24] ^ td[1][s2>>16&0xff] ^ td[2][s1>>8&0xff] ^ td[3][s0&0xff] ^ rk[35]
	s0 = (uint32(invSbox[t0>>24])<<24 | uint32(invSbox[t3>>16&0xff])<<16 | uint32(invSbox[t2>>8&0xff])<<8 | uint32(invSbox[t1&0xff])) ^ rk[36]
	s1 = (uint32(invSbox[t1>>24])<<24 | uint32(invSbox[t0>>16&0xff])<<16 | uint32(invSbox[t3>>8&0xff])<<8 | uint32(invSbox[t2&0xff])) ^ rk[37]
	s2 = (uint32(invSbox[t2>>24])<<24 | uint32(invSbox[t1>>16&0xff])<<16 | uint32(invSbox[t0>>8&0xff])<<8 | uint32(invSbox[t3&0xff])) ^ rk[38]
	s3 = (uint32(invSbox[t3>>24])<<24 | uint32(invSbox[t2>>16&0xff])<<16 | uint32(invSbox[t1>>8&0xff])<<8 | uint32(invSbox[t0&0xff])) ^ rk[39]
	return s0, s1, s2, s3
}

func load(b []byte) (uint32, uint32, uint32, uint32) {
	_ = b[15]
	return binary.BigEndian.Uint32(b), binary.BigEndian.Uint32(b[4:]),
		binary.BigEndian.Uint32(b[8:]), binary.BigEndian.Uint32(b[12:])
}

func store(b []byte, s0, s1, s2, s3 uint32) {
	_ = b[15]
	binary.BigEndian.PutUint32(b, s0)
	binary.BigEndian.PutUint32(b[4:], s1)
	binary.BigEndian.PutUint32(b[8:], s2)
	binary.BigEndian.PutUint32(b[12:], s3)
}

// encryptBlockTables is Encrypt on the tables.
func (c *Cipher) encryptBlockTables(dst, src []byte) {
	s0, s1, s2, s3 := load(src)
	s0, s1, s2, s3 = encryptWords(&c.enc, c.nr, s0, s1, s2, s3)
	store(dst, s0, s1, s2, s3)
}

// decryptBlockTables is Decrypt on the tables.
func (c *Cipher) decryptBlockTables(dst, src []byte) {
	c.needDec()
	s0, s1, s2, s3 := load(src)
	s0, s1, s2, s3 = decryptWords(&c.dec, c.nr, s0, s1, s2, s3)
	store(dst, s0, s1, s2, s3)
}

// encryptCBCTables is EncryptCBC on the tables, the chaining value
// held as four words.
func (c *Cipher) encryptCBCTables(dst, src, iv []byte) {
	c0, c1, c2, c3 := load(iv)
	for i := 0; i+BlockSize <= len(src); i += BlockSize {
		s0, s1, s2, s3 := load(src[i : i+BlockSize])
		c0, c1, c2, c3 = encryptWords(&c.enc, c.nr, s0^c0, s1^c1, s2^c2, s3^c3)
		store(dst[i:i+BlockSize], c0, c1, c2, c3)
	}
	store(iv, c0, c1, c2, c3)
}

// decryptCBCTables is DecryptCBC on the tables. Each ciphertext block
// is in registers before its plaintext is stored, so dst may be src.
func (c *Cipher) decryptCBCTables(dst, src, iv []byte) {
	c.needDec()
	c0, c1, c2, c3 := load(iv)
	for i := 0; i+BlockSize <= len(src); i += BlockSize {
		s0, s1, s2, s3 := load(src[i : i+BlockSize])
		p0, p1, p2, p3 := decryptWords(&c.dec, c.nr, s0, s1, s2, s3)
		store(dst[i:i+BlockSize], p0^c0, p1^c1, p2^c2, p3^c3)
		c0, c1, c2, c3 = s0, s1, s2, s3
	}
	store(iv, c0, c1, c2, c3)
}

// EncryptCBC CBC-encrypts the whole blocks of src into dst, starting
// from the chaining value iv and leaving the last ciphertext block
// there for the next call. dst may be src. It and the three below run
// the round instructions where c.ni is set, else the tables.
func (c *Cipher) EncryptCBC(dst, src, iv []byte) {
	if !c.ni {
		c.encryptCBCTables(dst, src, iv)
		return
	}
	_ = iv[BlockSize-1]
	if n := len(src) &^ (BlockSize - 1); n > 0 {
		_ = dst[n-1]
		encryptCBCAsm(&c.enc[0], c.nr, &dst[0], &src[0], &iv[0], n)
	}
}

// DecryptCBC is the inverse of EncryptCBC. dst may be src.
func (c *Cipher) DecryptCBC(dst, src, iv []byte) {
	if !c.ni {
		c.decryptCBCTables(dst, src, iv)
		return
	}
	c.needDec()
	_ = iv[BlockSize-1]
	if n := len(src) &^ (BlockSize - 1); n > 0 {
		_ = dst[n-1]
		decryptCBCAsm(&c.dec[0], c.nr, &dst[0], &src[0], &iv[0], n)
	}
}

// Encrypt encrypts one 16-byte block; on the round instructions, as
// one-block CBC from a zero chaining value. dst and src may overlap.
func (c *Cipher) Encrypt(dst, src []byte) {
	if !c.ni {
		c.encryptBlockTables(dst, src)
		return
	}
	var iv [BlockSize]byte
	_, _ = dst[BlockSize-1], src[BlockSize-1]
	encryptCBCAsm(&c.enc[0], c.nr, &dst[0], &src[0], &iv[0], BlockSize)
}

// Decrypt decrypts one 16-byte block using the equivalent inverse
// cipher; on the round instructions, as one-block CBC from a zero
// chaining value. dst and src may overlap. The first Decrypt on a
// Cipher derives the inverse key schedule.
func (c *Cipher) Decrypt(dst, src []byte) {
	if !c.ni {
		c.decryptBlockTables(dst, src)
		return
	}
	c.needDec()
	var iv [BlockSize]byte
	_, _ = dst[BlockSize-1], src[BlockSize-1]
	decryptCBCAsm(&c.dec[0], c.nr, &dst[0], &src[0], &iv[0], BlockSize)
}
