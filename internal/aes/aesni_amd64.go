package aes

// On amd64 a CPU that reports AES-NI (and SSSE3, for the key byte
// swap) runs CBC on the round instructions in aesni_amd64.s; any other
// runs the table kernel. Lengths are checked here, in Go, so the
// assembly never reads or writes outside the slices it is given.

var hasAESNI = cpuidAES()

func cpuidAES() bool

//go:noescape
func encryptCBCAsm(xk *uint32, nr int, dst, src, iv *byte, n int)

//go:noescape
func decryptCBCAsm(xk *uint32, nr int, dst, src, iv *byte, n int)

// EncryptCBC CBC-encrypts the whole blocks of src into dst, starting
// from the chaining value iv and leaving the last ciphertext block
// there for the next call. dst may be src.
func (c *Cipher) EncryptCBC(dst, src, iv []byte) {
	if !hasAESNI {
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
	if !hasAESNI {
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
	if !hasAESNI {
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
	if !hasAESNI {
		c.decryptBlockTables(dst, src)
		return
	}
	c.needDec()
	var iv [BlockSize]byte
	_, _ = dst[BlockSize-1], src[BlockSize-1]
	decryptCBCAsm(&c.dec[0], c.nr, &dst[0], &src[0], &iv[0], BlockSize)
}
