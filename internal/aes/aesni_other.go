//go:build !amd64

package aes

// hasAESNI is false off amd64: every block runs the table kernel.
const hasAESNI = false

// EncryptCBC CBC-encrypts the whole blocks of src into dst, starting
// from the chaining value iv and leaving the last ciphertext block
// there for the next call. dst may be src.
func (c *Cipher) EncryptCBC(dst, src, iv []byte) { c.encryptCBCTables(dst, src, iv) }

// DecryptCBC is the inverse of EncryptCBC. dst may be src.
func (c *Cipher) DecryptCBC(dst, src, iv []byte) { c.decryptCBCTables(dst, src, iv) }

// Encrypt encrypts one 16-byte block. dst and src may overlap.
func (c *Cipher) Encrypt(dst, src []byte) { c.encryptBlockTables(dst, src) }

// Decrypt is the inverse of Encrypt. dst and src may overlap.
func (c *Cipher) Decrypt(dst, src []byte) { c.decryptBlockTables(dst, src) }
