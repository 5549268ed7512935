// Package cbc implements cipher-block-chaining mode over any block
// cipher. The paper highlights CBC's defining property: each
// plaintext block is XORed with the previous ciphertext block before
// encryption, creating a serial dependency that removes intra-message
// parallelism — the reason the paper's crypto-engine sketch (Figure 6)
// pipelines across the MAC rather than across blocks.
package cbc

import "errors"

// Block is the block-cipher contract CBC chains over, implemented by
// the aes and des packages here. The chaining loop lives with the
// cipher — its EncryptCBC/DecryptCBC keep the chaining value in
// registers across blocks — so this package dispatches once per call,
// not once per block. Both process the whole blocks of src into dst
// (which may be src) and replace iv with the chaining value the next
// call starts from.
type Block interface {
	BlockSize() int
	EncryptCBC(dst, src, iv []byte)
	DecryptCBC(dst, src, iv []byte)
}

// Encrypter encrypts successive multiples of the block size in CBC
// mode, carrying the IV across calls.
type Encrypter struct {
	b  Block
	iv []byte
}

// Decrypter is the CBC decryption counterpart.
type Decrypter struct {
	b  Block
	iv []byte
}

// NewEncrypter returns a CBC encrypter with the given IV, whose
// length must equal the cipher's block size.
func NewEncrypter(b Block, iv []byte) (*Encrypter, error) {
	if len(iv) != b.BlockSize() {
		return nil, errors.New("cbc: IV length must equal block size")
	}
	return &Encrypter{b: b, iv: append([]byte(nil), iv...)}, nil
}

// NewDecrypter returns a CBC decrypter with the given IV.
func NewDecrypter(b Block, iv []byte) (*Decrypter, error) {
	if len(iv) != b.BlockSize() {
		return nil, errors.New("cbc: IV length must equal block size")
	}
	return &Decrypter{b: b, iv: append([]byte(nil), iv...)}, nil
}

// BlockSize returns the underlying cipher's block size.
func (e *Encrypter) BlockSize() int { return e.b.BlockSize() }

// BlockSize returns the underlying cipher's block size.
func (d *Decrypter) BlockSize() int { return d.b.BlockSize() }

// CryptBlocks encrypts src into dst (same length, a multiple of the
// block size). dst may be src.
func (e *Encrypter) CryptBlocks(dst, src []byte) {
	checkBlocks(e.b, dst, src)
	e.b.EncryptCBC(dst, src, e.iv)
}

// CryptBlocks decrypts src into dst (same length, a multiple of the
// block size). dst may be src.
func (d *Decrypter) CryptBlocks(dst, src []byte) {
	checkBlocks(d.b, dst, src)
	d.b.DecryptCBC(dst, src, d.iv)
}

func checkBlocks(b Block, dst, src []byte) {
	if len(src)%b.BlockSize() != 0 || len(dst) < len(src) {
		panic("cbc: input not full blocks or output too short")
	}
}
