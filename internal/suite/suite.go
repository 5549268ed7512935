// Package suite defines the SSLv3 cipher suites this library speaks —
// RSA key exchange with the symmetric ciphers and MACs the paper
// evaluates. A suite binds a record cipher constructor, a MAC
// algorithm, and the key-material geometry the key block is sliced
// into.
package suite

import (
	"errors"
	"fmt"

	"sslperf/internal/aes"
	"sslperf/internal/cbc"
	"sslperf/internal/des"
	"sslperf/internal/rc4"
	"sslperf/internal/sslcrypto"
)

// ID is the wire identifier of a cipher suite.
type ID uint16

// The cipher suites implemented. DES-CBC3-SHA (0x000A) is the suite
// the paper's measurements use throughout; the DHE suites exercise
// the ServerKeyExchange path the RSA suites skip.
const (
	RSAWithNullMD5          ID = 0x0001
	RSAWithNullSHA          ID = 0x0002
	RSAWithRC4128MD5        ID = 0x0004
	RSAWithRC4128SHA        ID = 0x0005
	RSAWithDESCBCSHA        ID = 0x0009
	RSAWith3DESEDECBCSHA    ID = 0x000a
	DHERSAWith3DESEDECBCSHA ID = 0x0016
	RSAWithAES128CBCSHA     ID = 0x002f
	DHERSAWithAES128CBCSHA  ID = 0x0033
	RSAWithAES256CBCSHA     ID = 0x0035
	DHERSAWithAES256CBCSHA  ID = 0x0039
)

// KeyExchange identifies how the pre-master secret is established.
type KeyExchange int

// Key exchange algorithms.
const (
	// KxRSA encrypts the pre-master under the certificate's RSA key.
	KxRSA KeyExchange = iota
	// KxDHERSA derives the pre-master by ephemeral Diffie-Hellman,
	// with the server's parameters signed by its RSA key.
	KxDHERSA
)

// A RecordCipher encrypts/decrypts record payloads in place.
// BlockSize is 1 for stream (and null) ciphers; block ciphers require
// input lengths that are block multiples.
//
// Ordering contract: record ciphers are stateful across calls — RC4
// consumes keystream, CBC chains each call's last ciphertext block
// into the next call's IV. Callers MUST invoke Encrypt in record
// sequence-number order, exactly once per record body.
type RecordCipher interface {
	BlockSize() int
	Encrypt(buf []byte)
	Decrypt(buf []byte)
}

// A Suite describes one cipher suite.
type Suite struct {
	ID     ID
	Name   string // OpenSSL-style name, e.g. "DES-CBC3-SHA"
	Kx     KeyExchange
	KeyLen int // cipher key bytes
	IVLen  int // IV bytes (0 for stream ciphers)
	MAC    sslcrypto.MACAlgorithm

	// CipherAlgo names the symmetric primitive ("RC4", "DES", "3DES",
	// "AES", "NULL") — the row key the path-length observatory and the
	// paper's Tables 11/12 account per-primitive work under,
	// independent of key size.
	CipherAlgo string

	newCipher func(key, iv []byte, encrypt bool) (RecordCipher, error)
}

// MACLen returns the MAC output size in bytes.
func (s *Suite) MACLen() int { return s.MAC.Size() }

// KeyMaterialLen returns the number of key-block bytes the suite
// consumes: two MAC secrets, two keys, two IVs.
func (s *Suite) KeyMaterialLen() int {
	return 2*s.MACLen() + 2*s.KeyLen + 2*s.IVLen
}

// NewCipher builds the record cipher for one direction.
func (s *Suite) NewCipher(key, iv []byte, encrypt bool) (RecordCipher, error) {
	if len(key) != s.KeyLen || len(iv) != s.IVLen {
		return nil, errors.New("suite: wrong key or IV length")
	}
	return s.newCipher(key, iv, encrypt)
}

// NewMAC builds a record MAC keyed with secret.
func (s *Suite) NewMAC(secret []byte) (*sslcrypto.MAC, error) {
	return sslcrypto.NewMAC(s.MAC, secret)
}

// nullCipher passes data through (the NULL encryption suites used as
// the paper's no-crypto baseline).
type nullCipher struct{}

func (nullCipher) BlockSize() int     { return 1 }
func (nullCipher) Encrypt(buf []byte) {}
func (nullCipher) Decrypt(buf []byte) {}

// streamCipher adapts RC4.
type streamCipher struct{ c *rc4.Cipher }

func (s streamCipher) BlockSize() int     { return 1 }
func (s streamCipher) Encrypt(buf []byte) { s.c.XORKeyStream(buf, buf) }
func (s streamCipher) Decrypt(buf []byte) { s.c.XORKeyStream(buf, buf) }

// blockCipher adapts a CBC-wrapped block cipher. One direction per
// instance, like a real record connection state.
type blockCipher struct {
	enc *cbc.Encrypter
	dec *cbc.Decrypter
	bs  int
}

func (b *blockCipher) BlockSize() int { return b.bs }

func (b *blockCipher) Encrypt(buf []byte) {
	if b.enc == nil {
		panic("suite: encrypt on decrypt-side cipher")
	}
	b.enc.CryptBlocks(buf, buf)
}

func (b *blockCipher) Decrypt(buf []byte) {
	if b.dec == nil {
		panic("suite: decrypt on encrypt-side cipher")
	}
	b.dec.CryptBlocks(buf, buf)
}

// AESCBC returns the AES cipher and the live chaining value behind an
// encrypt-side AES-CBC record cipher, and nil, nil for any other: the
// stitched AES-CBC + SHA-1 seal encrypts the first part of a record
// outside Encrypt, and the Encrypt of the rest continues from the
// chaining value it leaves.
func AESCBC(ci RecordCipher) (*aes.Cipher, []byte) {
	b, ok := ci.(*blockCipher)
	if !ok || b.enc == nil {
		return nil, nil
	}
	blk, iv := b.enc.Chain()
	c, ok := blk.(*aes.Cipher)
	if !ok {
		return nil, nil
	}
	return c, iv
}

func newBlockCipher(blk cbc.Block, iv []byte, encrypt bool) (RecordCipher, error) {
	bc := &blockCipher{bs: blk.BlockSize()}
	var err error
	if encrypt {
		bc.enc, err = cbc.NewEncrypter(blk, iv)
	} else {
		bc.dec, err = cbc.NewDecrypter(blk, iv)
	}
	if err != nil {
		return nil, err
	}
	return bc, nil
}

var registry = map[ID]*Suite{}
var ordered []ID

func register(s *Suite) {
	registry[s.ID] = s
	ordered = append(ordered, s.ID)
}

func init() {
	register(&Suite{
		ID: RSAWithRC4128MD5, Name: "RC4-MD5", CipherAlgo: "RC4",
		KeyLen: 16, IVLen: 0, MAC: sslcrypto.MACMD5,
		newCipher: func(key, _ []byte, _ bool) (RecordCipher, error) {
			c, err := rc4.New(key)
			if err != nil {
				return nil, err
			}
			return streamCipher{c}, nil
		},
	})
	register(&Suite{
		ID: RSAWithRC4128SHA, Name: "RC4-SHA", CipherAlgo: "RC4",
		KeyLen: 16, IVLen: 0, MAC: sslcrypto.MACSHA1,
		newCipher: func(key, _ []byte, _ bool) (RecordCipher, error) {
			c, err := rc4.New(key)
			if err != nil {
				return nil, err
			}
			return streamCipher{c}, nil
		},
	})
	register(&Suite{
		ID: RSAWithDESCBCSHA, Name: "DES-CBC-SHA", CipherAlgo: "DES",
		KeyLen: 8, IVLen: 8, MAC: sslcrypto.MACSHA1,
		newCipher: func(key, iv []byte, encrypt bool) (RecordCipher, error) {
			blk, err := des.New(key)
			if err != nil {
				return nil, err
			}
			return newBlockCipher(blk, iv, encrypt)
		},
	})
	register(&Suite{
		ID: RSAWith3DESEDECBCSHA, Name: "DES-CBC3-SHA", CipherAlgo: "3DES",
		KeyLen: 24, IVLen: 8, MAC: sslcrypto.MACSHA1,
		newCipher: func(key, iv []byte, encrypt bool) (RecordCipher, error) {
			blk, err := des.NewTriple(key)
			if err != nil {
				return nil, err
			}
			return newBlockCipher(blk, iv, encrypt)
		},
	})
	register(&Suite{
		ID: RSAWithAES128CBCSHA, Name: "AES128-SHA", CipherAlgo: "AES",
		KeyLen: 16, IVLen: 16, MAC: sslcrypto.MACSHA1,
		newCipher: func(key, iv []byte, encrypt bool) (RecordCipher, error) {
			blk, err := aes.New(key)
			if err != nil {
				return nil, err
			}
			return newBlockCipher(blk, iv, encrypt)
		},
	})
	register(&Suite{
		ID: RSAWithAES256CBCSHA, Name: "AES256-SHA", CipherAlgo: "AES",
		KeyLen: 32, IVLen: 16, MAC: sslcrypto.MACSHA1,
		newCipher: func(key, iv []byte, encrypt bool) (RecordCipher, error) {
			blk, err := aes.New(key)
			if err != nil {
				return nil, err
			}
			return newBlockCipher(blk, iv, encrypt)
		},
	})
	register(&Suite{
		ID: DHERSAWith3DESEDECBCSHA, Name: "EDH-RSA-DES-CBC3-SHA", Kx: KxDHERSA, CipherAlgo: "3DES",
		KeyLen: 24, IVLen: 8, MAC: sslcrypto.MACSHA1,
		newCipher: func(key, iv []byte, encrypt bool) (RecordCipher, error) {
			blk, err := des.NewTriple(key)
			if err != nil {
				return nil, err
			}
			return newBlockCipher(blk, iv, encrypt)
		},
	})
	register(&Suite{
		ID: DHERSAWithAES128CBCSHA, Name: "DHE-RSA-AES128-SHA", Kx: KxDHERSA, CipherAlgo: "AES",
		KeyLen: 16, IVLen: 16, MAC: sslcrypto.MACSHA1,
		newCipher: func(key, iv []byte, encrypt bool) (RecordCipher, error) {
			blk, err := aes.New(key)
			if err != nil {
				return nil, err
			}
			return newBlockCipher(blk, iv, encrypt)
		},
	})
	register(&Suite{
		ID: DHERSAWithAES256CBCSHA, Name: "DHE-RSA-AES256-SHA", Kx: KxDHERSA, CipherAlgo: "AES",
		KeyLen: 32, IVLen: 16, MAC: sslcrypto.MACSHA1,
		newCipher: func(key, iv []byte, encrypt bool) (RecordCipher, error) {
			blk, err := aes.New(key)
			if err != nil {
				return nil, err
			}
			return newBlockCipher(blk, iv, encrypt)
		},
	})
	// NULL suites register last so default preference lists put real
	// ciphers first; they exist as the paper's no-crypto baseline.
	register(&Suite{
		ID: RSAWithNullMD5, Name: "NULL-MD5", CipherAlgo: "NULL",
		KeyLen: 0, IVLen: 0, MAC: sslcrypto.MACMD5,
		newCipher: func(_, _ []byte, _ bool) (RecordCipher, error) { return nullCipher{}, nil },
	})
	register(&Suite{
		ID: RSAWithNullSHA, Name: "NULL-SHA", CipherAlgo: "NULL",
		KeyLen: 0, IVLen: 0, MAC: sslcrypto.MACSHA1,
		newCipher: func(_, _ []byte, _ bool) (RecordCipher, error) { return nullCipher{}, nil },
	})
}

// ByID looks a suite up by wire identifier.
func ByID(id ID) (*Suite, error) {
	s, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("suite: unknown cipher suite %#04x", uint16(id))
	}
	return s, nil
}

// ByName looks a suite up by its OpenSSL-style name.
func ByName(name string) (*Suite, error) {
	for _, id := range ordered {
		if registry[id].Name == name {
			return registry[id], nil
		}
	}
	return nil, fmt.Errorf("suite: unknown cipher suite %q", name)
}

// All returns every registered suite in registration order.
func All() []*Suite {
	out := make([]*Suite, 0, len(ordered))
	for _, id := range ordered {
		out = append(out, registry[id])
	}
	return out
}

// Choose picks the first of the client's offered suites the server
// supports, mirroring the cipher negotiation in handshake step 1.
func Choose(offered []ID) (*Suite, error) {
	for _, id := range offered {
		if s, ok := registry[id]; ok {
			return s, nil
		}
	}
	return nil, errors.New("suite: no shared cipher suite")
}
