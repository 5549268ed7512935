// Package suite defines the SSLv3 cipher suites this library speaks —
// RSA key exchange with the symmetric ciphers and MACs the paper
// evaluates. A suite is one row of a table: the cipher it builds its
// record ciphers from, a MAC algorithm, and the key-material geometry
// the key block is sliced into.
package suite

import (
	"errors"
	"fmt"

	"sslperf/internal/aes"
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
}

// MACLen returns the MAC output size in bytes.
func (s *Suite) MACLen() int { return s.MAC.Size() }

// KeyMaterialLen returns the number of key-block bytes the suite
// consumes: two MAC secrets, two keys, two IVs.
func (s *Suite) KeyMaterialLen() int {
	return 2*s.MACLen() + 2*s.KeyLen + 2*s.IVLen
}

// NewCipher builds the record cipher for one direction from the
// suite's CipherAlgo.
func (s *Suite) NewCipher(key, iv []byte, encrypt bool) (RecordCipher, error) {
	if len(key) != s.KeyLen || len(iv) != s.IVLen {
		return nil, errors.New("suite: wrong key or IV length")
	}
	var b cbcBlock
	var err error
	switch s.CipherAlgo {
	case "NULL":
		return nullCipher{}, nil
	case "RC4":
		c, err := rc4.New(key)
		if err != nil {
			return nil, err
		}
		return streamCipher{c}, nil
	case "DES":
		b, err = des.New(key)
	case "3DES":
		b, err = des.NewTriple(key)
	case "AES":
		b, err = aes.New(key)
	default:
		return nil, fmt.Errorf("suite: unknown cipher %q", s.CipherAlgo)
	}
	if err != nil {
		return nil, err
	}
	bc := &blockCipher{b: b, encrypt: encrypt}
	copy(bc.iv[:], iv)
	return bc, nil
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

// cbcBlock is the block cipher a CBC record cipher chains over:
// aes.Cipher, des.Cipher and des.TripleCipher. The chaining loop lives
// with the cipher — its EncryptCBC/DecryptCBC keep the chaining value
// in registers across blocks — so a record dispatches once, not once
// per block. Both process the whole blocks of src into dst (which may
// be src) and replace iv with the chaining value the next call starts
// from.
type cbcBlock interface {
	BlockSize() int
	EncryptCBC(dst, src, iv []byte)
	DecryptCBC(dst, src, iv []byte)
}

// blockCipher is a CBC record cipher: one direction per instance, like
// a real record connection state. The chaining value is CBC's serial
// state (the paper's Figure 6): each record's last ciphertext block is
// the next record's IV.
type blockCipher struct {
	b       cbcBlock
	encrypt bool
	iv      [aes.BlockSize]byte // the chaining value; its first BlockSize() bytes
}

func (b *blockCipher) BlockSize() int { return b.b.BlockSize() }

func (b *blockCipher) Encrypt(buf []byte) {
	if !b.encrypt {
		panic("suite: encrypt on decrypt-side cipher")
	}
	b.b.EncryptCBC(buf, buf, b.chain(buf))
}

func (b *blockCipher) Decrypt(buf []byte) {
	if b.encrypt {
		panic("suite: decrypt on encrypt-side cipher")
	}
	b.b.DecryptCBC(buf, buf, b.chain(buf))
}

// chain returns the live chaining value for a record of whole blocks.
func (b *blockCipher) chain(buf []byte) []byte {
	bs := b.b.BlockSize()
	if len(buf)%bs != 0 {
		panic("suite: CBC input not full blocks")
	}
	return b.iv[:bs]
}

// AESCBC returns the AES cipher and the live chaining value behind an
// encrypt-side AES-CBC record cipher, and nil, nil for any other: the
// stitched AES-CBC + SHA-1 seal encrypts the first part of a record
// outside Encrypt, and the Encrypt of the rest continues from the
// chaining value it leaves.
func AESCBC(ci RecordCipher) (*aes.Cipher, []byte) {
	b, ok := ci.(*blockCipher)
	if !ok || !b.encrypt {
		return nil, nil
	}
	c, ok := b.b.(*aes.Cipher)
	if !ok {
		return nil, nil
	}
	return c, b.iv[:aes.BlockSize]
}

// suites is every suite in registration (preference) order. NULL
// suites come last so default preference lists put real ciphers first;
// they exist as the paper's no-crypto baseline.
var suites = []*Suite{
	{ID: RSAWithRC4128MD5, Name: "RC4-MD5", CipherAlgo: "RC4", KeyLen: 16, MAC: sslcrypto.MACMD5},
	{ID: RSAWithRC4128SHA, Name: "RC4-SHA", CipherAlgo: "RC4", KeyLen: 16, MAC: sslcrypto.MACSHA1},
	{ID: RSAWithDESCBCSHA, Name: "DES-CBC-SHA", CipherAlgo: "DES", KeyLen: 8, IVLen: 8, MAC: sslcrypto.MACSHA1},
	{ID: RSAWith3DESEDECBCSHA, Name: "DES-CBC3-SHA", CipherAlgo: "3DES", KeyLen: 24, IVLen: 8, MAC: sslcrypto.MACSHA1},
	{ID: RSAWithAES128CBCSHA, Name: "AES128-SHA", CipherAlgo: "AES", KeyLen: 16, IVLen: 16, MAC: sslcrypto.MACSHA1},
	{ID: RSAWithAES256CBCSHA, Name: "AES256-SHA", CipherAlgo: "AES", KeyLen: 32, IVLen: 16, MAC: sslcrypto.MACSHA1},
	{ID: DHERSAWith3DESEDECBCSHA, Name: "EDH-RSA-DES-CBC3-SHA", Kx: KxDHERSA, CipherAlgo: "3DES", KeyLen: 24, IVLen: 8, MAC: sslcrypto.MACSHA1},
	{ID: DHERSAWithAES128CBCSHA, Name: "DHE-RSA-AES128-SHA", Kx: KxDHERSA, CipherAlgo: "AES", KeyLen: 16, IVLen: 16, MAC: sslcrypto.MACSHA1},
	{ID: DHERSAWithAES256CBCSHA, Name: "DHE-RSA-AES256-SHA", Kx: KxDHERSA, CipherAlgo: "AES", KeyLen: 32, IVLen: 16, MAC: sslcrypto.MACSHA1},
	{ID: RSAWithNullMD5, Name: "NULL-MD5", CipherAlgo: "NULL", MAC: sslcrypto.MACMD5},
	{ID: RSAWithNullSHA, Name: "NULL-SHA", CipherAlgo: "NULL", MAC: sslcrypto.MACSHA1},
}

// ByID looks a suite up by wire identifier.
func ByID(id ID) (*Suite, error) {
	for _, s := range suites {
		if s.ID == id {
			return s, nil
		}
	}
	return nil, fmt.Errorf("suite: unknown cipher suite %#04x", uint16(id))
}

// ByName looks a suite up by its OpenSSL-style name.
func ByName(name string) (*Suite, error) {
	for _, s := range suites {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("suite: unknown cipher suite %q", name)
}

// All returns every registered suite in registration order.
func All() []*Suite {
	return append([]*Suite(nil), suites...)
}

// Choose picks the first of the client's offered suites the server
// supports, mirroring the cipher negotiation in handshake step 1.
func Choose(offered []ID) (*Suite, error) {
	for _, id := range offered {
		if s, err := ByID(id); err == nil {
			return s, nil
		}
	}
	return nil, errors.New("suite: no shared cipher suite")
}
