package suite

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	stddes "crypto/des"
	stdrc4 "crypto/rc4"
	"math/rand"
	"testing"
	"testing/quick"

	"sslperf/internal/sslcrypto"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("registered %d suites, want 11", len(all))
	}
	// The paper's suite must be present under its OpenSSL name.
	s, err := ByName("DES-CBC3-SHA")
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != RSAWith3DESEDECBCSHA || s.KeyLen != 24 || s.IVLen != 8 {
		t.Fatalf("DES-CBC3-SHA = %+v", s)
	}
	if s.MAC != sslcrypto.MACSHA1 {
		t.Fatal("paper suite must use SHA-1 MAC")
	}
	if s.Kx != KxRSA {
		t.Fatal("paper suite must use RSA key exchange")
	}
}

func TestDHESuites(t *testing.T) {
	for _, name := range []string{
		"EDH-RSA-DES-CBC3-SHA", "DHE-RSA-AES128-SHA", "DHE-RSA-AES256-SHA",
	} {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Kx != KxDHERSA {
			t.Errorf("%s: Kx = %v, want DHE", name, s.Kx)
		}
	}
	// The DHE 3DES suite mirrors the RSA one's record geometry.
	a, _ := ByName("DES-CBC3-SHA")
	b, _ := ByName("EDH-RSA-DES-CBC3-SHA")
	if a.KeyLen != b.KeyLen || a.IVLen != b.IVLen || a.MAC != b.MAC {
		t.Fatal("EDH 3DES record parameters differ from RSA 3DES")
	}
}

func TestByIDAndErrors(t *testing.T) {
	s, err := ByID(RSAWithAES128CBCSHA)
	if err != nil || s.Name != "AES128-SHA" {
		t.Fatalf("ByID: %v %v", s, err)
	}
	if _, err := ByID(0x1234); err == nil {
		t.Fatal("unknown ID accepted")
	}
	if _, err := ByName("CHACHA20"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestKeyMaterialLen(t *testing.T) {
	cases := map[string]int{
		"NULL-MD5":     2 * 16,            // two MAC secrets only
		"RC4-MD5":      2*16 + 2*16,       // + two keys
		"DES-CBC3-SHA": 2*20 + 2*24 + 2*8, // + IVs
		"AES256-SHA":   2*20 + 2*32 + 2*16,
	}
	for name, want := range cases {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.KeyMaterialLen(); got != want {
			t.Errorf("%s key material = %d, want %d", name, got, want)
		}
	}
}

func TestNewCipherValidation(t *testing.T) {
	s, _ := ByName("AES128-SHA")
	if _, err := s.NewCipher(make([]byte, 15), make([]byte, 16), true); err == nil {
		t.Fatal("accepted short key")
	}
	if _, err := s.NewCipher(make([]byte, 16), make([]byte, 15), true); err == nil {
		t.Fatal("accepted short IV")
	}
	c, err := s.NewCipher(make([]byte, 16), make([]byte, 16), true)
	if err != nil {
		t.Fatal(err)
	}
	if c.BlockSize() != 16 {
		t.Fatalf("block size = %d", c.BlockSize())
	}
}

func TestStreamAndNullBlockSizes(t *testing.T) {
	for name, want := range map[string]int{
		"NULL-SHA": 1, "RC4-SHA": 16, // RC4 keylen 16, blocksize 1
	} {
		s, _ := ByName(name)
		key := make([]byte, s.KeyLen)
		c, err := s.NewCipher(key, nil, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.BlockSize() != 1 {
			t.Errorf("%s block size = %d, want 1 (stream)", name, c.BlockSize())
		}
		_ = want
	}
}

func TestBlockCipherDirectionality(t *testing.T) {
	s, _ := ByName("AES128-SHA")
	enc, _ := s.NewCipher(make([]byte, 16), make([]byte, 16), true)
	defer func() {
		if recover() == nil {
			t.Fatal("decrypt on encrypt-side cipher did not panic")
		}
	}()
	enc.Decrypt(make([]byte, 16))
}

func TestChoose(t *testing.T) {
	s, err := Choose([]ID{0x9999, RSAWithRC4128SHA, RSAWithAES128CBCSHA})
	if err != nil || s.ID != RSAWithRC4128SHA {
		t.Fatalf("Choose = %v, %v", s, err)
	}
	if _, err := Choose([]ID{0x9999}); err == nil {
		t.Fatal("Choose succeeded with no shared suite")
	}
	if _, err := Choose(nil); err == nil {
		t.Fatal("Choose succeeded with empty offer")
	}
}

func TestNullCipherPassthrough(t *testing.T) {
	s, _ := ByName("NULL-MD5")
	c, _ := s.NewCipher(nil, nil, true)
	buf := []byte("unchanged")
	c.Encrypt(buf)
	if string(buf) != "unchanged" {
		t.Fatal("null cipher modified data")
	}
}

// newCipher builds one direction of the named suite's record cipher.
func newCipher(t *testing.T, name string, key, iv []byte, encrypt bool) RecordCipher {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.NewCipher(key, iv, encrypt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c
}

// stdCBC is the standard library's CBC over the suite's block cipher,
// the oracle for the AES and 3DES record ciphers.
func stdCBC(t *testing.T, algo string, key, iv []byte, encrypt bool) cipher.BlockMode {
	t.Helper()
	var b cipher.Block
	var err error
	switch algo {
	case "AES":
		b, err = stdaes.NewCipher(key)
	case "3DES":
		b, err = stddes.NewTripleDESCipher(key)
	case "DES":
		b, err = stddes.NewCipher(key)
	default:
		t.Fatalf("no CBC oracle for %s", algo)
	}
	if err != nil {
		t.Fatal(err)
	}
	if encrypt {
		return cipher.NewCBCEncrypter(b, iv)
	}
	return cipher.NewCBCDecrypter(b, iv)
}

// cbcSuites are the record ciphers the CBC tests run on: AES at both
// key sizes and 3DES, the paper's suite.
var cbcSuites = []string{"AES128-SHA", "AES256-SHA", "DES-CBC3-SHA"}

func TestAgainstStdlibAESCBC(t *testing.T) {
	f := func(key [32]byte, iv [16]byte, nBlocks uint8) bool {
		data := make([]byte, (int(nBlocks%16)+1)*16)
		rand.New(rand.NewSource(int64(nBlocks))).Read(data)
		for _, name := range []string{"AES128-SHA", "AES256-SHA"} {
			s, _ := ByName(name)
			k := key[:s.KeyLen]
			got := append([]byte(nil), data...)
			newCipher(t, name, k, iv[:], true).Encrypt(got)
			want := make([]byte, len(data))
			stdCBC(t, "AES", k, iv[:], true).CryptBlocks(want, data)
			if !bytes.Equal(got, want) {
				return false
			}
			newCipher(t, name, k, iv[:], false).Decrypt(got)
			if !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestIVChainsAcrossCalls: every registered suite's cipher carries its
// state across records — two records in sequence encrypt as their
// concatenation does in one call, and decrypt back in the same order.
func TestIVChainsAcrossCalls(t *testing.T) {
	for _, s := range All() {
		t.Run(s.Name, func(t *testing.T) {
			key := make([]byte, s.KeyLen)
			iv := make([]byte, s.IVLen)
			for i := range key {
				key[i] = byte(7*i + 1)
			}
			for i := range iv {
				iv[i] = byte(3 * i)
			}
			data := make([]byte, 64)
			for i := range data {
				data[i] = byte(i)
			}
			first, second := 24, 40 // whole 8-byte blocks for DES and 3DES
			if s.IVLen == 16 {
				first, second = 16, 48
			}
			rec := append([]byte(nil), data...)
			enc := newCipher(t, s.Name, key, iv, true)
			enc.Encrypt(rec[:first])
			enc.Encrypt(rec[first : first+second])

			want := append([]byte(nil), data...)
			switch s.CipherAlgo {
			case "NULL":
			case "RC4":
				c, _ := stdrc4.NewCipher(key)
				c.XORKeyStream(want, want)
			default:
				stdCBC(t, s.CipherAlgo, key, iv, true).CryptBlocks(want, want)
			}
			if !bytes.Equal(rec, want) {
				t.Fatal("two records differ from one-call encryption")
			}

			dec := newCipher(t, s.Name, key, iv, false)
			dec.Decrypt(rec[:first])
			dec.Decrypt(rec[first : first+second])
			if !bytes.Equal(rec, data) {
				t.Fatal("two records do not decrypt back in sequence")
			}
		})
	}
}

func TestInPlace(t *testing.T) {
	for _, name := range cbcSuites {
		s, _ := ByName(name)
		key := make([]byte, s.KeyLen)
		iv := make([]byte, s.IVLen)
		data := make([]byte, 48)
		for i := range data {
			data[i] = byte(i * 3)
		}
		want := make([]byte, len(data))
		stdCBC(t, s.CipherAlgo, key, iv, true).CryptBlocks(want, data)

		// The record body sits between a header and a trailer it must
		// not touch.
		buf := append(append([]byte{0xAA}, data...), 0xBB)
		newCipher(t, name, key, iv, true).Encrypt(buf[1 : 1+len(data)])
		if !bytes.Equal(buf[1:1+len(data)], want) {
			t.Fatalf("%s: in-place encrypt differs", name)
		}
		newCipher(t, name, key, iv, false).Decrypt(buf[1 : 1+len(data)])
		if !bytes.Equal(buf[1:1+len(data)], data) || buf[0] != 0xAA || buf[len(buf)-1] != 0xBB {
			t.Fatalf("%s: in-place decrypt differs", name)
		}
	}
}

func TestRejectsBadIV(t *testing.T) {
	for _, c := range []struct {
		name  string
		ivLen int
	}{{"AES128-SHA", 8}, {"AES256-SHA", 17}, {"DES-CBC3-SHA", 16}, {"DES-CBC-SHA", 7}} {
		s, _ := ByName(c.name)
		if _, err := s.NewCipher(make([]byte, s.KeyLen), make([]byte, c.ivLen), true); err == nil {
			t.Errorf("%s accepted a %d-byte IV", c.name, c.ivLen)
		}
		if _, err := s.NewCipher(make([]byte, s.KeyLen), make([]byte, c.ivLen), false); err == nil {
			t.Errorf("%s accepted a %d-byte IV to decrypt", c.name, c.ivLen)
		}
	}
}

func TestPanicsOnPartialBlock(t *testing.T) {
	for _, name := range cbcSuites {
		s, _ := ByName(name)
		for _, encrypt := range []bool{true, false} {
			c := newCipher(t, name, make([]byte, s.KeyLen), make([]byte, s.IVLen), encrypt)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (encrypt %v): no panic on a partial block", name, encrypt)
					}
				}()
				buf := make([]byte, s.IVLen-1)
				if encrypt {
					c.Encrypt(buf)
				} else {
					c.Decrypt(buf)
				}
			}()
		}
	}
}

func TestEmptyInput(t *testing.T) {
	for _, s := range All() {
		key, iv := make([]byte, s.KeyLen), make([]byte, s.IVLen)
		newCipher(t, s.Name, key, iv, true).Encrypt(nil) // must not panic
		newCipher(t, s.Name, key, iv, false).Decrypt(nil)
	}
}

func TestBlockSize(t *testing.T) {
	for _, s := range All() {
		want := map[string]int{"AES": 16, "DES": 8, "3DES": 8, "RC4": 1, "NULL": 1}[s.CipherAlgo]
		for _, encrypt := range []bool{true, false} {
			c := newCipher(t, s.Name, make([]byte, s.KeyLen), make([]byte, s.IVLen), encrypt)
			if c.BlockSize() != want {
				t.Errorf("%s BlockSize = %d, want %d", s.Name, c.BlockSize(), want)
			}
		}
	}
}
