package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"testing"

	"sslperf/internal/testenv"
)

// profiledEncrypt is one block encryption in the three parts Table 5
// times (anatomy.go).
func (c *Cipher) profiledEncrypt(dst, src []byte) {
	var s state
	c.encPart1(&s, src)
	c.encPart2(&s)
	c.encPart3(&s, dst)
}

// FuzzCBCKernels holds the forms of AES (all three key sizes) equal: the
// fused CBC entry points the record layer runs (any key, IV, length,
// call split, in place or not), CBC over the profiled single-block
// encryption of anatomy.go, and crypto/aes under crypto/cipher's CBC
// — and the single-block Encrypt/Decrypt equal to both. Decryption has
// no profiled form; it is held to the stdlib and to inverting
// encryption.
func FuzzCBCKernels(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"), []byte{}, []byte("\x00\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc\xdd\xee\xff"), uint16(0), uint8(0))
	f.Add([]byte("a 256-bit key is 32 bytes long.."), []byte("sixteen byte iv."), bytes.Repeat([]byte("sixteen byte blk"), 9), uint16(4), uint8(5))
	f.Add([]byte{}, []byte{0xff}, make([]byte, 64), uint16(4), uint8(1))
	f.Fuzz(func(t *testing.T, keySeed, ivSeed, data []byte, split uint16, flags uint8) {
		keyLen, inPlace := []int{16, 32, 24}[flags&3%3], flags&4 != 0
		data = data[:min(len(data), 64*BlockSize)&^(BlockSize-1)]
		at := 0
		if len(data) > 0 {
			at = int(split) % (len(data)/BlockSize + 1) * BlockSize
		}
		key, iv := testenv.Fill(keySeed, keyLen), testenv.Fill(ivSeed, BlockSize)
		c, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		std, _ := stdaes.NewCipher(key)

		ct := testenv.SplitCBC(c.EncryptCBC, data, iv, at, inPlace)
		if want := testenv.CBCOver(true, BlockSize, c.profiledEncrypt, data, iv); !bytes.Equal(ct, want) {
			t.Fatalf("fused CBC encrypt differs from CBC over the profiled block\n got %x\nwant %x", ct, want)
		}
		want := make([]byte, len(data))
		cipher.NewCBCEncrypter(std, iv).CryptBlocks(want, data)
		if !bytes.Equal(ct, want) {
			t.Fatalf("fused CBC encrypt differs from crypto/aes\n got %x\nwant %x", ct, want)
		}
		if pt := testenv.SplitCBC(c.DecryptCBC, ct, iv, at, inPlace); !bytes.Equal(pt, data) {
			t.Fatalf("fused CBC decrypt does not invert encrypt\n got %x\nwant %x", pt, data)
		}
		// A ciphertext nobody encrypted: decryption of arbitrary blocks.
		cipher.NewCBCDecrypter(std, iv).CryptBlocks(want, data)
		if got := testenv.SplitCBC(c.DecryptCBC, data, iv, at, inPlace); !bytes.Equal(got, want) {
			t.Fatalf("fused CBC decrypt differs from crypto/aes\n got %x\nwant %x", got, want)
		}

		// The single-block entry points run the same rounds.
		block := testenv.Fill(data, BlockSize)
		got, prof, ref := make([]byte, BlockSize), make([]byte, BlockSize), make([]byte, BlockSize)
		c.Encrypt(got, block)
		c.profiledEncrypt(prof, block)
		std.Encrypt(ref, block)
		if !bytes.Equal(got, prof) || !bytes.Equal(got, ref) {
			t.Fatalf("Encrypt %x, profiled %x, crypto/aes %x", got, prof, ref)
		}
		c.Decrypt(got, block)
		std.Decrypt(ref, block)
		if !bytes.Equal(got, ref) {
			t.Fatalf("Decrypt %x, crypto/aes %x", got, ref)
		}
	})
}

// TestFusedKnownAnswers runs the FIPS 197 Appendix C vectors (all
// three key sizes) through the fused entry points: under a zero IV the
// first CBC block is the plain block operation.
func TestFusedKnownAnswers(t *testing.T) {
	pt := mustHex(t, "00112233445566778899aabbccddeeff")
	for _, c := range []struct{ key, ct string }{
		{"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
		{"000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191"},
		{"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "8ea2b7ca516745bfeafc49904b496089"},
	} {
		ci, err := New(mustHex(t, c.key))
		if err != nil {
			t.Fatal(err)
		}
		want := mustHex(t, c.ct)
		got, iv := make([]byte, BlockSize), make([]byte, BlockSize)
		ci.EncryptCBC(got, pt, iv)
		if !bytes.Equal(got, want) {
			t.Errorf("key %s: EncryptCBC = %x, want %x", c.key, got, want)
		}
		if !bytes.Equal(iv, want) {
			t.Errorf("key %s: chaining value after the call = %x, want the ciphertext %x", c.key, iv, want)
		}
		ci.DecryptCBC(got, got, make([]byte, BlockSize))
		if !bytes.Equal(got, pt) {
			t.Errorf("key %s: DecryptCBC = %x, want %x", c.key, got, pt)
		}
	}
}

func BenchmarkCBC(b *testing.B) {
	for _, bc := range []struct {
		name   string
		keyLen int
	}{{"AES128", 16}, {"AES256", 32}} {
		c, _ := New(make([]byte, bc.keyLen))
		buf, iv := make([]byte, 16384), make([]byte, BlockSize)
		b.Run(bc.name+"/encrypt16k", func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				c.EncryptCBC(buf, buf, iv)
			}
		})
		b.Run(bc.name+"/decrypt16k", func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				c.DecryptCBC(buf, buf, iv)
			}
		})
	}
}
