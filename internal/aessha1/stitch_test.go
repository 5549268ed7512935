package aessha1

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	stdsha1 "crypto/sha1"
	"fmt"
	"testing"

	"sslperf/internal/aes"
	"sslperf/internal/sha1x"
)

// pattern fills n bytes that differ from block to block.
func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7) ^ byte(i>>8) ^ seed
	}
	return p
}

// TestEncryptHashMatchesStdlib holds EncryptHash to crypto/aes CBC
// and crypto/sha1 for every key size, from digests holding 0–63
// buffered bytes (a record MAC's keyed state plus header leaves 7 or
// 13), over lengths on both sides of every group boundary: the
// ciphertext of the groups it encrypts, the chaining value it leaves
// (the next block continues the CBC stream), and the digest of the
// whole message.
func TestEncryptHashMatchesStdlib(t *testing.T) {
	for _, keyLen := range []int{16, 24, 32} {
		key := pattern(keyLen, 1)
		c, err := aes.New(key)
		if err != nil {
			t.Fatal(err)
		}
		std, _ := stdaes.NewCipher(key)
		for _, buffered := range []int{0, 1, 7, 13, 60, 63} {
			for _, n := range []int{0, 63, 64, 70, 71, 127, 128, 129, 200, 320, 1000, 4096 + 7, 16384} {
				name := fmt.Sprintf("key%d/buffered%d/len%d", keyLen*8, buffered, n)
				prefix, p := pattern(buffered, 2), pattern(n, 3)
				iv := pattern(16, 4)

				d := sha1x.New()
				d.Write(prefix)
				dst := make([]byte, n)
				chain := append([]byte(nil), iv...)
				enc := EncryptHash(c, dst, chain, d, p)

				head := (64 - buffered) % 64
				want := 0
				if n >= head+64 {
					want = (n - head) &^ 63
				}
				if enc != want {
					t.Fatalf("%s: encrypted %d bytes, want %d", name, enc, want)
				}
				ref := make([]byte, enc)
				cipher.NewCBCEncrypter(std, iv).CryptBlocks(ref, p[:enc])
				if !bytes.Equal(dst[:enc], ref) {
					t.Fatalf("%s: ciphertext differs from crypto/aes", name)
				}
				if enc > 0 && !bytes.Equal(chain, ref[enc-16:]) {
					t.Fatalf("%s: chaining value is not the last ciphertext block", name)
				}
				if got, want := d.Sum(nil), stdsha1.Sum(append(prefix, p...)); !bytes.Equal(got, want[:]) {
					t.Fatalf("%s: digest %x, want %x", name, got, want)
				}
			}
		}
	}
}

// TestStitchedEqualsTwoPass holds the kernel this CPU runs to the two
// passes over the same groups.
func TestStitchedEqualsTwoPass(t *testing.T) {
	if !hasStitch {
		t.Skip("no stitched kernel on this CPU")
	}
	for _, keyLen := range []int{16, 32} {
		c, _ := aes.New(pattern(keyLen, 5))
		for _, n := range []int{64, 128, 192, 16384} {
			src, hashed := pattern(n, 6), pattern(n, 7)
			ivA, ivB := pattern(16, 8), pattern(16, 8)
			dA, dB := sha1x.New(), sha1x.New()
			a, b := make([]byte, n), make([]byte, n)
			groups(c, a, src, ivA, dA, hashed)
			twoPass(c, b, src, ivB, dB, hashed)
			if !bytes.Equal(a, b) || !bytes.Equal(ivA, ivB) || !bytes.Equal(dA.Sum(nil), dB.Sum(nil)) {
				t.Fatalf("key%d/len%d: stitched differs from two passes", keyLen*8, n)
			}

		}
	}
}

// TestInPlace encrypts over the bytes it hashes (dst = src), the hash
// running 51 bytes ahead into bytes the cipher has yet to reach, as a
// TLS 1.0 record MAC does: the kernel this CPU runs and the two passes
// must both match the result of encrypting into a separate buffer.
func TestInPlace(t *testing.T) {
	c, _ := aes.New(pattern(16, 9))
	const n, ahead = 960, 51
	p := pattern(n+ahead, 10)
	ref, refD := make([]byte, n), sha1x.New()
	twoPass(c, ref, p[:n], pattern(16, 11), refD, p[ahead:])
	forms := []struct {
		name string
		run  func(c *aes.Cipher, dst, src, iv []byte, d *sha1x.Digest, hashed []byte)
	}{{"groups", groups}, {"two-pass", twoPass}}
	for _, f := range forms {
		in, d := append([]byte(nil), p...), sha1x.New()
		f.run(c, in[:n], in[:n], pattern(16, 11), d, in[ahead:])
		if !bytes.Equal(in[:n], ref) || !bytes.Equal(d.Sum(nil), refD.Sum(nil)) {
			t.Errorf("%s: in place differs from a separate buffer", f.name)
		}
	}
}

// BenchmarkEncryptHash times one 16 KB record payload both ways on the
// same core: the stitched loop, and AES-CBC then SHA-1.
func BenchmarkEncryptHash(b *testing.B) {
	c, _ := aes.New(pattern(16, 1))
	src, dst, iv := pattern(16384, 2), make([]byte, 16384), pattern(16, 3)
	d := sha1x.New()
	forms := []struct {
		name string
		on   bool
	}{{"stitched", true}, {"two-pass", false}}
	for _, f := range forms {
		if f.on && !hasStitch {
			continue
		}
		b.Run(f.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Reset()
				if f.on {
					groups(c, dst, src, iv, d, src)
				} else {
					twoPass(c, dst, src, iv, d, src)
				}
			}
		})
	}
}
