package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"fmt"
	"testing"

	"sslperf/internal/cpufeat"
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

// cbcKernel is one fast form of the fused CBC and single-block entry
// points.
type cbcKernel struct {
	name               string
	enc, dec           func(c *Cipher, dst, src, iv []byte)
	encBlock, decBlock func(c *Cipher, dst, src []byte)
}

// cbcKernels is the table kernel, called by name on every host, and —
// where this CPU reports AES-NI — the round instructions, which is
// what the exported entry points dispatch to there.
func cbcKernels() []cbcKernel {
	ks := []cbcKernel{{"tables", (*Cipher).encryptCBCTables, (*Cipher).decryptCBCTables,
		(*Cipher).encryptBlockTables, (*Cipher).decryptBlockTables}}
	if cpufeat.X86.AES {
		ks = append(ks, cbcKernel{"aesni", (*Cipher).EncryptCBC, (*Cipher).DecryptCBC,
			(*Cipher).Encrypt, (*Cipher).Decrypt})
	}
	return ks
}

// checkKernel holds one kernel equal to CBC over the profiled block and
// to crypto/aes under crypto/cipher's CBC, for data split into two
// calls at byte offset at (a block boundary), in place or not — and
// its single-block form (one-block CBC from a zero chaining value, on
// the round instructions) equal to the profiled block and crypto/aes.
func checkKernel(t *testing.T, k cbcKernel, key, iv, data []byte, at int, inPlace bool) {
	t.Helper()
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	std, _ := stdaes.NewCipher(key)
	enc := func(dst, src, iv []byte) { k.enc(c, dst, src, iv) }
	dec := func(dst, src, iv []byte) { k.dec(c, dst, src, iv) }

	ct := testenv.SplitCBC(enc, data, iv, at, inPlace)
	if want := testenv.CBCOver(true, BlockSize, c.profiledEncrypt, data, iv); !bytes.Equal(ct, want) {
		t.Fatalf("%s: CBC encrypt differs from CBC over the profiled block\n got %x\nwant %x", k.name, ct, want)
	}
	want := make([]byte, len(data))
	cipher.NewCBCEncrypter(std, iv).CryptBlocks(want, data)
	if !bytes.Equal(ct, want) {
		t.Fatalf("%s: CBC encrypt differs from crypto/aes\n got %x\nwant %x", k.name, ct, want)
	}
	if pt := testenv.SplitCBC(dec, ct, iv, at, inPlace); !bytes.Equal(pt, data) {
		t.Fatalf("%s: CBC decrypt does not invert encrypt\n got %x\nwant %x", k.name, pt, data)
	}
	// A ciphertext nobody encrypted: decryption of arbitrary blocks.
	cipher.NewCBCDecrypter(std, iv).CryptBlocks(want, data)
	if got := testenv.SplitCBC(dec, data, iv, at, inPlace); !bytes.Equal(got, want) {
		t.Fatalf("%s: CBC decrypt differs from crypto/aes\n got %x\nwant %x", k.name, got, want)
	}

	// The single block, on a fresh cipher so the decryption comes
	// before any other derives the inverse schedule.
	c, _ = New(key)
	block := testenv.Fill(data, BlockSize)
	got, prof, ref := make([]byte, BlockSize), make([]byte, BlockSize), make([]byte, BlockSize)
	k.decBlock(c, got, block)
	std.Decrypt(ref, block)
	if !bytes.Equal(got, ref) {
		t.Fatalf("%s: single-block decrypt %x, crypto/aes %x", k.name, got, ref)
	}
	k.encBlock(c, got, block)
	c.profiledEncrypt(prof, block)
	std.Encrypt(ref, block)
	if !bytes.Equal(got, prof) || !bytes.Equal(got, ref) {
		t.Fatalf("%s: single-block encrypt %x, profiled %x, crypto/aes %x", k.name, got, prof, ref)
	}
}

// FuzzCBCKernels holds the forms of AES (all three key sizes) equal:
// each fast kernel — the tables everywhere, the round instructions on
// a CPU that has them — under any key, IV, length, call split and
// aliasing, CBC over the profiled single-block encryption of
// anatomy.go, and crypto/aes under crypto/cipher's CBC; and each
// kernel's single block equal to both. Decryption has no profiled
// form; it is held to the stdlib and to inverting encryption.
func FuzzCBCKernels(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"), []byte{}, []byte("\x00\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc\xdd\xee\xff"), uint16(0), uint8(0))
	f.Add([]byte("a 256-bit key is 32 bytes long.."), []byte("sixteen byte iv."), bytes.Repeat([]byte("sixteen byte blk"), 9), uint16(4), uint8(5))
	f.Add([]byte{}, []byte{0xff}, make([]byte, 64), uint16(4), uint8(1))
	f.Add([]byte("a 192-bit key: 24 bytes"), []byte("iv"), bytes.Repeat([]byte{0xa5}, 7*BlockSize), uint16(5), uint8(6))
	f.Fuzz(func(t *testing.T, keySeed, ivSeed, data []byte, split uint16, flags uint8) {
		keyLen, inPlace := []int{16, 32, 24}[flags&3%3], flags&4 != 0
		data = data[:min(len(data), 64*BlockSize)&^(BlockSize-1)]
		at := 0
		if len(data) > 0 {
			at = int(split) % (len(data)/BlockSize + 1) * BlockSize
		}
		key, iv := testenv.Fill(keySeed, keyLen), testenv.Fill(ivSeed, BlockSize)
		for _, k := range cbcKernels() {
			checkKernel(t, k, key, iv, data, at, inPlace)
		}
	})
}

// TestCBCKernelsEveryTail runs each kernel over 0–9 blocks — every
// remainder the four-block decryption loop leaves, on either side of
// one full group and two — split at every block boundary, in place and
// not, for all three key sizes.
func TestCBCKernelsEveryTail(t *testing.T) {
	for _, keyLen := range []int{16, 24, 32} {
		key := testenv.Fill([]byte{byte(keyLen), 7}, keyLen)
		iv := testenv.Fill([]byte{3, 1, 4}, BlockSize)
		for blocks := 0; blocks <= 9; blocks++ {
			data := testenv.Fill([]byte{byte(blocks), 0x5c}, blocks*BlockSize)
			for _, k := range cbcKernels() {
				for at := 0; at <= len(data); at += BlockSize {
					checkKernel(t, k, key, iv, data, at, false)
					checkKernel(t, k, key, iv, data, at, true)
				}
			}
		}
	}
}

// TestShortBuffersPanic: a dst shorter than the whole blocks of src, an
// iv shorter than a block, or a single-block src or dst shorter than a
// block panics in Go, before any kernel runs — the round-instruction
// kernel takes bare pointers and would write past the end. On a CPU
// that has it, nothing is written before the panic.
func TestShortBuffersPanic(t *testing.T) {
	c, _ := New(make([]byte, 16))
	src := make([]byte, 4*BlockSize)
	for _, tc := range []struct {
		name        string
		dstLen, ivL int
		call        func(dst, iv []byte)
	}{
		{"EncryptCBC short dst", len(src) - 1, BlockSize, func(dst, iv []byte) { c.EncryptCBC(dst, src, iv) }},
		{"EncryptCBC short iv", len(src), BlockSize - 1, func(dst, iv []byte) { c.EncryptCBC(dst, src, iv) }},
		{"EncryptCBC empty, short iv", 0, BlockSize - 1, func(dst, iv []byte) { c.EncryptCBC(dst, nil, iv) }},
		{"DecryptCBC short dst", len(src) - 1, BlockSize, func(dst, iv []byte) { c.DecryptCBC(dst, src, iv) }},
		{"DecryptCBC short iv", len(src), BlockSize - 1, func(dst, iv []byte) { c.DecryptCBC(dst, src, iv) }},
		{"Encrypt short dst", BlockSize - 1, 0, func(dst, _ []byte) { c.Encrypt(dst, src[:BlockSize]) }},
		{"Encrypt short src", BlockSize, 0, func(dst, _ []byte) { c.Encrypt(dst, src[:BlockSize-1]) }},
		{"Decrypt short dst", BlockSize - 1, 0, func(dst, _ []byte) { c.Decrypt(dst, src[:BlockSize]) }},
		{"Decrypt short src", BlockSize, 0, func(dst, _ []byte) { c.Decrypt(dst, src[:BlockSize-1]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst, iv := make([]byte, tc.dstLen), make([]byte, tc.ivL)
			for i := range iv {
				iv[i] = 0xee
			}
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
				if c.ni && (!bytes.Equal(dst, make([]byte, len(dst))) || !bytes.Equal(iv, bytes.Repeat([]byte{0xee}, len(iv)))) {
					t.Fatalf("the kernel ran before the panic: dst %x, iv %x", dst, iv)
				}
			}()
			tc.call(dst, iv)
		})
	}
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

// BenchmarkCBC times each kernel over one 16 KB record:
// BenchmarkCBC/tables/… everywhere, BenchmarkCBC/aesni/… where the CPU
// reports AES-NI.
func BenchmarkCBC(b *testing.B) {
	for _, k := range cbcKernels() {
		for _, keyLen := range []int{16, 32} {
			c, _ := New(make([]byte, keyLen))
			buf, iv := make([]byte, 16384), make([]byte, BlockSize)
			name := fmt.Sprintf("%s/AES%d/", k.name, keyLen*8)
			b.Run(name+"encrypt16k", func(b *testing.B) {
				b.SetBytes(int64(len(buf)))
				for i := 0; i < b.N; i++ {
					k.enc(c, buf, buf, iv)
				}
			})
			b.Run(name+"decrypt16k", func(b *testing.B) {
				b.SetBytes(int64(len(buf)))
				for i := 0; i < b.N; i++ {
					k.dec(c, buf, buf, iv)
				}
			})
		}
	}
}
