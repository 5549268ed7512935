package des

import (
	"bytes"
	"crypto/cipher"
	stddes "crypto/des"
	"encoding/binary"
	"math/rand"
	"testing"

	"sslperf/internal/testenv"
)

// profiledCrypt is one block operation in the form Table 6 dissects
// (anatomy.go): table-driven IP, one or three sets of rounds16,
// table-driven FP.
func profiledCrypt(dst, src []byte, sets ...[16]uint64) {
	v := permute(&ipTab, binary.BigEndian.Uint64(src))
	l, r := uint32(v>>32), uint32(v)
	for i := range sets {
		l, r = rounds16(l, r, &sets[i])
	}
	binary.BigEndian.PutUint64(dst, permute(&fpTab, uint64(l)<<32|uint64(r)))
}

func reversed(ks [16]uint64) (out [16]uint64) {
	for i := range ks {
		out[i] = ks[15-i]
	}
	return out
}

// FuzzCBCKernels holds the three forms of DES and 3DES equal: the
// fused CBC entry points the record layer runs (any key, IV, length,
// call split, in place or not), CBC over the profiled single-block
// form of anatomy.go, and crypto/des under crypto/cipher's CBC — and
// the single-block Encrypt/Decrypt equal to both.
func FuzzCBCKernels(f *testing.F) {
	f.Add([]byte("\x13\x34\x57\x79\x9b\xbc\xdf\xf1"), []byte{}, []byte("\x01\x23\x45\x67\x89\xab\xcd\xef"), uint16(0), uint8(0))
	f.Add([]byte("three keys of eight bytes"), []byte("initvect"), bytes.Repeat([]byte("sixteen byte blk"), 9), uint16(5), uint8(3))
	f.Add([]byte{}, []byte{0xff}, make([]byte, 64), uint16(8), uint8(1))
	f.Fuzz(func(t *testing.T, keySeed, ivSeed, data []byte, split uint16, flags uint8) {
		triple, inPlace := flags&1 != 0, flags&2 != 0
		data = data[:min(len(data), 64*BlockSize)&^(BlockSize-1)]
		at := 0
		if len(data) > 0 {
			at = int(split) % (len(data)/BlockSize + 1) * BlockSize
		}
		iv := testenv.Fill(ivSeed, BlockSize)

		var (
			kernel interface {
				Encrypt(dst, src []byte)
				Decrypt(dst, src []byte)
				EncryptCBC(dst, src, iv []byte)
				DecryptCBC(dst, src, iv []byte)
			}
			profEnc, profDec func(dst, src []byte)
			std              cipher.Block
		)
		if triple {
			key := testenv.Fill(keySeed, 24)
			c, err := NewTriple(key)
			if err != nil {
				t.Fatal(err)
			}
			kernel = c
			profEnc = func(dst, src []byte) { profiledCrypt(dst, src, c.k1enc, c.k2dec, c.k3enc) }
			profDec = func(dst, src []byte) {
				profiledCrypt(dst, src, reversed(c.k3enc), reversed(c.k2dec), reversed(c.k1enc))
			}
			std, _ = stddes.NewTripleDESCipher(key)
		} else {
			key := testenv.Fill(keySeed, 8)
			c, err := New(key)
			if err != nil {
				t.Fatal(err)
			}
			kernel = c
			profEnc = func(dst, src []byte) { profiledCrypt(dst, src, c.enc) }
			profDec = func(dst, src []byte) { profiledCrypt(dst, src, reversed(c.enc)) }
			std, _ = stddes.NewCipher(key)
		}

		ct := testenv.SplitCBC(kernel.EncryptCBC, data, iv, at, inPlace)
		if want := testenv.CBCOver(true, BlockSize, profEnc, data, iv); !bytes.Equal(ct, want) {
			t.Fatalf("fused CBC encrypt differs from CBC over the profiled block\n got %x\nwant %x", ct, want)
		}
		want := make([]byte, len(data))
		cipher.NewCBCEncrypter(std, iv).CryptBlocks(want, data)
		if !bytes.Equal(ct, want) {
			t.Fatalf("fused CBC encrypt differs from crypto/des\n got %x\nwant %x", ct, want)
		}
		pt := testenv.SplitCBC(kernel.DecryptCBC, ct, iv, at, inPlace)
		if !bytes.Equal(pt, data) {
			t.Fatalf("fused CBC decrypt does not invert encrypt\n got %x\nwant %x", pt, data)
		}
		if got := testenv.CBCOver(false, BlockSize, profDec, ct, iv); !bytes.Equal(got, data) {
			t.Fatalf("CBC over the profiled block does not decrypt the fused ciphertext\n got %x\nwant %x", got, data)
		}

		// The single-block entry points run the same rounds.
		block := testenv.Fill(data, BlockSize)
		got, prof, ref := make([]byte, BlockSize), make([]byte, BlockSize), make([]byte, BlockSize)
		kernel.Encrypt(got, block)
		profEnc(prof, block)
		std.Encrypt(ref, block)
		if !bytes.Equal(got, prof) || !bytes.Equal(got, ref) {
			t.Fatalf("Encrypt %x, profiled %x, crypto/des %x", got, prof, ref)
		}
		kernel.Decrypt(got, block)
		profDec(prof, block)
		std.Decrypt(ref, block)
		if !bytes.Equal(got, prof) || !bytes.Equal(got, ref) {
			t.Fatalf("Decrypt %x, profiled %x, crypto/des %x", got, prof, ref)
		}
	})
}

// TestFusedKnownAnswers runs the FIPS 46-3 validation vectors through
// the fused entry points: under a zero IV the first CBC block is the
// plain block operation.
func TestFusedKnownAnswers(t *testing.T) {
	for _, c := range []struct{ key, pt, ct string }{
		{"133457799bbcdff1", "0123456789abcdef", "85e813540f0ab405"},
		{"0000000000000000", "0000000000000000", "8ca64de9c1b123a7"},
		{"ffffffffffffffff", "ffffffffffffffff", "7359b2163e4edc58"},
		// Three-key EDE (NIST SP 800-67 style vector).
		{"0123456789abcdef23456789abcdef01456789abcdef0123", "5468652071756663", "a826fd8ce53b855f"},
	} {
		key, pt, want := mustHex(t, c.key), mustHex(t, c.pt), mustHex(t, c.ct)
		var ci interface {
			EncryptCBC(dst, src, iv []byte)
			DecryptCBC(dst, src, iv []byte)
		}
		var err error
		if len(key) == 8 {
			ci, err = New(key)
		} else {
			ci, err = NewTriple(key)
		}
		if err != nil {
			t.Fatal(err)
		}
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

// TestKernelPermutations holds ip and fp to the spec tables: ip is IP
// with both halves rotated left by one, fp its inverse.
func TestKernelPermutations(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 63, 0x0123456789abcdef, 0xfedcba9876543210, 0xaaaaaaaa55555555} {
		for bit := 0; bit < 64; bit++ {
			x := v ^ 1<<bit
			want := permute(&ipTab, x)
			l, r := ip(uint32(x>>32), uint32(x))
			if wl, wr := uint32(want>>32), uint32(want); l != wl<<1|wl>>31 || r != wr<<1|wr>>31 {
				t.Fatalf("ip(%#x) = %#x %#x, want IP halves %#x %#x rotated left by one", x, l, r, wl, wr)
			}
			if bl, br := fp(l, r); uint64(bl)<<32|uint64(br) != permute(&fpTab, want) {
				t.Fatalf("fp(ip(%#x)) = %#x %#x", x, bl, br)
			}
		}
	}
}

// TestKeySetupAllocatesOnce pins key set-up at one allocation: the
// round keys are packed by the constructor, never on the record path.
func TestKeySetupAllocatesOnce(t *testing.T) {
	if testenv.Race {
		t.Skip("race runtime allocates on its own")
	}
	key := make([]byte, 24)
	if n := testing.AllocsPerRun(100, func() { NewTriple(key) }); n != 1 {
		t.Errorf("NewTriple allocates %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { New(key[:8]) }); n != 1 {
		t.Errorf("New allocates %.0f times, want 1", n)
	}
}

func benchCBC(b *testing.B, n int, f func(dst, src, iv []byte)) {
	buf, iv := make([]byte, n), make([]byte, BlockSize)
	b.SetBytes(int64(n))
	for i := 0; i < b.N; i++ {
		f(buf, buf, iv)
	}
}

func BenchmarkCBC(b *testing.B) {
	single, _ := New(make([]byte, 8))
	triple, _ := NewTriple(make([]byte, 24))
	b.Run("DES/encrypt1k", func(b *testing.B) { benchCBC(b, 1024, single.EncryptCBC) })
	b.Run("DES/decrypt1k", func(b *testing.B) { benchCBC(b, 1024, single.DecryptCBC) })
	b.Run("3DES/encrypt1k", func(b *testing.B) { benchCBC(b, 1024, triple.EncryptCBC) })
	b.Run("3DES/decrypt1k", func(b *testing.B) { benchCBC(b, 1024, triple.DecryptCBC) })
}

// BenchmarkNewTriple times fresh-key set-up, what a server pays per
// connection: it rotates through 1,024 PRNG-drawn keys prepared before
// the timer. (Re-keying with one fixed key times a trained branch
// predictor instead; it hid a 5.5x cost while the schedule branched on
// key bits.)
func BenchmarkNewTriple(b *testing.B) {
	keys := make([]byte, 1024*24)
	rand.New(rand.NewSource(1)).Read(keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i % 1024 * 24
		NewTriple(keys[at : at+24])
	}
}
