package sha1x

import (
	"bytes"
	stdsha1 "crypto/sha1"
	"encoding/hex"
	"testing"

	"sslperf/internal/cpufeat"
)

// kernel is one form of the compression function, named by the bool
// a Digest picks it on: blockGeneric (shani clear) or block.
type kernel struct {
	name  string
	shani bool
}

// digest is a fresh Digest that compresses on k.
func (k kernel) digest() *Digest {
	d := New()
	d.shani = k.shani
	return d
}

// kernels is blockGeneric on every host and, where this CPU reports
// the SHA extensions, block — there blockSHANI, the kernel Digest runs.
func kernels() []kernel {
	ks := []kernel{{"generic", false}}
	if cpufeat.X86.SHA {
		ks = append(ks, kernel{"shani", true})
	}
	return ks
}

// FuzzHashBlocks holds each kernel to crypto/sha1 under arbitrary
// Write splits — so whole blocks reach it alone, in runs, and through
// the partial-block buffer — and with a Sum taken mid-stream, which
// must not disturb what follows.
func FuzzHashBlocks(f *testing.F) {
	f.Add([]byte("abc"), uint16(1), uint16(0))
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), 40), uint16(63), uint16(129))
	f.Add(make([]byte, 200), uint16(64), uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16) {
		a := int(cut1) % (len(data) + 1)
		b := a + int(cut2)%(len(data)-a+1)
		for _, k := range kernels() {
			d, ref := k.digest(), stdsha1.New()
			d.Write(data[:a])
			ref.Write(data[:a])
			if got, want := d.Sum(nil), ref.Sum(nil); !bytes.Equal(got, want) {
				t.Fatalf("%s: after %d bytes: %x, want %x", k.name, a, got, want)
			}
			d.Write(data[a:b])
			d.Write(data[b:])
			ref.Write(data[a:])
			if got, want := d.Sum(nil), ref.Sum(nil); !bytes.Equal(got, want) {
				t.Fatalf("%s: %d bytes written as %d+%d+%d: %x, want %x", k.name, len(data), a, b-a, len(data)-b, got, want)
			}
		}
	})
}

// TestKernelsEveryLength calls each kernel directly on 0–40 whole
// blocks, in one call and split across two at a block boundary (the
// chaining value carried between them), with and without a ragged tail
// the kernel must ignore, from a 16-byte-aligned start and from the
// offsets a record MAC hashes its payload at (after a 13-byte header).
// The chaining value it leaves, padded and finished, is crypto/sha1 of
// the whole blocks.
func TestKernelsEveryLength(t *testing.T) {
	buf := make([]byte, 13+40*BlockSize+BlockSize-1)
	for i := range buf {
		buf[i] = byte(i*131 + i>>8)
	}
	for _, k := range kernels() {
		for blocks := 0; blocks <= 40; blocks++ {
			for _, off := range []int{0, 1, 13} {
				msg := buf[off : off+blocks*BlockSize]
				want := stdsha1.Sum(msg)
				for _, tail := range []int{0, 1, BlockSize - 1} {
					for _, split := range []int{0, blocks / 2, blocks} {
						d := k.digest()
						d.compress(&d.s, msg[:split*BlockSize])
						d.compress(&d.s, buf[off+split*BlockSize:off+blocks*BlockSize+tail])
						d.len = uint64(len(msg))
						if got := d.Sum(nil); !bytes.Equal(got, want[:]) {
							t.Fatalf("%s: %d blocks at offset %d, tail %d, split after %d: %x, want %x",
								k.name, blocks, off, tail, split, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMillionA is the FIPS 180 long-message vector: 15,625 blocks
// through one call of each kernel.
func TestMillionA(t *testing.T) {
	for _, k := range kernels() {
		d := k.digest()
		d.Write(bytes.Repeat([]byte{'a'}, 1000000))
		if got := hex.EncodeToString(d.Sum(nil)); got != "34aa973cd4c4daa4f61eeb2bdbad27316534016f" {
			t.Fatalf("%s: million a's = %s", k.name, got)
		}
	}
}

// BenchmarkBlock times each kernel over one 16 KB record:
// BenchmarkBlock/generic everywhere, BenchmarkBlock/shani where the CPU
// reports the SHA extensions.
func BenchmarkBlock(b *testing.B) {
	for _, k := range kernels() {
		b.Run(k.name, func(b *testing.B) {
			d, buf := k.digest(), make([]byte, 16384)
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				d.compress(&d.s, buf)
			}
		})
	}
}
