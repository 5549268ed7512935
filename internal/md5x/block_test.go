package md5x

import (
	"bytes"
	stdmd5 "crypto/md5"
	"encoding/hex"
	"testing"
)

// FuzzHashBlocks holds the block function to crypto/md5 under arbitrary
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
		d, ref := New(), stdmd5.New()
		d.Write(data[:a])
		ref.Write(data[:a])
		if got, want := d.Sum(nil), ref.Sum(nil); !bytes.Equal(got, want) {
			t.Fatalf("after %d bytes: %x, want %x", a, got, want)
		}
		d.Write(data[a:b])
		d.Write(data[b:])
		ref.Write(data[a:])
		if got, want := d.Sum(nil), ref.Sum(nil); !bytes.Equal(got, want) {
			t.Fatalf("%d bytes written as %d+%d+%d: %x, want %x", len(data), a, b-a, len(data)-b, got, want)
		}
	})
}

// TestMillionA is the RFC 1321 long-message vector: 15,625 blocks
// through one call of the block function.
func TestMillionA(t *testing.T) {
	d := New()
	d.Write(bytes.Repeat([]byte{'a'}, 1000000))
	if got := hex.EncodeToString(d.Sum(nil)); got != "7707d6ae4e027c70eea2a935c2296f21" {
		t.Fatalf("million a's = %s", got)
	}
}

func BenchmarkBlock(b *testing.B) {
	d, buf := New(), make([]byte, 16384)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		block(&d.s, buf)
	}
}
