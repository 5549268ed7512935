package md5x

import (
	"bytes"
	stdmd5 "crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"sslperf/internal/perf"
	"sslperf/internal/testenv"
)

// RFC 1321 appendix test suite.
func TestRFC1321Vectors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "d41d8cd98f00b204e9800998ecf8427e"},
		{"a", "0cc175b9c0f1b6a831c399e269772661"},
		{"abc", "900150983cd24fb0d6963f7d28e17f72"},
		{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
		{"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
		{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
			"d174ab98d277d9f5a5611c2c9f419d9f"},
		{strings.Repeat("1234567890", 8), "57edf4a22be3c955ac49da2e2107b67a"},
	}
	for _, c := range cases {
		got := Sum16([]byte(c.in))
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("MD5(%q) = %x, want %s", c.in, got, c.want)
		}
	}
}

func TestAgainstStdlibProperty(t *testing.T) {
	f := func(data []byte) bool {
		got := Sum16(data)
		want := stdmd5.Sum(data)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedWrites(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	whole := Sum16(data)
	d := New()
	for i := 0; i < len(data); i += 13 {
		end := min(i+13, len(data))
		d.Write(data[i:end])
	}
	if !bytes.Equal(d.Sum(nil), whole[:]) {
		t.Fatal("chunked writes differ from one-shot")
	}
}

func TestSumDoesNotFinalize(t *testing.T) {
	d := New()
	d.Write([]byte("ab"))
	first := d.Sum(nil)
	second := d.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatal("Sum changed state")
	}
	d.Write([]byte("c"))
	want := Sum16([]byte("abc"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Fatal("writing after Sum broken")
	}
}

func TestReset(t *testing.T) {
	d := New()
	d.Write([]byte("junk"))
	d.Reset()
	d.Write([]byte("abc"))
	want := Sum16([]byte("abc"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Fatal("Reset did not restore initial state")
	}
}

func TestBoundarySizes(t *testing.T) {
	// Lengths around the padding boundary (55/56/63/64/65).
	for _, n := range []int{54, 55, 56, 57, 63, 64, 65, 119, 120, 128} {
		data := bytes.Repeat([]byte{0x5c}, n)
		got := Sum16(data)
		want := stdmd5.Sum(data)
		if got != want {
			t.Errorf("length %d: %x != %x", n, got, want)
		}
	}
}

func TestInterfaceValues(t *testing.T) {
	d := New()
	if d.Size() != 16 || d.BlockSize() != 64 {
		t.Fatalf("Size/BlockSize = %d/%d", d.Size(), d.BlockSize())
	}
}

func TestProfilePhasesShape(t *testing.T) {
	names := ProfilePhases(1024, 1).Names()
	if len(names) != 3 || names[0] != PhaseInit || names[1] != PhaseUpdate || names[2] != PhaseFinal {
		t.Fatalf("phases = %v", names)
	}
	testenv.Timing(t, func() error {
		b := ProfilePhases(1024, 20000)
		// Table 10: update is ~91% for 1024-byte input.
		if pct := b.Percent(PhaseUpdate); pct < 60 {
			return fmt.Errorf("update = %.1f%%, want dominant\n%s", pct, b)
		}
		if b.Percent(PhaseFinal) >= b.Percent(PhaseUpdate) {
			return errors.New("final should be much smaller than update")
		}
		return nil
	})
}

func TestTraces(t *testing.T) {
	var blk perf.Trace
	TraceBlock(&blk)
	if blk.Bytes != BlockSize || blk.Total() == 0 {
		t.Fatal("block trace wrong")
	}
	var h perf.Trace
	TraceHash(&h, 1024)
	// 1024 bytes + padding = 17 blocks.
	if h.Total() != 17*blk.Total() {
		t.Fatalf("hash trace = %d ops, want %d", h.Total(), 17*blk.Total())
	}
	if h.Bytes != 1024 {
		t.Fatalf("hash bytes = %d", h.Bytes)
	}
	// Table 11: MD5 path length 12 instr/byte — the shortest of all.
	if pl := h.PathLength(); pl < 5 || pl > 30 {
		t.Fatalf("MD5 path length = %.1f, want ~12", pl)
	}
}
