package sha1x

import (
	"bytes"
	stdsha1 "crypto/sha1"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"sslperf/internal/md5x"
	"sslperf/internal/perf"
	"sslperf/internal/testenv"
)

// FIPS 180-2 and classic known answers.
func TestKnownAnswers(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
			"84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
		{strings.Repeat("a", 1000000), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
	}
	for _, c := range cases {
		got := Sum20([]byte(c.in))
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("SHA1(%.20q...) = %x, want %s", c.in, got, c.want)
		}
	}
}

func TestAgainstStdlibProperty(t *testing.T) {
	f := func(data []byte) bool {
		got := Sum20(data)
		want := stdsha1.Sum(data)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedWrites(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 11)
	}
	whole := Sum20(data)
	d := New()
	for i := 0; i < len(data); i += 17 {
		end := min(i+17, len(data))
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
	if !bytes.Equal(first, d.Sum(nil)) {
		t.Fatal("Sum changed state")
	}
	d.Write([]byte("c"))
	want := Sum20([]byte("abc"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Fatal("writing after Sum broken")
	}
}

func TestResetAndSizes(t *testing.T) {
	d := New()
	d.Write([]byte("junk"))
	d.Reset()
	d.Write([]byte("abc"))
	want := Sum20([]byte("abc"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Fatal("Reset broken")
	}
	if d.Size() != 20 || d.BlockSize() != 64 {
		t.Fatalf("Size/BlockSize = %d/%d", d.Size(), d.BlockSize())
	}
}

func TestBoundarySizes(t *testing.T) {
	for _, n := range []int{54, 55, 56, 57, 63, 64, 65, 119, 120, 128} {
		data := bytes.Repeat([]byte{0xa5}, n)
		got := Sum20(data)
		want := stdsha1.Sum(data)
		if got != want {
			t.Errorf("length %d mismatch", n)
		}
	}
}

func TestProfilePhasesShape(t *testing.T) {
	testenv.Timing(t, func() error {
		b := ProfilePhases(1024, 20000)
		// Table 10: update is ~92% for 1024-byte input.
		if pct := b.Percent(PhaseUpdate); pct < 60 {
			return fmt.Errorf("update = %.1f%%, want dominant\n%s", pct, b)
		}
		return nil
	})
}

func TestSHA1SlowerThanMD5(t *testing.T) {
	// Paper Table 10/11: SHA-1's update is more compute-intensive
	// than MD5's (10723 vs 6679 cycles for 1KB; 135 vs 198 MB/s).
	if testenv.Race {
		t.Skip("race instrumentation distorts relative kernel timings")
	}
	const n = 30000
	sha := ProfilePhases(1024, n)
	md := md5x.ProfilePhases(1024, n)
	if sha.Elapsed(PhaseUpdate) <= md.Elapsed(md5x.PhaseUpdate) {
		t.Fatalf("SHA-1 update (%v) should exceed MD5 update (%v)",
			sha.Elapsed(PhaseUpdate), md.Elapsed(md5x.PhaseUpdate))
	}
}

func TestTraces(t *testing.T) {
	var blk perf.Trace
	TraceBlock(&blk)
	if blk.Bytes != BlockSize || blk.Total() == 0 {
		t.Fatal("block trace wrong")
	}
	var h perf.Trace
	TraceHash(&h, 1024)
	if h.Bytes != 1024 {
		t.Fatalf("hash bytes = %d", h.Bytes)
	}
	// Table 11: SHA-1 path length 24 instr/byte, about 2x MD5's 12.
	var hm perf.Trace
	md5x.TraceHash(&hm, 1024)
	if h.Total() <= hm.Total() {
		t.Fatal("SHA-1 trace should exceed MD5 trace")
	}
	if pl := h.PathLength(); pl < 10 || pl > 60 {
		t.Fatalf("SHA-1 path length = %.1f, want ~24", pl)
	}
	// Table 12 SHA-1: xor + rotate are prominent.
	if h.Count(perf.OpXor) == 0 || h.Count(perf.OpRotate) == 0 {
		t.Fatal("missing xor/rotate in SHA-1 mix")
	}
}
