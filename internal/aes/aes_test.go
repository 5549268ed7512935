package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sslperf/internal/perf"
	"sslperf/internal/testenv"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FIPS 197 Appendix C known-answer vectors.
func TestFIPS197Vectors(t *testing.T) {
	pt := "00112233445566778899aabbccddeeff"
	cases := []struct{ key, ct string }{
		{"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
		{"000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191"},
		{"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "8ea2b7ca516745bfeafc49904b496089"},
	}
	for _, c := range cases {
		cipher, err := New(mustHex(t, c.key))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16)
		cipher.Encrypt(got, mustHex(t, pt))
		if hex.EncodeToString(got) != c.ct {
			t.Errorf("key %s: ct = %x, want %s", c.key, got, c.ct)
		}
		back := make([]byte, 16)
		cipher.Decrypt(back, got)
		if hex.EncodeToString(back) != pt {
			t.Errorf("key %s: decrypt = %x, want %s", c.key, back, pt)
		}
	}
}

func TestRoundCounts(t *testing.T) {
	for _, c := range []struct{ keyLen, rounds int }{{16, 10}, {24, 12}, {32, 14}} {
		ci, err := New(make([]byte, c.keyLen))
		if err != nil {
			t.Fatal(err)
		}
		if ci.Rounds() != c.rounds {
			t.Errorf("keyLen %d: rounds = %d, want %d", c.keyLen, ci.Rounds(), c.rounds)
		}
		if ci.BlockSize() != 16 {
			t.Errorf("BlockSize = %d", ci.BlockSize())
		}
	}
}

func TestRejectsBadKeySizes(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 31, 33} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("accepted %d-byte key", n)
		}
	}
}

// Property: agrees with the standard library for random keys/blocks.
func TestAgainstStdlibProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		keyLen := []int{16, 24, 32}[rr.Intn(3)]
		key := make([]byte, keyLen)
		rr.Read(key)
		block := make([]byte, 16)
		rr.Read(block)

		ours, err := New(key)
		if err != nil {
			return false
		}
		std, err := stdaes.NewCipher(key)
		if err != nil {
			return false
		}
		got := make([]byte, 16)
		want := make([]byte, 16)
		ours.Encrypt(got, block)
		std.Encrypt(want, block)
		if !bytes.Equal(got, want) {
			return false
		}
		gotD := make([]byte, 16)
		wantD := make([]byte, 16)
		ours.Decrypt(gotD, block)
		std.Decrypt(wantD, block)
		return bytes.Equal(gotD, wantD)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptDecryptInverseProperty(t *testing.T) {
	f := func(key [16]byte, block [16]byte) bool {
		c, err := New(key[:])
		if err != nil {
			return false
		}
		ct := make([]byte, 16)
		pt := make([]byte, 16)
		c.Encrypt(ct, block[:])
		c.Decrypt(pt, ct)
		return bytes.Equal(pt, block[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInPlaceEncrypt(t *testing.T) {
	c, _ := New(make([]byte, 16))
	buf := mustHex(t, "00112233445566778899aabbccddeeff")
	want := make([]byte, 16)
	c.Encrypt(want, buf)
	c.Encrypt(buf, buf)
	if !bytes.Equal(buf, want) {
		t.Fatal("in-place encryption differs")
	}
}

func TestSboxIsPermutationWithInverse(t *testing.T) {
	var seen [256]bool
	for i := 0; i < 256; i++ {
		s := sbox[i]
		if seen[s] {
			t.Fatalf("sbox not a permutation: duplicate %#x", s)
		}
		seen[s] = true
		if invSbox[s] != byte(i) {
			t.Fatalf("invSbox[sbox[%d]] = %d", i, invSbox[s])
		}
	}
	// Known anchor values from FIPS 197.
	if sbox[0x00] != 0x63 || sbox[0x53] != 0xed {
		t.Fatalf("sbox anchors wrong: %#x %#x", sbox[0x00], sbox[0x53])
	}
}

func TestProfileBlockPartsShape(t *testing.T) {
	c, _ := New(make([]byte, 16))
	names := c.ProfileBlockParts(1).Names()
	want := []string{PartLoadAddKey, PartMainRounds, PartFinalRound}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("part %d = %q, want %q", i, names[i], want[i])
		}
	}
	// Table 5: main rounds take ~71% (128-bit); they must dominate.
	testenv.Timing(t, func() error {
		b := c.ProfileBlockParts(200000)
		if pct := b.Percent(PartMainRounds); pct < 50 {
			return fmt.Errorf("main rounds = %.1f%%, want dominant\n%s", pct, b)
		}
		return nil
	})
}

func TestProfileBlockParts256KeyCostlier(t *testing.T) {
	c128, _ := New(make([]byte, 16))
	c256, _ := New(make([]byte, 32))
	const n = 100000
	testenv.Timing(t, func() error {
		b128 := c128.ProfileBlockParts(n)
		b256 := c256.ProfileBlockParts(n)
		// Larger key only grows the main rounds (paper: parts 1 and 3 fixed).
		if b256.Elapsed(PartMainRounds) <= b128.Elapsed(PartMainRounds) {
			return fmt.Errorf("256-bit main rounds (%v) not costlier than 128-bit (%v)",
				b256.Elapsed(PartMainRounds), b128.Elapsed(PartMainRounds))
		}
		if b256.Percent(PartMainRounds) <= b128.Percent(PartMainRounds) {
			return fmt.Errorf("256-bit main-rounds share should grow (Table 5: 71%%->78%%)")
		}
		return nil
	})
}

func TestCharacteristics(t *testing.T) {
	ch := Characteristics()
	if ch.Name != "AES" || ch.BlockBits != 128 || ch.Lookups != 16 {
		t.Fatalf("Characteristics = %+v", ch)
	}
}

func TestTraceEncryptBlock(t *testing.T) {
	c, _ := New(make([]byte, 16))
	var tr perf.Trace
	c.TraceEncryptBlock(&tr)
	if tr.Bytes != 16 {
		t.Fatalf("Bytes = %d, want 16", tr.Bytes)
	}
	// 16 lookups per round-equivalent; 10-round AES has 9 main rounds
	// + final = 10 groups of 16 lookups.
	if got := tr.Count(perf.OpLookup); got != 160 {
		t.Fatalf("lookups = %d, want 160", got)
	}
	// Path length should land in the paper's neighborhood
	// (Table 11: 50 instr/byte for AES).
	pl := tr.PathLength()
	if pl < 20 || pl > 120 {
		t.Fatalf("path length = %.1f ops/byte, want ~50", pl)
	}
	// Memory ops (the paper's movl+movb) and xor must be the top two
	// classes, as in Table 12.
	// On x86 a table lookup is an indexed movl, so the paper's mov
	// share corresponds to load+store+move+lookup here.
	memOps := tr.Count(perf.OpLoad) + tr.Count(perf.OpStore) +
		tr.Count(perf.OpMove) + tr.Count(perf.OpLookup)
	if memOps <= tr.Count(perf.OpXor) {
		t.Fatalf("memory ops should top the mix: %v", tr.Mix())
	}
}

func TestTrace256HasMoreOps(t *testing.T) {
	c128, _ := New(make([]byte, 16))
	c256, _ := New(make([]byte, 32))
	var t128, t256 perf.Trace
	c128.TraceEncryptBlock(&t128)
	c256.TraceEncryptBlock(&t256)
	if t256.Total() <= t128.Total() {
		t.Fatal("256-bit trace should have more ops (14 rounds vs 10)")
	}
}
