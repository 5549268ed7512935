package des

import (
	"bytes"
	stddes "crypto/des"
	"encoding/binary"
	"encoding/hex"
	"errors"
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

// Classic DES known-answer vectors.
func TestDESKnownAnswers(t *testing.T) {
	cases := []struct{ key, pt, ct string }{
		// The canonical FIPS validation vector.
		{"133457799bbcdff1", "0123456789abcdef", "85e813540f0ab405"},
		// Weak-key style vector: all-zero key and plaintext.
		{"0000000000000000", "0000000000000000", "8ca64de9c1b123a7"},
		{"ffffffffffffffff", "ffffffffffffffff", "7359b2163e4edc58"},
	}
	for _, c := range cases {
		ci, err := New(mustHex(t, c.key))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8)
		ci.Encrypt(got, mustHex(t, c.pt))
		if hex.EncodeToString(got) != c.ct {
			t.Errorf("key %s: ct = %x, want %s", c.key, got, c.ct)
		}
		back := make([]byte, 8)
		ci.Decrypt(back, got)
		if hex.EncodeToString(back) != c.pt {
			t.Errorf("key %s: decrypt = %x, want %s", c.key, back, c.pt)
		}
	}
}

func TestRejectsBadKeySizes(t *testing.T) {
	if _, err := New(make([]byte, 7)); err == nil {
		t.Error("DES accepted 7-byte key")
	}
	if _, err := NewTriple(make([]byte, 8)); err == nil {
		t.Error("3DES accepted 8-byte key")
	}
	if _, err := NewTriple(make([]byte, 23)); err == nil {
		t.Error("3DES accepted 23-byte key")
	}
}

func TestDESAgainstStdlibProperty(t *testing.T) {
	f := func(key [8]byte, block [8]byte) bool {
		ours, err := New(key[:])
		if err != nil {
			return false
		}
		std, err := stddes.NewCipher(key[:])
		if err != nil {
			return false
		}
		got := make([]byte, 8)
		want := make([]byte, 8)
		ours.Encrypt(got, block[:])
		std.Encrypt(want, block[:])
		if !bytes.Equal(got, want) {
			return false
		}
		ours.Decrypt(got, block[:])
		std.Decrypt(want, block[:])
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func Test3DESAgainstStdlibProperty(t *testing.T) {
	f := func(key [24]byte, block [8]byte) bool {
		ours, err := NewTriple(key[:])
		if err != nil {
			return false
		}
		std, err := stddes.NewTripleDESCipher(key[:])
		if err != nil {
			return false
		}
		got := make([]byte, 8)
		want := make([]byte, 8)
		ours.Encrypt(got, block[:])
		std.Encrypt(want, block[:])
		if !bytes.Equal(got, want) {
			return false
		}
		ours.Decrypt(got, block[:])
		std.Decrypt(want, block[:])
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func Test3DESTwoKeyVariant(t *testing.T) {
	key := make([]byte, 16)
	rand.New(rand.NewSource(1)).Read(key)
	two, err := NewTriple(key)
	if err != nil {
		t.Fatal(err)
	}
	// Two-key 3DES == three-key with K3 = K1.
	key24 := append(append([]byte{}, key...), key[:8]...)
	three, err := NewTriple(key24)
	if err != nil {
		t.Fatal(err)
	}
	block := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	a := make([]byte, 8)
	b := make([]byte, 8)
	two.Encrypt(a, block)
	three.Encrypt(b, block)
	if !bytes.Equal(a, b) {
		t.Fatal("two-key 3DES != three-key with K3=K1")
	}
}

func Test3DESDegeneratesToDES(t *testing.T) {
	// With K1 = K2 = K3, EDE collapses to single DES.
	key := mustHex(t, "133457799bbcdff1")
	key24 := append(append(append([]byte{}, key...), key...), key...)
	triple, _ := NewTriple(key24)
	single, _ := New(key)
	block := mustHex(t, "0123456789abcdef")
	a := make([]byte, 8)
	b := make([]byte, 8)
	triple.Encrypt(a, block)
	single.Encrypt(b, block)
	if !bytes.Equal(a, b) {
		t.Fatal("EDE with equal keys != single DES")
	}
}

func TestEncryptDecryptInverseProperty(t *testing.T) {
	f := func(key [24]byte, block [8]byte) bool {
		c, err := NewTriple(key[:])
		if err != nil {
			return false
		}
		ct := make([]byte, 8)
		pt := make([]byte, 8)
		c.Encrypt(ct, block[:])
		c.Decrypt(pt, ct)
		return bytes.Equal(pt, block[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// refSubkeys is the FIPS 46-3 key schedule bit by bit — the form
// subkeys had before its tables, kept as the reference they must
// reproduce. It branches on every key bit.
func refSubkeys(key []byte) [16]uint64 {
	k64 := binary.BigEndian.Uint64(key)
	// PC1: 64 -> 56 bits.
	var cd uint64
	for i, bit := range pc1 {
		if k64&(1<<uint(64-bit)) != 0 {
			cd |= 1 << uint(55-i)
		}
	}
	c := uint32(cd >> 28)
	d := uint32(cd & 0x0fffffff)
	var out [16]uint64
	for round := 0; round < 16; round++ {
		n := uint(leftRotations[round])
		c = (c<<n | c>>(28-n)) & 0x0fffffff
		d = (d<<n | d>>(28-n)) & 0x0fffffff
		merged := uint64(c)<<28 | uint64(d)
		var k uint64
		for i, bit := range pc2 {
			if merged&(1<<uint(56-bit)) != 0 {
				k |= 1 << uint(47-i)
			}
		}
		out[round] = k
	}
	return out
}

// TestSubkeysMatchReference holds the table-driven key schedule to the
// bit-by-bit one: 10,000 PRNG keys, the all-zero and all-ones keys and
// the four weak keys of FIPS 74.
func TestSubkeysMatchReference(t *testing.T) {
	keys := []string{
		"0000000000000000", "ffffffffffffffff",
		"0101010101010101", "fefefefefefefefe", "e0e0e0e0f1f1f1f1", "1f1f1f1f0e0e0e0e",
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		keys = append(keys, fmt.Sprintf("%016x", r.Uint64()))
	}
	for _, k := range keys {
		key := mustHex(t, k)
		if got, want := subkeys(key), refSubkeys(key); got != want {
			t.Fatalf("key %s: subkeys = %x, reference %x", k, got, want)
		}
	}
}

func TestPermTablesInvertible(t *testing.T) {
	// FP(IP(x)) == x for random x.
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		v := r.Uint64()
		if got := permute(&fpTab, permute(&ipTab, v)); got != v {
			t.Fatalf("FP(IP(%#x)) = %#x", v, got)
		}
	}
}

func TestProfileBlockPartsShapes(t *testing.T) {
	key := make([]byte, 24)
	single, _ := New(key[:8])
	triple, _ := NewTriple(key)
	const n = 200000
	testenv.Timing(t, func() error {
		bd := single.ProfileBlockParts(n)
		bt := triple.ProfileBlockParts(n)
		// Table 6: substitution dominates both (74.7% DES, 89.1% 3DES).
		if pct := bd.Percent(PartSubstitution); pct < 50 {
			return fmt.Errorf("DES substitution = %.1f%%, want dominant\n%s", pct, bd)
		}
		if pct := bt.Percent(PartSubstitution); pct < 70 {
			return fmt.Errorf("3DES substitution = %.1f%%, want >70%%\n%s", pct, bt)
		}
		// 3DES substitution share must exceed DES's (IP/FP amortize).
		if bt.Percent(PartSubstitution) <= bd.Percent(PartSubstitution) {
			return errors.New("3DES substitution share should exceed DES")
		}
		// Substitution time should scale ~3x between DES and 3DES.
		ratio := float64(bt.Elapsed(PartSubstitution)) / float64(bd.Elapsed(PartSubstitution))
		if ratio < 2.2 || ratio > 4.0 {
			return fmt.Errorf("3DES/DES substitution ratio = %.2f, want ~3", ratio)
		}
		return nil
	})
}

func TestCharacteristics(t *testing.T) {
	d := Characteristics()
	if d.Name != "DES" || d.Rounds != "16" || d.Lookups != 8 {
		t.Fatalf("DES characteristics = %+v", d)
	}
	td := TripleCharacteristics()
	if td.Name != "3DES" || td.Rounds != "3x16" {
		t.Fatalf("3DES characteristics = %+v", td)
	}
}

func TestTraceShapes(t *testing.T) {
	single, _ := New(make([]byte, 8))
	triple, _ := NewTriple(make([]byte, 24))
	var ts, tt perf.Trace
	single.TraceEncryptBlock(&ts)
	triple.TraceEncryptBlock(&tt)
	if ts.Bytes != 8 || tt.Bytes != 8 {
		t.Fatal("trace bytes wrong")
	}
	// Per Table 12 DES/3DES: xor is the top op class.
	if ts.Mix()[0].Op != perf.OpXor && ts.Mix()[0].Op != perf.OpAnd {
		// xor must at least beat memory classes individually
		t.Fatalf("DES mix head = %v", ts.Mix()[0])
	}
	if got := ts.Count(perf.OpXor); got < 16*8 {
		t.Fatalf("DES xor count = %d, too low", got)
	}
	// 3DES path length ~3x DES minus shared IP/FP.
	if tt.Total() <= 2*ts.Total() {
		t.Fatalf("3DES trace %d not ~3x DES %d", tt.Total(), ts.Total())
	}
	// Paper Table 11: DES 69 instr/byte, 3DES 194 instr/byte.
	if pl := ts.PathLength(); pl < 30 || pl > 150 {
		t.Fatalf("DES path length = %.1f, want ~69", pl)
	}
	if pl := tt.PathLength(); pl < 100 || pl > 400 {
		t.Fatalf("3DES path length = %.1f, want ~194", pl)
	}
}
