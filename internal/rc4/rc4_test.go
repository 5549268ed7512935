package rc4

import (
	"bytes"
	stdrc4 "crypto/rc4"
	"encoding/hex"
	"testing"
	"testing/quick"

	"sslperf/internal/perf"
)

// RFC 6229-style known answers for classic test keys.
func TestKnownAnswers(t *testing.T) {
	cases := []struct{ key, pt, ct string }{
		{"0102030405", "0000000000000000", "b2396305f03dc027"},
		{"01020304050607", "0000000000000000", "293f02d47f37c9b6"},
		{"0102030405060708090a0b0c0d0e0f10", "0000000000000000", "9ac7cc9a609d1ef7"},
		// The classic "Key"/"Plaintext" vector.
		{hex.EncodeToString([]byte("Key")), hex.EncodeToString([]byte("Plaintext")), "bbf316e8d940af0ad3"},
	}
	for _, c := range cases {
		key, _ := hex.DecodeString(c.key)
		pt, _ := hex.DecodeString(c.pt)
		ci, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(pt))
		ci.XORKeyStream(got, pt)
		if hex.EncodeToString(got) != c.ct {
			t.Errorf("key %s: ct = %x, want %s", c.key, got, c.ct)
		}
	}
}

func TestRejectsBadKeySizes(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("accepted empty key")
	}
	if _, err := New(make([]byte, 257)); err == nil {
		t.Error("accepted 257-byte key")
	}
}

func TestAgainstStdlibProperty(t *testing.T) {
	f := func(key [16]byte, data []byte) bool {
		ours, err := New(key[:])
		if err != nil {
			return false
		}
		std, err := stdrc4.NewCipher(key[:])
		if err != nil {
			return false
		}
		got := make([]byte, len(data))
		want := make([]byte, len(data))
		ours.XORKeyStream(got, data)
		std.XORKeyStream(want, data)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamContinuity(t *testing.T) {
	key := []byte("continuity-key")
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	// One call vs many small calls must produce the same stream.
	a, _ := New(key)
	whole := make([]byte, len(data))
	a.XORKeyStream(whole, data)
	b, _ := New(key)
	pieces := make([]byte, len(data))
	for i := 0; i < len(data); i += 7 {
		end := min(i+7, len(data))
		b.XORKeyStream(pieces[i:end], data[i:end])
	}
	if !bytes.Equal(whole, pieces) {
		t.Fatal("chunked keystream differs from whole")
	}
}

func TestEncryptDecryptInverse(t *testing.T) {
	key := []byte("inverse")
	data := []byte("the quick brown fox jumps over the lazy dog")
	enc, _ := New(key)
	ct := make([]byte, len(data))
	enc.XORKeyStream(ct, data)
	dec, _ := New(key)
	pt := make([]byte, len(ct))
	dec.XORKeyStream(pt, ct)
	if !bytes.Equal(pt, data) {
		t.Fatal("round trip failed")
	}
}

func TestInPlace(t *testing.T) {
	key := []byte("inplace")
	data := []byte("some data here")
	want := make([]byte, len(data))
	c1, _ := New(key)
	c1.XORKeyStream(want, data)
	c2, _ := New(key)
	buf := append([]byte{}, data...)
	c2.XORKeyStream(buf, buf)
	if !bytes.Equal(buf, want) {
		t.Fatal("in-place differs")
	}
}

func TestCharacteristics(t *testing.T) {
	ch := Characteristics()
	if ch.Name != "RC4" || ch.Lookups != 3 || ch.Tables != "1,256,8b" {
		t.Fatalf("characteristics = %+v", ch)
	}
}

func TestTraces(t *testing.T) {
	var stream perf.Trace
	TraceKeystream(&stream, 1024)
	if stream.Bytes != 1024 {
		t.Fatal("stream bytes wrong")
	}
	// Table 11: RC4 path length 14 instr/byte — by far the shortest
	// of the symmetric set.
	if pl := stream.PathLength(); pl < 8 || pl > 30 {
		t.Fatalf("RC4 path length = %.1f, want ~14", pl)
	}
	// Per-byte generation reads the table 3 times.
	if got := stream.Count(perf.OpLookup); got != 3*1024 {
		t.Fatalf("lookups = %d, want %d", got, 3*1024)
	}
}
