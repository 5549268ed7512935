package rsa

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"sslperf/internal/bn"
	"sslperf/internal/perf"
	"sslperf/internal/testenv"
)

type randReader struct{ r *rand.Rand }

func newRandReader(seed int64) *randReader {
	return &randReader{r: rand.New(rand.NewSource(seed))}
}

func (rr *randReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(rr.r.Intn(256))
	}
	return len(p), nil
}

var (
	keyOnce sync.Once
	key512  *PrivateKey
	key1024 *PrivateKey
)

// testKeys generates deterministic 512- and 1024-bit keys once.
func testKeys(t testing.TB) (*PrivateKey, *PrivateKey) {
	t.Helper()
	keyOnce.Do(func() {
		var err error
		key512, err = GenerateKey(newRandReader(1001), 512)
		if err != nil {
			panic(err)
		}
		key1024, err = GenerateKey(newRandReader(1002), 1024)
		if err != nil {
			panic(err)
		}
	})
	return key512, key1024
}

func TestGenerateKeyProperties(t *testing.T) {
	k512, k1024 := testKeys(t)
	for _, k := range []*PrivateKey{k512, k1024} {
		if err := k.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	}
	if k512.N.BitLen() != 512 {
		t.Errorf("512-bit key has %d-bit modulus", k512.N.BitLen())
	}
	if k1024.N.BitLen() != 1024 {
		t.Errorf("1024-bit key has %d-bit modulus", k1024.N.BitLen())
	}
	if k512.Size() != 64 || k1024.Size() != 128 {
		t.Errorf("Size() wrong: %d, %d", k512.Size(), k1024.Size())
	}
	if v, _ := k512.E.Uint64(); v != 65537 {
		t.Errorf("E = %d, want 65537", v)
	}
}

func TestGenerateKeyRejectsBadSizes(t *testing.T) {
	if _, err := GenerateKey(newRandReader(1), 100); err == nil {
		t.Error("accepted 100-bit key")
	}
	if _, err := GenerateKey(newRandReader(1), 129); err == nil {
		t.Error("accepted odd bit size")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	k512, k1024 := testKeys(t)
	rnd := newRandReader(2)
	for _, k := range []*PrivateKey{k512, k1024} {
		for _, msgLen := range []int{0, 1, 16, 48, k.Size() - 11} {
			msg := make([]byte, msgLen)
			rnd.Read(msg)
			ct, err := k.EncryptPKCS1(rnd, msg)
			if err != nil {
				t.Fatalf("encrypt %d bytes: %v", msgLen, err)
			}
			if len(ct) != k.Size() {
				t.Fatalf("ciphertext length %d != %d", len(ct), k.Size())
			}
			pt, err := k.DecryptPKCS1(rnd, ct)
			if err != nil {
				t.Fatalf("decrypt: %v", err)
			}
			if !bytes.Equal(pt, msg) {
				t.Fatalf("round trip failed for %d bytes", msgLen)
			}
		}
	}
}

func TestEncryptRejectsLongMessage(t *testing.T) {
	k512, _ := testKeys(t)
	msg := make([]byte, k512.Size()-10)
	if _, err := k512.EncryptPKCS1(newRandReader(3), msg); err == nil {
		t.Error("accepted over-long message")
	}
}

func TestDecryptRejectsBadInput(t *testing.T) {
	k512, _ := testKeys(t)
	rnd := newRandReader(4)
	if _, err := k512.DecryptPKCS1(rnd, make([]byte, 10)); err == nil {
		t.Error("accepted short ciphertext")
	}
	// All-0xFF is >= N for a key with top bit set.
	big := bytes.Repeat([]byte{0xff}, k512.Size())
	if _, err := k512.DecryptPKCS1(rnd, big); err == nil {
		t.Error("accepted out-of-range ciphertext")
	}
	// Random ciphertext should fail padding check (overwhelmingly).
	ct := make([]byte, k512.Size())
	rnd.Read(ct)
	ct[0] = 0
	if _, err := k512.DecryptPKCS1(rnd, ct); err == nil {
		t.Error("random ciphertext decrypted without padding error")
	}
}

func TestCRTMatchesPlain(t *testing.T) {
	k512, _ := testKeys(t)
	rnd := newRandReader(5)
	for i := 0; i < 10; i++ {
		c, _ := bn.New().RandRange(rnd, k512.N)
		crt, err := k512.privateCRT(c)
		plain := k512.privatePlain(c)
		if err != nil || !crt.Equal(plain) {
			t.Fatalf("CRT %s != plain %s", crt, plain)
		}
	}
}

func TestPrivatePublicInverse(t *testing.T) {
	k512, _ := testKeys(t)
	rnd := newRandReader(6)
	for i := 0; i < 10; i++ {
		m, _ := bn.New().RandRange(rnd, k512.N)
		c := k512.public(m)
		back, err := k512.privateCRT(c)
		if err != nil || !back.Equal(m) {
			t.Fatalf("decrypt(encrypt(m)) != m")
		}
	}
}

// TestPublicMatchesModExp holds the public op's square-and-multiply
// equal to ModExp, which it replaced: on both test keys with m ≥ N
// too, on odd moduli from 1 to 40 words, and on the moduli NewMont
// refuses (even, 1), which take ModExp itself and so must not panic.
func TestPublicMatchesModExp(t *testing.T) {
	k512, k1024 := testKeys(t)
	rnd := newRandReader(40)
	check := func(n, e, m *bn.Int) {
		t.Helper()
		pub := &PublicKey{N: n, E: e}
		if got, want := pub.public(m), bn.New().ModExp(m, e, n); !got.Equal(want) {
			t.Fatalf("public(%s) mod %s, e=%s = %s, want %s", m, n, e, got, want)
		}
	}
	for _, k := range []*PrivateKey{k512, k1024} {
		for i := 0; i < 5; i++ {
			m, _ := bn.New().RandRange(rnd, k.N)
			check(k.N, k.E, m)
			check(k.N, k.E, bn.New().Add(m, k.N))
		}
	}
	for words := 1; words <= 40; words++ {
		n, _ := bn.New().Rand(rnd, 32*words, false)
		if !n.IsOdd() {
			n.AddWord(n, 1)
		}
		m, _ := bn.New().Rand(rnd, 32*words+5, false)
		for _, e := range []*bn.Int{bn.NewInt(1), bn.NewInt(3), bn.NewInt(65537), n} {
			check(n, e, m)
			check(bn.New().Add(n, n), e, m)
		}
	}
	check(bn.NewInt(1), bn.NewInt(65537), bn.NewInt(5))
	check(bn.NewInt(2), bn.NewInt(65537), bn.NewInt(5))
}

func TestAgainstMathBig(t *testing.T) {
	k512, _ := testKeys(t)
	// Cross-check the public op against math/big.
	m := bn.NewInt(0xdeadbeef)
	c := k512.public(m)
	nBig := new(big.Int).SetBytes(k512.N.Bytes())
	eBig := new(big.Int).SetBytes(k512.E.Bytes())
	want := new(big.Int).Exp(big.NewInt(0xdeadbeef), eBig, nBig)
	if got := new(big.Int).SetBytes(c.Bytes()); got.Cmp(want) != 0 {
		t.Fatalf("public op disagrees with math/big")
	}
}

func TestBlindingRefresh(t *testing.T) {
	k512, _ := testKeys(t)
	rnd := newRandReader(7)
	msg := []byte("blinded")
	ct, _ := k512.EncryptPKCS1(rnd, msg)
	// First decryption sets up blinding; subsequent ones refresh it.
	for i := 0; i < 5; i++ {
		pt, err := k512.DecryptPKCS1(rnd, ct)
		if err != nil || !bytes.Equal(pt, msg) {
			t.Fatalf("decryption %d failed: %v", i, err)
		}
	}
	// The blinding pair must stay consistent: A * Ainv^e ... simpler:
	// blinded*Ainv round-trips, which the loop above already proves.
	if k512.blind == nil {
		t.Fatal("blinding was never set up")
	}
}

// TestConcurrentDecryptions pins the blinding-state locking: one key
// serving many goroutines (a server under load) must stay correct.
// Run with -race to verify the synchronization.
func TestConcurrentDecryptions(t *testing.T) {
	k512, _ := testKeys(t)
	msg := []byte("shared-key decryption")
	ct, err := k512.EncryptPKCS1(newRandReader(40), msg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := newRandReader(int64(41 + g))
			for i := 0; i < 20; i++ {
				pt, err := k512.DecryptPKCS1(rnd, ct)
				if err != nil || !bytes.Equal(pt, msg) {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent decrypt failed: %v", err)
	}
}

func TestDecryptProfiledPhases(t *testing.T) {
	_, k1024 := testKeys(t)
	rnd := newRandReader(8)
	msg := make([]byte, 48) // the pre-master secret size
	rnd.Read(msg)
	ct, err := k1024.EncryptPKCS1(rnd, msg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up blinding so the profile reflects steady state.
	if _, err := k1024.DecryptPKCS1(rnd, ct); err != nil {
		t.Fatal(err)
	}
	profile := func() *perf.Breakdown {
		b := perf.NewBreakdown()
		pt, err := k1024.DecryptPKCS1Profiled(rnd, ct, b)
		if err != nil || !bytes.Equal(pt, msg) {
			t.Fatalf("profiled decrypt failed: %v", err)
		}
		return b
	}
	names := profile().Names()
	if len(names) != len(Phases) {
		t.Fatalf("phases recorded: %v, want %v", names, Phases)
	}
	for i, want := range Phases {
		if names[i] != want {
			t.Fatalf("phase %d = %s, want %s", i, names[i], want)
		}
	}
	if testenv.Race {
		t.Skip("the computation share is a wall-clock share: the race detector instruments the Go phases but not the asm bignum")
	}
	// Table 7: computation dominates (97-98.8% in the paper).
	testenv.Timing(t, func() error {
		if b := profile(); b.Percent(PhaseComputation) < 80 {
			return fmt.Errorf("computation = %.1f%%, want dominant per Table 7\n%s", b.Percent(PhaseComputation), b)
		}
		return nil
	})
}

func TestSignVerifyMD5SHA1(t *testing.T) {
	k512, _ := testKeys(t)
	digest := make([]byte, 36)
	newRandReader(9).Read(digest)
	sig, err := k512.SignPKCS1(HashMD5SHA1, digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := k512.VerifyPKCS1(HashMD5SHA1, digest, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Tampered digest fails.
	digest[0] ^= 1
	if err := k512.VerifyPKCS1(HashMD5SHA1, digest, sig); err == nil {
		t.Fatal("verify accepted tampered digest")
	}
	digest[0] ^= 1
	// Tampered signature fails.
	sig[len(sig)-1] ^= 1
	if err := k512.VerifyPKCS1(HashMD5SHA1, digest, sig); err == nil {
		t.Fatal("verify accepted tampered signature")
	}
}

func TestSignVerifyDigestInfo(t *testing.T) {
	k512, _ := testKeys(t)
	cases := []struct {
		h    HashID
		dlen int
	}{{HashMD5, 16}, {HashSHA1, 20}}
	for _, c := range cases {
		digest := make([]byte, c.dlen)
		newRandReader(int64(10 + c.dlen)).Read(digest)
		sig, err := k512.SignPKCS1(c.h, digest)
		if err != nil {
			t.Fatalf("sign %v: %v", c.h, err)
		}
		if err := k512.VerifyPKCS1(c.h, digest, sig); err != nil {
			t.Fatalf("verify %v: %v", c.h, err)
		}
		// Wrong hash id must fail.
		other := HashMD5
		if c.h == HashMD5 {
			other = HashSHA1
		}
		otherDigest := make([]byte, map[HashID]int{HashMD5: 16, HashSHA1: 20}[other])
		if err := k512.VerifyPKCS1(other, otherDigest, sig); err == nil {
			t.Fatalf("verify with wrong hash accepted")
		}
	}
}

func TestSignRejectsWrongDigestLength(t *testing.T) {
	k512, _ := testKeys(t)
	if _, err := k512.SignPKCS1(HashSHA1, make([]byte, 16)); err == nil {
		t.Error("accepted 16-byte digest for SHA-1")
	}
	if err := k512.VerifyPKCS1(HashSHA1, make([]byte, 16), make([]byte, 64)); err == nil {
		t.Error("verify accepted wrong-length digest")
	}
}

func TestParsePKCS1Type2(t *testing.T) {
	good := append([]byte{0, 2}, bytes.Repeat([]byte{0xaa}, 8)...)
	good = append(good, 0)
	good = append(good, []byte("hello")...)
	msg, err := parsePKCS1Type2(good)
	if err != nil || string(msg) != "hello" {
		t.Fatalf("parse = %q, %v", msg, err)
	}
	bad := [][]byte{
		nil,
		{0, 2, 0xaa, 0},                   // too short
		append([]byte{1, 2}, good[2:]...), // wrong leading byte
		append([]byte{0, 1}, good[2:]...), // wrong block type
		append([]byte{0, 2}, bytes.Repeat([]byte{0xaa}, 20)...), // no separator
		{0, 2, 0xaa, 0xaa, 0, 1, 1, 1, 1, 1, 1, 1},              // PS too short
	}
	for i, b := range bad {
		if _, err := parsePKCS1Type2(b); err == nil {
			t.Errorf("bad case %d accepted", i)
		}
	}
}

// TestDecryptSteadyStateAllocs pins the zero-allocation decrypt: with
// the key's contexts built, the blinding pair set up and the arena and
// scratch pools filled — by eight goroutines sharing the key, as a
// loaded server's connections do — a DecryptPKCS1 with blinding on
// allocates the returned pre-master and nothing else.
func TestDecryptSteadyStateAllocs(t *testing.T) {
	_, k1024 := testKeys(t)
	pre := make([]byte, 48)
	newRandReader(50).Read(pre)
	ct, err := k1024.EncryptPKCS1(newRandReader(51), pre)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := newRandReader(int64(52 + g))
			for i := 0; i < 4; i++ {
				if pt, err := k1024.DecryptPKCS1(rnd, ct); err != nil || !bytes.Equal(pt, pre) {
					t.Errorf("concurrent decrypt: %x, %v", pt, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if testenv.Race {
		return // the race detector's sync.Pool drops items at random
	}
	rnd := newRandReader(60)
	allocs := testing.AllocsPerRun(20, func() {
		if pt, err := k1024.DecryptPKCS1(rnd, ct); err != nil || !bytes.Equal(pt, pre) {
			t.Fatalf("decrypt: %x, %v", pt, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("steady-state DecryptPKCS1 allocates %.1f objects, want <= 1 (the returned slice)", allocs)
	}
}
