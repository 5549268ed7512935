package bn

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"sslperf/internal/perf"
	"sslperf/internal/testenv"
)

// randReader is a deterministic io.Reader for reproducible tests.
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

// toBig converts our Int to math/big for oracle comparison.
func toBig(z *Int) *big.Int {
	b := new(big.Int).SetBytes(z.Bytes())
	if z.Sign() < 0 {
		b.Neg(b)
	}
	return b
}

// fromBig converts a math/big value to our Int.
func fromBig(b *big.Int) *Int {
	z := New().SetBytes(b.Bytes())
	if b.Sign() < 0 {
		z.neg = true
	}
	return z
}

// randBytes produces n random bytes from r.
func randBytes(r *rand.Rand, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(r.Intn(256))
	}
	return buf
}

func TestSetBytesRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{1},
		{0xff},
		{0x01, 0x00},
		{0xde, 0xad, 0xbe, 0xef},
		{0x00, 0x00, 0x12, 0x34, 0x56},
		bytes.Repeat([]byte{0xab}, 33),
	}
	for _, c := range cases {
		z := New().SetBytes(c)
		want := new(big.Int).SetBytes(c)
		if toBig(z).Cmp(want) != 0 {
			t.Errorf("SetBytes(%x) = %s, want %s", c, z.Hex(), want.Text(16))
		}
		// Bytes must be minimal big-endian.
		got := z.Bytes()
		trimmed := bytes.TrimLeft(c, "\x00")
		if !bytes.Equal(got, trimmed) && !(len(got) == 0 && len(trimmed) == 0) {
			t.Errorf("Bytes() = %x, want %x", got, trimmed)
		}
	}
}

func TestFillBytes(t *testing.T) {
	z := NewInt(0x1234)
	buf := z.FillBytes(make([]byte, 4))
	if !bytes.Equal(buf, []byte{0, 0, 0x12, 0x34}) {
		t.Fatalf("FillBytes = %x", buf)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FillBytes did not panic on overflow")
		}
	}()
	z.FillBytes(make([]byte, 1))
}

func TestHexRoundTrip(t *testing.T) {
	cases := []string{"0", "1", "f", "10", "deadbeef", "-deadbeef",
		"123456789abcdef0123456789abcdef", "80000000", "ffffffffffffffff"}
	for _, c := range cases {
		z, err := New().SetHex(c)
		if err != nil {
			t.Fatalf("SetHex(%q): %v", c, err)
		}
		if got := z.Hex(); got != c && !(c == "-0" && got == "0") {
			t.Errorf("Hex(SetHex(%q)) = %q", c, got)
		}
	}
	if _, err := New().SetHex("xyz"); err == nil {
		t.Error("SetHex accepted invalid input")
	}
	if _, err := New().SetHex(""); err == nil {
		t.Error("SetHex accepted empty input")
	}
	if _, err := New().SetHex("abc"); err != nil {
		t.Error("SetHex rejected odd-length input")
	}
}

func TestUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xffffffff, 0x100000000, 0xffffffffffffffff} {
		z := NewInt(v)
		got, ok := z.Uint64()
		if !ok || got != v {
			t.Errorf("Uint64(NewInt(%d)) = %d, %v", v, got, ok)
		}
	}
	big3 := MustHex("10000000000000000") // 2^64
	if _, ok := big3.Uint64(); ok {
		t.Error("Uint64 claimed 2^64 fits")
	}
}

func TestBitLenAndBit(t *testing.T) {
	if NewInt(0).BitLen() != 0 {
		t.Error("BitLen(0) != 0")
	}
	z := MustHex("80000000000000000") // 2^67
	if z.BitLen() != 68 {
		t.Errorf("BitLen = %d, want 68", z.BitLen())
	}
	if z.Bit(67) != 1 || z.Bit(66) != 0 || z.Bit(1000) != 0 {
		t.Error("Bit() wrong")
	}
}

func TestSignNegCmp(t *testing.T) {
	pos, negv, zero := NewInt(5), New().Neg(NewInt(5)), NewInt(0)
	if pos.Sign() != 1 || negv.Sign() != -1 || zero.Sign() != 0 {
		t.Fatal("Sign wrong")
	}
	if pos.Cmp(negv) != 1 || negv.Cmp(pos) != -1 || pos.Cmp(pos) != 0 {
		t.Fatal("Cmp wrong")
	}
	if New().Neg(zero).Sign() != 0 {
		t.Fatal("-0 should be 0")
	}
	if pos.CmpAbs(negv) != 0 {
		t.Fatal("CmpAbs ignoring sign failed")
	}
}

func TestAddSubAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := fromBig(randSignedBig(r, 40))
		b := fromBig(randSignedBig(r, 40))
		sum := New().Add(a, b)
		diff := New().Sub(a, b)
		wantSum := new(big.Int).Add(toBig(a), toBig(b))
		wantDiff := new(big.Int).Sub(toBig(a), toBig(b))
		if toBig(sum).Cmp(wantSum) != 0 {
			t.Fatalf("%s + %s = %s, want %s", a, b, sum, wantSum.Text(16))
		}
		if toBig(diff).Cmp(wantDiff) != 0 {
			t.Fatalf("%s - %s = %s, want %s", a, b, diff, wantDiff.Text(16))
		}
	}
}

func randSignedBig(r *rand.Rand, maxBytes int) *big.Int {
	n := r.Intn(maxBytes)
	b := new(big.Int).SetBytes(randBytes(r, n))
	if r.Intn(2) == 0 {
		b.Neg(b)
	}
	return b
}

func TestAddAliasing(t *testing.T) {
	a := MustHex("ffffffffffffffff")
	a.Add(a, a)
	if a.Hex() != "1fffffffffffffffe" {
		t.Fatalf("a.Add(a,a) = %s", a)
	}
	b := MustHex("123456789")
	b.Sub(b, b)
	if !b.IsZero() {
		t.Fatalf("b.Sub(b,b) = %s", b)
	}
}

func TestMulAgainstBigProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(ab, bb []byte, an, bnn bool) bool {
		a := New().SetBytes(ab)
		b := New().SetBytes(bb)
		if an && !a.IsZero() {
			a.neg = true
		}
		if bnn && !b.IsZero() {
			b.neg = true
		}
		got := New().Mul(a, b)
		want := new(big.Int).Mul(toBig(a), toBig(b))
		return toBig(got).Cmp(want) == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSqrAgainstBigProperty(t *testing.T) {
	f := func(ab []byte) bool {
		a := New().SetBytes(ab)
		got := New().Sqr(a)
		want := new(big.Int).Mul(toBig(a), toBig(a))
		return toBig(got).Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDivModAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		x := New().SetBytes(randBytes(r, 1+r.Intn(40)))
		y := New().SetBytes(randBytes(r, 1+r.Intn(20)))
		if y.IsZero() {
			continue
		}
		var q, rem Int
		DivMod(&q, &rem, x, y)
		wantQ, wantR := new(big.Int).QuoRem(toBig(x), toBig(y), new(big.Int))
		if toBig(&q).Cmp(wantQ) != 0 || toBig(&rem).Cmp(wantR) != 0 {
			t.Fatalf("%s divmod %s = (%s, %s), want (%s, %s)",
				x, y, &q, &rem, wantQ.Text(16), wantR.Text(16))
		}
	}
}

func TestDivModEdgeCases(t *testing.T) {
	// x < y
	var q, r Int
	DivMod(&q, &r, NewInt(5), NewInt(100))
	if !q.IsZero() || r.Hex() != "5" {
		t.Fatalf("5/100 = (%s,%s)", &q, &r)
	}
	// x == y
	DivMod(&q, &r, NewInt(100), NewInt(100))
	if !q.IsOne() || !r.IsZero() {
		t.Fatalf("100/100 = (%s,%s)", &q, &r)
	}
	// Exact multi-limb division.
	a := MustHex("100000000000000000000000000000000")
	b := MustHex("10000000000000000")
	DivMod(&q, &r, a, b)
	if q.Hex() != "10000000000000000" || !r.IsZero() {
		t.Fatalf("exact division wrong: (%s,%s)", &q, &r)
	}
	// Division by zero panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("div by zero did not panic")
			}
		}()
		DivMod(&q, &r, a, NewInt(0))
	}()
}

func TestDivModLargeOperandsAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for i := 0; i < 40; i++ {
		x := New().SetBytes(randBytes(r, 200+r.Intn(200)))
		y := New().SetBytes(randBytes(r, 1+r.Intn(150)))
		if y.IsZero() {
			continue
		}
		var q, rem Int
		DivMod(&q, &rem, x, y)
		wantQ, wantR := new(big.Int).QuoRem(toBig(x), toBig(y), new(big.Int))
		if toBig(&q).Cmp(wantQ) != 0 || toBig(&rem).Cmp(wantR) != 0 {
			t.Fatalf("large divmod mismatch at %d bytes / %d bytes",
				len(x.Bytes()), len(y.Bytes()))
		}
	}
}

func TestDivModAliasing(t *testing.T) {
	// q or r may alias the operands.
	x := MustHex("123456789abcdef0123456789abcdef0")
	y := MustHex("fedcba98")
	wantQ, wantR := new(big.Int).QuoRem(toBig(x), toBig(y), new(big.Int))

	qx := x.Clone()
	DivMod(qx, New(), qx, y) // q aliases x
	if toBig(qx).Cmp(wantQ) != 0 {
		t.Fatal("q aliasing x broke division")
	}
	ry := y.Clone()
	DivMod(New(), ry, x, ry) // r aliases y
	if toBig(ry).Cmp(wantR) != 0 {
		t.Fatal("r aliasing y broke division")
	}
	// q == r must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DivMod with q == r did not panic")
			}
		}()
		z := New()
		DivMod(z, z, x, y)
	}()
}

func TestModExpWindowBoundaries(t *testing.T) {
	// Exponent bit lengths around the 4-bit window edges.
	n := MustHex("f123456789abcdef123456789abcdef1") // odd modulus
	x := MustHex("abcdef")
	for _, bits := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17} {
		e := New().Lsh(NewInt(1), uint(bits-1))
		e.AddWord(e, 5) // non-trivial low bits
		got := New().ModExp(x, e, n)
		want := new(big.Int).Exp(toBig(x), toBig(e), toBig(n))
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("window edge %d bits wrong", bits)
		}
	}
}

func TestModNonNegative(t *testing.T) {
	x := New().Neg(NewInt(7))
	n := NewInt(5)
	m := New().Mod(x, n)
	if m.Hex() != "3" {
		t.Fatalf("-7 mod 5 = %s, want 3", m)
	}
}

func TestShifts(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		x := New().SetBytes(randBytes(r, 1+r.Intn(20)))
		s := uint(r.Intn(100))
		l := New().Lsh(x, s)
		rr := New().Rsh(x, s)
		wantL := new(big.Int).Lsh(toBig(x), s)
		wantR := new(big.Int).Rsh(toBig(x), s)
		if toBig(l).Cmp(wantL) != 0 {
			t.Fatalf("%s << %d = %s, want %s", x, s, l, wantL.Text(16))
		}
		if toBig(rr).Cmp(wantR) != 0 {
			t.Fatalf("%s >> %d = %s, want %s", x, s, rr, wantR.Text(16))
		}
	}
}

func TestModExpAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		x := New().SetBytes(randBytes(r, 1+r.Intn(24)))
		e := New().SetBytes(randBytes(r, 1+r.Intn(8)))
		n := New().SetBytes(randBytes(r, 1+r.Intn(24)))
		if n.IsZero() {
			continue
		}
		if r.Intn(2) == 0 {
			n.d[0] |= 1 // exercise the Montgomery path
		}
		if n.IsOne() {
			continue
		}
		got := New().ModExp(x, e, n)
		want := new(big.Int).Exp(toBig(x), toBig(e), toBig(n))
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("%s^%s mod %s = %s, want %s", x, e, n, got, want.Text(16))
		}
	}
}

func TestModExpEdgeCases(t *testing.T) {
	// e = 0 -> 1
	if got := New().ModExp(NewInt(5), NewInt(0), NewInt(7)); !got.IsOne() {
		t.Fatalf("5^0 mod 7 = %s", got)
	}
	// N = 1 -> 0
	if got := New().ModExp(NewInt(5), NewInt(3), NewInt(1)); !got.IsZero() {
		t.Fatalf("mod 1 = %s", got)
	}
	// x = 0
	if got := New().ModExp(NewInt(0), NewInt(3), NewInt(7)); !got.IsZero() {
		t.Fatalf("0^3 mod 7 = %s", got)
	}
	// Known value: 2^10 mod 1000 = 24
	if got := New().ModExp(NewInt(2), NewInt(10), NewInt(1000)); got.Hex() != "18" {
		t.Fatalf("2^10 mod 1000 = %s, want 18", got)
	}
}

func TestMontgomeryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		n := New().SetBytes(randBytes(r, 4+r.Intn(24)))
		n.d[0] |= 1
		if n.IsOne() {
			continue
		}
		m, err := NewMont(n)
		if err != nil {
			t.Fatal(err)
		}
		x := New().Mod(New().SetBytes(randBytes(r, 20)), n)
		mx := m.ToMont(New(), x)
		back := m.FromMont(New(), mx)
		if !back.Equal(x) {
			t.Fatalf("Montgomery round trip failed for %s mod %s: got %s", x, n, back)
		}
	}
}

func TestMontgomeryMul(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		n := New().SetBytes(randBytes(r, 4+r.Intn(24)))
		n.d[0] |= 1
		if n.IsOne() {
			continue
		}
		m, err := NewMont(n)
		if err != nil {
			t.Fatal(err)
		}
		x := New().Mod(New().SetBytes(randBytes(r, 20)), n)
		y := New().Mod(New().SetBytes(randBytes(r, 20)), n)
		mx := m.ToMont(New(), x)
		my := m.ToMont(New(), y)
		mz := m.MulMont(New(), mx, my)
		z := m.FromMont(New(), mz)
		want := new(big.Int).Mul(toBig(x), toBig(y))
		want.Mod(want, toBig(n))
		if toBig(z).Cmp(want) != 0 {
			t.Fatalf("MulMont wrong: %s*%s mod %s = %s, want %s",
				x, y, n, z, want.Text(16))
		}
		// SqrMont agrees with MulMont(x, x).
		sq := m.FromMont(New(), m.SqrMont(New(), mx))
		wantSq := new(big.Int).Mul(toBig(x), toBig(x))
		wantSq.Mod(wantSq, toBig(n))
		if toBig(sq).Cmp(wantSq) != 0 {
			t.Fatalf("SqrMont wrong for %s mod %s", x, n)
		}
	}
}

func TestNewMontRejectsBadModulus(t *testing.T) {
	for _, n := range []*Int{NewInt(0), NewInt(1), NewInt(4), New().Neg(NewInt(5))} {
		if _, err := NewMont(n); err == nil {
			t.Errorf("NewMont(%s) accepted invalid modulus", n)
		}
	}
}

func TestModInverse(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		n := New().SetBytes(randBytes(r, 2+r.Intn(16)))
		if n.Sign() <= 0 || n.IsOne() {
			continue
		}
		x := New().SetBytes(randBytes(r, 1+r.Intn(16)))
		inv := New().ModInverse(x, n)
		g := new(big.Int).GCD(nil, nil, toBig(x), toBig(n))
		if g.Cmp(big.NewInt(1)) != 0 {
			if inv != nil {
				t.Fatalf("ModInverse(%s, %s) should not exist (gcd %s)", x, n, g)
			}
			continue
		}
		if inv == nil {
			t.Fatalf("ModInverse(%s, %s) = nil but gcd is 1", x, n)
		}
		prod := New().Mod(New().Mul(x, inv), n)
		if !prod.IsOne() {
			t.Fatalf("x*inv mod n = %s, want 1", prod)
		}
	}
}

func TestProbablyPrime(t *testing.T) {
	rnd := newRandReader(42)
	primes := []uint64{2, 3, 5, 7, 65537, 2147483647}
	for _, p := range primes {
		ok, err := NewInt(p).ProbablyPrime(rnd, 10)
		if err != nil || !ok {
			t.Errorf("ProbablyPrime(%d) = %v, %v; want prime", p, ok, err)
		}
	}
	composites := []uint64{0, 1, 4, 9, 561, 2047, 65535, 2147483647 * 2}
	for _, c := range composites {
		ok, err := NewInt(c).ProbablyPrime(rnd, 10)
		if err != nil || ok {
			t.Errorf("ProbablyPrime(%d) = %v, %v; want composite", c, ok, err)
		}
	}
	// A known large prime: 2^127 - 1 (Mersenne).
	m127 := New().SubWord(New().Lsh(NewInt(1), 127), 1)
	ok, err := m127.ProbablyPrime(rnd, 10)
	if err != nil || !ok {
		t.Errorf("2^127-1 should be prime: %v, %v", ok, err)
	}
	// 2^128 - 1 is composite.
	m128 := New().SubWord(New().Lsh(NewInt(1), 128), 1)
	ok, err = m128.ProbablyPrime(rnd, 10)
	if err != nil || ok {
		t.Errorf("2^128-1 should be composite: %v, %v", ok, err)
	}
}

func TestGeneratePrime(t *testing.T) {
	rnd := newRandReader(7)
	p, err := GeneratePrime(rnd, 128)
	if err != nil {
		t.Fatal(err)
	}
	if p.BitLen() != 128 {
		t.Fatalf("prime has %d bits, want 128", p.BitLen())
	}
	if p.Bit(126) != 1 {
		t.Fatal("second-top bit not set")
	}
	if !toBig(p).ProbablyPrime(32) {
		t.Fatalf("generated value %s is not prime per math/big", p)
	}
}

func TestRandRange(t *testing.T) {
	rnd := newRandReader(11)
	max := NewInt(1000)
	for i := 0; i < 200; i++ {
		z, err := New().RandRange(rnd, max)
		if err != nil {
			t.Fatal(err)
		}
		if z.Sign() <= 0 || z.Cmp(max) >= 0 {
			t.Fatalf("RandRange out of range: %s", z)
		}
	}
}

func TestCleanse(t *testing.T) {
	z := MustHex("deadbeefcafebabe")
	d := z.d
	z.Cleanse()
	if !z.IsZero() {
		t.Fatal("Cleanse did not zero the value")
	}
	for _, w := range d[:cap(d)] {
		if w != 0 {
			t.Fatal("Cleanse left key material in storage")
		}
	}
}

func TestProfileAttributesMulAddWords(t *testing.T) {
	rnd := newRandReader(13)
	x, _ := New().Rand(rnd, 1024, false)
	e, _ := New().Rand(rnd, 1024, false)
	n, _ := New().Rand(rnd, 1024, false)
	n.d[0] |= 1
	// One long preemption inside a short call can outweigh the kernel,
	// so a profile whose order is off is taken afresh (testenv.Timing).
	testenv.Timing(t, func() error {
		b := StartProfile()
		New().ModExp(x, e, n)
		StopProfile()
		if b.Total() == 0 {
			t.Fatal("profile collected nothing")
		}
		if b.Elapsed(fnMulAddWords) == 0 {
			t.Fatal("no time attributed to bn_mul_add_words")
		}
		// The mul-add kernel must be the single largest consumer, as in
		// the paper's Table 8 (47% of a 1024-bit RSA decryption).
		if top := b.SortedByElapsed()[0]; top.Name != fnMulAddWords {
			return fmt.Errorf("top function = %s, want %s\n%s", top.Name, fnMulAddWords, b)
		}
		return nil
	})
}

func TestProfileExclusiveTime(t *testing.T) {
	if testenv.Race {
		t.Skip("asserts wall-clock shares, which race instrumentation distorts")
	}
	a := New()
	a.Rand(newRandReader(99), 4096, false)
	testenv.Timing(t, func() error {
		b := StartProfile()
		// BN_mul calls mulAddWords; exclusive accounting must charge most
		// of the time to the kernel, not the caller.
		for i := 0; i < 50; i++ {
			New().Mul(a, a)
		}
		StopProfile()
		if b.Elapsed(fnMulAddWords) == 0 || b.Elapsed(fnMul) == 0 {
			t.Fatalf("missing attributions: %v", b.Samples())
		}
		if b.Elapsed(fnMul) >= b.Elapsed(fnMulAddWords) {
			return fmt.Errorf("caller self time %v >= kernel time %v",
				b.Elapsed(fnMul), b.Elapsed(fnMulAddWords))
		}
		return nil
	})
}

func TestTraceMulAddWordsShape(t *testing.T) {
	var tr perf.Trace
	TraceMulAddWords(&tr, 100)
	if tr.Total() == 0 {
		t.Fatal("empty trace")
	}
	// Per Table 9: exactly one widening multiply per limb.
	if got := tr.Count(perf.OpMul); got != 100 {
		t.Fatalf("mul count = %d, want 100", got)
	}
	// Loads must outnumber multiplies (register-starved x86 shape).
	if tr.Count(perf.OpLoad) <= tr.Count(perf.OpMul) {
		t.Fatal("loads should dominate multiplies")
	}
}

func TestInnerLoopListing(t *testing.T) {
	l := InnerLoopListing()
	if len(l) != 9 {
		t.Fatalf("listing has %d rows, want 9 (Table 9)", len(l))
	}
	if l[1][0] != "mull %ebp" {
		t.Fatalf("row 2 = %q", l[1][0])
	}
}

func TestTraceModExpPathLength(t *testing.T) {
	var tr perf.Trace
	TraceModExp(&tr, 1024, 1024)
	tr.Bytes = 128 // one 1024-bit operation "processes" 128 bytes
	pl := tr.PathLength()
	// Paper Table 11: RSA path length 61457 instr/byte. The model
	// should land in the same order of magnitude.
	if pl < 10000 || pl > 300000 {
		t.Fatalf("RSA modeled path length = %.0f ops/byte, want O(10^4..10^5)", pl)
	}
	cpi := tr.CPI()
	if cpi < 0.5 || cpi > 1.2 {
		t.Fatalf("RSA modeled CPI = %.2f, want highest-of-set per Table 11", cpi)
	}
}
