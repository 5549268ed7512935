package bn

import (
	"bytes"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"sslperf/internal/cpufeat"
	"sslperf/internal/testenv"
)

// montResults runs every exported Montgomery entry point once on
// whichever kernel is selected and returns the results in a fixed
// order: ToMont(x), x·y, x², x^e, (x·y) mod N by Reduce.
func montResults(m *Mont, x, y, e *Int) []*Int {
	xm, ym := m.ToMont(New(), x), m.ToMont(New(), y)
	return []*Int{
		xm,
		m.FromMont(New(), m.MulMont(New(), xm, ym)),
		m.FromMont(New(), m.SqrMont(New(), xm)),
		m.Exp(New(), x, e),
		m.Reduce(New(), New().Mul(x, y)),
	}
}

// FuzzMontKernels is the differential test of the kernel swap: for an
// arbitrary odd modulus of 1 to 40 32-bit limbs (odd limb counts leave
// the top 64-bit limb half empty), the production kernel, the same
// Mont held to the portable CIOS loops (adx off, the path of a CPU
// without BMI2/ADX), the counting kernel (selected by StartProfile, as
// sslanatomy does) and math/big agree on every exported operation, and
// the kernels agree on the Montgomery form itself, so values may cross
// between them.
func FuzzMontKernels(f *testing.F) {
	ff := bytes.Repeat([]byte{0xff}, 64)
	f.Add([]byte{3}, []byte{2}, []byte{1}, []byte{5})
	f.Add([]byte{1, 0, 0, 0, 1}, []byte{0xff, 0xff}, []byte{7}, []byte{1, 0})
	f.Add(ff, ff[:63], ff[:1], ff)
	f.Add(ff[:20], ff[:20], ff[:19], ff[:9])
	f.Add(append([]byte{0x80}, make([]byte, 63)...), ff, ff, ff[:8])
	f.Add(bytes.Repeat([]byte{0xa5}, 160), ff, ff[:33], ff[:40])
	// Exactly 8 limbs, mulADX8's width: N = 2^512−1 with x = y = N−1,
	// and N with every limb 0x8000000000000001.
	nm1 := append(bytes.Repeat([]byte{0xff}, 63), 0xfe)
	f.Add(ff, nm1, nm1, ff[:32])
	f.Add(bytes.Repeat([]byte{0x80, 0, 0, 0, 0, 0, 0, 1}, 8), ff, ff[:40], ff)
	// Exactly 16 limbs, the width of mulADX16: the same two moduli.
	ff128 := bytes.Repeat([]byte{0xff}, 128)
	nm1x := append(bytes.Repeat([]byte{0xff}, 127), 0xfe)
	f.Add(ff128, nm1x, nm1x, ff[:32])
	f.Add(bytes.Repeat([]byte{0x80, 0, 0, 0, 0, 0, 0, 1}, 16), ff128, ff[:40], ff)
	f.Fuzz(func(t *testing.T, nb, xb, yb, eb []byte) {
		if len(nb) > 160 || len(eb) > 160 {
			t.Skip()
		}
		n := New().SetBytes(nb)
		if n.IsZero() {
			t.Skip()
		}
		n.d[0] |= 1
		m, err := NewMont(n)
		if err != nil {
			t.Skip() // N == 1
		}
		x := New().Mod(New().SetBytes(xb), n)
		y := New().Mod(New().SetBytes(yb), n)
		e := New().SetBytes(eb)

		fast := montResults(m, x, y, e)
		p, _ := NewMont(n) // n was accepted above
		p.adx = false
		portable := montResults(p, x, y, e)
		StartProfile()
		counting := montResults(m, x, y, e)
		StopProfile()

		bn, bx, by := toBig(n), toBig(x), toBig(y)
		xy := new(big.Int).Mul(bx, by)
		xy.Mod(xy, bn)
		want := []*big.Int{
			new(big.Int).Mod(new(big.Int).Lsh(bx, uint(64*m.k)), bn),
			xy,
			new(big.Int).Exp(bx, big.NewInt(2), bn),
			new(big.Int).Exp(bx, toBig(e), bn),
			xy,
		}
		names := []string{"ToMont", "MulMont", "SqrMont", "Exp", "Reduce"}
		for i, w := range want {
			if toBig(fast[i]).Cmp(w) != 0 {
				t.Errorf("production %s mod %s = %s, want %s", names[i], n, fast[i], w.Text(16))
			}
			if toBig(portable[i]).Cmp(w) != 0 {
				t.Errorf("portable %s mod %s = %s, want %s", names[i], n, portable[i], w.Text(16))
			}
			if toBig(counting[i]).Cmp(w) != 0 {
				t.Errorf("counting %s mod %s = %s, want %s", names[i], n, counting[i], w.Text(16))
			}
		}
	})
}

// TestMont8MatchesGeneric holds the 8-limb MULX/ADCX/ADOX assembly
// (mulX, sqrX, mont8_amd64.s) equal, limb for limb, to the generic CIOS
// loops it stands in for at that width, where CPUID reports BMI2 and
// ADX. The operands are 200 PRNG pairs on each of 50 PRNG 512-bit
// moduli, then every pair of the edge operands 0, 1, N−1, R mod N and
// all-ones limbs on those moduli and on 2^511+1 and 2^512−1, each
// product also computed with z = x, z = y and z = x = y.
func TestMont8MatchesGeneric(t *testing.T) {
	t.Run("adx", func(t *testing.T) {
		if !cpufeat.X86.ADX {
			t.Skip("CPU lacks BMI2/ADX")
		}
		matchGeneric(t, 8, (*Mont).mulX, (*Mont).sqrX)
	})
}

// TestMont16MatchesGeneric holds the 16-limb MULX/ADCX/ADOX multiply
// (mulX, and sqrX, which is that multiply with y = x) equal to the
// CIOS loops on the same operand set at 1024 bits, where CPUID reports
// BMI2 and ADX.
func TestMont16MatchesGeneric(t *testing.T) {
	if !cpufeat.X86.ADX {
		t.Skip("CPU lacks BMI2/ADX")
	}
	matchGeneric(t, 16, (*Mont).mulX, (*Mont).sqrX)
}

// TestSelect8MatchesGeneric holds Exp's 8-limb window lookup on SSE2
// (Mont.selectEntry at k = 8) equal to the generic selectEntry for every
// window value, on a table of PRNG limbs.
func TestSelect8MatchesGeneric(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	m := &Mont{k: 8}
	table := make([]uint64, 8<<expWindow)
	for i := range table {
		table[i] = rnd.Uint64()
	}
	want, got := make([]uint64, 8), make([]uint64, 8)
	for w := uint(0); w < 1<<expWindow; w++ {
		selectEntry(want, table, w)
		m.selectEntry(got, table, w)
		for i := range want {
			if got[i] != want[i] || want[i] != table[8*int(w)+i] {
				t.Fatalf("w=%d: got %x, generic %x, entry %x", w, got, want, table[8*w:8*w+8])
			}
		}
	}
}

// matchGeneric checks mul and sqr against mulCIOS and sqrCIOS on
// k-limb moduli: 200 PRNG operand pairs on each of 50 PRNG moduli,
// then the edge operands on those and on 2^(64k−1)+1 and 2^(64k)−1.
func matchGeneric(t *testing.T, k int, mul func(m *Mont, z, x, y, t []uint64), sqr func(m *Mont, z, x, t []uint64)) {
	rnd := rand.New(rand.NewSource(int64(k)))
	limbs := func() []uint64 {
		x := make([]uint64, k)
		for i := range x {
			x[i] = rnd.Uint64()
		}
		return x
	}
	toInt := func(x []uint64) *Int { return New().store(x) }
	pack := func(x *Int) []uint64 {
		l := make([]uint64, k)
		packLimbs(l, x.d)
		return l
	}
	r := New().Lsh(NewInt(1), uint(64*k))
	moduli := []*Int{New().Add(New().Lsh(NewInt(1), uint(64*k-1)), NewInt(1)), New().Sub(r, NewInt(1))}
	for i := 0; i < 50; i++ {
		n := limbs()
		n[0] |= 1
		n[k-1] |= 1 << 63
		moduli = append(moduli, toInt(n))
	}
	tm := make([]uint64, 2*k)
	want, got := make([]uint64, k), make([]uint64, k)
	ones := make([]uint64, k)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	for mi, n := range moduli {
		m, err := NewMont(n)
		if err != nil {
			t.Fatal(err)
		}
		check := func(x, y []uint64) {
			t.Helper()
			same := func(op string, z []uint64) {
				t.Helper()
				for i := range want {
					if z[i] != want[i] {
						t.Fatalf("modulus %d %s: x=%x y=%x: got %x, want %x", mi, op, x, y, z, want)
					}
				}
			}
			m.mulCIOS(want, x, y, tm)
			mul(m, got, x, y, tm)
			same("mul", got)
			mul(m, got, append(got[:0], x...), y, tm)
			same("mul z=x", got)
			mul(m, got, x, append(got[:0], y...), tm)
			same("mul z=y", got)
			m.sqrCIOS(want, x, tm)
			sqr(m, got, x, tm)
			same("sqr", got)
			sqr(m, got, append(got[:0], x...), tm)
			same("sqr z=x", got)
			mul(m, got, append(got[:0], x...), got, tm)
			same("mul z=x=y", got)
		}
		if mi >= 2 {
			for i := 0; i < 200; i++ {
				check(pack(New().Mod(toInt(limbs()), n)), pack(New().Mod(toInt(limbs()), n)))
			}
		}
		edges := [][]uint64{make([]uint64, k), pack(NewInt(1)), pack(New().Sub(n, NewInt(1))), m.one64, ones}
		for _, x := range edges {
			for _, y := range edges {
				check(x, y)
			}
		}
	}
}

// TestMontOutOfRangeOperands pins the memory-safety guard: operands
// the contract excludes (too wide, negative) are reduced, not read
// out of bounds.
func TestMontOutOfRangeOperands(t *testing.T) {
	n := MustHex("f123456789abcdef0123456789abcdef1")
	m, err := NewMont(n)
	if err != nil {
		t.Fatal(err)
	}
	wide := New().Lsh(NewInt(0xabcdef), 700)
	neg := New().Neg(NewInt(5))
	for _, x := range []*Int{wide, neg} {
		want := new(big.Int).Exp(toBig(x), big.NewInt(1<<20+1), toBig(n))
		e := New().Lsh(NewInt(1), 70) // wide enough for the window path
		wantWide := new(big.Int).Exp(toBig(x), toBig(e), toBig(n))
		if got := m.Exp(New(), x, NewInt(1<<20+1)); toBig(got).Cmp(want) != 0 {
			t.Errorf("Exp(%s) short exponent = %s, want %s", x, got, want.Text(16))
		}
		if got := m.Exp(New(), x, e); toBig(got).Cmp(wantWide) != 0 {
			t.Errorf("Exp(%s) = %s, want %s", x, got, wantWide.Text(16))
		}
		m.MulMont(New(), x, x)
		m.FromMont(New(), x)
		m.Reduce(New(), x)
	}
}

// TestMontSteadyStateAllocs: once the result has its storage and the
// pool its scratch, the production kernel allocates nothing — also
// when one Mont serves several goroutines, which is what the pool is
// for.
func TestMontSteadyStateAllocs(t *testing.T) {
	rnd := newRandReader(77)
	p, err := GeneratePrime(rnd, 512)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMont(p)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := New().RandRange(rnd, p)
	e, _ := New().RandRange(rnd, p)
	want := new(big.Int).Exp(toBig(x), toBig(e), toBig(p))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := New()
			for i := 0; i < 4; i++ {
				if toBig(m.Exp(z, x, e)).Cmp(want) != 0 {
					t.Error("concurrent Exp disagrees with math/big")
					return
				}
			}
		}()
	}
	wg.Wait()
	if testenv.Race {
		return // the race detector's sync.Pool drops items at random
	}
	z, xm := New(), m.ToMont(New(), x)
	m.Exp(z, x, e)
	for name, fn := range map[string]func(){
		"Exp":     func() { m.Exp(z, x, e) },
		"MulMont": func() { m.MulMont(z, xm, xm) },
		"SqrMont": func() { m.SqrMont(z, xm) },
		"Reduce":  func() { m.Reduce(z, xm) },
	} {
		if a := testing.AllocsPerRun(20, fn); a != 0 {
			t.Errorf("%s allocates %.1f objects per call in steady state, want 0", name, a)
		}
	}
}

func benchMont(b *testing.B, bits int) (*Mont, *Int, *Int) {
	rnd := newRandReader(int64(bits))
	p, err := GeneratePrime(rnd, bits)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMont(p)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := New().RandRange(rnd, p)
	e, _ := New().Rand(rnd, bits, false)
	return m, x, e
}

func BenchmarkMulMont512(b *testing.B) {
	m, x, _ := benchMont(b, 512)
	xm, z := m.ToMont(New(), x), New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulMont(z, xm, xm)
	}
}

func BenchmarkSqrMont512(b *testing.B) {
	m, x, _ := benchMont(b, 512)
	xm, z := m.ToMont(New(), x), New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SqrMont(z, xm)
	}
}

func BenchmarkMontExp512(b *testing.B) {
	m, x, e := benchMont(b, 512)
	z := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Exp(z, x, e)
	}
}

// kernelForm is one Montgomery multiply and square, called by name.
type kernelForm struct {
	name string
	mul  func(m *Mont, z, x, y, t []uint64)
	sqr  func(m *Mont, z, x, t []uint64)
}

// BenchmarkMont8 times each 8-limb form by name, with no packing: the
// generic CIOS loops and, where CPUID reports BMI2 and ADX, the
// generated MULX/ADCX/ADOX assembly.
func BenchmarkMont8(b *testing.B) {
	benchForms(b, 512, []kernelForm{{"cios", (*Mont).mulCIOS, (*Mont).sqrCIOS}, {"adx", (*Mont).mulX, (*Mont).sqrX}})
}

// BenchmarkMont16 times the 16-limb forms by name: the CIOS loops and,
// where CPUID reports it, the MULX/ADCX/ADOX multiply.
func BenchmarkMont16(b *testing.B) {
	benchForms(b, 1024, []kernelForm{{"cios", (*Mont).mulCIOS, (*Mont).sqrCIOS}, {"adx", (*Mont).mulX, (*Mont).sqrX}})
}

func benchForms(b *testing.B, bits int, forms []kernelForm) {
	m, x, _ := benchMont(b, bits)
	xl := make([]uint64, m.k)
	packLimbs(xl, m.ToMont(New(), x).d)
	z, tm := make([]uint64, m.k), make([]uint64, 2*m.k)
	for _, f := range forms {
		if f.name == "adx" && !cpufeat.X86.ADX {
			continue
		}
		b.Run(f.name+"/mul", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.mul(m, z, xl, xl, tm)
			}
		})
		b.Run(f.name+"/sqr", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.sqr(m, z, xl, tm)
			}
		})
	}
}
