package bn

import (
	"bytes"
	"math/big"
	"sync"
	"testing"

	"sslperf/internal/testenv"
)

// montResults runs every exported Montgomery entry point once on
// whichever kernel is selected and returns the results in a fixed
// order: ToMont(x), x·y, x², x^e, x^e1, x^e1·y^e2, (x·y) mod N by
// Reduce.
func montResults(m *Mont, x, y, e *Int, e1, e2 uint64) []*Int {
	xm, ym := m.ToMont(New(), x), m.ToMont(New(), y)
	return []*Int{
		xm,
		m.FromMont(New(), m.MulMont(New(), xm, ym)),
		m.FromMont(New(), m.SqrMont(New(), xm)),
		m.Exp(New(), x, e),
		m.ExpUint64(New(), x, e1),
		m.Exp2Uint64(New(), x, e1, y, e2),
		m.Reduce(New(), New().Mul(x, y)),
	}
}

// FuzzMontKernels is the differential test of the kernel swap: for an
// arbitrary odd modulus of 1 to 40 32-bit limbs (odd limb counts leave
// the top 64-bit limb half empty), the production kernel, the counting
// kernel (selected by StartProfile, as sslanatomy does) and math/big
// agree on every exported operation, and the two kernels agree on the
// Montgomery form itself, so values may cross between them.
func FuzzMontKernels(f *testing.F) {
	ff := bytes.Repeat([]byte{0xff}, 64)
	f.Add([]byte{3}, []byte{2}, []byte{1}, []byte{5}, uint64(3), uint64(0))
	f.Add([]byte{1, 0, 0, 0, 1}, []byte{0xff, 0xff}, []byte{7}, []byte{1, 0}, uint64(65537), uint64(3))
	f.Add(ff, ff[:63], ff[:1], ff, ^uint64(0), uint64(1)<<63)
	f.Add(ff[:20], ff[:20], ff[:19], ff[:9], uint64(0), uint64(0))
	f.Add(append([]byte{0x80}, make([]byte, 63)...), ff, ff, ff[:8], uint64(17), uint64(23))
	f.Add(bytes.Repeat([]byte{0xa5}, 160), ff, ff[:33], ff[:40], uint64(111546435), uint64(19))
	f.Fuzz(func(t *testing.T, nb, xb, yb, eb []byte, e1, e2 uint64) {
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

		fast := montResults(m, x, y, e, e1, e2)
		StartProfile()
		counting := montResults(m, x, y, e, e1, e2)
		StopProfile()

		bn, bx, by := toBig(n), toBig(x), toBig(y)
		xy := new(big.Int).Mul(bx, by)
		xy.Mod(xy, bn)
		pow := func(b *big.Int, e uint64) *big.Int {
			return new(big.Int).Exp(b, new(big.Int).SetUint64(e), bn)
		}
		x1y2 := new(big.Int).Mul(pow(bx, e1), pow(by, e2))
		want := []*big.Int{
			new(big.Int).Mod(new(big.Int).Lsh(bx, uint(64*m.k)), bn),
			xy,
			new(big.Int).Exp(bx, big.NewInt(2), bn),
			new(big.Int).Exp(bx, toBig(e), bn),
			pow(bx, e1),
			x1y2.Mod(x1y2, bn),
			xy,
		}
		names := []string{"ToMont", "MulMont", "SqrMont", "Exp", "ExpUint64", "Exp2Uint64", "Reduce"}
		for i, w := range want {
			if toBig(fast[i]).Cmp(w) != 0 {
				t.Errorf("production %s mod %s = %s, want %s", names[i], n, fast[i], w.Text(16))
			}
			if toBig(counting[i]).Cmp(w) != 0 {
				t.Errorf("counting %s mod %s = %s, want %s", names[i], n, counting[i], w.Text(16))
			}
		}
	})
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
