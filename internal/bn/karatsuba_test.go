package bn

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"sslperf/internal/testenv"
)

// withMode runs fn under the given multiplication mode.
func withMode(m MulMode, fn func()) {
	prev := SetMulMode(m)
	defer SetMulMode(prev)
	fn()
}

func TestKaratsubaAgainstBigLargeOperands(t *testing.T) {
	withMode(MulKaratsuba, func() {
		r := rand.New(rand.NewSource(21))
		for i := 0; i < 300; i++ {
			// Sizes spanning below and above the threshold,
			// including odd limb counts and unequal lengths.
			nx := 1 + r.Intn(90)
			ny := 1 + r.Intn(90)
			x := New().SetBytes(randBytes(r, nx))
			y := New().SetBytes(randBytes(r, ny))
			got := New().Mul(x, y)
			want := new(big.Int).Mul(toBig(x), toBig(y))
			if toBig(got).Cmp(want) != 0 {
				t.Fatalf("karatsuba %d x %d bytes wrong:\n x=%s\n y=%s\n got=%s\n want=%s",
					nx, ny, x, y, got, want.Text(16))
			}
		}
	})
}

func TestKaratsubaMatchesSchoolbookProperty(t *testing.T) {
	f := func(xb, yb []byte) bool {
		x := New().SetBytes(xb)
		y := New().SetBytes(yb)
		var k, s *Int
		withMode(MulKaratsuba, func() { k = New().Mul(x, y) })
		withMode(MulSchoolbook, func() { s = New().Mul(x, y) })
		return k.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKaratsubaExactSizes(t *testing.T) {
	// Power-of-two limb counts hit the clean recursion path; the
	// +1 sizes hit padding.
	r := rand.New(rand.NewSource(22))
	for _, limbs := range []int{8, 9, 16, 17, 32, 33, 64} {
		x := New().SetBytes(randBytes(r, limbs*4))
		y := New().SetBytes(randBytes(r, limbs*4))
		var got *Int
		withMode(MulKaratsuba, func() { got = New().Mul(x, y) })
		want := new(big.Int).Mul(toBig(x), toBig(y))
		if toBig(got).Cmp(want) != 0 {
			t.Fatalf("limbs=%d mismatch", limbs)
		}
	}
}

func TestKaratsubaEdgeValues(t *testing.T) {
	all0 := New()
	allF := MustHex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff")
	one := NewInt(1)
	withMode(MulKaratsuba, func() {
		if !New().Mul(all0, allF).IsZero() {
			t.Fatal("0 * x != 0")
		}
		if !New().Mul(allF, one).Equal(allF) {
			t.Fatal("x * 1 != x")
		}
		sq := New().Mul(allF, allF)
		want := new(big.Int).Mul(toBig(allF), toBig(allF))
		if toBig(sq).Cmp(want) != 0 {
			t.Fatal("max-value square wrong")
		}
	})
}

func TestModExpSameUnderBothModes(t *testing.T) {
	rnd := newRandReader(23)
	x, _ := New().Rand(rnd, 1024, false)
	e, _ := New().Rand(rnd, 1024, false)
	n, _ := New().Rand(rnd, 1024, false)
	n.d[0] |= 1
	var a, b *Int
	withMode(MulKaratsuba, func() { a = New().ModExp(x, e, n) })
	withMode(MulSchoolbook, func() { b = New().ModExp(x, e, n) })
	if !a.Equal(b) {
		t.Fatal("ModExp differs between multiplication modes")
	}
}

func TestSetMulModeReturnsPrevious(t *testing.T) {
	prev := SetMulMode(MulSchoolbook)
	if mulMode != MulSchoolbook {
		t.Fatal("mode not set")
	}
	if SetMulMode(prev) != MulSchoolbook {
		t.Fatal("previous mode not returned")
	}
}

// The paper's Table 8 signature: under Karatsuba, bn_sub_words does
// real work (the difference terms); under schoolbook it is nearly
// absent from multiplication.
func TestKaratsubaShiftsTimeToSubWords(t *testing.T) {
	if testenv.Race {
		t.Skip("asserts wall-clock shares, which race instrumentation distorts")
	}
	rnd := newRandReader(24)
	x, _ := New().Rand(rnd, 2048, false)
	y, _ := New().Rand(rnd, 2048, false)

	measure := func(mode MulMode) (sub, mul float64) {
		var b *perfBreakdown
		withMode(mode, func() {
			bb := StartProfile()
			for i := 0; i < 200; i++ {
				New().Mul(x, y)
			}
			StopProfile()
			b = &perfBreakdown{bb.Percent(fnSubWords), bb.Percent(fnMulAddWords)}
		})
		return b.sub, b.mul
	}
	testenv.Timing(t, func() error {
		kSub, _ := measure(MulKaratsuba)
		sSub, sMul := measure(MulSchoolbook)
		if kSub <= sSub {
			return fmt.Errorf("karatsuba bn_sub_words share %.2f%% not above schoolbook's %.2f%%",
				kSub, sSub)
		}
		if sMul < 70 {
			return fmt.Errorf("schoolbook should be mostly bn_mul_add_words, got %.2f%%", sMul)
		}
		return nil
	})
}

type perfBreakdown struct{ sub, mul float64 }

func BenchmarkMul1024(b *testing.B) {
	rnd := newRandReader(25)
	x, _ := New().Rand(rnd, 1024, false)
	y, _ := New().Rand(rnd, 1024, false)
	z := New()
	b.Run("Karatsuba", func(b *testing.B) {
		withMode(MulKaratsuba, func() {
			for i := 0; i < b.N; i++ {
				z.Mul(x, y)
			}
		})
	})
	b.Run("Schoolbook", func(b *testing.B) {
		withMode(MulSchoolbook, func() {
			for i := 0; i < b.N; i++ {
				z.Mul(x, y)
			}
		})
	})
}
