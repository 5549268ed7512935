package bn

// ModExp sets z = x^e mod N and returns z. For odd N it uses
// fixed-window Montgomery exponentiation (the BN_mod_exp_mont path the
// paper measures); for even N it falls back to square-and-multiply
// with division-based reduction. e must be non-negative.
func (z *Int) ModExp(x, e, N *Int) *Int {
	profEnter(fnModExp)
	defer profExit()
	if N.IsZero() {
		panic("bn: ModExp modulus is zero")
	}
	if e.Sign() < 0 {
		panic("bn: ModExp negative exponent")
	}
	if N.IsOne() {
		return z.SetUint64(0)
	}
	var base Int
	base.Mod(x, N)
	if e.IsZero() {
		return z.SetUint64(1)
	}
	if N.IsOdd() {
		m, err := NewMont(N)
		if err != nil {
			panic("bn: " + err.Error())
		}
		return m.Exp(z, &base, e)
	}
	// Even modulus: plain square-and-multiply.
	result := NewInt(1)
	var t Int
	for i := e.BitLen() - 1; i >= 0; i-- {
		t.Sqr(result)
		result.Mod(&t, N)
		if e.Bit(i) == 1 {
			t.Mul(result, &base)
			result.Mod(&t, N)
		}
	}
	return z.Set(result)
}

// expWindow is the window width for Montgomery exponentiation.
// OpenSSL used 5 for 1024-bit exponents; 4 keeps the precompute table
// small while staying within a few percent of optimal.
const expWindow = 4

// ModInverse sets z = x⁻¹ mod N (the value v in [1, N) with
// x·v ≡ 1 mod N) and returns z, or nil if no inverse exists.
func (z *Int) ModInverse(x, N *Int) *Int {
	if N.Sign() <= 0 || N.IsOne() {
		return nil
	}
	// Extended Euclid on (a=N, b=x mod N), tracking only the
	// coefficient of x.
	a := N.Clone()
	b := New().Mod(x, N)
	if b.IsZero() {
		return nil
	}
	t0 := NewInt(0) // coefficient of x for a
	t1 := NewInt(1) // coefficient of x for b
	var q, r, tmp Int
	for !b.IsZero() {
		DivMod(&q, &r, a, b)
		a, b = b, New().Set(&r)
		// t0, t1 = t1, t0 - q*t1
		tmp.Mul(&q, t1)
		next := New().Sub(t0, &tmp)
		t0, t1 = t1, next
	}
	if !a.IsOne() {
		return nil
	}
	return z.Mod(t0, N)
}
