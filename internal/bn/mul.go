package bn

// Mul sets z = x * y and returns z (BN_mul). Large operands use the
// algorithm selected by SetMulMode — Karatsuba by default, like the
// OpenSSL build the paper measured — with the schoolbook mul-add loop
// as the base case.
func (z *Int) Mul(x, y *Int) *Int {
	profEnter(fnMul)
	if x.IsZero() || y.IsZero() {
		z.d = z.d[:0]
		z.neg = false
		profExit()
		return z
	}
	out := mulSlices(x.d, y.d)
	neg := x.neg != y.neg
	z.d = out
	z.neg = neg
	z.norm()
	profExit()
	return z
}

// Sqr sets z = x * x and returns z. (BN_sqr.) It exploits the symmetry
// of squaring: cross products are computed once and doubled.
func (z *Int) Sqr(x *Int) *Int {
	profEnter(fnSqr)
	n := len(x.d)
	if n == 0 {
		z.d = z.d[:0]
		z.neg = false
		profExit()
		return z
	}
	out := make([]Word, 2*n)
	// Cross products x[i]*x[j], i < j.
	for i := 0; i < n-1; i++ {
		carry := mulAddWords(out[2*i+1:i+n], x.d[i+1:], x.d[i])
		out[i+n] = carry
	}
	// Double the cross products.
	var carry uint64
	for i := range out {
		v := uint64(out[i])<<1 | carry
		out[i] = Word(v)
		carry = v >> WordBits
	}
	// Add the squares x[i]^2 on the diagonal.
	var c uint64
	for i := 0; i < n; i++ {
		sq := uint64(x.d[i]) * uint64(x.d[i])
		lo := uint64(out[2*i]) + (sq & 0xffffffff) + c
		out[2*i] = Word(lo)
		hi := uint64(out[2*i+1]) + (sq >> WordBits) + (lo >> WordBits)
		out[2*i+1] = Word(hi)
		c = hi >> WordBits
	}
	z.d = out
	z.neg = false
	z.norm()
	profExit()
	return z
}
