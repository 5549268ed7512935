package bn

// Word-level kernels. These are the Go analogues of OpenSSL's
// bn_asm.c primitives; the paper's Table 8 attributes 47% of RSA
// decryption to bn_mul_add_words and 23% to bn_sub_words, so these
// carry per-function profiling hooks (see profile.go).

// addWords sets z = x + y over n limbs (n = len(x) = len(y)) and
// returns the carry-out. z may alias x or y. (bn_add_words)
func addWords(z, x, y []Word) Word {
	profEnter(fnAddWords)
	var carry uint64
	for i := range x {
		s := uint64(x[i]) + uint64(y[i]) + carry
		z[i] = Word(s)
		carry = s >> WordBits
	}
	profExit()
	return Word(carry)
}

// subWords sets z = x - y over n limbs and returns the borrow-out
// (1 when x < y). z may alias x or y. (bn_sub_words)
func subWords(z, x, y []Word) Word {
	profEnter(fnSubWords)
	var borrow uint64
	for i := range x {
		d := uint64(x[i]) - uint64(y[i]) - borrow
		z[i] = Word(d)
		borrow = (d >> WordBits) & 1
	}
	profExit()
	return Word(borrow)
}

// mulAddWords computes z[i] += x[i]*y for all i with carry
// propagation, returning the final carry. This is the hot inner loop
// of both multiplication and Montgomery reduction — the paper's
// bn_mul_add_words, whose per-limb body (load, widening multiply, two
// adds, two adds-with-carry, store) is reproduced in Table 9.
func mulAddWords(z, x []Word, y Word) Word {
	profEnter(fnMulAddWords)
	var carry uint64
	yy := uint64(y)
	for i := range x {
		// t = z[i] + x[i]*y + carry; fits in 64 bits because
		// (B-1) + (B-1)^2 + (B-1) = B^2 - 1 for B = 2^32.
		t := uint64(z[i]) + uint64(x[i])*yy + carry
		z[i] = Word(t)
		carry = t >> WordBits
	}
	profExit()
	return Word(carry)
}

// uadd sets z = |x| + |y| ignoring signs. z may alias x or y.
func (z *Int) uadd(x, y *Int) {
	if len(x.d) < len(y.d) {
		x, y = y, x
	}
	n, m := len(x.d), len(y.d)
	var d []Word
	if cap(z.d) >= n+1 {
		d = z.d[:n+1]
	} else {
		d = make([]Word, n+1)
	}
	carry := addWords(d[:m], x.d[:m], y.d[:m])
	for i := m; i < n; i++ {
		s := uint64(x.d[i]) + uint64(carry)
		d[i] = Word(s)
		carry = Word(s >> WordBits)
	}
	d[n] = carry
	z.d = d
	z.norm()
}

// usub sets z = |x| - |y|, requiring |x| >= |y|. z may alias x or y.
// (BN_usub)
func (z *Int) usub(x, y *Int) {
	profEnter(fnUsub)
	n, m := len(x.d), len(y.d)
	var d []Word
	if cap(z.d) >= n {
		d = z.d[:n]
	} else {
		d = make([]Word, n)
	}
	borrow := subWords(d[:m], x.d[:m], y.d[:m])
	for i := m; i < n; i++ {
		t := uint64(x.d[i]) - uint64(borrow)
		d[i] = Word(t)
		borrow = Word((t >> WordBits) & 1)
	}
	if borrow != 0 {
		profExit()
		panic("bn: usub underflow")
	}
	z.d = d
	z.norm()
	profExit()
}

// Add sets z = x + y and returns z.
func (z *Int) Add(x, y *Int) *Int {
	if x.neg == y.neg {
		neg := x.neg
		z.uadd(x, y)
		if !z.IsZero() {
			z.neg = neg
		}
		return z
	}
	// Opposite signs: subtract the smaller magnitude.
	if x.CmpAbs(y) >= 0 {
		neg := x.neg
		z.usub(x, y)
		if !z.IsZero() {
			z.neg = neg
		}
	} else {
		neg := y.neg
		z.usub(y, x)
		if !z.IsZero() {
			z.neg = neg
		}
	}
	return z
}

// Sub sets z = x - y and returns z.
func (z *Int) Sub(x, y *Int) *Int {
	if x.neg != y.neg {
		neg := x.neg
		z.uadd(x, y)
		if !z.IsZero() {
			z.neg = neg
		}
		return z
	}
	if x.CmpAbs(y) >= 0 {
		neg := x.neg
		z.usub(x, y)
		if !z.IsZero() {
			z.neg = neg
		}
	} else {
		neg := !x.neg
		z.usub(y, x)
		if !z.IsZero() {
			z.neg = neg
		}
	}
	return z
}

// AddWord sets z = x + w (w unsigned) and returns z.
func (z *Int) AddWord(x *Int, w Word) *Int {
	var t Int
	t.SetUint64(uint64(w))
	return z.Add(x, &t)
}

// SubWord sets z = x - w and returns z.
func (z *Int) SubWord(x *Int, w Word) *Int {
	var t Int
	t.SetUint64(uint64(w))
	return z.Sub(x, &t)
}

// Lsh sets z = x << n and returns z.
func (z *Int) Lsh(x *Int, n uint) *Int {
	if x.IsZero() {
		z.d = z.d[:0]
		z.neg = false
		return z
	}
	words := int(n / WordBits)
	shift := n % WordBits
	src := x.d
	out := make([]Word, len(src)+words+1)
	if shift == 0 {
		copy(out[words:], src)
	} else {
		var carry Word
		for i, w := range src {
			out[words+i] = w<<shift | carry
			carry = w >> (WordBits - shift)
		}
		out[words+len(src)] = carry
	}
	z.d = out
	z.neg = x.neg
	return z.norm()
}

// Rsh sets z = x >> n (arithmetic on magnitude; sign preserved unless
// the result is zero) and returns z.
func (z *Int) Rsh(x *Int, n uint) *Int {
	words := int(n / WordBits)
	shift := n % WordBits
	if words >= len(x.d) {
		z.d = z.d[:0]
		z.neg = false
		return z
	}
	src := x.d[words:]
	out := make([]Word, len(src))
	if shift == 0 {
		copy(out, src)
	} else {
		for i := 0; i < len(src); i++ {
			w := src[i] >> shift
			if i+1 < len(src) {
				w |= src[i+1] << (WordBits - shift)
			}
			out[i] = w
		}
	}
	z.d = out
	z.neg = x.neg
	return z.norm()
}
