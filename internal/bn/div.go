package bn

import "math/bits"

// DivMod sets q = x div y and r = x mod y with Euclidean semantics for
// non-negative operands (truncated toward zero for signed ones, like
// OpenSSL's BN_div: r has the sign of x). It returns q. y must be
// non-zero. q and r must be distinct from each other; either may be nil
// if the caller only needs the other.
func DivMod(q, r, x, y *Int) *Int {
	profEnter(fnDiv)
	defer profExit()
	if y.IsZero() {
		panic("bn: division by zero")
	}
	if q == r && q != nil {
		panic("bn: DivMod with q == r")
	}
	negQ := x.neg != y.neg
	negR := x.neg
	qd, rd := udiv(x.d, y.d)
	if q != nil {
		q.d = qd
		q.neg = negQ
		q.norm()
	}
	if r != nil {
		r.d = rd
		r.neg = negR
		r.norm()
	}
	return q
}

// Mod sets z = x mod y with the result always in [0, |y|), i.e. the
// non-negative residue (the convention modular crypto code needs),
// and returns z.
func (z *Int) Mod(x, y *Int) *Int {
	DivMod(nil, z, x, y)
	if z.neg {
		// z is in (-|y|, 0); add |y|.
		var ay Int
		ay.Set(y)
		ay.neg = false
		z.Add(z, &ay)
	}
	return z
}

// udiv computes |x| / |y| returning quotient and remainder limb
// slices. Knuth Algorithm D with 32-bit limbs.
func udiv(x, y []Word) (q, r []Word) {
	n := len(y)
	m := len(x) - n
	if n == 0 {
		panic("bn: udiv by zero")
	}
	// Fast path: single-limb divisor.
	if n == 1 {
		return udivWord(x, y[0])
	}
	if m < 0 || (m == 0 && cmpWords(x, y) < 0) {
		r = make([]Word, len(x))
		copy(r, x)
		return nil, r
	}
	// Normalize: shift so the top bit of the top divisor limb is set.
	shift := uint(bits.LeadingZeros32(y[n-1]))
	vn := make([]Word, n)
	shlWords(vn, y, shift)
	un := make([]Word, len(x)+1)
	un[len(x)] = shlWordsExt(un[:len(x)], x, shift)

	q = make([]Word, m+1)
	const b = 1 << 32
	for j := m; j >= 0; j-- {
		// Estimate qhat from the top two limbs of un against the
		// top limb of vn.
		num := uint64(un[j+n])<<32 | uint64(un[j+n-1])
		qhat := num / uint64(vn[n-1])
		rhat := num % uint64(vn[n-1])
		for qhat >= b || qhat*uint64(vn[n-2]) > rhat<<32|uint64(un[j+n-2]) {
			qhat--
			rhat += uint64(vn[n-1])
			if rhat >= b {
				break
			}
		}
		// Multiply-subtract: un[j..j+n] -= qhat * vn.
		var borrow, mulCarry uint64
		for i := 0; i < n; i++ {
			p := qhat*uint64(vn[i]) + mulCarry
			mulCarry = p >> 32
			t := uint64(un[j+i]) - (p & 0xffffffff) - borrow
			un[j+i] = Word(t)
			borrow = (t >> 32) & 1
		}
		t := uint64(un[j+n]) - mulCarry - borrow
		un[j+n] = Word(t)
		if t>>32&1 != 0 {
			// qhat was one too large; add back.
			qhat--
			var carry uint64
			for i := 0; i < n; i++ {
				s := uint64(un[j+i]) + uint64(vn[i]) + carry
				un[j+i] = Word(s)
				carry = s >> 32
			}
			un[j+n] = Word(uint64(un[j+n]) + carry)
		}
		q[j] = Word(qhat)
	}
	// Denormalize remainder.
	r = make([]Word, n)
	shrWords(r, un[:n], shift)
	return q, r
}

// udivWord divides x by a single limb d.
func udivWord(x []Word, d Word) (q, r []Word) {
	q = make([]Word, len(x))
	var rem uint64
	for i := len(x) - 1; i >= 0; i-- {
		cur := rem<<32 | uint64(x[i])
		q[i] = Word(cur / uint64(d))
		rem = cur % uint64(d)
	}
	if rem != 0 {
		r = []Word{Word(rem)}
	}
	return q, r
}

func cmpWords(x, y []Word) int {
	nx, ny := len(x), len(y)
	for nx > 0 && x[nx-1] == 0 {
		nx--
	}
	for ny > 0 && y[ny-1] == 0 {
		ny--
	}
	if nx != ny {
		if nx < ny {
			return -1
		}
		return 1
	}
	for i := nx - 1; i >= 0; i-- {
		if x[i] != y[i] {
			if x[i] < y[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// shlWords shifts src left by s (< 32) bits into dst (same length);
// overflow bits are discarded.
func shlWords(dst, src []Word, s uint) {
	if s == 0 {
		copy(dst, src)
		return
	}
	var carry Word
	for i, w := range src {
		dst[i] = w<<s | carry
		carry = w >> (32 - s)
	}
}

// shlWordsExt is shlWords but returns the overflow limb.
func shlWordsExt(dst, src []Word, s uint) Word {
	if s == 0 {
		copy(dst, src)
		return 0
	}
	var carry Word
	for i, w := range src {
		dst[i] = w<<s | carry
		carry = w >> (32 - s)
	}
	return carry
}

// shrWords shifts src right by s (< 32) bits into dst (same length).
func shrWords(dst, src []Word, s uint) {
	if s == 0 {
		copy(dst, src)
		return
	}
	for i := 0; i < len(src); i++ {
		w := src[i] >> s
		if i+1 < len(src) {
			w |= src[i+1] << (32 - s)
		}
		dst[i] = w
	}
}
