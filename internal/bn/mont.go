package bn

import (
	"errors"
	"sync"
)

// Mont holds the precomputed constants for Montgomery arithmetic
// modulo an odd modulus N: R = 2^(64·k) where k is the 64-bit limb
// count of N, n0 = -N⁻¹ mod 2^64, and RR = R² mod N for conversion
// into the Montgomery domain. It is the analogue of OpenSSL's
// BN_MONT_CTX, and is safe for concurrent use.
//
// Every method runs one of two kernels that compute the same function
// with the same R, so values in Montgomery form may cross between
// them: the production kernel of montkernel.go (64-bit limbs, no
// allocation, constant shape), or — while a profile is being
// collected, ProfileEnabled() — the counting kernel below, the 32-bit
// mulAddWords/redc code whose flat profile is the paper's Table 8.
type Mont struct {
	N  *Int // modulus (odd, > 1)
	RR *Int // R^2 mod N

	// Production kernel.
	k     int      // 64-bit limbs in N
	n64   []uint64 // N
	n0    uint64   // -N^-1 mod 2^64
	rr64  []uint64 // RR
	one64 []uint64 // R mod N, 1 in Montgomery form
	pool  sync.Pool

	// Counting kernel: N zero-padded to 2k 32-bit limbs.
	nd []Word
}

// NewMont prepares a Montgomery context for the odd modulus N > 1.
func NewMont(N *Int) (*Mont, error) {
	if N.Sign() <= 0 || !N.IsOdd() || N.IsOne() {
		return nil, errors.New("bn: Montgomery modulus must be odd and > 1")
	}
	k := (len(N.d) + 1) / 2
	m := &Mont{N: N.Clone(), k: k}
	limbs := make([]uint64, 3*k)
	m.n64, m.rr64, m.one64 = limbs[:k], limbs[k:2*k], limbs[2*k:]
	packLimbs(m.n64, N.d)
	m.nd = make([]Word, 2*k)
	copy(m.nd, N.d)
	// n0 = -N⁻¹ mod 2^64 by Newton–Hensel lifting on the low limb w:
	// for odd w, x = 3w XOR 2 satisfies w·x ≡ 1 mod 2^5, and each step
	// x ← x·(2 − w·x) doubles the number of correct low bits:
	// 5 → 10 → 20 → 40 → 80 ≥ 64. The counting kernel's 32-bit n0 is
	// the low half of the same value.
	w := m.n64[0]
	inv := (3 * w) ^ 2
	for i := 0; i < 4; i++ {
		inv *= 2 - w*inv
	}
	m.n0 = -inv
	// R mod N and RR = R² mod N by division, once per context.
	r := New().Lsh(NewInt(1), uint(64*k))
	one := New().Mod(r, m.N)
	m.RR = New().Mod(r.Sqr(one), m.N)
	packLimbs(m.one64, one.d)
	packLimbs(m.rr64, m.RR.d)
	m.pool.New = func() any { return m.newScratch() }
	return m, nil
}

// newScratch sizes the production kernel's working memory for this
// modulus. Scratch is borrowed from m.pool for the length of one
// exported call, so steady-state arithmetic allocates nothing.
func (m *Mont) newScratch() *montScratch {
	k := m.k
	buf := make([]uint64, 5*k+k<<expWindow)
	s := &montScratch{}
	s.t, buf = buf[:2*k], buf[2*k:]
	s.x, buf = buf[:k], buf[k:]
	s.y, buf = buf[:k], buf[k:]
	s.acc, s.table = buf[:k], buf[k:]
	return s
}

// load packs x into dst for the production kernel. x must be in
// [0, N) as every method documents; a value too wide for k limbs (or
// negative) is reduced first so the kernel never reads out of bounds.
func (m *Mont) load(dst []uint64, x *Int) {
	if x.neg || len(x.d) > 2*m.k {
		x = New().Mod(x, m.N)
	}
	packLimbs(dst, x.d)
}

// store sets z to the k-limb value src.
func (z *Int) store(src []uint64) *Int {
	unpackLimbs(z.resize(2*len(src)), src)
	z.neg = false
	return z.norm()
}

// MulMont sets z = x·y·R⁻¹ mod N for x, y already in Montgomery form.
// x and y must be in [0, N).
func (m *Mont) MulMont(z, x, y *Int) *Int {
	if ProfileEnabled() {
		return m.countingMulMont(z, x, y)
	}
	s := m.pool.Get().(*montScratch)
	m.load(s.x, x)
	m.load(s.y, y)
	m.mul64(s.acc, s.x, s.y, s.t)
	z.store(s.acc)
	m.pool.Put(s)
	return z
}

// SqrMont sets z = x²·R⁻¹ mod N for x in Montgomery form.
func (m *Mont) SqrMont(z, x *Int) *Int {
	if ProfileEnabled() {
		return m.countingMulMont(z, x, x)
	}
	s := m.pool.Get().(*montScratch)
	m.load(s.x, x)
	m.sqr64(s.acc, s.x, s.t)
	z.store(s.acc)
	m.pool.Put(s)
	return z
}

// ToMont converts x (in [0, N)) into Montgomery form: z = x·R mod N.
func (m *Mont) ToMont(z, x *Int) *Int {
	return m.MulMont(z, x, m.RR)
}

// Reduce sets z = x mod N for 0 ≤ x < N·R — any product of two
// residues, or a value modulo a multiple of N no wider than N·R, such
// as an RSA ciphertext modulo one CRT prime — without a division:
// one Montgomery reduction and one multiplication by RR. Other x take
// the general Mod.
func (m *Mont) Reduce(z, x *Int) *Int {
	if h := 2 * m.k; x.neg || len(x.d) > 2*h || (len(x.d) > h && cmpWords(x.d[h:], m.N.d) >= 0) {
		return z.Mod(x, m.N)
	}
	return m.MulMont(z, m.FromMont(z, x), m.RR)
}

// FromMont converts x out of Montgomery form: z = x·R⁻¹ mod N. It is
// a bare Montgomery reduction, so any 0 ≤ x < N·R is accepted.
func (m *Mont) FromMont(z, x *Int) *Int {
	if x.neg || len(x.d) > 4*m.k {
		x = New().Mod(x, m.N)
	}
	if ProfileEnabled() {
		t := make([]Word, 4*m.k+1)
		copy(t, x.d)
		return m.countingRedc(z, t)
	}
	s := m.pool.Get().(*montScratch)
	packLimbs(s.t, x.d)
	m.redc64(s.acc, s.t)
	z.store(s.acc)
	m.pool.Put(s)
	return z
}

// One returns 1 in Montgomery form (R mod N).
func (m *Mont) One() *Int {
	return New().store(m.one64)
}

// Exp sets z = x^e mod m.N using fixed-window Montgomery
// exponentiation, with x in ordinary (non-Montgomery) form in [0, N).
// The window table and accumulator live in pooled scratch, every
// window performs the same squarings, table scan and multiplication,
// and a steady-state call allocates nothing.
func (m *Mont) Exp(z, x, e *Int) *Int {
	if ProfileEnabled() {
		return m.countingExp(z, x, e)
	}
	if e.IsZero() {
		return z.SetUint64(1)
	}
	s := m.pool.Get().(*montScratch)
	m.load(s.x, x)
	m.exp64(s, e.d)
	z.store(s.acc)
	m.pool.Put(s)
	return z
}

// The counting kernel: the paper's BN_mod_mul_montgomery /
// BN_from_montgomery / BN_mod_exp_mont on 32-bit limbs, allocating
// and profiled like the OpenSSL code it mirrors. It runs only under
// StartProfile.

// countingRedc performs Montgomery reduction of t (4k+1 32-bit limbs,
// |t| < R·N) in place and sets z = t·R⁻¹ mod N. This is the core of
// BN_from_montgomery (Table 8); its inner loop is mulAddWords, so in a
// function profile most of its time is attributed to bn_mul_add_words,
// matching the paper's exclusive-time profile.
func (m *Mont) countingRedc(z *Int, t []Word) *Int {
	profEnter(fnFromMontgomery)
	n := 2 * m.k
	n0 := Word(m.n0)
	for i := 0; i < n; i++ {
		u := t[i] * n0 // mod 2^32
		carry := mulAddWords(t[i:i+n], m.nd, u)
		// Propagate carry into the upper limbs.
		for k := i + n; carry != 0; k++ {
			s := uint64(t[k]) + uint64(carry)
			t[k] = Word(s)
			carry = Word(s >> WordBits)
		}
	}
	// Result is t[n : 2n] (+ possible top limb t[2n]); subtract N if needed.
	top := t[n : 2*n]
	out := make([]Word, n)
	if t[2*n] != 0 || cmpWords(top, m.nd) >= 0 {
		subWords(out, top, m.nd)
	} else {
		copy(out, top)
	}
	profExit()
	z.d = out
	z.neg = false
	return z.norm()
}

// countingMulMont is MulMont as OpenSSL's BN_mod_mul_montgomery does
// it: the product through the configured BN_mul path (Karatsuba or
// schoolbook; squarings too, so all of it flows through the mul-add
// word kernel where the paper's flat profile charges it), then the
// reduction.
func (m *Mont) countingMulMont(z, x, y *Int) *Int {
	t := make([]Word, 4*m.k+1)
	if len(x.d) > 0 && len(y.d) > 0 {
		copy(t, mulSlices(x.d, y.d))
	}
	return m.countingRedc(z, t)
}

// countingExp is Exp with a freshly built window table of Ints and a
// multiplication skipped on a zero window, as BN_mod_exp_mont.
func (m *Mont) countingExp(z, x, e *Int) *Int {
	if e.IsZero() {
		return z.SetUint64(1)
	}
	// Precompute table[i] = x^i in Montgomery form, i in [0, 2^w).
	table := make([]*Int, 1<<expWindow)
	table[0] = m.One()
	table[1] = m.ToMont(New(), x)
	for i := 2; i < len(table); i++ {
		table[i] = m.MulMont(New(), table[i-1], table[1])
	}
	bitLen := e.BitLen()
	// Process the exponent in w-bit windows from the top.
	top := bitLen % expWindow
	if top == 0 {
		top = expWindow
	}
	// First window.
	first := 0
	for i := bitLen - 1; i >= bitLen-top; i-- {
		first = first<<1 | int(e.Bit(i))
	}
	acc := New().Set(table[first])
	for i := bitLen - top - 1; i >= 0; i -= expWindow {
		w := 0
		for k := 0; k < expWindow; k++ {
			w = w<<1 | int(e.Bit(i-k))
		}
		for k := 0; k < expWindow; k++ {
			m.SqrMont(acc, acc)
		}
		if w != 0 {
			m.MulMont(acc, acc, table[w])
		}
	}
	return m.FromMont(z, acc)
}
