package bn

import (
	"math/bits"

	"sslperf/internal/cpufeat"
)

//go:generate go run gen_mont8.go -o mont8_amd64.s

// The production Montgomery kernel: what Mont.MulMont, SqrMont,
// ToMont, FromMont, Reduce and Exp run whenever no profile is being
// collected. It works on 64-bit limbs (little-endian []uint64 of
// exactly m.k limbs, packed from the Int's 32-bit words once at the
// exported boundary), interleaves multiplication and reduction in one
// pass (CIOS; at 8 and 16 limbs where cpufeat.X86.ADX holds, the same
// rows on MULX/ADCX/ADOX in mont8_amd64.s), squares with half the cross
// products, and keeps every intermediate in a montScratch sized once
// per Mont — so nothing here allocates or calls the profiler (`make
// kernellint`). The final
// subtraction and the window-table lookup have the same shape whatever
// the operand values: no branch or memory address depends on a secret.
//
// The 32-bit mulAddWords/redc code in mont.go computes the same
// function with the same R and is what the paper's Tables 8 and 9
// profile; FuzzMontKernels holds the two equal to each other and to
// math/big.

// Kernel names the form a Mont built now runs the 8- and 16-limb
// Montgomery products on (every RSA-1024 CRT half, RSA-1024 public op
// and DH-1024 step), for the reports that time it: "MULX/ADX", or "Go"
// for the CIOS loops.
func Kernel() string { return (&Mont{adx: cpufeat.X86.ADX}).Kernel() }

// Kernel names the form m's products run on: "MULX/ADX", or "Go" for
// the CIOS loops (at every width but 8 and 16 limbs, whatever the CPU).
func (m *Mont) Kernel() string {
	if m.adx {
		return "MULX/ADX"
	}
	return "Go"
}

// montScratch is the working memory of one in-flight Montgomery
// operation, carved from a single backing array by Mont.newScratch.
type montScratch struct {
	t     []uint64 // 2k: product / reduction accumulator
	x, y  []uint64 // k each: packed operands
	acc   []uint64 // k: result, exponentiation accumulator
	table []uint64 // 2^expWindow entries of k limbs: Exp's window table
}

// packLimbs writes the 32-bit words of x into dst as 64-bit limbs,
// zero-extended. len(x) must be at most 2·len(dst).
func packLimbs(dst []uint64, x []Word) {
	h := len(x) / 2
	for i := range dst[:h] {
		dst[i] = uint64(x[2*i]) | uint64(x[2*i+1])<<32
	}
	if len(x)&1 == 1 {
		dst[h] = uint64(x[len(x)-1])
		h++
	}
	for i := h; i < len(dst); i++ {
		dst[i] = 0
	}
}

// unpackLimbs is the inverse of packLimbs; len(dst) == 2·len(src).
func unpackLimbs(dst []Word, src []uint64) {
	dst = dst[:2*len(src)]
	for i, l := range src {
		dst[2*i] = Word(l)
		dst[2*i+1] = Word(l >> 32)
	}
}

// mul64 sets z = x·y·R⁻¹ mod N for k-limb x, y < N. t needs k+1
// limbs; z may alias x or y. The adx bool picks the kernel, called
// once through a method expression, which keeps mul64 (and sqr64)
// inlinable: a second frame on every multiplication cost 7 % at k = 4.
func (m *Mont) mul64(z, x, y, t []uint64) {
	f := (*Mont).mulCIOS
	if m.adx {
		f = (*Mont).mulX
	}
	f(m, z, x, y, t)
}

// mulCIOS is mul64 at any k, by coarsely integrated operand scanning:
// each outer step adds x·y[i] and the multiple u·N that clears the low
// limb, shifted down one limb, in a single pass with two carry chains.
func (m *Mont) mulCIOS(z, x, y, t []uint64) {
	n := m.n64
	k := len(n)
	x, y, z, t = x[:k], y[:k], z[:k], t[:k+1]
	for i := range t {
		t[i] = 0
	}
	for i := 0; i < k; i++ {
		yi := y[i]
		// Low limb: it decides u, and its sum with u·N[0] is zero by
		// construction, so only the carries survive.
		c1, lo := bits.Mul64(x[0], yi)
		lo, c := bits.Add64(lo, t[0], 0)
		c1 += c
		u := lo * m.n0
		c2, lo2 := bits.Mul64(u, n[0])
		_, c = bits.Add64(lo2, lo, 0)
		c2 += c
		for j := 1; j < k; j++ {
			hi, lo := bits.Mul64(x[j], yi)
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			lo, c = bits.Add64(lo, c1, 0)
			c1 = hi + c
			hi, lo2 = bits.Mul64(u, n[j])
			lo2, c = bits.Add64(lo2, lo, 0)
			hi += c
			lo2, c = bits.Add64(lo2, c2, 0)
			c2 = hi + c
			t[j-1] = lo2
		}
		s, c := bits.Add64(t[k], c1, 0)
		s, cc := bits.Add64(s, c2, 0)
		t[k-1] = s
		t[k] = c + cc
	}
	m.finalSub(z, t[:k], t[k])
}

// sqr64 sets z = x²·R⁻¹ mod N. t needs 2k limbs; z may alias x.
func (m *Mont) sqr64(z, x, t []uint64) {
	f := (*Mont).sqrCIOS
	if m.adx {
		f = (*Mont).sqrX
	}
	f(m, z, x, t)
}

// sqrCIOS is sqr64 at any k: the k(k−1)/2 cross products once,
// doubled, plus the k diagonal squares, then one reduction pass.
func (m *Mont) sqrCIOS(z, x, t []uint64) {
	k := len(m.n64)
	x, t = x[:k], t[:2*k]
	for i := range t {
		t[i] = 0
	}
	for i := 0; i < k-1; i++ {
		xi := x[i]
		row := t[i:][:k+1]
		var c uint64
		for j := i + 1; j < k; j++ {
			hi, lo := bits.Mul64(x[j], xi)
			lo, cc := bits.Add64(lo, row[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			c = hi + cc
			row[j] = lo
		}
		row[k] = c
	}
	var top, c uint64
	for i := 0; i < k; i++ {
		hi, lo := bits.Mul64(x[i], x[i])
		a, b := t[2*i], t[2*i+1]
		// (b, a) = 2·(b, a) + top, then + (hi, lo) + c.
		a2 := a<<1 | top
		b2 := b<<1 | a>>63
		top = b >> 63
		t[2*i], c = bits.Add64(a2, lo, c)
		t[2*i+1], c = bits.Add64(b2, hi, c)
	}
	m.redc64(z, t)
}

// redc64 sets z = t·R⁻¹ mod N for a 2k-limb t < N·R; t is destroyed.
// Each step clears the low limb with a multiple of N and shifts the
// low half down one limb, taking the next limb of the high half in at
// the top.
func (m *Mont) redc64(z, t []uint64) {
	n := m.n64
	k := len(n)
	lo, hi := t[:k], t[k:2*k]
	var carry uint64
	for i := range hi {
		u := lo[0] * m.n0
		c, l := bits.Mul64(u, n[0])
		_, cc := bits.Add64(l, lo[0], 0)
		c += cc
		for j := 1; j < len(lo); j++ {
			h, l := bits.Mul64(u, n[j])
			l, cc = bits.Add64(l, lo[j], 0)
			h += cc
			l, cc = bits.Add64(l, c, 0)
			c = h + cc
			lo[j-1] = l
		}
		lo[k-1], carry = bits.Add64(hi[i], c, carry)
	}
	m.finalSub(z, lo, carry)
}

// finalSub writes the value top·2^(64k) + t, known to be below 2N,
// reduced into [0, N), to z, which must not alias t. The subtraction
// always runs; a mask then picks, limb by limb, between the difference
// and t itself.
func (m *Mont) finalSub(z, t []uint64, top uint64) {
	n := m.n64
	z, t = z[:len(n)], t[:len(n)]
	var borrow uint64
	for i := range n {
		z[i], borrow = bits.Sub64(t[i], n[i], borrow)
	}
	// Keep t when it did not overflow k limbs and t < N.
	keep := -(borrow &^ top)
	for i := range z {
		z[i] ^= keep & (z[i] ^ t[i])
	}
}

// selectEntry copies table entry w (len(dst) limbs each, a multiple
// of four entries) into dst, reading every entry so the access
// pattern is independent of w.
func selectEntry(dst, table []uint64, w uint) {
	k := len(dst)
	for j := range dst {
		dst[j] = 0
	}
	// eq is all ones iff i == w.
	eq := func(i int) uint64 {
		d := uint64(i) ^ uint64(w)
		return (d|-d)>>63 - 1
	}
	for i := 0; (i+4)*k <= len(table); i += 4 {
		m0, m1, m2, m3 := eq(i), eq(i+1), eq(i+2), eq(i+3)
		e0 := table[i*k:][:k]
		e1 := table[(i+1)*k:][:k]
		e2 := table[(i+2)*k:][:k]
		e3 := table[(i+3)*k:][:k]
		for j := range dst {
			dst[j] |= e0[j]&m0 | e1[j]&m1 | e2[j]&m2 | e3[j]&m3
		}
	}
}

// exp64 sets s.acc = x^e mod N for the ordinary-form x < N packed in
// s.x and a non-zero exponent given as little-endian 32-bit words,
// by fixed 4-bit windows from the top: every window costs four
// squarings, one full-table lookup and one multiplication, whatever
// its value.
func (m *Mont) exp64(s *montScratch, e []Word) {
	k := m.k
	tab := s.table
	copy(tab[:k], m.one64)
	m.mul64(tab[k:2*k], s.x, m.rr64, s.t)
	for i := 2; i < 1<<expWindow; i++ {
		if i&1 == 0 {
			m.sqr64(tab[i*k:i*k+k], tab[i/2*k:i/2*k+k], s.t)
		} else {
			m.mul64(tab[i*k:i*k+k], tab[(i-1)*k:i*k], tab[k:2*k], s.t)
		}
	}
	// Windows are aligned from bit 0, so none straddles a word.
	const perWord = WordBits / expWindow
	windows := (len(e)*WordBits - bits.LeadingZeros32(e[len(e)-1]) + expWindow - 1) / expWindow
	window := func(i int) uint {
		return uint(e[i/perWord]>>(expWindow*uint(i%perWord))) & (1<<expWindow - 1)
	}
	m.selectEntry(s.acc, tab, window(windows-1))
	for i := windows - 2; i >= 0; i-- {
		for j := 0; j < expWindow; j++ {
			m.sqr64(s.acc, s.acc, s.t)
		}
		m.selectEntry(s.y, tab, window(i))
		m.mul64(s.acc, s.acc, s.y, s.t)
	}
	m.fromMont64(s.acc, s.acc, s.t)
}

// fromMont64 sets z = x·R⁻¹ mod N. t needs 2k limbs; z may alias x.
func (m *Mont) fromMont64(z, x, t []uint64) {
	k := m.k
	t = t[:2*k]
	copy(t, x[:k])
	for i := k; i < len(t); i++ {
		t[i] = 0
	}
	m.redc64(z, t)
}
