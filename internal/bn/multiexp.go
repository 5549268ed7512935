package bn

import "math/bits"

// Simultaneous multi-exponentiation and product-tree helpers: the
// substrate for Fiat-style batch RSA (internal/rsabatch), where the
// percolate-up and percolate-down tree phases are built from
// double exponentiations x1^e1·x2^e2 with small exponents, and the
// per-level divisions are batched through Montgomery's inversion
// trick.

// residue returns x itself when it already lies in [0, N), else a
// fresh x mod N: the division is paid only by callers that need it.
func (m *Mont) residue(x *Int) *Int {
	if x.neg || x.CmpAbs(m.N) >= 0 {
		return New().Mod(x, m.N)
	}
	return x
}

// ExpUint64 sets z = x^e mod m.N for a machine-word exponent using
// plain left-to-right square-and-multiply. Unlike Exp it builds no
// window table, so for the small public exponents batch RSA works
// with (e ≤ 2^27 or so) the cost is just the squaring chain — the
// 16-entry table Exp precomputes would dwarf the exponentiation
// itself.
func (m *Mont) ExpUint64(z, x *Int, e uint64) *Int {
	if e == 0 {
		return z.SetUint64(1)
	}
	g := m.ToMont(New(), m.residue(x))
	acc := New().Set(g)
	for i := bits.Len64(e) - 2; i >= 0; i-- {
		m.SqrMont(acc, acc)
		if e>>uint(i)&1 == 1 {
			m.MulMont(acc, acc, g)
		}
	}
	return m.FromMont(z, acc)
}

// Exp2Uint64 is Exp2 for machine-word exponents: z = x1^e1 · x2^e2
// mod m.N over one shared squaring chain.
func (m *Mont) Exp2Uint64(z, x1 *Int, e1 uint64, x2 *Int, e2 uint64) *Int {
	if e1 == 0 && e2 == 0 {
		return z.SetUint64(1)
	}
	g1 := m.ToMont(New(), m.residue(x1))
	g2 := m.ToMont(New(), m.residue(x2))
	g12 := m.MulMont(New(), g1, g2)
	table := [3]*Int{g1, g2, g12}
	n := bits.Len64(e1)
	if n2 := bits.Len64(e2); n2 > n {
		n = n2
	}
	var acc *Int
	for i := n - 1; i >= 0; i-- {
		if acc != nil {
			m.SqrMont(acc, acc)
		}
		w := e1>>uint(i)&1 | e2>>uint(i)&1<<1
		if w != 0 {
			if acc == nil {
				acc = New().Set(table[w-1])
			} else {
				m.MulMont(acc, acc, table[w-1])
			}
		}
	}
	return m.FromMont(z, acc)
}

// Exp2 sets z = x1^e1 · x2^e2 mod m.N using Shamir's simultaneous
// square-and-multiply trick: one shared squaring chain with a 2-bit
// window selecting x1, x2, or x1·x2, so the combined cost is one
// exponentiation of max(len(e1), len(e2)) bits plus one precomputed
// product — instead of two full chains and a multiply. x1 and x2 are
// in ordinary (non-Montgomery) form; e1 and e2 must be non-negative.
func (m *Mont) Exp2(z, x1, e1, x2, e2 *Int) *Int {
	if e1.Sign() < 0 || e2.Sign() < 0 {
		panic("bn: Exp2 negative exponent")
	}
	if e1.IsZero() && e2.IsZero() {
		return z.SetUint64(1)
	}
	g1 := m.ToMont(New(), m.residue(x1))
	g2 := m.ToMont(New(), m.residue(x2))
	g12 := m.MulMont(New(), g1, g2)
	table := [3]*Int{g1, g2, g12}

	bits := e1.BitLen()
	if n2 := e2.BitLen(); n2 > bits {
		bits = n2
	}
	// acc stays nil through the leading zero window so the chain
	// starts at the first set bit instead of squaring 1.
	var acc *Int
	for i := bits - 1; i >= 0; i-- {
		if acc != nil {
			m.SqrMont(acc, acc)
		}
		w := e1.Bit(i) | e2.Bit(i)<<1
		if w != 0 {
			if acc == nil {
				acc = New().Set(table[w-1])
			} else {
				m.MulMont(acc, acc, table[w-1])
			}
		}
	}
	return m.FromMont(z, acc)
}

// ModExp2 sets z = x1^e1 · x2^e2 mod N and returns z. For odd N it
// uses the shared-chain Montgomery path (Exp2); for even N it falls
// back to two ModExps and a modular multiply.
func (z *Int) ModExp2(x1, e1, x2, e2, N *Int) *Int {
	if N.IsZero() {
		panic("bn: ModExp2 modulus is zero")
	}
	if N.IsOne() {
		return z.SetUint64(0)
	}
	if N.IsOdd() {
		m, err := NewMont(N)
		if err != nil {
			panic("bn: " + err.Error())
		}
		return m.Exp2(z, x1, e1, x2, e2)
	}
	a := New().ModExp(x1, e1, N)
	b := New().ModExp(x2, e2, N)
	z.Mul(a, b)
	return z.Mod(z, N)
}

// ProductTree returns the binary product tree of xs: level 0 is a
// copy of xs, each higher level holds the pairwise products of the
// one below (a trailing odd element is promoted unchanged), and the
// top level is the single product of all inputs. xs must be
// non-empty. The batch-RSA percolate phases and batched inversion
// both walk this shape.
func ProductTree(xs []*Int) [][]*Int {
	if len(xs) == 0 {
		panic("bn: ProductTree of empty slice")
	}
	level := make([]*Int, len(xs))
	for i, x := range xs {
		level[i] = x.Clone()
	}
	tree := [][]*Int{level}
	for len(level) > 1 {
		next := make([]*Int, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, New().Mul(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1].Clone())
		}
		tree = append(tree, next)
		level = next
	}
	return tree
}

// BatchModInverse sets zs[i] = xs[i]⁻¹ mod N for every i using
// Montgomery's trick: one modular inversion plus 3(n−1) modular
// multiplications, instead of n inversions. It reports whether all
// inputs were invertible; on false the contents of zs are
// unspecified. zs and xs must have equal length (zs[i] may alias
// xs[i]).
func BatchModInverse(zs, xs []*Int, N *Int) bool {
	if len(zs) != len(xs) {
		panic("bn: BatchModInverse length mismatch")
	}
	n := len(xs)
	if n == 0 {
		return true
	}
	// Prefix products p[i] = x0·…·xi mod N.
	prefix := make([]*Int, n)
	prefix[0] = New().Mod(xs[0], N)
	for i := 1; i < n; i++ {
		prefix[i] = New().Mul(prefix[i-1], xs[i])
		prefix[i].Mod(prefix[i], N)
	}
	inv := New().ModInverse(prefix[n-1], N)
	if inv == nil {
		return false
	}
	// Walk backwards: zs[i] = inv · p[i-1]; inv ← inv · xs[i].
	for i := n - 1; i > 0; i-- {
		x := xs[i].Clone() // survive zs[i] aliasing xs[i]
		zs[i] = New().Mul(inv, prefix[i-1])
		zs[i].Mod(zs[i], N)
		inv.Mul(inv, x)
		inv.Mod(inv, N)
	}
	zs[0] = inv
	return true
}
