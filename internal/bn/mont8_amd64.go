package bn

// On amd64 a Mont built where cpufeat.X86.ADX holds (BMI2 and ADX)
// runs the 8- and 16-limb Montgomery multiply and square on
// MULX/ADCX/ADOX (mont8_amd64.s, generated by gen_mont8.go); any other
// runs the CIOS loops at every width. Exp's 8-limb window lookup runs
// on SSE2 on every amd64 CPU. The operands are cut to their sizes
// here, in Go, so the assembly never reads or writes outside the
// slices it is given.

//go:noescape
func mulADX8(z, x, y, n *[8]uint64, n0 uint64)

//go:noescape
func sqrADX8(z, x, n *[8]uint64, n0 uint64)

//go:noescape
func mulADX16(z, x, y, n *[16]uint64, n0 uint64)

// mulX is mul64 on MULX/ADCX/ADOX, for k = 8 or 16. t is not used.
func (m *Mont) mulX(z, x, y, t []uint64) {
	if m.k == 8 {
		mulADX8((*[8]uint64)(z), (*[8]uint64)(x), (*[8]uint64)(y), (*[8]uint64)(m.n64), m.n0)
		return
	}
	mulADX16((*[16]uint64)(z), (*[16]uint64)(x), (*[16]uint64)(y), (*[16]uint64)(m.n64), m.n0)
}

// sqrX is sqr64 on MULX/ADCX/ADOX, for k = 8 or 16; at 16 it is the
// multiply with y = x. t is not used.
func (m *Mont) sqrX(z, x, t []uint64) {
	if m.k == 8 {
		sqrADX8((*[8]uint64)(z), (*[8]uint64)(x), (*[8]uint64)(m.n64), m.n0)
		return
	}
	mulADX16((*[16]uint64)(z), (*[16]uint64)(x), (*[16]uint64)(x), (*[16]uint64)(m.n64), m.n0)
}

//go:noescape
func select8(dst *[8]uint64, table *[128]uint64, w uint64)

// selectEntry copies table entry w into dst for exp64, reading every
// entry: at k = 8 on SSE2, which every amd64 CPU has (select8).
func (m *Mont) selectEntry(dst, table []uint64, w uint) {
	if m.k == 8 {
		select8((*[8]uint64)(dst), (*[128]uint64)(table), uint64(w))
		return
	}
	selectEntry(dst, table, w)
}
