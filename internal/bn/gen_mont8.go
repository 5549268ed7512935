//go:build ignore

// gen_mont8 writes mont8_amd64.s: the production Montgomery multiply
// and square for a modulus of exactly eight 64-bit limbs (each 512-bit
// CRT half of an RSA-1024 key) on MULX/ADCX/ADOX, the rows of
// montkernel.go's CIOS loops written out, plus the 16-limb multiply and
// Exp's 8-limb window lookup on SSE2. Regenerate it with `go generate
// ./internal/bn`; with no -o the output goes to standard output, which
// `make gencheck` diffs against the committed file.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

const k = 8

var out bytes.Buffer

func emit(format string, args ...any) { fmt.Fprintf(&out, format+"\n", args...) }

func main() {
	dst := flag.String("o", "", "output file (default standard output)")
	flag.Parse()
	genAsm()
	write(*dst, out.Bytes())
}

func write(dst string, src []byte) {
	if dst == "" {
		os.Stdout.Write(src)
	} else if err := os.WriteFile(dst, src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// The amd64 kernels of mont8_amd64.s. MULX multiplies by DX without
// touching the flags, and ADCX and ADOX add on CF and OF alone, so one
// row of products d·a[0..7] runs on two carry chains at once: the low
// halves on CF, the high halves on OF. The limbs being summed live in
// a window of registers; a register that falls off the bottom of the
// window, zero by construction, re-enters at its top, so the shift
// after each reduction row is a renaming done here, not an instruction.
// DX is MULX's implicit operand; regs are the thirteen others the
// kernels use (BP too: a frame makes the assembler save it; R15 is
// left alone).
var regs = []string{"AX", "BX", "CX", "SI", "DI", "BP", "R8", "R9", "R10", "R11", "R12", "R13", "R14"}

// ins emits one instruction.
func ins(op string, args ...string) { emit("\t%-7s %s", op, strings.Join(args, ", ")) }

// limb addresses limb i of the array base points at.
func limb(base string, i int) string {
	if i == 0 {
		return "(" + base + ")"
	}
	return fmt.Sprintf("%d(%s)", 8*i, base)
}

// slot addresses 64-bit stack slot i of the frame.
func slot(i int) string { return fmt.Sprintf("%d(SP)", 8*i) }

// row emits win[0..k] += DX·limb(p, 0..k−1) with CF and OF clear on
// entry: low half j onto win[j] on CF, high half j onto win[j+1] on OF.
// On exit CF is owed to win[k] and OF to the limb above it.
func row(p, lo, hi string, win []string) {
	for j := 0; j < k; j++ {
		ins("MULXQ", limb(p, j), lo, hi)
		ins("ADCXQ", lo, win[j])
		ins("ADOXQ", hi, win[j+1])
	}
}

// finalSub emits the constant-shape final subtraction: the k result
// limbs r and the top limb go to z, r − N is computed in place with
// the top's borrow, and where that borrows, CMOV takes the stored limb
// back. z and n hold the two pointers.
func finalSub(r []string, top, z, n string) {
	for j := 0; j < k; j++ {
		ins("MOVQ", r[j], limb(z, j))
	}
	for j := 0; j < k; j++ {
		op := "SBBQ"
		if j == 0 {
			op = "SUBQ"
		}
		ins(op, limb(n, j), r[j])
	}
	ins("SBBQ", "$0", top)
	for j := 0; j < k; j++ {
		ins("CMOVQCS", limb(z, j), r[j])
		ins("MOVQ", r[j], limb(z, j))
	}
	ins("RET")
}

func genAsm() {
	emit("// Code generated by gen_mont8.go; DO NOT EDIT.\n")
	emit("#include \"textflag.h\"\n")
	mulAsm()
	emit("")
	sqrAsm()
	emit("")
	mulAsmWide(2 * k)
	emit("")
	selectAsm()
}

// mulAsm emits mulADX8, mulCIOS at k = 8 on MULX/ADCX/ADOX: for each
// limb y[i], a product row adds y[i]·x to the ten-limb window t,
// then a reduction row adds u·N, u = t[0]·n0, which clears t[0].
func mulAsm() {
	p, lo, hi := regs[0], regs[1], regs[2]
	t := append([]string(nil), regs[3:]...)
	emit(`// func mulADX8(z, x, y, n *[%[1]d]uint64, n0 uint64)
// z = x·y·R⁻¹ mod N for x, y < N; z may alias x or y. Row 0 starts
// from zero on one chain; t[%[1]d] takes each row's carries, and the
// register t[0] leaves as, zero, becomes the next row's t[%[2]d].`, k, k+1)
	emit("TEXT ·mulADX8(SB), NOSPLIT, $8-40")
	ins("MOVQ", "x+8(FP)", p)
	ins("MOVQ", "y+16(FP)", "DX")
	ins("MOVQ", "(DX)", "DX")
	ins("MULXQ", limb(p, 0), t[0], t[1])
	for j := 1; j < k; j++ {
		ins("MULXQ", limb(p, j), lo, t[j+1])
		op := "ADCQ"
		if j == 1 {
			op = "ADDQ"
		}
		ins(op, lo, t[j])
	}
	ins("ADCQ", "$0", t[k])
	ins("XORL", t[k+1], t[k+1])
	for i := 0; i < k; i++ {
		if i > 0 {
			emit("\n\t// y[%d]·x", i)
			ins("MOVQ", "y+16(FP)", "DX")
			ins("MOVQ", limb("DX", i), "DX")
			ins("MOVQ", "x+8(FP)", p)
			ins("XORL", lo, lo)
			row(p, lo, hi, t)
			ins("ADOXQ", t[k+1], t[k+1])
			ins("ADCQ", "$0", t[k])
			ins("ADCQ", "$0", t[k+1])
		}
		emit("\n\t// u·N, u = t[0]·n0")
		ins("MOVQ", t[0], "DX")
		ins("IMULQ", "n0+32(FP)", "DX")
		ins("MOVQ", "n+24(FP)", p)
		ins("XORL", lo, lo)
		row(p, lo, hi, t)
		ins("ADOXQ", t[0], t[k+1])
		ins("ADCQ", "$0", t[k])
		ins("ADCQ", "$0", t[k+1])
		t = append(t[1:], t[0])
	}
	emit("\n\t// z = t − N if that does not borrow, else t")
	ins("MOVQ", "z+0(FP)", p)
	ins("MOVQ", "n+24(FP)", "DX")
	finalSub(t, t[k], p, "DX")
}

// sqrAsm emits sqrADX8, sqrCIOS at k = 8 on MULX/ADCX/ADOX: the cross
// products x[i]·x[j], i < j, once, row by row, each row's two finished
// limbs going to the frame; then one pass that doubles them on CF
// while it adds the squares x[i]² on OF, keeping the low k limbs in
// registers; then k reduction rows over that window, taking the high
// limbs back from the frame one per row.
func sqrAsm() {
	p, lo, hi := regs[0], regs[1], regs[2]
	pool := append([]string(nil), regs[3:]...)
	take := func() string { r := pool[0]; pool = pool[1:]; return r }
	c := map[int]string{} // limb position → register
	spill := func(pos int) {
		ins("MOVQ", c[pos], slot(pos))
		pool = append(pool, c[pos])
		delete(c, pos)
	}
	emit(`// func sqrADX8(z, x, n *[%[1]d]uint64, n0 uint64)
// z = x²·R⁻¹ mod N for x < N; z may alias x. Frame slot j holds limb j
// of the %[2]d-limb square while it is built.`, k, 2*k)
	emit("TEXT ·sqrADX8(SB), NOSPLIT, $%d-32", 8*2*k)
	ins("MOVQ", "x+8(FP)", p)
	ins("MOVQ", limb(p, 0), "DX")
	c[1], c[2] = take(), take()
	ins("MULXQ", limb(p, 1), c[1], c[2])
	for j := 2; j < k; j++ {
		c[j+1] = take()
		ins("MULXQ", limb(p, j), lo, c[j+1])
		op := "ADCQ"
		if j == 2 {
			op = "ADDQ"
		}
		ins(op, lo, c[j])
	}
	ins("ADCQ", "$0", c[k])
	spill(1)
	spill(2)
	for i := 1; i < k-1; i++ {
		emit("\n\t// x[%d]·x[%d..%d]", i, i+1, k-1)
		ins("MOVQ", limb(p, i), "DX")
		c[i+k] = take()
		ins("XORL", c[i+k], c[i+k])
		for j := i + 1; j < k; j++ {
			ins("MULXQ", limb(p, j), lo, hi)
			ins("ADCXQ", lo, c[i+j])
			ins("ADOXQ", hi, c[i+j+1])
		}
		ins("ADCQ", "$0", c[i+k])
		spill(2*i + 1)
		spill(2*i + 2)
	}

	emit("\n\t// 2·cross + squares: limbs 0..%d to w, the rest to the frame", k-1)
	w := pool[:k]
	tmp := pool[k:]
	ins("XORL", lo, lo)
	ins("MOVQ", limb(p, 0), "DX")
	ins("MULXQ", "DX", w[0], hi)
	for pos := 1; pos < 2*k; pos++ {
		if pos%2 == 0 {
			ins("MOVQ", limb(p, pos/2), "DX")
			ins("MULXQ", "DX", lo, hi)
		}
		r := tmp[pos%2]
		if pos < k {
			r = w[pos]
		}
		if pos < 2*k-1 {
			ins("MOVQ", slot(pos), r)
		} else {
			ins("MOVQ", "$0", r)
		}
		ins("ADCXQ", r, r)
		if pos%2 == 0 {
			ins("ADOXQ", lo, r)
		} else {
			ins("ADOXQ", hi, r)
		}
		if pos >= k {
			ins("MOVQ", r, slot(pos))
		}
	}

	// w[k] takes the next high limb each row; kk is the carry owed to
	// the limb above it (at most 2).
	kk, next := tmp[0], tmp[1]
	ins("MOVQ", "n+16(FP)", p)
	ins("XORL", kk, kk)
	for i := 0; i < k; i++ {
		emit("\n\t// u·N, u = w[0]·n0, and limb %d of the square in at the top", k+i)
		ins("MOVQ", w[0], "DX")
		ins("IMULQ", "n0+24(FP)", "DX")
		ins("MOVQ", slot(k+i), next)
		ins("XORL", lo, lo)
		w = append(w, next)
		row(p, lo, hi, w)
		ins("ADCXQ", kk, w[k])
		ins("MOVQ", w[0], kk)
		ins("ADCXQ", w[0], kk)
		ins("ADOXQ", w[0], kk)
		next, w = w[0], w[1:]
	}
	emit("\n\t// z = w − N if that does not borrow, else w")
	ins("MOVQ", "z+0(FP)", lo)
	finalSub(w, kk, lo, p)
}

// mulAsmWide emits mulADX<w>, the w-limb multiply, for a w too wide for
// a register window: the accumulator T lives in the frame, slot j
// holding T[j], except T[0], which stays in a register, and the two
// limbs above T[w−1]. Each product row folds T in on OF while CF sums
// the products' low and high halves, the usual way of adding one row of
// MULX results to memory; each reduction row stores limb j to slot j−1,
// which is the shift. The outer loop over y's limbs is a loop: written
// out sixteen times it measured no faster (EXPERIMENTS.md, "Table 9's
// loop on MULX/ADCX/ADOX"), at sixteen times the code. Its trip count
// is w whatever the operands, and PCALIGN pins its alignment.
func mulAsmWide(w int) {
	const (
		ap, np, bp = "SI", "DI", "R8" // x, N, y[i]
		lo, zero   = "AX", "R9"
		top, over  = "R10", "R11" // T[w], T[w+1]
		count      = "R12"
		t0, next   = "R13", "R14" // T[0] after a product row, after a reduction row
	)
	his := [2]string{"BX", "CX"}
	emit(`// func mulADX%[1]d(z, x, y, n *[%[1]d]uint64, n0 uint64)
// z = x·y·R⁻¹ mod N for x, y < N; z may alias x or y.`, w)
	emit("TEXT ·mulADX%d(SB), NOSPLIT, $%d-40", w, 8*w)
	ins("MOVQ", "x+8(FP)", ap)
	ins("MOVQ", "y+16(FP)", bp)
	ins("MOVQ", "n+24(FP)", np)
	ins("XORL", zero, zero)
	for j := 1; j < w; j++ {
		ins("MOVQ", zero, slot(j))
	}
	ins("MOVQ", zero, next)
	ins("MOVQ", zero, top)
	ins("MOVQ", zero, over)
	// half emits one row, T += DX·p: a product row's limb 0 goes to t0
	// for u; a reduction row's limb 1 goes to next, the new T[0], and
	// its limbs 2.. to the slot below theirs.
	half := func(p string, reduce bool) {
		ins("XORL", lo, lo)
		var h string
		for j := 0; j < w; j++ {
			dst := lo
			switch {
			case j == 0 && !reduce:
				dst = t0
			case j == 1 && reduce:
				dst = next
			}
			nh := his[j%2]
			ins("MULXQ", limb(p, j), dst, nh)
			if j > 0 {
				ins("ADCXQ", h, dst)
			}
			switch {
			case j == 0 && reduce:
				ins("ADOXQ", t0, dst)
			case j == 0:
				ins("ADOXQ", next, dst)
			default:
				ins("ADOXQ", slot(j), dst)
			}
			if j > 0 && !(reduce && j == 1) {
				if reduce {
					ins("MOVQ", dst, slot(j-1))
				} else {
					ins("MOVQ", dst, slot(j))
				}
			}
			h = nh
		}
		ins("ADCXQ", zero, h)
		ins("ADOXQ", top, h)
		if reduce {
			ins("MOVQ", h, slot(w-1))
			ins("ADOXQ", zero, over)
			ins("MOVQ", over, top)
		} else {
			ins("MOVQ", h, top)
			ins("MOVQ", zero, over)
			ins("ADOXQ", zero, over)
		}
	}
	ins("MOVQ", fmt.Sprintf("$%d", w), count)
	ins("PCALIGN", "$64")
	emit("\nrow:")
	ins("MOVQ", "("+bp+")", "DX")
	half(ap, false)
	ins("MOVQ", t0, "DX")
	ins("IMULQ", "n0+32(FP)", "DX")
	half(np, true)
	ins("ADDQ", "$8", bp)
	ins("DECQ", count)
	ins("JNZ", "row")

	emit("\n\t// z = T − N if that does not borrow, else T")
	ins("MOVQ", "z+0(FP)", bp)
	for j := 0; j < w; j++ {
		src := slot(j)
		if j == 0 {
			src = next
		}
		ins("MOVQ", src, lo)
		op := "SBBQ"
		if j == 0 {
			op = "SUBQ"
		}
		ins(op, limb(np, j), lo)
		ins("MOVQ", lo, limb(bp, j))
	}
	ins("SBBQ", "$0", top)
	for j := 0; j < w; j++ {
		src := slot(j)
		if j == 0 {
			src = next
		}
		ins("MOVQ", limb(bp, j), lo)
		ins("CMOVQCS", src, lo)
		ins("MOVQ", lo, limb(bp, j))
	}
	ins("RET")
}

// selectAsm emits select8, Exp's window-table lookup at k = 8, on SSE2:
// each of the 2^4 entries is read whole, four 16-byte loads, and ANDed
// with a mask that PCMPEQL makes all ones only where the entry's index,
// counted up in X9, equals w; the ORs of the masked entries are the
// result.
func selectAsm() {
	const entries = 16
	emit(`// func select8(dst *[%[1]d]uint64, table *[%[2]d]uint64, w uint64)
// dst = entry w of table, %[3]d entries of %[1]d limbs, w < %[3]d.`, k, entries*k, entries)
	emit("TEXT ·select8(SB), NOSPLIT, $0-24")
	ins("MOVQ", "dst+0(FP)", "DI")
	ins("MOVQ", "table+8(FP)", "SI")
	ins("MOVQ", "w+16(FP)", "X8")
	ins("PSHUFD", "$0", "X8", "X8")
	ins("MOVL", "$1", "AX")
	ins("MOVQ", "AX", "X10")
	ins("PSHUFD", "$0", "X10", "X10")
	ins("PXOR", "X9", "X9")
	for r := 0; r < k/2; r++ {
		ins("PXOR", fmt.Sprintf("X%d", r), fmt.Sprintf("X%d", r))
	}
	for i := 0; i < entries; i++ {
		ins("MOVOU", "X9", "X11")
		ins("PCMPEQL", "X8", "X11")
		ins("PADDL", "X10", "X9")
		for r := 0; r < k/2; r++ {
			v := fmt.Sprintf("X%d", 4+r)
			ins("MOVOU", fmt.Sprintf("%d(SI)", 8*k*i+16*r), v)
			ins("PAND", "X11", v)
			ins("POR", v, fmt.Sprintf("X%d", r))
		}
	}
	for r := 0; r < k/2; r++ {
		ins("MOVOU", fmt.Sprintf("X%d", r), fmt.Sprintf("%d(DI)", 16*r))
	}
	ins("RET")
}
