//go:build ignore

// gen_mont8 writes mont8.go: the production Montgomery multiply and
// square for a modulus of exactly eight 64-bit limbs (each 512-bit CRT
// half of an RSA-1024 key), written out column by column in the
// product-scanning order of Koç, Acar and Kaliski ("FIPS"). Each column
// sums its products into a three-limb accumulator, one carry chain per
// step; straight-line code keeps that chain in the flags, where the
// size-generic CIOS loops of montkernel.go carry two chains through
// registers. Regenerate with `go generate ./internal/bn`; with no -o
// the output goes to standard output, which `make gencheck` diffs
// against the committed file.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
)

const k = 8

var out bytes.Buffer

func emit(format string, args ...any) { fmt.Fprintf(&out, format+"\n", args...) }

// mac emits one step acc += a·b of the three-limb accumulator acc.
func mac(acc, a, b string) { emit("%s = mac(%s, %s, %s)", acc, acc, a, b) }

const t = "t0, t1, t2"

// column emits the tail every column shares: the u·N products known so
// far, then — below column k — the next u, whose u·N[0] clears t0, or —
// from column k on — a result limb; then the accumulator shifts down.
func column(i int) {
	for j := max(0, i-k+1); j < min(i, k); j++ {
		mac(t, fmt.Sprintf("u%d", j), fmt.Sprintf("n[%d]", i-j))
	}
	if i < k {
		emit("u%d := t0 * n0", i)
		mac(t, fmt.Sprintf("u%d", i), "n[0]")
	} else {
		emit("r[%d] = t0", i-k)
	}
	emit("t0, t1, t2 = t1, t2, 0")
}

func main() {
	dst := flag.String("o", "", "output file (default standard output)")
	flag.Parse()
	emit("// Code generated by gen_mont8.go; DO NOT EDIT.\n")
	emit("package bn\n\nimport \"math/bits\"\n")
	emit(`// mac returns the three-limb accumulator (t0, t1, t2) plus a·b.
func mac(t0, t1, t2, a, b uint64) (uint64, uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	t0, c := bits.Add64(t0, lo, 0)
	t1, c = bits.Add64(t1, hi, c)
	t2, _ = bits.Add64(t2, 0, c)
	return t0, t1, t2
}
`)
	emit(`// mulU8 is mul64 at k = %[1]d: column i sums x[j]·y[i−j] and u[j]·N[i−j];
// below column %[1]d it also fixes u[i], from column %[1]d on it yields a
// result limb. t needs %[1]d limbs; z may alias x or y.
func (m *Mont) mulU8(z, x, y, t []uint64) {
	a, b, n, r := (*[%[1]d]uint64)(x), (*[%[1]d]uint64)(y), (*[%[1]d]uint64)(m.n64), (*[%[1]d]uint64)(t)
	n0 := m.n0
	var t0, t1, t2 uint64`, k)
	for i := 0; i < 2*k-1; i++ {
		for j := max(0, i-k+1); j <= min(i, k-1); j++ {
			mac(t, fmt.Sprintf("a[%d]", j), fmt.Sprintf("b[%d]", i-j))
		}
		column(i)
	}
	emit("r[%d] = t0\nm.finalSub(z, t, t1)\n}\n", k-1)

	emit(`// sqrU8 is sqr64 at k = %[1]d: a column's cross products x[j]·x[i−j],
// j < i−j, are summed once into (s0, s1, s2), doubled by shifts and
// added, then the square x[i/2]² on even columns. t needs %[1]d limbs;
// z may alias x.
func (m *Mont) sqrU8(z, x, t []uint64) {
	a, n, r := (*[%[1]d]uint64)(x), (*[%[1]d]uint64)(m.n64), (*[%[1]d]uint64)(t)
	n0 := m.n0
	var t0, t1, t2, s0, s1, s2, c uint64`, k)
	for i := 0; i < 2*k-1; i++ {
		lo := max(0, i-k+1)
		for j := lo; 2*j < i; j++ {
			acc := "0, 0, 0"
			if j > lo {
				acc = "s0, s1, s2"
			}
			emit("s0, s1, s2 = mac(%s, a[%d], a[%d])", acc, j, i-j)
		}
		if 2*lo < i {
			emit("s0, s1, s2 = s0<<1, s1<<1|s0>>63, s2<<1|s1>>63")
			emit("t0, c = bits.Add64(t0, s0, 0)\nt1, c = bits.Add64(t1, s1, c)\nt2, _ = bits.Add64(t2, s2, c)")
		}
		if i%2 == 0 {
			mac(t, fmt.Sprintf("a[%d]", i/2), fmt.Sprintf("a[%d]", i/2))
		}
		column(i)
	}
	emit("r[%d] = t0\nm.finalSub(z, t, t1)\n}", k-1)

	src, err := format.Source(out.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if *dst == "" {
		os.Stdout.Write(src)
	} else if err := os.WriteFile(*dst, src, 0o644); err != nil {
		log.Fatal(err)
	}
}
