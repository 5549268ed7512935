package pathlen

import "testing"

// TestModelShape pins the Table 11 orderings the paper reports on the
// primitive table's traces: RC4 is the cheapest symmetric cipher per
// byte, MD5 beats SHA-1, 3DES costs roughly three DES. The counting
// kernels are exact, so the 3DES/DES floor of 2 holds more than the
// 1.8 a measured cycles/byte ratio is allowed: a ratio near 1 means
// the triple pass collapsed.
func TestModelShape(t *testing.T) {
	cyclesPerByte := func(name string) float64 {
		tr := Lookup(name).Trace()
		return tr.CPI() * tr.PathLength()
	}
	rc4, aes, des, tdes := cyclesPerByte("RC4"), cyclesPerByte("AES"), cyclesPerByte("DES"), cyclesPerByte("3DES")
	md5, sha := cyclesPerByte("MD5"), cyclesPerByte("SHA-1")
	if !(rc4 < aes) {
		t.Errorf("model RC4 (%v cyc/B) not cheaper than AES (%v)", rc4, aes)
	}
	if !(md5 < sha) {
		t.Errorf("model MD5 (%v cyc/B) not cheaper than SHA-1 (%v)", md5, sha)
	}
	if ratio := tdes / des; ratio < 2 || ratio > 4 {
		t.Errorf("3DES/DES cost ratio = %v, want ~3", ratio)
	}
	if len(Primitives) != 7 {
		t.Errorf("Primitives = %d rows, want 7", len(Primitives))
	}
}

// TestPrimitivesTraceAndRun: every trace covers the unit Table 11
// divides by (1 KB; one 1024-bit modulus for RSA), and every primitive
// but RSA runs over a caller's buffer.
func TestPrimitivesTraceAndRun(t *testing.T) {
	buf := make([]byte, 1024)
	for _, p := range Primitives {
		want := uint64(1024)
		if p.Name == "RSA" {
			want = 128
		}
		if got := p.Trace().Bytes; got != want {
			t.Errorf("%s: trace covers %d bytes, want %d", p.Name, got, want)
		}
		run := p.Run()
		if (run == nil) != (p.Name == "RSA") {
			t.Errorf("%s: Run() nil = %v", p.Name, run == nil)
			continue
		}
		if run != nil {
			run(buf)
		}
	}
}
