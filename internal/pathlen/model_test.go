package pathlen

import "testing"

// TestModelShape pins the Table 11 orderings the paper reports: RC4 is
// the cheapest symmetric cipher per byte, MD5 beats SHA-1, 3DES costs
// roughly three DES. The counting kernels are exact, so the 3DES/DES
// floor of 2 holds more than the 1.8 a measured cycles/byte ratio is
// allowed: a ratio near 1 means the triple pass collapsed.
func TestModelShape(t *testing.T) {
	get := func(name string) Model {
		m, ok := ModelFor(name)
		if !ok {
			t.Fatalf("no model for %s", name)
		}
		return m
	}
	rc4, aes, des, tdes := get("RC4"), get("AES"), get("DES"), get("3DES")
	md5, sha := get("MD5"), get("SHA-1")
	if !(rc4.CyclesPerByte < aes.CyclesPerByte) {
		t.Errorf("model RC4 (%v cyc/B) not cheaper than AES (%v)", rc4.CyclesPerByte, aes.CyclesPerByte)
	}
	if !(md5.CyclesPerByte < sha.CyclesPerByte) {
		t.Errorf("model MD5 (%v cyc/B) not cheaper than SHA-1 (%v)", md5.CyclesPerByte, sha.CyclesPerByte)
	}
	if ratio := tdes.CyclesPerByte / des.CyclesPerByte; ratio < 2 || ratio > 4 {
		t.Errorf("3DES/DES cost ratio = %v, want ~3", ratio)
	}
	if len(Models()) != 7 {
		t.Errorf("Models() = %d rows, want 7", len(Models()))
	}
}
