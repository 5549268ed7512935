package bn

// Karatsuba multiplication, matching the algorithm OpenSSL 0.9.7 used
// (bn_mul_recursive): the subtractive variant whose difference terms
// are what put bn_sub_words at 22.6% of RSA decryption in the paper's
// Table 8. Schoolbook multiplication remains available (and is the
// base case); SetMulMode switches between them so the Table 8
// ablation can show how the choice moves time between the word
// kernels.

// MulMode selects the multiplication algorithm for large operands.
type MulMode int

// Multiplication modes.
const (
	// MulSchoolbook always uses the O(n²) mul-add loop.
	MulSchoolbook MulMode = iota
	// MulKaratsuba recurses with the subtractive Karatsuba identity
	// above the threshold, like the OpenSSL 0.9.7 build the paper
	// measured. The default; the Table 8 ablation contrasts the two
	// modes' function profiles.
	MulKaratsuba
)

// karatsubaThreshold is the limb count at or below which
// multiplication stays schoolbook. The default 16 is tuned for this
// library on 64-bit hosts; OpenSSL 0.9.7's 32-bit build effectively
// recursed down to its 8-word comba kernel, which is what the
// Table 8 ablation emulates by lowering the threshold to 8. Note
// RSA-1024 with CRT works on 16-limb halves, so at the default
// threshold its Montgomery products stay schoolbook — Karatsuba
// engages from RSA-2048, or at the lowered threshold.
var karatsubaThreshold = 16

// SetKaratsubaThreshold sets the recursion cutoff in limbs and
// returns the previous value. Not safe to call concurrently with
// arithmetic.
func SetKaratsubaThreshold(limbs int) int {
	prev := karatsubaThreshold
	if limbs >= 2 {
		karatsubaThreshold = limbs
	}
	return prev
}

var mulMode = MulKaratsuba

// SetMulMode selects the multiplication algorithm and returns the
// previous mode. Not safe to call concurrently with arithmetic.
func SetMulMode(m MulMode) MulMode {
	prev := mulMode
	mulMode = m
	return prev
}

// mulSlices dispatches x*y on raw limb slices, returning a fresh
// product slice of len(x)+len(y) limbs (unnormalized).
func mulSlices(x, y []Word) []Word {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	if mulMode == MulKaratsuba &&
		len(x) > karatsubaThreshold && len(y) > karatsubaThreshold {
		// Pad to a common even length.
		n := len(x)
		if len(y) > n {
			n = len(y)
		}
		if n%2 == 1 {
			n++
		}
		xp := padTo(x, n)
		yp := padTo(y, n)
		prod := kmul(xp, yp)
		return prod[:len(x)+len(y)]
	}
	return schoolbookMul(x, y)
}

func padTo(x []Word, n int) []Word {
	if len(x) == n {
		return x
	}
	out := make([]Word, n)
	copy(out, x)
	return out
}

// schoolbookMul is the O(n²) base case driven by mulAddWords.
func schoolbookMul(x, y []Word) []Word {
	out := make([]Word, len(x)+len(y))
	for j := 0; j < len(y); j++ {
		yw := y[j]
		if yw == 0 {
			continue
		}
		out[j+len(x)] = mulAddWords(out[j:j+len(x)], x, yw)
	}
	return out
}

// kmul multiplies equal-length slices (len even or below threshold),
// returning 2n limbs. The subtractive Karatsuba identity:
//
//	x = x1·B^m + x0,  y = y1·B^m + y0,  m = n/2
//	z0 = x0·y0, z2 = x1·y1
//	middle = z0 + z2 + (x0−x1)(y1−y0)
//	x·y = z2·B^2m + middle·B^m + z0
func kmul(x, y []Word) []Word {
	n := len(x)
	if n <= karatsubaThreshold || n%2 == 1 {
		return schoolbookMul(x, y)
	}
	m := n / 2
	x0, x1 := x[:m], x[m:]
	y0, y1 := y[:m], y[m:]

	z0 := kmul(x0, y0)
	z2 := kmul(x1, y1)

	d1, neg1 := absDiff(x0, x1) // x0 - x1
	d2, neg2 := absDiff(y1, y0) // y1 - y0
	z1 := kmul(d1, d2)
	z1Negative := neg1 != neg2

	// middle (2m+1 limbs) = z0 + z2 ± z1.
	mid := make([]Word, 2*m+1)
	copy(mid, z0)
	addTo(mid, z2)
	if z1Negative {
		subFrom(mid, z1)
	} else {
		addTo(mid, z1)
	}

	// result = z2·B^2m + mid·B^m + z0.
	res := make([]Word, 2*n)
	copy(res[:2*m], z0)
	copy(res[2*m:], z2)
	addTo(res[m:], mid)
	return res
}

// addTo adds x into z in place (len(x) <= len(z)), propagating the
// carry through z. The final carry must be zero by construction of
// the callers.
func addTo(z, x []Word) {
	carry := addWords(z[:len(x)], z[:len(x)], x)
	for i := len(x); carry != 0 && i < len(z); i++ {
		s := uint64(z[i]) + uint64(carry)
		z[i] = Word(s)
		carry = Word(s >> WordBits)
	}
}

// subFrom subtracts x from z in place (len(x) <= len(z), z >= x).
func subFrom(z, x []Word) {
	borrow := subWords(z[:len(x)], z[:len(x)], x)
	for i := len(x); borrow != 0 && i < len(z); i++ {
		t := uint64(z[i]) - uint64(borrow)
		z[i] = Word(t)
		borrow = Word((t >> WordBits) & 1)
	}
}

// absDiff returns |a−b| (same length as a and b, which must be equal
// length) and whether a < b. The comparison plus subtraction is the
// bn_sub_words traffic Karatsuba is known for.
func absDiff(a, b []Word) ([]Word, bool) {
	out := make([]Word, len(a))
	if cmpWords(a, b) >= 0 {
		subWords(out, a, b)
		return out, false
	}
	subWords(out, b, a)
	return out, true
}
