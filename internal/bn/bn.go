// Package bn implements arbitrary-precision unsigned/signed integer
// arithmetic from scratch, mirroring the structure of OpenSSL's BN
// library that the paper profiles: 32-bit limbs, schoolbook
// multiplication driven by a mul-add word kernel, Knuth division,
// Montgomery reduction, and windowed modular exponentiation.
//
// Ints are stored in 32-bit limbs, and the counting kernel of
// Montgomery arithmetic computes on them deliberately: the paper's
// Table 8/9 anatomy (bn_mul_add_words dominating RSA with a mul + add
// + add-with-carry inner loop) is a property of 32-bit limb code on
// the measured Pentium 4, and reproducing it requires the same word
// size. That kernel runs only while a profile is being collected.
// Otherwise Mont runs the production kernel of montkernel.go, which
// repacks operands into 64-bit limbs at its boundary — the two-kernels
// rule of DESIGN §5, with ProfileEnabled() as the selector.
//
// The package supports an Oprofile-style exclusive-time profile of its
// internal functions (see Profile) used to regenerate the paper's
// Table 8, and an abstract operation trace of the inner mul-add loop
// for Table 9.
package bn

import (
	"errors"
	"fmt"
	"math/bits"
)

// Word is one limb of an Int. See the package comment for why it is
// 32 bits, and where it is not.
type Word = uint32

// WordBits is the number of bits per limb.
const WordBits = 32

// An Int is a signed arbitrary-precision integer. The zero value is
// ready to use and represents 0. Limbs are little-endian with no
// leading zero limbs.
type Int struct {
	d   []Word
	neg bool
}

// New returns a new Int set to 0.
func New() *Int { return &Int{} }

// NewInt returns a new Int set to v.
func NewInt(v uint64) *Int { return New().SetUint64(v) }

// norm strips leading zero limbs and canonicalizes -0 to 0.
func (z *Int) norm() *Int {
	for len(z.d) > 0 && z.d[len(z.d)-1] == 0 {
		z.d = z.d[:len(z.d)-1]
	}
	if len(z.d) == 0 {
		z.neg = false
	}
	return z
}

// Sign returns -1, 0, or +1.
func (z *Int) Sign() int {
	if len(z.d) == 0 {
		return 0
	}
	if z.neg {
		return -1
	}
	return 1
}

// IsZero reports whether z == 0.
func (z *Int) IsZero() bool { return len(z.d) == 0 }

// IsOne reports whether z == 1.
func (z *Int) IsOne() bool { return !z.neg && len(z.d) == 1 && z.d[0] == 1 }

// IsOdd reports whether z is odd.
func (z *Int) IsOdd() bool { return len(z.d) > 0 && z.d[0]&1 == 1 }

// Neg sets z = -x and returns z.
func (z *Int) Neg(x *Int) *Int {
	z.Set(x)
	if len(z.d) > 0 {
		z.neg = !z.neg
	}
	return z
}

// Set sets z = x and returns z. (The BN_copy of Table 8.)
func (z *Int) Set(x *Int) *Int {
	if z == x {
		return z
	}
	profEnter(fnCopy)
	copy(z.resize(len(x.d)), x.d)
	z.neg = x.neg
	profExit()
	return z
}

// resize returns z.d with length n and unspecified contents, reusing
// its storage when that is large enough.
func (z *Int) resize(n int) []Word {
	if cap(z.d) < n {
		z.d = make([]Word, n)
	}
	z.d = z.d[:n]
	return z.d
}

// Clone returns a fresh copy of z.
func (z *Int) Clone() *Int { return New().Set(z) }

// SetUint64 sets z = v and returns z.
func (z *Int) SetUint64(v uint64) *Int {
	z.d = z.d[:0]
	z.neg = false
	if v == 0 {
		return z
	}
	if lo := Word(v); true {
		z.d = append(z.d, lo)
	}
	if hi := Word(v >> 32); hi != 0 {
		z.d = append(z.d, hi)
	}
	return z
}

// Uint64 returns the low 64 bits of |z| and whether z fits in a uint64
// (i.e. is non-negative and < 2^64).
func (z *Int) Uint64() (uint64, bool) {
	var v uint64
	switch len(z.d) {
	case 0:
	case 1:
		v = uint64(z.d[0])
	case 2:
		v = uint64(z.d[0]) | uint64(z.d[1])<<32
	default:
		return 0, false
	}
	return v, !z.neg
}

// BitLen returns the length of |z| in bits; BitLen(0) == 0.
func (z *Int) BitLen() int {
	if len(z.d) == 0 {
		return 0
	}
	return (len(z.d)-1)*WordBits + bits.Len32(z.d[len(z.d)-1])
}

// Bit returns bit i of |z| (0 or 1).
func (z *Int) Bit(i int) uint {
	w, b := i/WordBits, uint(i%WordBits)
	if w >= len(z.d) {
		return 0
	}
	return uint(z.d[w]>>b) & 1
}

// SetBytes interprets buf as a big-endian unsigned integer, sets z to
// it, and returns z.
func (z *Int) SetBytes(buf []byte) *Int {
	d := z.resize((len(buf) + 3) / 4)
	for i := range d {
		d[i] = 0
	}
	z.neg = false
	for i, b := range buf {
		// byte i (big-endian) lands at bit offset 8*(len-1-i)
		pos := len(buf) - 1 - i
		z.d[pos/4] |= Word(b) << (8 * uint(pos%4))
	}
	return z.norm()
}

// Bytes returns |z| as a minimal big-endian byte slice; Bytes(0) is
// empty.
func (z *Int) Bytes() []byte {
	if len(z.d) == 0 {
		return nil
	}
	n := (z.BitLen() + 7) / 8
	return z.FillBytes(make([]byte, n))
}

// FillBytes writes |z| big-endian into buf, zero-padding on the left,
// and returns buf. It panics if z does not fit.
func (z *Int) FillBytes(buf []byte) []byte {
	if z.BitLen() > len(buf)*8 {
		panic("bn: FillBytes: integer does not fit")
	}
	for i := range buf {
		buf[i] = 0
	}
	for i := range buf {
		pos := len(buf) - 1 - i
		w := pos / 4
		if w < len(z.d) {
			buf[i] = byte(z.d[w] >> (8 * uint(pos%4)))
		}
	}
	return buf
}

// SetHex sets z from a hexadecimal string (optional leading '-') and
// returns z, or an error for invalid input.
func (z *Int) SetHex(s string) (*Int, error) {
	neg := false
	if len(s) > 0 && s[0] == '-' {
		neg = true
		s = s[1:]
	}
	if len(s) == 0 {
		return nil, errors.New("bn: empty hex string")
	}
	buf := make([]byte, (len(s)+1)/2)
	// Parse from the right, two nibbles per byte.
	bi := len(buf) - 1
	for i := len(s); i > 0; i -= 2 {
		lo, ok := hexVal(s[i-1])
		if !ok {
			return nil, fmt.Errorf("bn: invalid hex digit %q", s[i-1])
		}
		var hi byte
		if i-2 >= 0 {
			h, ok := hexVal(s[i-2])
			if !ok {
				return nil, fmt.Errorf("bn: invalid hex digit %q", s[i-2])
			}
			hi = h
		}
		buf[bi] = hi<<4 | lo
		bi--
	}
	z.SetBytes(buf)
	if neg && !z.IsZero() {
		z.neg = true
	}
	return z, nil
}

// MustHex is SetHex on a fresh Int, panicking on error. For constants.
func MustHex(s string) *Int {
	z, err := New().SetHex(s)
	if err != nil {
		panic(err)
	}
	return z
}

func hexVal(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Hex returns z in lowercase hexadecimal with a leading '-' when
// negative. Hex(0) == "0".
func (z *Int) Hex() string {
	if len(z.d) == 0 {
		return "0"
	}
	const digits = "0123456789abcdef"
	out := make([]byte, 0, len(z.d)*8+1)
	if z.neg {
		out = append(out, '-')
	}
	top := z.d[len(z.d)-1]
	started := false
	for shift := 28; shift >= 0; shift -= 4 {
		nib := (top >> uint(shift)) & 0xf
		if !started && nib == 0 {
			continue
		}
		started = true
		out = append(out, digits[nib])
	}
	for i := len(z.d) - 2; i >= 0; i-- {
		w := z.d[i]
		for shift := 28; shift >= 0; shift -= 4 {
			out = append(out, digits[(w>>uint(shift))&0xf])
		}
	}
	return string(out)
}

// String returns the hexadecimal representation (same as Hex).
func (z *Int) String() string { return z.Hex() }

// Cmp compares z and x and returns -1, 0, or +1.
func (z *Int) Cmp(x *Int) int {
	switch {
	case z.neg && !x.neg:
		return -1
	case !z.neg && x.neg:
		return 1
	}
	c := z.CmpAbs(x)
	if z.neg {
		return -c
	}
	return c
}

// CmpAbs compares |z| and |x| and returns -1, 0, or +1.
func (z *Int) CmpAbs(x *Int) int {
	if len(z.d) != len(x.d) {
		if len(z.d) < len(x.d) {
			return -1
		}
		return 1
	}
	for i := len(z.d) - 1; i >= 0; i-- {
		if z.d[i] != x.d[i] {
			if z.d[i] < x.d[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Equal reports whether z == x.
func (z *Int) Equal(x *Int) bool { return z.Cmp(x) == 0 }

// Cleanse zeroes z's storage and sets z to 0. It is the analogue of
// OPENSSL_cleanse, used to scrub key material (paper handshake step 9).
func (z *Int) Cleanse() {
	profEnter(fnCleanse)
	d := z.d[:cap(z.d)]
	for i := range d {
		d[i] = 0
	}
	z.d = z.d[:0]
	z.neg = false
	profExit()
}
