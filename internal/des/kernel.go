package des

import (
	"encoding/binary"
	"math/bits"
)

// The production kernel. Everything the record layer, Table 11 and
// cryptospeed run goes through crypt below; des.go's permute /
// rounds16 / feistel / expand are the form the paper's Table 6
// dissects and only anatomy.go (and the tests that hold the two
// equal) still call them.
//
// Both halves are kept rotated left by one bit for the whole block.
// In that position the eight 6-bit groups of the E expansion are the
// bytes of r (S2, S4, S6, S8) and of r rotated right by four (S1, S3,
// S5, S7), so expansion plus key mixing is two XORs against a subkey
// packed the same way at key set-up, and the SP tables are stored
// pre-rotated so their output lands on the rotated half directly.

// spRot[i][v] is sp[i][v] rotated left by one (filled by des.go's init).
var spRot [8][64]uint32

// roundKeys is one key's sixteen subkeys packed for the rotated round:
// words 2i and 2i+1 hold round i's groups 1,3,5,7 and 0,2,4,6, one per
// byte, in the order a direction consumes them.
type roundKeys [32]uint32

// packKeys packs a 48-bit-per-round schedule into its encryption-order
// and decryption-order roundKeys.
func packKeys(fwd, rev *roundKeys, ks *[16]uint64) {
	for i, k := range ks {
		odd := uint32(k>>36&0x3f)<<24 | uint32(k>>24&0x3f)<<16 | uint32(k>>12&0x3f)<<8 | uint32(k&0x3f)
		even := uint32(k>>42&0x3f)<<24 | uint32(k>>30&0x3f)<<16 | uint32(k>>18&0x3f)<<8 | uint32(k>>6&0x3f)
		fwd[2*i], fwd[2*i+1] = odd, even
		rev[30-2*i], rev[31-2*i] = odd, even
	}
}

// ip is the initial permutation as five delta swaps, leaving both
// halves rotated left by one (the rotations fold into the last swap).
func ip(l, r uint32) (uint32, uint32) {
	t := (l>>4 ^ r) & 0x0f0f0f0f
	r ^= t
	l ^= t << 4
	t = (l>>16 ^ r) & 0x0000ffff
	r ^= t
	l ^= t << 16
	t = (r>>2 ^ l) & 0x33333333
	l ^= t
	r ^= t << 2
	t = (r>>8 ^ l) & 0x00ff00ff
	l ^= t
	r ^= t << 8
	r = bits.RotateLeft32(r, 1)
	t = (l ^ r) & 0xaaaaaaaa
	l ^= t
	r ^= t
	l = bits.RotateLeft32(l, 1)
	return l, r
}

// fp undoes ip: the same swaps in reverse order.
func fp(l, r uint32) (uint32, uint32) {
	l = bits.RotateLeft32(l, -1)
	t := (l ^ r) & 0xaaaaaaaa
	l ^= t
	r ^= t
	r = bits.RotateLeft32(r, -1)
	t = (r>>8 ^ l) & 0x00ff00ff
	l ^= t
	r ^= t << 8
	t = (r>>2 ^ l) & 0x33333333
	l ^= t
	r ^= t << 2
	t = (l>>16 ^ r) & 0x0000ffff
	r ^= t
	l ^= t << 16
	t = (l>>4 ^ r) & 0x0f0f0f0f
	r ^= t
	l ^= t << 4
	return l, r
}

// rounds runs sixteen Feistel rounds on rotated halves, two per
// iteration so the halves never swap: on return l holds L16 and r R16.
func rounds(l, r uint32, k *roundKeys) (uint32, uint32) {
	for i := 0; i < 32; i += 4 {
		t := r ^ k[i&28]
		u := bits.RotateLeft32(r, -4) ^ k[i&28+1]
		l ^= (spRot[1][t>>24&0x3f] ^ spRot[3][t>>16&0x3f]) ^ (spRot[5][t>>8&0x3f] ^ spRot[7][t&0x3f]) ^
			((spRot[0][u>>24&0x3f] ^ spRot[2][u>>16&0x3f]) ^ (spRot[4][u>>8&0x3f] ^ spRot[6][u&0x3f]))
		t = l ^ k[i&28+2]
		u = bits.RotateLeft32(l, -4) ^ k[i&28+3]
		r ^= (spRot[1][t>>24&0x3f] ^ spRot[3][t>>16&0x3f]) ^ (spRot[5][t>>8&0x3f] ^ spRot[7][t&0x3f]) ^
			((spRot[0][u>>24&0x3f] ^ spRot[2][u>>16&0x3f]) ^ (spRot[4][u>>8&0x3f] ^ spRot[6][u&0x3f]))
	}
	return l, r
}

// crypt runs one block through one set of rounds (k2 nil: DES) or the
// EDE triple, with IP and FP once around all of them. Without the
// half swap between sets, the middle set runs on the halves crossed.
func crypt(l, r uint32, k1, k2, k3 *roundKeys) (uint32, uint32) {
	l, r = ip(l, r)
	l, r = rounds(l, r, k1)
	if k2 != nil {
		r, l = rounds(r, l, k2)
		l, r = rounds(l, r, k3)
	}
	return fp(r, l)
}

func cryptBlock(dst, src []byte, k1, k2, k3 *roundKeys) {
	l, r := crypt(binary.BigEndian.Uint32(src), binary.BigEndian.Uint32(src[4:]), k1, k2, k3)
	binary.BigEndian.PutUint32(dst, l)
	binary.BigEndian.PutUint32(dst[4:], r)
}

// encryptCBC chains the whole blocks of src into dst with the chaining
// value held as two words, and leaves the last ciphertext block in iv.
func encryptCBC(dst, src, iv []byte, k1, k2, k3 *roundKeys) {
	cl, cr := binary.BigEndian.Uint32(iv), binary.BigEndian.Uint32(iv[4:])
	for i := 0; i+BlockSize <= len(src); i += BlockSize {
		s, d := src[i:i+BlockSize], dst[i:i+BlockSize]
		cl, cr = crypt(binary.BigEndian.Uint32(s)^cl, binary.BigEndian.Uint32(s[4:])^cr, k1, k2, k3)
		binary.BigEndian.PutUint32(d, cl)
		binary.BigEndian.PutUint32(d[4:], cr)
	}
	binary.BigEndian.PutUint32(iv, cl)
	binary.BigEndian.PutUint32(iv[4:], cr)
}

// decryptCBC is the inverse. Each ciphertext block is in registers
// before its plaintext is stored, so dst may be src.
func decryptCBC(dst, src, iv []byte, k1, k2, k3 *roundKeys) {
	cl, cr := binary.BigEndian.Uint32(iv), binary.BigEndian.Uint32(iv[4:])
	for i := 0; i+BlockSize <= len(src); i += BlockSize {
		s, d := src[i:i+BlockSize], dst[i:i+BlockSize]
		sl, sr := binary.BigEndian.Uint32(s), binary.BigEndian.Uint32(s[4:])
		l, r := crypt(sl, sr, k1, k2, k3)
		binary.BigEndian.PutUint32(d, l^cl)
		binary.BigEndian.PutUint32(d[4:], r^cr)
		cl, cr = sl, sr
	}
	binary.BigEndian.PutUint32(iv, cl)
	binary.BigEndian.PutUint32(iv[4:], cr)
}
