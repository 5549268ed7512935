// Package aessha1 is the paper's Figure 6 on one core: the AES-CBC
// encryption of a record and the SHA-1 hash of its MAC, run together.
// The figure's engine overlaps an AES unit with a hashing unit; a CPU
// with AES-NI and the SHA extensions (cpufeat.X86.AES and SHA) has the
// two units, and one instruction stream that interleaves AESENC with
// SHA1RNDS4 (stitch_amd64.s) keeps both busy. Everywhere else the two run one
// after the other, on whatever kernels aes and sha1x pick.
package aessha1

import (
	"sslperf/internal/aes"
	"sslperf/internal/cpufeat"
	"sslperf/internal/sha1x"
)

// group is how many bytes the stitched loop encrypts and hashes per
// turn: four AES blocks, one SHA-1 block.
const group = sha1x.BlockSize

// Kernel names the form EncryptHash runs now, for the reports that
// time it: "AESENC+SHA1RNDS4" (one stitched loop) or "two passes".
func Kernel() string {
	if cpufeat.X86.AES && cpufeat.X86.SHA {
		return "AESENC+SHA1RNDS4"
	}
	return "two passes"
}

// EncryptHash writes p into the SHA-1 digest d and CBC-encrypts the
// leading 64-byte groups of p into dst under c, from the chaining
// value iv, which it leaves holding the last ciphertext block. The
// hash runs ahead of the cipher by the bytes d needs to finish the
// partial block it holds, so EncryptHash encrypts n bytes, the most
// whole groups that fit in p behind those, and returns n — 0 when p is
// too short for one, and then only the hash runs. dst must hold n
// bytes and may be p.
func EncryptHash(c *aes.Cipher, dst, iv []byte, d *sha1x.Digest, p []byte) int {
	head := (sha1x.BlockSize - d.Buffered()) % sha1x.BlockSize
	if len(p) < head+group {
		d.Write(p)
		return 0
	}
	n := (len(p) - head) &^ (group - 1)
	d.Write(p[:head])
	groups(c, dst[:n], p[:n], iv, d, p[head:head+n])
	d.Write(p[head+n:])
	return n
}

// groups CBC-encrypts src into dst from iv and writes hashed into d,
// which holds no partial block; src and hashed are the same non-zero
// multiple of group long. It runs the stitched loop while cpufeat.X86
// holds both AES and SHA, else twoPass.
func groups(c *aes.Cipher, dst, src, iv []byte, d *sha1x.Digest, hashed []byte) {
	if !cpufeat.X86.AES || !cpufeat.X86.SHA {
		twoPass(c, dst, src, iv, d, hashed)
		return
	}
	n := len(src)
	_, _, _ = dst[n-1], hashed[n-1], iv[aes.BlockSize-1]
	encryptSHA1(&c.EncSchedule()[0], c.Rounds(), &dst[0], &src[0], &iv[0], n, d.Chain(n), &hashed[0])
}

// twoPass is groups without the stitched kernel: the hash, then the
// cipher, which may overwrite hashed bytes when dst is src.
func twoPass(c *aes.Cipher, dst, src, iv []byte, d *sha1x.Digest, hashed []byte) {
	d.Write(hashed)
	c.EncryptCBC(dst, src, iv)
}
