package aessha1

import (
	"sslperf/internal/aes"
	"sslperf/internal/sha1x"
)

// On amd64 a CPU whose CPUID reports both AES-NI and the SHA
// extensions (with the SSSE3 and SSE4.1 each package's check also
// requires) runs the stitched loop in stitch_amd64.s. Lengths are
// checked here, in Go, so the assembly never reads or writes outside
// the slices it is given.

var hasStitch = aes.HardwareRounds() && sha1x.HardwareRounds()

//go:noescape
func encryptSHA1(xk *uint32, nr int, dst, src, iv *byte, n int, s *[5]uint32, h *byte)

// groups CBC-encrypts src into dst from iv and writes hashed into d,
// which holds no partial block; src and hashed are the same non-zero
// multiple of group long.
func groups(c *aes.Cipher, dst, src, iv []byte, d *sha1x.Digest, hashed []byte) {
	if !hasStitch {
		twoPass(c, dst, src, iv, d, hashed)
		return
	}
	n := len(src)
	_, _, _ = dst[n-1], hashed[n-1], iv[aes.BlockSize-1]
	encryptSHA1(&c.EncSchedule()[0], c.Rounds(), &dst[0], &src[0], &iv[0], n, d.Chain(n), &hashed[0])
}
