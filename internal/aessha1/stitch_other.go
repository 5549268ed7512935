//go:build !amd64

package aessha1

import (
	"sslperf/internal/aes"
	"sslperf/internal/sha1x"
)

// hasStitch is false off amd64: the cipher and the hash run one after
// the other.
const hasStitch = false

// groups CBC-encrypts src into dst from iv and writes hashed into d.
func groups(c *aes.Cipher, dst, src, iv []byte, d *sha1x.Digest, hashed []byte) {
	twoPass(c, dst, src, iv, d, hashed)
}
