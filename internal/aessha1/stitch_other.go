//go:build !amd64

package aessha1

// Off amd64 cpufeat.X86 holds neither AES nor SHA, so groups never
// calls the stitched loop.
func encryptSHA1(xk *uint32, nr int, dst, src, iv *byte, n int, s *[5]uint32, h *byte) {
	panic("aessha1: no stitched loop")
}
