package aessha1

// The stitched loop, in stitch_amd64.s, over n bytes, a non-zero
// multiple of group; the lengths are checked by groups, in Go, so the
// assembly never reads or writes outside the slices it is given.

//go:noescape
func encryptSHA1(xk *uint32, nr int, dst, src, iv *byte, n int, s *[5]uint32, h *byte)
