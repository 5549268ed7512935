package aes

// The round instructions, in aesni_amd64.s: CBC over n bytes, a
// non-zero multiple of 16, with the lengths checked by the Go callers
// in kernel.go, so the assembly never reads or writes outside the
// slices it is given.

//go:noescape
func encryptCBCAsm(xk *uint32, nr int, dst, src, iv *byte, n int)

//go:noescape
func decryptCBCAsm(xk *uint32, nr int, dst, src, iv *byte, n int)
