//go:build !amd64

package aes

// Off amd64 no Cipher sets ni (cpufeat.X86.AES is false), so the round
// instructions are never called.

func encryptCBCAsm(xk *uint32, nr int, dst, src, iv *byte, n int) { panic("aes: no AES-NI") }

func decryptCBCAsm(xk *uint32, nr int, dst, src, iv *byte, n int) { panic("aes: no AES-NI") }
