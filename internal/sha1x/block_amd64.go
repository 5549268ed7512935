package sha1x

// On amd64 a Digest reset where cpufeat.X86.SHA holds (the SHA
// extensions, and SSSE3 and SSE4.1 for the byte flip and the E lane
// moves) runs the compression function on SHA1RNDS4 in block_amd64.s.
// The length is cut to whole blocks here, in Go, so the assembly never
// reads past the slice it is given.

//go:noescape
func blockSHANI(s *[5]uint32, p *byte, n int)

// block runs the SHA-1 compression function over the whole 64-byte
// blocks of p on SHA1RNDS4; a ragged tail is ignored.
func block(s *[5]uint32, p []byte) {
	if n := len(p) &^ (BlockSize - 1); n > 0 {
		blockSHANI(s, &p[0], n)
	}
}
