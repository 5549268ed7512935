//go:build !amd64

package sha1x

// block is blockGeneric off amd64, where no Digest selects it
// (cpufeat.X86.SHA is false).
func block(s *[5]uint32, p []byte) { blockGeneric(s, p) }
