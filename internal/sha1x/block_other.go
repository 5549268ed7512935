//go:build !amd64

package sha1x

// hasSHANI is false off amd64: every block runs blockGeneric.
const hasSHANI = false

// block runs the SHA-1 compression function over the whole 64-byte
// blocks of p; a ragged tail is ignored.
func block(s *[5]uint32, p []byte) { blockGeneric(s, p) }
