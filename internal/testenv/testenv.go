// Package testenv is what the tests of several packages share: what
// they are running under (Race), a retry for wall-clock comparisons
// (Timing), and the reference CBC the cipher kernels' differential
// fuzz targets compare against.
package testenv

import "testing"

// Timing runs a wall-clock comparison up to three times and fails the
// test only if every attempt fails. measure takes its timings afresh
// on each call and returns nil when the shape it asserts holds. One
// preemption inside a timed region is enough to break such a shape on
// a busy two-CPU host; three in three runs is a finding.
func Timing(t testing.TB, measure func() error) {
	t.Helper()
	const attempts = 3
	for i := 1; ; i++ {
		err := measure()
		if err == nil {
			return
		}
		if i == attempts {
			t.Fatalf("timing shape failed %d times in a row: %v", attempts, err)
		}
		t.Logf("timing attempt %d: %v; measuring again", i, err)
	}
}

// Fill stretches seed to n bytes, varying it from repeat to repeat
// (all zero when seed is empty) — how a fuzz target turns arbitrary
// input into a key or IV of the right size.
func Fill(seed []byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if len(seed) > 0 {
			out[i] = seed[i%len(seed)] + byte(i/len(seed))
		}
	}
	return out
}

// CBCOver is CBC mode written out longhand over a single-block
// function: the reference a fused kernel is held to.
func CBCOver(encrypt bool, blockSize int, block func(dst, src []byte), src, iv []byte) []byte {
	dst := make([]byte, len(src))
	prev := append([]byte(nil), iv...)
	for i := 0; i+blockSize <= len(src); i += blockSize {
		in, out := src[i:i+blockSize], dst[i:i+blockSize]
		if encrypt {
			for j := range out {
				out[j] = in[j] ^ prev[j]
			}
			block(out, out)
			copy(prev, out)
		} else {
			block(out, in)
			for j := range out {
				out[j] ^= prev[j]
			}
			copy(prev, in)
		}
	}
	return dst
}

// SplitCBC runs a fused CBC entry point over src in two calls split at
// byte offset split (a block boundary), in place or into a fresh
// buffer, and returns the output. The chaining value has to carry from
// the first call to the second for it to equal one pass.
func SplitCBC(fused func(dst, src, iv []byte), src, iv []byte, split int, inPlace bool) []byte {
	iv = append([]byte(nil), iv...)
	dst := make([]byte, len(src))
	if inPlace {
		copy(dst, src)
		src = dst
	}
	fused(dst[:split], src[:split], iv)
	fused(dst[split:], src[split:], iv)
	return dst
}
