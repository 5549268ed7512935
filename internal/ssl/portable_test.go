package ssl

import (
	"bytes"
	"testing"

	"sslperf/internal/cpufeat"
	"sslperf/internal/handshake"
	"sslperf/internal/suite"
	"sslperf/internal/testenv"
)

// noFeatures masks every feature the table has, so every kernel runs
// its portable form.
var noFeatures = cpufeat.Features{AES: true, SHA: true, ADX: true}

// portable is the set of Kernel() names of the portable forms.
var portable = map[string]bool{"tables": true, "scalar": true, "Go": true, "two passes": true}

// masked runs fn with every feature masked, and restores the table
// however fn ends.
func masked[T any](fn func() T) T {
	defer cpufeat.Disable(noFeatures)()
	return fn()
}

// TestPortableStackWireEquivalence is the golden gate on the portable
// stack: with every cpufeat feature masked, both connection types emit
// the same transcripts, byte for byte, as with the CPU's features on —
// for every suite, full and resumed — and every masked run's own
// objects (each side's record write state, the server key's Montgomery
// contexts) report a portable kernel: every object that reports on the
// unmasked run but the stitched seal, which masking turns off.
func TestPortableStackWireEquivalence(t *testing.T) {
	req := bytes.Repeat([]byte("q"), 512)
	resp := bytes.Repeat([]byte("r"), 20000)
	type run func(*testing.T, suite.ID, uint64, uint64, *handshake.SessionCache, *handshake.Session, []byte, []byte) exchange
	for _, s := range suite.All() {
		t.Run(s.Name, func(t *testing.T) {
			for _, r := range []struct {
				name string
				run  run
			}{{"blocking", blockingExchange}, {"non-blocking", nonBlockingExchange}} {
				fullThenResumed := func() [2]exchange {
					cache := handshake.NewSessionCache(16)
					full := r.run(t, s.ID, 31, 32, cache, nil, req, resp)
					return [2]exchange{full, r.run(t, s.ID, 41, 42, cache, full.sess, req, resp)}
				}
				on := fullThenResumed()
				off := masked(fullThenResumed)
				for i, mode := range []string{"full", "resumed"} {
					a, b := on[i], off[i]
					if !bytes.Equal(a.cli, b.cli) || !bytes.Equal(a.srv, b.srv) {
						t.Errorf("%s %s: masked transcripts differ (client %d/%d bytes, server %d/%d)",
							r.name, mode, len(a.cli), len(b.cli), len(a.srv), len(b.srv))
					}
					if a.resumed != (i == 1) || b.resumed != (i == 1) {
						t.Errorf("%s %s: resumed = %v unmasked, %v masked", r.name, mode, a.resumed, b.resumed)
					}
					stitched := 0 // the stitched seal reports only where it runs
					for _, k := range a.kernels {
						if k == "AESENC+SHA1RNDS4" {
							stitched++
						}
					}
					if len(b.kernels) == 0 || len(b.kernels) != len(a.kernels)-stitched {
						t.Errorf("%s %s: masked objects report %q, unmasked %q", r.name, mode, b.kernels, a.kernels)
					}
					for _, k := range b.kernels {
						if !portable[k] {
							t.Errorf("%s %s: a masked object runs %q (all: %q)", r.name, mode, k, b.kernels)
						}
					}
				}
			}
		})
	}
}

// TestPortableHandshakeServerAllocs holds the portable stack to the
// allocation floors TestFullHandshakeServerAllocs and
// TestResumedHandshakeServerAllocs pin on the CPU's own kernels (43
// full and 36 resumed measured masked, as unmasked): a portable form
// that allocated per record or per handshake would show here.
func TestPortableHandshakeServerAllocs(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		if testenv.Race {
			t.Skip("race runtime allocates on sync paths and drops pooled objects")
		}
		if mean := masked(func() float64 { return meanAllocs(t, false, nil, nil) }); mean > maxFullServerAllocs {
			t.Fatalf("portable full handshake allocates %.1f objects on the server, want <= %v", mean, maxFullServerAllocs)
		}
	})
	t.Run("resumed", func(t *testing.T) {
		if testenv.Race {
			t.Skip("race runtime allocates on sync paths")
		}
		if mean := masked(func() float64 { return meanResumedAllocs(t, false) }); mean > maxResumedServerAllocs {
			t.Fatalf("portable resumed handshake allocates %.1f objects on the server, want <= %v", mean, maxResumedServerAllocs)
		}
	})
}
