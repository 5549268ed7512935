package core

import (
	"bytes"
	"slices"
	"testing"

	"sslperf/internal/aes"
	"sslperf/internal/aessha1"
	"sslperf/internal/cpufeat"
	"sslperf/internal/record"
	"sslperf/internal/sha1x"
	"sslperf/internal/workload"
)

// TestFig6SealsBothForms: fig6's two cores seal byte-identical records
// at every size it times, and, on a CPU with both units, name the
// kernels the CPU offers and differ only in the stitched one — which
// the stitched core still names after it has sealed, so the mask that
// armed the two-pass core was lifted before the seals.
func TestFig6SealsBothForms(t *testing.T) {
	// What the CPU reports and the kernels it offers, read before the
	// cores are armed.
	detected := cpufeat.X86
	kernels, stitch := []string{aes.Kernel(), sha1x.Kernel()}, aessha1.Kernel()
	stitched, twoPass, err := fig6Cores()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range fig6Sizes {
		data := workload.Payload(size)
		var sealed [2][]byte
		for i, c := range []*record.Core{twoPass, stitched} {
			if err := c.WriteRecord(record.TypeApplicationData, data); err != nil {
				t.Fatal(err)
			}
			sealed[i] = bytes.Clone(c.Outgoing())
			c.ConsumeOutgoing(len(sealed[i]))
		}
		if !bytes.Equal(sealed[0], sealed[1]) {
			t.Fatalf("%d B: the two-pass and stitched cores sealed different records", size)
		}
	}
	if !detected.AES || !detected.SHA {
		t.Skip("this CPU has no stitched AES-CBC + SHA-1 kernel")
	}
	if two := twoPass.Kernels(); !slices.Equal(two, kernels) {
		t.Fatalf("two-pass core names %v, want %v", two, kernels)
	}
	if st, want := stitched.Kernels(), append(kernels, stitch); !slices.Equal(st, want) {
		t.Fatalf("stitched core names %v, want %v", st, want)
	}
}
