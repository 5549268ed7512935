package record

import (
	"bytes"
	"io"
	"testing"

	"sslperf/internal/suite"
)

// BenchmarkRecordSeal measures the outbound hot path — MAC, pad,
// encrypt, frame — for a full-size record. With the reused outgoing
// buffer this is the allocation-free path the paper's bulk-transfer
// phase (Table 2 steps 6/8) runs per record. AES128-SHA, the bulk
// suite, runs in both forms: stitched (where this CPU has the kernel)
// and two-pass.
func BenchmarkRecordSeal(b *testing.B) {
	cases := []struct {
		name, suite string
		twoPass     bool
	}{
		{"RC4-MD5", "RC4-MD5", false},
		{"DES-CBC3-SHA", "DES-CBC3-SHA", false},
		{"AES128-SHA/stitched", "AES128-SHA", false},
		{"AES128-SHA/two-pass", "AES128-SHA", true},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			s, err := suite.ByName(bc.suite)
			if err != nil {
				b.Fatal(err)
			}
			type rw struct {
				io.Reader
				io.Writer
			}
			sender := NewLayer(rw{Writer: io.Discard})
			receiver := NewLayer(rw{})
			arm(b, s, sender, receiver)
			if bc.twoPass {
				sender.out.stitched = false
			} else if bc.suite == "AES128-SHA" && !sender.out.stitched {
				b.Skip("this CPU has no stitched AES-CBC + SHA-1 kernel")
			}
			payload := make([]byte, MaxFragment)
			for i := range payload {
				payload[i] = byte(i)
			}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sendRecord(sender, TypeApplicationData, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecordOpen measures the inbound path: read, decrypt,
// unpad, verify. The receiver reuses its incoming buffer, so the
// steady state is likewise allocation-free.
func BenchmarkRecordOpen(b *testing.B) {
	for _, name := range []string{"RC4-MD5", "DES-CBC3-SHA", "AES128-SHA"} {
		b.Run(name, func(b *testing.B) {
			s, err := suite.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			buf := &bytes.Buffer{}
			type rw struct {
				io.Reader
				io.Writer
			}
			sender := NewLayer(rw{Writer: buf})
			receiver := NewLayer(rw{Reader: buf})
			arm(b, s, sender, receiver)
			payload := make([]byte, MaxFragment)
			for i := range payload {
				payload[i] = byte(i)
			}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				buf.Reset()
				if err := sendRecord(sender, TypeApplicationData, payload); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := readRecord(receiver); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
