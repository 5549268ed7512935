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
// phase (Table 2 steps 6/8) runs per record.
func BenchmarkRecordSeal(b *testing.B) {
	for _, name := range []string{"RC4-MD5", "DES-CBC3-SHA"} {
		b.Run(name, func(b *testing.B) {
			s, err := suite.ByName(name)
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
			payload := make([]byte, MaxFragment)
			for i := range payload {
				payload[i] = byte(i)
			}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sender.WriteRecord(TypeApplicationData, payload); err != nil {
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
	for _, name := range []string{"RC4-MD5", "DES-CBC3-SHA"} {
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
				if err := sender.WriteRecord(TypeApplicationData, payload); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := receiver.ReadRecord(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
