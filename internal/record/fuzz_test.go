package record

import (
	"bytes"
	"io"
	"testing"

	"sslperf/internal/suite"
)

// FuzzReadRecord feeds the record reader arbitrary wire bytes with
// NULL security and fully armed for DES-CBC3-SHA, through both
// flavours: a Layer reading them from a transport and a Core fed them
// whole. Neither may panic or return a payload longer than the record
// claimed, and both must open the same records and stop at the same
// point — where the Core wants more bytes the Layer finds the stream
// ended, and every other error is the same error.
func FuzzReadRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{22, 3, 0, 0, 1, 0})
	f.Add([]byte{23, 3, 1, 0, 4, 'd', 'a', 't', 'a'})
	f.Add([]byte{21, 3, 0, 0, 2, 2, 40})
	f.Add(bytes.Repeat([]byte{0x30}, 100))
	// A real sealed record as a mutation seed.
	seed := func() []byte {
		s, _ := suite.ByName("DES-CBC3-SHA")
		buf := &bytes.Buffer{}
		l := NewLayer(struct {
			io.Reader
			io.Writer
		}{Writer: buf})
		arm(f, s, l, NewCore())
		l.WriteRecord(TypeApplicationData, []byte("fuzz seed payload"))
		return buf.Bytes()
	}()
	f.Add(seed)
	// The same record with bad padding: the pad count pushed past a
	// block (a flipped bit in the last byte of the block before the last
	// flips it in the count), and the whole last block garbled.
	for _, fromEnd := range []int{1 + 8, 1} {
		bad := bytes.Clone(seed)
		bad[len(bad)-fromEnd] ^= 0x80
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, armed := range []bool{false, true} {
			l := NewLayer(struct {
				io.Reader
				io.Writer
			}{Reader: bytes.NewReader(data), Writer: io.Discard})
			c := NewCore()
			c.Feed(data)
			if armed {
				s, _ := suite.ByName("DES-CBC3-SHA")
				arm(t, s, NewCore(), l)
				arm(t, s, NewCore(), c)
			}
			fromLayer, fromCore := readAll(l), readAll(c)
			if len(fromLayer.payloads) != len(fromCore.payloads) {
				t.Fatalf("layer opened %d records, core %d", len(fromLayer.payloads), len(fromCore.payloads))
			}
			for i, payload := range fromLayer.payloads {
				if len(payload) > MaxFragment+2048 {
					t.Fatalf("payload of %d bytes exceeds what a record can carry", len(payload))
				}
				if !bytes.Equal(payload, fromCore.payloads[i]) {
					t.Fatalf("record %d differs between layer and core", i)
				}
			}
			if fromCore.err == ErrWouldBlock {
				if fromLayer.err != io.EOF && fromLayer.err != io.ErrUnexpectedEOF {
					t.Fatalf("core wants more bytes, layer ended with %v", fromLayer.err)
				}
			} else if fromLayer.err.Error() != fromCore.err.Error() {
				t.Fatalf("layer ended with %v, core with %v", fromLayer.err, fromCore.err)
			}
		}
	})
}
