package handshake

import (
	"bytes"
	"testing"

	"sslperf/internal/record"
)

// The incremental msgReader is the seam the sans-IO refactor opened:
// it must make identical progress no matter how the wire bytes are
// chunked into Core.Feed, suspend with ErrWouldBlock (never block,
// never consume twice) on short input, and reject malformed streams
// without panicking. The fuzz seeds pin the shapes called out in the
// refactor: feed splits at offsets 0, 1, and len-1, a truncated final
// record, and an alert record interleaved between handshake records.

// fuzzWire builds the canned stream: two handshake messages packed so
// that the first spans a record boundary and the second rides the
// tail of the second record — the two reassembly cases.
func fuzzWire() (wire []byte, want [][]byte) {
	msg := func(typ byte, body []byte) []byte {
		m := []byte{typ, byte(len(body) >> 16), byte(len(body) >> 8), byte(len(body))}
		return append(m, body...)
	}
	rec := func(payload []byte) []byte {
		h := []byte{byte(record.TypeHandshake), 3, 0,
			byte(len(payload) >> 8), byte(len(payload))}
		return append(h, payload...)
	}
	m1 := msg(1, bytes.Repeat([]byte{0xaa}, 50))
	m2 := msg(2, bytes.Repeat([]byte{0xbb}, 7))
	stream := append(append([]byte(nil), m1...), m2...)
	wire = append(rec(stream[:20]), rec(stream[20:])...)
	return wire, [][]byte{m1, m2}
}

func FuzzMsgReaderIncremental(f *testing.F) {
	wire, _ := fuzzWire()
	f.Add(0, 0, 0, false)           // everything in one feed
	f.Add(1, 0, 0, false)           // split after the first header byte
	f.Add(len(wire)-1, 0, 0, false) // all but the last byte, then the rest
	f.Add(5, 25, 0, false)          // splits at the record boundaries
	f.Add(0, 0, 3, false)           // truncated final record: 3 bytes cut
	f.Add(0, 0, 1, false)           // truncated by a single byte
	f.Add(25, 0, 0, true)           // alert interleaved between the records
	f.Add(1, 2, 0, true)            // alert plus tiny leading chunks
	f.Fuzz(func(t *testing.T, splitA, splitB, cut int, alert bool) {
		wire, want := fuzzWire()
		if alert {
			// Insert a warning alert between the two handshake records
			// (first record = 5 header + 20 payload bytes).
			al := []byte{byte(record.TypeAlert), 3, 0, 0, 2,
				record.AlertLevelWarning, 90}
			w := append([]byte(nil), wire[:25]...)
			w = append(w, al...)
			wire = append(w, wire[25:]...)
		}
		if cut < 0 {
			cut = -cut
		}
		cut %= len(wire)
		wire = wire[:len(wire)-cut]
		norm := func(v int) int {
			if v < 0 {
				v = -v
			}
			return v % (len(wire) + 1)
		}
		a, b := norm(splitA), norm(splitB)
		if a > b {
			a, b = b, a
		}
		chunks := [][]byte{wire[:a], wire[a:b], wire[b:]}

		core := record.NewCore()
		r := newMsgReader(core, record.MaxFragment)
		var got [][]byte
		var terminal error
		fed := 0
		for terminal == nil && len(got) <= len(want) {
			typ, raw, err := r.next()
			switch {
			case err == nil:
				if len(raw) < 4 || raw[0] != typ {
					t.Fatalf("inconsistent message: type %d raw %x", typ, raw)
				}
				got = append(got, raw)
			case err == ErrWouldBlock:
				if fed == len(chunks) {
					// Starved: only legal when the stream was truncated
					// or we already have everything we expected.
					if cut == 0 && len(got) < len(want) {
						t.Fatalf("blocked with full stream fed, got %d/%d messages",
							len(got), len(want))
					}
					terminal = err
					break
				}
				core.Feed(chunks[fed])
				fed++
			default:
				terminal = err
			}
		}

		if !alert && cut == 0 {
			// Intact pure-handshake stream: chunking must not matter.
			if len(got) != len(want) {
				t.Fatalf("got %d messages, want %d (terminal: %v)", len(got), len(want), terminal)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("message %d mismatch:\n got %x\nwant %x", i, got[i], want[i])
				}
			}
		}
		if alert && cut == 0 && len(got) > 1 {
			// The alert sits before the second record; fill() must have
			// surfaced it (as *record.AlertError) rather than silently
			// skipping to the second handshake message.
			t.Fatalf("interleaved alert swallowed; read %d messages", len(got))
		}
	})
}

// readCCS must be just as re-entrant: a ChangeCipherSpec record
// arriving byte-by-byte suspends without consuming until complete.
func TestMsgReaderCCSByteAtATime(t *testing.T) {
	core := record.NewCore()
	r := newMsgReader(core, record.MaxFragment)
	ccs := []byte{byte(record.TypeChangeCipherSpec), 3, 0, 0, 1, 1}
	for _, b := range ccs {
		if err := r.readCCS(); err != ErrWouldBlock {
			t.Fatalf("partial CCS: want ErrWouldBlock, got %v", err)
		}
		core.Feed([]byte{b})
	}
	if err := r.readCCS(); err != nil {
		t.Fatalf("complete CCS: %v", err)
	}
}
