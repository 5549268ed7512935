package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"sslperf/internal/suite"
	"sslperf/internal/testenv"
)

// The Layer is a transport pump around Core. These tests pin that it
// adds nothing of its own: the same wire bytes as a bare Core, one
// transport Write per window, no allocation, and reads that block
// where the Core would return ErrWouldBlock. (A "flight" in the test
// names is one multi-record write.)

// countingBuffer is a bytes.Buffer that counts the Writes it takes.
type countingBuffer struct {
	bytes.Buffer
	writes int
}

func (b *countingBuffer) Write(p []byte) (int, error) {
	b.writes++
	return b.Buffer.Write(p)
}

// flightSender builds a sender layer armed for s writing into a
// countingBuffer, with the receiver to open what it writes.
func flightSender(t *testing.T, s *suite.Suite) (*Layer, *Layer, *countingBuffer) {
	t.Helper()
	buf := &countingBuffer{}
	type rw struct {
		io.Reader
		io.Writer
	}
	sender := NewLayer(rw{Reader: strings.NewReader(""), Writer: buf})
	receiver := NewLayer(rw{Reader: &buf.Buffer, Writer: io.Discard})
	arm(t, s, sender, receiver)
	return sender, receiver, buf
}

// payloadOf builds a deterministic test payload.
func payloadOf(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>9)
	}
	return p
}

// checkSameWire writes each piece through a Layer and through a Core
// keyed alike, and requires the bytes the Layer put on its transport
// to equal the bytes the Core left in Outgoing.
func checkSameWire(t *testing.T, s *suite.Suite, pieces [][]byte) {
	t.Helper()
	layer, _, wire := flightSender(t, s)
	core := NewCore()
	arm(t, s, core, NewCore())
	for _, data := range pieces {
		wire.Reset()
		if err := layer.WriteRecord(TypeApplicationData, data); err != nil {
			t.Fatal(err)
		}
		if err := core.WriteRecord(TypeApplicationData, data); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.Bytes(), core.Outgoing()) {
			t.Fatalf("%s: size %d: layer wire bytes diverge from the core's", s.Name, len(data))
		}
		core.ConsumeOutgoing(len(core.Outgoing()))
	}
	if layer.Stats.RecordsWritten != core.Stats.RecordsWritten {
		t.Fatalf("record counts diverge: %d vs %d", layer.Stats.RecordsWritten, core.Stats.RecordsWritten)
	}
}

// TestFlightWireEquivalence: for every suite a Layer is byte-for-byte
// a Core plus a transport, whatever the write's width in records —
// none (one empty record), one, a few inside a window, and 65, which
// crosses into a second window.
func TestFlightWireEquivalence(t *testing.T) {
	widths := []struct {
		records int
		sizes   []int
	}{
		{0, []int{0}},
		{1, []int{1, 256, MaxFragment}},
		{2, []int{MaxFragment + 1, 2 * MaxFragment}},
		{4, []int{3*MaxFragment + 77, 4 * MaxFragment}},
		{65, []int{1<<20 + 7}},
	}
	for _, s := range suite.All() {
		for _, w := range widths {
			t.Run(fmt.Sprintf("%s/width=%d", s.Name, w.records), func(t *testing.T) {
				var pieces [][]byte
				for _, n := range w.sizes {
					pieces = append(pieces, payloadOf(n))
				}
				checkSameWire(t, s, pieces)
			})
		}
	}
}

// FuzzFlightEquivalence cuts n bytes into arbitrary writes (each two
// bytes of cuts give one write's size; the rest goes last) and checks
// layer/core wire equivalence for a stream and a block suite.
func FuzzFlightEquivalence(f *testing.F) {
	f.Add(0, []byte{})
	f.Add(1, []byte{0, 0})
	f.Add(MaxFragment, []byte{1, 0, 0xff, 0x3f})
	f.Add(MaxFragment+1, []byte{0, 0x40})
	f.Add(1<<20, []byte{0xff, 0xff, 0, 0, 1, 0x40})
	f.Fuzz(func(t *testing.T, n int, cuts []byte) {
		if n < 0 || n > 1<<21 || len(cuts) > 64 {
			t.Skip()
		}
		data := payloadOf(n)
		var pieces [][]byte
		for ; len(cuts) >= 2; cuts = cuts[2:] {
			size := min(len(data), 17*int(binary.LittleEndian.Uint16(cuts)))
			pieces = append(pieces, data[:size])
			data = data[size:]
		}
		pieces = append(pieces, data)
		for _, name := range []string{"RC4-MD5", "AES128-SHA"} {
			s, _ := suite.ByName(name)
			checkSameWire(t, s, pieces)
		}
	})
}

// TestFlightRoundTrip sends multi-record writes through every suite
// and reads the records back, covering the window boundary (exactly
// one window, one byte over) and multi-window writes.
func TestFlightRoundTrip(t *testing.T) {
	window := windowRecords * MaxFragment
	for _, s := range suite.All() {
		t.Run(s.Name, func(t *testing.T) {
			sizes := []int{MaxFragment + 1, window + 1}
			if s.Name == "RC4-MD5" || s.Name == "AES128-SHA" {
				// Exact-window and multi-window writes once per cipher
				// family; the boundary logic is suite-independent.
				sizes = append(sizes, window, 2*window+5)
			}
			sender, receiver, _ := flightSender(t, s)
			for _, n := range sizes {
				data := payloadOf(n)
				if err := sender.WriteRecord(TypeApplicationData, data); err != nil {
					t.Fatal(err)
				}
				var got []byte
				for len(got) < n {
					typ, payload, err := receiver.ReadRecord()
					if err != nil {
						t.Fatalf("size %d: read: %v", n, err)
					}
					if typ != TypeApplicationData {
						t.Fatalf("size %d: unexpected type %v", n, typ)
					}
					got = append(got, payload...)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("size %d: payload corrupted in flight", n)
				}
			}
		})
	}
}

// brokenWriter fails every Write.
type brokenWriter struct{ err error }

func (w brokenWriter) Write([]byte) (int, error) { return 0, w.err }

// TestFlightWriteCoalescing asserts the syscall story: one transport
// Write per window of 64 records, so 3 MiB leaves in 3 writes and one
// byte more in 4 — and a failed Write surfaces the transport's error.
func TestFlightWriteCoalescing(t *testing.T) {
	s, _ := suite.ByName("RC4-MD5")
	sender, _, buf := flightSender(t, s)
	window := windowRecords * MaxFragment
	for _, c := range []struct{ size, writes, records int }{
		{256, 1, 1},
		{3 * MaxFragment, 1, 3},
		{3 * window, 3, 3 * windowRecords},
		{window + 1, 2, windowRecords + 1},
	} {
		before, writes := sender.Stats, buf.writes
		if err := sender.WriteRecord(TypeApplicationData, payloadOf(c.size)); err != nil {
			t.Fatal(err)
		}
		if got := buf.writes - writes; got != c.writes {
			t.Errorf("%d-byte write: %d transport writes, want %d", c.size, got, c.writes)
		}
		if got := sender.Stats.WriteCalls - before.WriteCalls; got != c.writes {
			t.Errorf("%d-byte write: Stats.WriteCalls += %d, want %d", c.size, got, c.writes)
		}
		if got := sender.Stats.RecordsWritten - before.RecordsWritten; got != c.records {
			t.Errorf("%d-byte write: RecordsWritten += %d, want %d", c.size, got, c.records)
		}
	}

	broken := errors.New("transport broke")
	failing := NewLayer(struct {
		io.Reader
		io.Writer
	}{Writer: brokenWriter{broken}})
	if err := failing.WriteRecord(TypeApplicationData, payloadOf(2*window)); err != broken {
		t.Fatalf("write on a broken transport returned %v, want the transport's error", err)
	}
	if failing.Stats.WriteCalls != 1 || len(failing.Outgoing()) != 0 {
		t.Fatalf("after a failed write: %d write calls, %d bytes still queued; want 1 and 0",
			failing.Stats.WriteCalls, len(failing.Outgoing()))
	}
}

// TestFlightConcurrentLayers drives eight layers' bulk writes at once;
// they borrow their windows from the one shared pool, so under -race —
// and by checking every byte read back — this proves a window is never
// in two connections' hands.
func TestFlightConcurrentLayers(t *testing.T) {
	s, _ := suite.ByName("AES128-SHA")
	const conns = 8
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		sender, receiver, _ := flightSender(t, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := payloadOf(5*MaxFragment + 123)
			for iter := 0; iter < 10; iter++ {
				if err := sender.WriteRecord(TypeApplicationData, data); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				var got []byte
				for len(got) < len(data) {
					_, payload, err := receiver.ReadRecord()
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					got = append(got, payload...)
				}
				if !bytes.Equal(got, data) {
					t.Error("payload corrupted: a window was shared")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFlightSteadyStateAllocs checks a 1 MiB write is allocation-free
// once warm (probes off): the window comes from the pool and goes
// back. GC is disabled so AllocsPerRun cannot observe sync.Pool
// eviction refills.
func TestFlightSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race runtime allocates on sync paths")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, _ := suite.ByName("RC4-MD5")
	sender, _, _ := flightSender(t, s)
	sender.rw = struct {
		io.Reader
		io.Writer
	}{Writer: io.Discard}
	data := payloadOf(1 << 20)
	write := func() {
		if err := sender.WriteRecord(TypeApplicationData, data); err != nil {
			t.Fatal(err)
		}
	}
	write() // warm: put a window in the pool
	if allocs := testing.AllocsPerRun(20, write); allocs > 0 {
		t.Fatalf("1 MiB write allocates %.1f objects/op at steady state, want 0", allocs)
	}
}

// TestCoreWriteReservesOnce pins the outgoing buffer's economics on
// the sans-IO path: a 1 MiB write reserves once instead of regrowing
// per record, costs nothing once a window is in the pool, and the
// drained core does not keep the megabyte.
func TestCoreWriteReservesOnce(t *testing.T) {
	if testenv.Race {
		t.Skip("race runtime allocates on sync paths")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, _ := suite.ByName("AES128-SHA")
	data := payloadOf(1 << 20)
	fresh := make([]*Core, 0, 4)
	for i := 0; i < cap(fresh); i++ {
		c := NewCore()
		arm(t, s, c, NewCore())
		fresh = append(fresh, c)
	}
	next := 0
	first := testing.AllocsPerRun(len(fresh)-1, func() {
		// Left undrained, so no later run finds a window in the pool.
		fresh[next].WriteRecord(TypeApplicationData, data)
		next++
	})
	if first > 2 {
		t.Errorf("a fresh core's 1 MiB write costs %.0f allocations, want <= 2", first)
	}
	c := fresh[0]
	steady := testing.AllocsPerRun(10, func() {
		c.ConsumeOutgoing(len(c.Outgoing()))
		c.WriteRecord(TypeApplicationData, data)
	})
	if steady > 0 {
		t.Errorf("a drained core's 1 MiB write costs %.1f allocations at steady state, want 0", steady)
	}
	c.ConsumeOutgoing(len(c.Outgoing()))
	if kept := cap(c.outgoing); kept > 17<<10 {
		t.Errorf("drained core retains a %d-byte outgoing buffer, want <= 17 KB", kept)
	}
}

// readTrace is what a receiver saw: every record, then how it ended.
type readTrace struct {
	payloads [][]byte
	err      error
}

// readAll opens records from r until the first error.
func readAll(r interface {
	ReadRecord() (ContentType, []byte, error)
}) (tr readTrace) {
	for {
		_, payload, err := r.ReadRecord()
		if err != nil {
			tr.err = err
			return tr
		}
		tr.payloads = append(tr.payloads, append([]byte{}, payload...))
	}
}

// countingReader counts the Reads a transport served.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestLayerReadPump covers the read side of the pump: however the
// transport slices the stream the same records come out, a Read that
// carries several records serves them all, and a stream that ends
// reports io.EOF at a record boundary and io.ErrUnexpectedEOF inside a
// record.
func TestLayerReadPump(t *testing.T) {
	s, _ := suite.ByName("AES128-SHA")
	sender := NewCore()
	arm(t, s, sender, NewCore())
	sent := [][]byte{payloadOf(MaxFragment), payloadOf(1), payloadOf(300), payloadOf(77)}
	var ends []int // wire offset at which each record ends
	for _, p := range sent {
		sender.WriteRecord(TypeApplicationData, p)
		ends = append(ends, len(sender.Outgoing()))
	}
	wire := sender.Outgoing()
	receiver := func(transport io.Reader) *Layer {
		l := NewLayer(struct {
			io.Reader
			io.Writer
		}{Reader: transport, Writer: io.Discard})
		arm(t, s, NewCore(), l)
		return l
	}
	check := func(what string, got readTrace, records int, end error) {
		t.Helper()
		if got.err != end {
			t.Errorf("%s: ended with %v, want %v", what, got.err, end)
		}
		if len(got.payloads) != records {
			t.Fatalf("%s: %d records, want %d", what, len(got.payloads), records)
		}
		for i, p := range got.payloads {
			if !bytes.Equal(p, sent[i]) {
				t.Errorf("%s: record %d corrupted", what, i)
			}
		}
	}

	check("one byte per Read", readAll(receiver(iotest.OneByteReader(bytes.NewReader(wire)))), 4, io.EOF)

	// The first record, a full-size one, costs two Reads (firstRead
	// bytes, then the rest of the body the header asks for); the buffer
	// is then big enough that the three small records arrive in one
	// Read; the fourth Read finds the end.
	counted := &countingReader{r: bytes.NewReader(wire)}
	check("whole stream available", readAll(receiver(counted)), 4, io.EOF)
	if counted.reads != 4 {
		t.Errorf("whole stream available: %d transport Reads, want 4", counted.reads)
	}

	// A stream of small records is one Read, where a 5-byte header read
	// and then exactly the record made the first record alone cost two.
	smallSender := NewCore()
	arm(t, s, smallSender, NewCore())
	for _, p := range sent[1:] {
		smallSender.WriteRecord(TypeApplicationData, p)
	}
	small := receiver(bytes.NewReader(smallSender.Outgoing()))
	for _, p := range sent[1:] {
		if typ, payload, err := small.ReadRecord(); err != nil || typ != TypeApplicationData || !bytes.Equal(payload, p) {
			t.Fatalf("small records: read %v %x, %v", typ, payload, err)
		}
	}
	if small.Stats.ReadCalls != 1 {
		t.Errorf("small records available: %d transport Reads, want 1", small.Stats.ReadCalls)
	}

	check("ends at a record boundary", readAll(receiver(bytes.NewReader(wire[:ends[1]]))), 2, io.EOF)
	check("ends mid-header", readAll(receiver(bytes.NewReader(wire[:ends[1]+3]))), 2, io.ErrUnexpectedEOF)
	check("ends mid-body", readAll(receiver(bytes.NewReader(wire[:ends[2]-10]))), 2, io.ErrUnexpectedEOF)
	check("ends after a header", readAll(receiver(bytes.NewReader(wire[:ends[1]+headerLen]))), 2, io.ErrUnexpectedEOF)
	check("ends inside the first header", readAll(receiver(bytes.NewReader(wire[:2]))), 0, io.ErrUnexpectedEOF)
	check("empty stream", readAll(receiver(bytes.NewReader(nil))), 0, io.EOF)
}
