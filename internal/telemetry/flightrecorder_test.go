package telemetry_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
)

// The flight recorder is the conn table's ring of closed records (and
// its open entries), rendered per connection; these tests drive it the
// way connections do, through the table.

var connIDs atomic.Uint64

// open starts one connection's life on tab: open, handshake start, the
// init step with one crypto call inside it.
func open(tab *lifecycle.Table, remote string) (probe.Sink, uint64) {
	sink, id := tab.Observe(), connIDs.Add(1)
	at := time.Now()
	sink.Emit(probe.Event{Kind: probe.KindConnOpen, Conn: id, Fn: "server", Detail: remote, At: at})
	sink.Emit(probe.Event{Kind: probe.KindHandshakeStart, Conn: id, Fn: "server", At: at})
	sink.Emit(probe.Event{Kind: probe.KindStepEnter, Conn: id, Step: probe.StepInit, At: at})
	sink.Emit(probe.Event{Kind: probe.KindCrypto, Conn: id, Step: probe.StepInit, Fn: probe.FnInitFinishedMac, At: at, Dur: time.Microsecond})
	return sink, id
}

// finish completes and closes a connection begun by open.
func finish(sink probe.Sink, id uint64) {
	at := time.Now()
	sink.Emit(probe.Event{Kind: probe.KindStepExit, Conn: id, Step: probe.StepInit, At: at, Dur: 2 * time.Microsecond})
	sink.Emit(probe.Event{Kind: probe.KindHandshakeDone, Conn: id, Fn: "RC4-MD5", Version: 0x0300, At: at, Dur: time.Millisecond})
	sink.Emit(probe.Event{Kind: probe.KindConnClose, Conn: id, At: at})
}

func newTable(ring int) (*lifecycle.Table, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	return lifecycle.NewTable(lifecycle.Options{
		Registry:    reg,
		SampleEvery: 1,
		Ring:        ring,
	}), reg
}

// checkRing asserts the ring's contract: at most size closed records,
// oldest first, each a whole life.
func checkRing(t *testing.T, tab *lifecycle.Table, size int) []lifecycle.Record {
	t.Helper()
	recs := tab.Records(0)
	if len(recs) > size {
		t.Fatalf("ring of %d retains %d records", size, len(recs))
	}
	for i, r := range recs {
		if i > 0 && r.ID <= recs[i-1].ID {
			t.Fatalf("records out of order: conn %d follows %d", r.ID, recs[i-1].ID)
		}
		if r.State != "closed" || len(r.Steps) != 1 || len(r.Calls) != 1 || r.HandshakeUs != 1000 {
			t.Fatalf("conn %d is not one whole life: %+v", r.ID, r)
		}
	}
	return recs
}

func TestFlightRecorderRingEviction(t *testing.T) {
	tab, reg := newTable(4)
	var ids []uint64
	for i := 0; i < 10; i++ {
		sink, id := open(tab, "")
		finish(sink, id)
		ids = append(ids, id)
	}
	recs := checkRing(t, tab, 4)
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	for i, r := range recs {
		if r.ID != ids[6+i] {
			t.Fatalf("record %d is conn %d, want %d (oldest-first, newest four)", i, r.ID, ids[6+i])
		}
	}
	if one := tab.Records(ids[8]); len(one) != 1 || one[0].ID != ids[8] {
		t.Fatalf("conn filter returned %+v", one)
	}
	if gone := tab.Records(ids[0]); len(gone) != 0 {
		t.Fatalf("evicted conn still rendered: %+v", gone)
	}
	// The ring reports itself on /metrics.
	if o := reg.Snapshot().Observatory; o.RecordsRetained != 4 || o.RecordsEvicted != 6 {
		t.Fatalf("observatory = %+v, want 4 retained / 6 evicted", o)
	}
}

// TestFlightRecorderConcurrentWraparound closes connections into a
// small ring from many goroutines so it wraps dozens of times under a
// concurrent reader, then checks the ordering contract survived.
func TestFlightRecorderConcurrentWraparound(t *testing.T) {
	const (
		size    = 64
		writers = 8
		each    = 500
	)
	tab, reg := newTable(size)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sink, id := open(tab, "")
				finish(sink, id)
				if i%100 == 0 {
					tab.Records(0)
				}
			}
		}()
	}
	wg.Wait()

	if recs := checkRing(t, tab, size); len(recs) != size {
		t.Fatalf("retained %d records, want a full ring of %d", len(recs), size)
	}
	if o := reg.Snapshot().Observatory; o.RecordsEvicted != writers*each-size {
		t.Fatalf("evicted %d, want %d", o.RecordsEvicted, writers*each-size)
	}
	if c := reg.Counts(); c.Connections != writers*each || c.HandshakesFull != writers*each {
		t.Fatalf("registry folded %d connections / %d handshakes, want %d each", c.Connections, c.HandshakesFull, writers*each)
	}
}

// TestFlightRecorderResetUnderLoad interleaves resets with concurrent
// closes: whatever the interleaving, the ring must end sound.
func TestFlightRecorderResetUnderLoad(t *testing.T) {
	const size = 32
	tab, _ := newTable(size)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				sink, id := open(tab, "")
				finish(sink, id)
				if i%97 == 0 {
					tab.Reset()
				}
			}
		}()
	}
	wg.Wait()
	checkRing(t, tab, size)

	// Refill past one revolution so the full-ring branch is exercised
	// post-reset.
	for i := 0; i < 2*size; i++ {
		sink, id := open(tab, "")
		finish(sink, id)
	}
	if recs := checkRing(t, tab, size); len(recs) != size {
		t.Fatalf("ring not full after refill: %d", len(recs))
	}
}

func TestFlightRecorderResetKeepsSlotInvariant(t *testing.T) {
	tab, _ := newTable(4)
	for i := 0; i < 6; i++ {
		sink, id := open(tab, "pre")
		finish(sink, id)
	}
	tab.Reset()
	if recs := tab.Records(0); len(recs) != 0 {
		t.Fatalf("%d records after reset", len(recs))
	}
	// Refill past capacity: ordering must survive the wrap.
	for i := 0; i < 6; i++ {
		sink, id := open(tab, string(rune('a'+i)))
		finish(sink, id)
	}
	recs := checkRing(t, tab, 4)
	if len(recs) != 4 || recs[3].Remote != "f" || recs[0].Remote != "c" {
		t.Fatalf("retained %+v, want remotes c..f", recs)
	}
}

func get(t *testing.T, h http.Handler, url string, v any) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	if v != nil {
		if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", url, err, w.Body.String())
		}
	}
	return w
}

func TestFlightRecorderEndpoint(t *testing.T) {
	tab, _ := newTable(8)
	h := http.NewServeMux()
	lifecycle.Register(h, tab)
	_, first := open(tab, "10.0.0.1:1")
	sink, second := open(tab, "10.0.0.2:2")
	finish(sink, second)

	var all []lifecycle.Record
	get(t, h, "/debug/flightrecorder", &all)
	if len(all) != 2 {
		t.Fatalf("records = %d, want 2 (one open, one closed)", len(all))
	}

	var one []lifecycle.Record
	get(t, h, "/debug/flightrecorder?conn="+jsonNum(first), &one)
	if len(one) != 1 || one[0].Step != "init" || one[0].State != "handshaking" ||
		len(one[0].Calls) != 1 || one[0].Calls[0].Name != probe.FnInitFinishedMac {
		t.Fatalf("open conn record = %+v", one)
	}

	var tail []lifecycle.Record
	get(t, h, "/debug/flightrecorder?last=1", &tail)
	if len(tail) != 1 || tail[0].ID != second {
		t.Fatalf("tail = %+v", tail)
	}

	text := get(t, h, "/debug/flightrecorder?format=text", nil).Body.String()
	for _, want := range []string{"conn " + jsonNum(second) + " server 10.0.0.2:2 closed", "handshake_start",
		"step init 2.0us", "crypto init_finished_mac 1.0us", "handshake_done", "close"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text rendering missing %q:\n%s", want, text)
		}
	}

	for _, url := range []string{"/debug/flightrecorder?conn=zzz", "/debug/flightrecorder?conn=0"} {
		if w := get(t, h, url, nil); w.Code != 400 {
			t.Fatalf("%s status = %d, want 400", url, w.Code)
		}
	}
}

func jsonNum(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestFlightRecorderEmptyAndLastEdges(t *testing.T) {
	tab, _ := newTable(8)
	h := http.NewServeMux()
	lifecycle.Register(h, tab)

	// Empty recorder: a JSON array, not null.
	if body := strings.TrimSpace(get(t, h, "/debug/flightrecorder", nil).Body.String()); body != "[]" {
		t.Fatalf("empty recorder body = %q, want []", body)
	}

	open(tab, "")

	// last larger than the record count returns everything.
	var all []lifecycle.Record
	get(t, h, "/debug/flightrecorder?last=999", &all)
	if len(all) != 1 {
		t.Fatalf("last=999 returned %d records, want 1", len(all))
	}

	// last=0 truncates to nothing, still a JSON array.
	if body := strings.TrimSpace(get(t, h, "/debug/flightrecorder?last=0", nil).Body.String()); body != "[]" {
		t.Fatalf("last=0 body = %q, want []", body)
	}

	// Malformed last values are rejected.
	for _, url := range []string{"/debug/flightrecorder?last=-1", "/debug/flightrecorder?last=zzz"} {
		if w := get(t, h, url, nil); w.Code != 400 {
			t.Errorf("%s status = %d, want 400", url, w.Code)
		}
	}
}
