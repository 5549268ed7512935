package pathlen

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/record"
)

// newConn stands in for one connection's record: a bus over a fresh
// tally, and the fold its close performs.
func newConn(c *Collector) (b *probe.Bus, closeConn func()) {
	t := new(Tally)
	return probe.NewBus(t), func() { c.Fold(t); *t = Tally{} }
}

// emitRecord pushes one synthetic RecordCrypto event through a bus so
// the step cursor attribution matches production emission.
func emitRecord(b *probe.Bus, op probe.RecordOp, prim string, bytes int) {
	b.RecordCrypto(op, prim, bytes, b.Stamp())
}

func TestCollectorFoldsPrimitives(t *testing.T) {
	c := NewCollector()
	b, closeConn := newConn(c)

	emitRecord(b, probe.OpCipherEncrypt, "RC4", 1000)
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 24)
	emitRecord(b, probe.OpMACCompute, "MD5", 1000)
	emitRecord(b, probe.OpCipherDecrypt, "AES", 512)
	closeConn()

	s := c.Snapshot()
	rc4, ok := s.Prim("RC4")
	if !ok {
		t.Fatal("no RC4 row")
	}
	if rc4.Ops != 2 || rc4.Bytes != 1024 {
		t.Errorf("RC4 row = %d ops / %d bytes, want 2/1024", rc4.Ops, rc4.Bytes)
	}
	if rc4.BytesPerOp != 512 {
		t.Errorf("RC4 bytes/op = %v, want 512", rc4.BytesPerOp)
	}
	if rc4.CyclesPerByte <= 0 {
		t.Errorf("RC4 cycles/byte = %v, want > 0", rc4.CyclesPerByte)
	}
	if rc4.ModelCPI <= 0 || rc4.ModelInstrPerByte <= 0 || rc4.InstrPerByte <= 0 {
		t.Errorf("RC4 model columns missing: %+v", rc4)
	}
	// The paper identity: measured instr/byte = cycles/byte ÷ model CPI.
	want := rc4.CyclesPerByte / rc4.ModelCPI
	if diff := rc4.InstrPerByte - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("instr/byte = %v, want %v", rc4.InstrPerByte, want)
	}
	if md5, ok := s.Prim("MD5"); !ok || md5.Bytes != 1000 {
		t.Errorf("MD5 row = %+v ok=%v, want 1000 bytes", md5, ok)
	}
	if aes, ok := s.Prim("AES"); !ok || aes.Ops != 1 || aes.Bytes != 512 {
		t.Errorf("AES row = %+v ok=%v, want 1 op / 512 bytes", aes, ok)
	}
}

func TestCollectorStepAttribution(t *testing.T) {
	c := NewCollector()
	b, closeConn := newConn(c)

	// Bulk-phase crypto lands on the bulk row.
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 100)
	// In-step crypto lands on its step row.
	b.StepEnter(probe.StepSendFinished)
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 64)
	b.StepExit()
	closeConn()

	s := c.Snapshot()
	bulk, ok := s.Step(probe.LabelBulk)
	if !ok || bulk.CryptoBytes != 100 {
		t.Errorf("bulk row = %+v ok=%v, want 100 crypto bytes", bulk, ok)
	}
	if bulk.Class != "record" {
		t.Errorf("bulk class = %q, want record", bulk.Class)
	}
	sf, ok := s.Step(probe.StepSendFinished.Name())
	if !ok {
		t.Fatal("no send_finished row")
	}
	if sf.CryptoBytes != 64 || sf.Count != 1 {
		t.Errorf("send_finished = %+v, want 64 crypto bytes, count 1", sf)
	}
	if sf.WallNanos == 0 {
		t.Error("send_finished wall time not folded from StepExit")
	}
}

func TestCollectorUnknownPrimFoldsToOther(t *testing.T) {
	c := NewCollector()
	b, closeConn := newConn(c)
	emitRecord(b, probe.OpCipherEncrypt, "CHACHA20", 10)
	closeConn()
	if row, ok := c.Snapshot().Prim("other"); !ok || row.Bytes != 10 {
		t.Errorf("unknown primitive not folded to other: %+v ok=%v", row, ok)
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector()
	b, closeConn := newConn(c)
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 100)
	closeConn()
	c.Reset()
	s := c.Snapshot()
	if len(s.Prims) != 0 || len(s.Steps) != 0 {
		t.Errorf("reset left state: %+v", s)
	}
}

// TestCollectorConcurrent folds into one collector from many goroutines
// while another reads — the shape the race gate (make check) exercises:
// connections closing concurrently under a scrape.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, closeConn := newConn(c)
			defer closeConn()
			for i := 0; i < per; i++ {
				b.StepEnter(probe.StepSendFinished)
				emitRecord(b, probe.OpMACCompute, "SHA-1", 64)
				b.StepExit()
				emitRecord(b, probe.OpCipherEncrypt, "AES", 1024)
				if i%50 == 0 {
					closeConn()
					c.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	aes, _ := s.Prim("AES")
	sha, _ := s.Prim("SHA-1")
	if want := uint64(workers * per); aes.Ops != want || sha.Ops != want {
		t.Errorf("ops = %d/%d, want %d", aes.Ops, sha.Ops, workers*per)
	}
	if want := uint64(workers * per * 1024); aes.Bytes != want {
		t.Errorf("AES bytes = %d, want %d", aes.Bytes, want)
	}
}

// TestStepClassesCoverProbeSteps is the in-language half of
// pathlenlint: every canonical step (and StepNone) must have a row
// mapping, so a new probe.Step cannot ship without a path-length
// decision.
func TestStepClassesCoverProbeSteps(t *testing.T) {
	if _, ok := stepClasses[probe.StepNone]; !ok {
		t.Error("stepClasses missing probe.StepNone")
	}
	for _, st := range probe.Steps() {
		if _, ok := stepClasses[st]; !ok {
			t.Errorf("stepClasses missing probe.Step %q", st.Name())
		}
	}
	if len(stepClasses) != numSteps {
		t.Errorf("stepClasses has %d entries, want %d (one per probe.Step)",
			len(stepClasses), numSteps)
	}
}

// TestModelShape pins the Table 11 orderings the paper reports: RC4 is
// the cheapest symmetric cipher per byte, MD5 beats SHA-1, 3DES costs
// roughly three DES. The counting kernels are exact, so the 3DES/DES
// floor of 2 holds more than the 1.8 a measured cycles/byte ratio is
// allowed: a ratio near 1 means the triple pass collapsed.
func TestModelShape(t *testing.T) {
	get := func(name string) Model {
		m, ok := ModelFor(name)
		if !ok {
			t.Fatalf("no model for %s", name)
		}
		return m
	}
	rc4, aes, des, tdes := get("RC4"), get("AES"), get("DES"), get("3DES")
	md5, sha := get("MD5"), get("SHA-1")
	if !(rc4.CyclesPerByte < aes.CyclesPerByte) {
		t.Errorf("model RC4 (%v cyc/B) not cheaper than AES (%v)", rc4.CyclesPerByte, aes.CyclesPerByte)
	}
	if !(md5.CyclesPerByte < sha.CyclesPerByte) {
		t.Errorf("model MD5 (%v cyc/B) not cheaper than SHA-1 (%v)", md5.CyclesPerByte, sha.CyclesPerByte)
	}
	if ratio := tdes.CyclesPerByte / des.CyclesPerByte; ratio < 2 || ratio > 4 {
		t.Errorf("3DES/DES cost ratio = %v, want ~3", ratio)
	}
	if len(Models()) != 7 {
		t.Errorf("Models() = %d rows, want 7", len(Models()))
	}
}

func TestSnapshotRenderers(t *testing.T) {
	c := NewCollector()
	b, closeConn := newConn(c)
	b.StepEnter(probe.StepGetFinished)
	emitRecord(b, probe.OpMACVerify, "SHA-1", 36)
	b.StepExit()
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 4096)
	closeConn()

	s := c.Snapshot()
	text := s.Text()
	for _, want := range []string{"RC4", "SHA-1", "continuous Table 11", probe.LabelBulk} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	if s.ModelGHz != perf.ModelGHz() {
		t.Errorf("snapshot GHz = %v, want %v", s.ModelGHz, perf.ModelGHz())
	}
}

func TestHTTPEndpoint(t *testing.T) {
	c := NewCollector()
	b, closeConn := newConn(c)
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 100)
	closeConn()

	mux := http.NewServeMux()
	Register(mux, c)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/pathlength?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "RC4") {
		t.Errorf("text endpoint missing RC4 row: %s", body[:n])
	}

	resp, err = http.Get(srv.URL + "/debug/pathlength")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON content type = %q", ct)
	}
	resp.Body.Close()

	// The endpoint's own reset is gone: /debug/reset covers it.
	resp, err = http.Post(srv.URL+"/debug/pathlength/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/pathlength/reset status = %d, want 404", resp.StatusCode)
	}
}

// TestStepExitDurationFolds pins that wall time comes from the spine's
// StepExit duration, not the tally's own clock.
func TestStepExitDurationFolds(t *testing.T) {
	c := NewCollector()
	var tally Tally
	tally.Emit(probe.Event{Kind: probe.KindStepExit, Step: probe.StepInit, Dur: 5 * time.Millisecond})
	c.Fold(&tally)
	row, ok := c.Snapshot().Step(probe.StepInit.Name())
	if !ok || row.WallNanos != uint64(5*time.Millisecond) {
		t.Errorf("step row = %+v ok=%v", row, ok)
	}
}

// TestCollectorStitchedPrimHasOwnRow pins where a stitched seal's one
// event lands: its own AES+SHA-1 row, not folded into AES, SHA-1 or
// other, and with no model columns (no abstract-instruction kernel
// covers the pair).
func TestCollectorStitchedPrimHasOwnRow(t *testing.T) {
	c := NewCollector()
	b, closeConn := newConn(c)
	emitRecord(b, probe.OpCipherEncrypt, record.PrimAESSHA1, 100)
	closeConn()
	s := c.Snapshot()
	row, ok := s.Prim(record.PrimAESSHA1)
	if !ok || row.Bytes != 100 || row.Ops != 1 {
		t.Fatalf("stitched seal row = %+v ok=%v, want one op of 100 bytes", row, ok)
	}
	if row.ModelCPI != 0 || row.InstrPerByte != 0 {
		t.Errorf("stitched seal row carries model columns: %+v", row)
	}
	for _, name := range []string{"AES", "SHA-1", "other"} {
		if r, ok := s.Prim(name); ok {
			t.Errorf("stitched seal also counted under %s: %+v", name, r)
		}
	}
}
