package telemetry_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sslperf/internal/aes"
	"sslperf/internal/aessha1"
	"sslperf/internal/cpufeat"
	"sslperf/internal/lifecycle"
	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/sha1x"
	"sslperf/internal/telemetry"
)

// The live Table 11 is the registry's fold of every connection's record
// crypto; these tests drive it the way connections do, through a bus
// whose one sink is the connection's conn-table entry.

// newConn opens one connection on tab and returns its bus and its
// close.
func newConn(tab *lifecycle.Table) (b *probe.Bus, closeConn func()) {
	b = probe.NewBus(tab.Observe())
	b.ConnOpen("server", "test")
	b.HandshakeStart("server")
	return b, b.ConnClose
}

// emitRecord pushes one record-crypto pass through the bus, so its
// step attribution is the spine's.
func emitRecord(b *probe.Bus, op probe.RecordOp, prim string, bytes int) {
	b.RecordCrypto(op, prim, bytes, b.Stamp())
}

func newRegistryTable() (*lifecycle.Table, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	return lifecycle.NewTable(lifecycle.Options{Registry: reg}), reg
}

func TestCollectorFoldsPrimitives(t *testing.T) {
	tab, reg := newRegistryTable()
	b, closeConn := newConn(tab)
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 1000)
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 24)
	emitRecord(b, probe.OpMACCompute, "MD5", 1000)
	emitRecord(b, probe.OpCipherDecrypt, "AES", 512)
	closeConn()

	s := reg.Pathlength()
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
	if rc4.CyclesPerByte <= 0 || rc4.MBps <= 0 {
		t.Errorf("RC4 cycles/byte = %v, MB/s = %v, want both > 0", rc4.CyclesPerByte, rc4.MBps)
	}
	if len(rc4.ByOp) != 1 || rc4.ByOp[0].Op != "cipher_encrypt" || rc4.ByOp[0].Bytes != 1024 {
		t.Errorf("RC4 by op = %+v, want one cipher_encrypt cell of 1024 bytes", rc4.ByOp)
	}
	if md5, ok := s.Prim("MD5"); !ok || md5.Bytes != 1000 {
		t.Errorf("MD5 row = %+v ok=%v, want 1000 bytes", md5, ok)
	}
	if aes, ok := s.Prim("AES"); !ok || aes.Ops != 1 || aes.Bytes != 512 {
		t.Errorf("AES row = %+v ok=%v, want 1 op / 512 bytes", aes, ok)
	}
	if s.Bulk == nil || s.Bulk.Ops != 4 || s.Bulk.Bytes != 2536 {
		t.Errorf("bulk row = %+v, want all 4 passes, 2536 bytes", s.Bulk)
	}
}

// TestCollectorStepAttribution pins where a pass lands: outside any
// step on the bulk row, inside one on that step's /debug/anatomy row
// once the handshake folds.
func TestCollectorStepAttribution(t *testing.T) {
	tab, reg := newRegistryTable()
	b, closeConn := newConn(tab)
	defer closeConn()
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 100)
	b.StepEnter(probe.StepSendFinished)
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 64)
	b.StepExit()
	b.HandshakeDone("RC4-MD5", 0x0300, false)

	if bulk := reg.Pathlength().Bulk; bulk == nil || bulk.Bytes != 100 {
		t.Errorf("bulk row = %+v, want 100 crypto bytes", bulk)
	}
	if rc4, _ := reg.Pathlength().Prim("RC4"); rc4.Bytes != 164 {
		t.Errorf("RC4 row = %+v, want 164 bytes in and out of the step", rc4)
	}
	sf, ok := anatomyStep(reg, probe.StepSendFinished)
	if !ok {
		t.Fatal("no send_finished row")
	}
	if sf.CryptoBytes != 64 || sf.Count != 1 || sf.CryptoCycPerByte <= 0 {
		t.Errorf("send_finished = %+v, want 64 crypto bytes at > 0 cyc/B, count 1", sf)
	}
}

// anatomyStep returns step's /debug/anatomy row, if a handshake ran it.
func anatomyStep(reg *telemetry.Registry, step probe.Step) (telemetry.AnatomyStep, bool) {
	for _, row := range reg.Anatomy().Steps {
		if row.Name == step.Name() {
			return row, true
		}
	}
	return telemetry.AnatomyStep{}, false
}

func TestCollectorUnknownPrimFoldsToOther(t *testing.T) {
	tab, reg := newRegistryTable()
	b, closeConn := newConn(tab)
	emitRecord(b, probe.OpCipherEncrypt, "CHACHA20", 10)
	closeConn()
	if row, ok := reg.Pathlength().Prim("other"); !ok || row.Bytes != 10 {
		t.Errorf("unknown primitive not folded to other: %+v ok=%v", row, ok)
	}
}

func TestCollectorReset(t *testing.T) {
	tab, reg := newRegistryTable()
	b, closeConn := newConn(tab)
	b.StepEnter(probe.StepSendFinished)
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 64)
	b.StepExit()
	b.HandshakeDone("RC4-MD5", 0x0300, false)
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 100)
	closeConn()
	reg.Reset()
	if s := reg.Pathlength(); len(s.Prims) != 0 || s.Bulk != nil {
		t.Errorf("reset left record crypto: %+v", s)
	}
	if a := reg.Anatomy(); len(a.Steps) != 0 {
		t.Errorf("reset left step rows: %+v", a.Steps)
	}
}

// TestCollectorConcurrent folds into one registry from many goroutines
// while another reads — the shape the race gate (make check) exercises:
// connections closing concurrently under a scrape.
func TestCollectorConcurrent(t *testing.T) {
	tab, reg := newRegistryTable()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, closeConn := newConn(tab)
			for i := 0; i < per; i++ {
				b.StepEnter(probe.StepSendFinished)
				emitRecord(b, probe.OpMACCompute, "SHA-1", 64)
				b.StepExit()
				emitRecord(b, probe.OpCipherEncrypt, "AES", 1024)
				if i%50 == 0 {
					closeConn()
					reg.Pathlength()
					b, closeConn = newConn(tab)
				}
			}
			closeConn()
		}()
	}
	wg.Wait()
	s := reg.Pathlength()
	aes, _ := s.Prim("AES")
	sha, _ := s.Prim("SHA-1")
	if want := uint64(workers * per); aes.Ops != want || sha.Ops != want {
		t.Errorf("ops = %d/%d, want %d", aes.Ops, sha.Ops, workers*per)
	}
	if want := uint64(workers * per * 1024); aes.Bytes != want || s.Bulk.Bytes != want {
		t.Errorf("AES bytes = %d, bulk bytes = %d, want %d", aes.Bytes, s.Bulk.Bytes, want)
	}
}

// TestCollectorStitchedPrimHasOwnRow pins where a stitched seal's one
// event lands: its own AES+SHA-1 row, not folded into AES, SHA-1 or
// other, naming the stitched kernel.
func TestCollectorStitchedPrimHasOwnRow(t *testing.T) {
	tab, reg := newRegistryTable()
	b, closeConn := newConn(tab)
	emitRecord(b, probe.OpCipherEncrypt, record.PrimAESSHA1, 100)
	closeConn()
	s := reg.Pathlength()
	row, ok := s.Prim(record.PrimAESSHA1)
	if !ok || row.Bytes != 100 || row.Ops != 1 {
		t.Fatalf("stitched seal row = %+v ok=%v, want one op of 100 bytes", row, ok)
	}
	if row.Kernel != aessha1.Kernel() {
		t.Errorf("stitched seal row kernel = %q, want %q", row.Kernel, aessha1.Kernel())
	}
	for _, name := range []string{"AES", "SHA-1", "other"} {
		if r, ok := s.Prim(name); ok {
			t.Errorf("stitched seal also counted under %s: %+v", name, r)
		}
	}
}

// TestPathlengthNamesKernel pins that a row describes the code that
// ran: AES, SHA-1 and AES+SHA-1 name their kernel (AESENC on a CPU with
// AES-NI), and no row carries an instructions/byte or CPI borrowed from
// the abstract-instruction model of another kernel.
func TestPathlengthNamesKernel(t *testing.T) {
	tab, reg := newRegistryTable()
	b, closeConn := newConn(tab)
	emitRecord(b, probe.OpCipherEncrypt, "AES", 1024)
	emitRecord(b, probe.OpMACCompute, "SHA-1", 1024)
	emitRecord(b, probe.OpCipherEncrypt, record.PrimAESSHA1, 1024)
	closeConn()

	mux := http.NewServeMux()
	telemetry.Register(mux, reg)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pathlength", nil))
	body := rec.Body.String()
	for _, field := range []string{"instr_per_byte", "model_cpi"} {
		if strings.Contains(body, field) {
			t.Errorf("/debug/pathlength carries %s: %s", field, body)
		}
	}
	var s telemetry.Pathlength
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"AES": aes.Kernel(), "SHA-1": sha1x.Kernel(), record.PrimAESSHA1: aessha1.Kernel()}
	if cpufeat.X86.AES && want["AES"] != "AESENC" {
		t.Fatalf("aes.Kernel() = %q on a CPU with AES-NI", want["AES"])
	}
	for name, kernel := range want {
		if row, ok := s.Prim(name); !ok || row.Kernel != kernel || kernel == "" {
			t.Errorf("%s row = %+v ok=%v, want kernel %q", name, row, ok, kernel)
		}
	}
	text := reg.Pathlength().Text()
	if !strings.Contains(text, aes.Kernel()) || strings.Contains(text, "instr/B") {
		t.Errorf("text does not name the AES kernel, or carries instr/B:\n%s", text)
	}
}

func TestPathlengthRenderers(t *testing.T) {
	tab, reg := newRegistryTable()
	b, closeConn := newConn(tab)
	b.StepEnter(probe.StepGetFinished)
	emitRecord(b, probe.OpMACVerify, "SHA-1", 36)
	b.StepExit()
	b.HandshakeDone("RC4-SHA", 0x0300, false)
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 4096)
	closeConn()

	s := reg.Pathlength()
	text := s.Text()
	for _, want := range []string{"RC4", "SHA-1", "continuous Table 11", "mac_verify", probe.LabelBulk} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("page does not marshal: %v", err)
	}
	if s.ModelGHz != perf.ModelGHz {
		t.Errorf("page GHz = %v, want %v", s.ModelGHz, perf.ModelGHz)
	}
	if text := reg.Anatomy().Text(); !strings.Contains(text, "crypto cyc/B") {
		t.Errorf("anatomy text has no per-step crypto columns:\n%s", text)
	}
}

func TestHTTPEndpoint(t *testing.T) {
	tab, reg := newRegistryTable()
	b, closeConn := newConn(tab)
	emitRecord(b, probe.OpCipherEncrypt, "RC4", 100)
	closeConn()

	mux := http.NewServeMux()
	telemetry.Register(mux, reg)
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

	// The endpoint has no reset of its own: /debug/reset covers it.
	resp, err = http.Post(srv.URL+"/debug/pathlength/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/pathlength/reset status = %d, want 404", resp.StatusCode)
	}
}

// TestStepExitDurationFolds pins that a step's wall time is the spine's
// StepExit duration, not a clock read of the record's own.
func TestStepExitDurationFolds(t *testing.T) {
	tab, reg := newRegistryTable()
	sink := tab.Observe()
	sink.Emit(probe.Event{Kind: probe.KindConnOpen, Conn: connIDs.Add(1), Fn: "server"})
	sink.Emit(probe.Event{Kind: probe.KindStepEnter, Step: probe.StepInit})
	sink.Emit(probe.Event{Kind: probe.KindStepExit, Step: probe.StepInit, Dur: 5 * time.Millisecond})
	sink.Emit(probe.Event{Kind: probe.KindHandshakeDone, Fn: "RC4-MD5", Version: 0x0300})
	row, ok := anatomyStep(reg, probe.StepInit)
	if want := perf.Cycles(5*time.Millisecond) / 1000; !ok || row.Count != 1 || row.MeanKcyc != want {
		t.Errorf("init row = %+v ok=%v, want one step of %v kcycles", row, ok, want)
	}
}
