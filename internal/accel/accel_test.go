package accel

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sslperf/internal/aes"
	"sslperf/internal/md5x"
	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/sha1x"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/testenv"
)

func TestThreeOperandISAReducesWork(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace func(tr *perf.Trace)
	}{
		{"md5", func(tr *perf.Trace) { md5x.TraceHash(tr, 1024) }},
		{"sha1", func(tr *perf.Trace) { sha1x.TraceHash(tr, 1024) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before perf.Trace
			tc.trace(&before)
			after := ThreeOperandISA(&before)
			if after.Total() >= before.Total() {
				t.Fatalf("no ops removed: %d -> %d", before.Total(), after.Total())
			}
			if after.Bytes != before.Bytes {
				t.Fatal("bytes changed")
			}
			s := Speedup(&before, after)
			// Figure 4's point: a measurable but bounded win.
			if s <= 1.0 || s > 2.0 {
				t.Fatalf("speedup = %.2f, want (1, 2]", s)
			}
		})
	}
}

func TestSubtractClamps(t *testing.T) {
	var tr perf.Trace
	tr.Emit(perf.OpXor, 5)
	subtract(&tr, perf.OpXor, 100)
	if tr.Count(perf.OpXor) != 0 {
		t.Fatal("subtract did not clamp")
	}
	subtract(&tr, perf.OpXor, 0) // no-op
}

func TestAESRoundUnitSpeedup(t *testing.T) {
	c, _ := aes.New(make([]byte, 16))
	var tr perf.Trace
	c.TraceEncryptBlock(&tr)
	sw, hw := AESRoundUnit(&tr, c.Rounds())
	if hw >= sw {
		t.Fatalf("hardware unit (%.0f cyc) not faster than software (%.0f cyc)", hw, sw)
	}
	// The paper's premise: a dedicated unit wins big (one round per
	// few cycles vs dozens of instructions).
	if sw/hw < 3 {
		t.Fatalf("speedup only %.1fx; expected >3x", sw/hw)
	}
}

func newEngine(t testing.TB) *Engine {
	t.Helper()
	key := make([]byte, 16)
	iv := make([]byte, 16)
	secret := make([]byte, 20)
	for i := range secret {
		secret[i] = byte(i)
	}
	e, err := NewEngine(key, iv, secret, sslcrypto.MACSHA1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEnginePipelinedEqualsSerial(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 1024, 4096, 10000} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 31)
		}
		es := newEngine(t)
		serial, err := es.EncryptFragmentSerial(data)
		if err != nil {
			t.Fatal(err)
		}
		ep := newEngine(t)
		piped, err := ep.EncryptFragmentPipelined(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial, piped) {
			t.Fatalf("n=%d: pipelined fragment differs from serial", n)
		}
		if len(serial)%16 != 0 {
			t.Fatalf("n=%d: fragment %d not a block multiple", n, len(serial))
		}
	}
}

func TestEngineSequenceAdvances(t *testing.T) {
	e := newEngine(t)
	a, _ := e.EncryptFragmentSerial([]byte("same data"))
	b, _ := e.EncryptFragmentSerial([]byte("same data"))
	if bytes.Equal(a, b) {
		t.Fatal("identical fragments for successive records (seq not bound)")
	}
	e.Reset()
	c, _ := e.EncryptFragmentSerial([]byte("same data"))
	if !bytes.Equal(a, c) {
		t.Fatal("Reset did not rewind sequence")
	}
}

func TestComponentTimesAndModel(t *testing.T) {
	e := newEngine(t)
	mac, aes := e.ComponentTimes(make([]byte, 4096), 50)
	if mac <= 0 || aes <= 0 {
		t.Fatalf("component times: mac=%v aes=%v", mac, aes)
	}
	s := ModelOverlapSpeedup(mac, aes)
	// Overlap of two positive components is > 1x and <= 2x.
	if s <= 1.0 || s > 2.0 {
		t.Fatalf("model speedup = %.2f, want (1, 2]", s)
	}
	if ModelOverlapSpeedup(0, 0) != 0 {
		t.Fatal("degenerate case should be 0")
	}
	// Perfectly balanced units give exactly 2x.
	if got := ModelOverlapSpeedup(time.Millisecond, time.Millisecond); got != 2.0 {
		t.Fatalf("balanced speedup = %v, want 2", got)
	}
}

func TestEnginePipelinedThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	// The pipelined engine should not be slower on large fragments
	// (it overlaps ~half the work; allow generous scheduling slack).
	data := make([]byte, 16384)
	const iters = 300
	testenv.Timing(t, func() error {
		es := newEngine(t)
		start := time.Now()
		for i := 0; i < iters; i++ {
			es.EncryptFragmentSerial(data)
		}
		serial := time.Since(start)
		ep := newEngine(t)
		start = time.Now()
		for i := 0; i < iters; i++ {
			ep.EncryptFragmentPipelined(data)
		}
		piped := time.Since(start)
		if piped > serial*3/2 {
			return fmt.Errorf("pipelined (%v) much slower than serial (%v)", piped, serial)
		}
		t.Logf("serial %v, pipelined %v, speedup %.2fx", serial, piped,
			float64(serial)/float64(piped))
		return nil
	})
}

// TestEnginePipelinedSharedBreakdown checks the cross-goroutine
// attribution: the hashing-unit goroutine and the cipher unit add
// into one SharedBreakdown concurrently, and the pipelined output
// still matches the serial one.
func TestEnginePipelinedSharedBreakdown(t *testing.T) {
	mk := func() *Engine {
		e, err := NewEngine(make([]byte, 16), make([]byte, 16),
			make([]byte, 20), sslcrypto.MACSHA1)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}

	es := mk()
	want, err := es.EncryptFragmentSerial(data)
	if err != nil {
		t.Fatal(err)
	}

	ep := mk()
	breakdown := perf.NewSharedBreakdown()
	ep.Probe = probe.NewBus(breakdown)
	const iters = 50
	for i := 0; i < iters; i++ {
		ep.Reset()
		got, err := ep.EncryptFragmentPipelined(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("instrumented pipelined output differs from serial")
		}
	}
	b := breakdown.Snapshot()
	if b.Count("mac") != iters {
		t.Fatalf("mac attributions = %d, want %d", b.Count("mac"), iters)
	}
	if b.Count("aes") != 2*iters { // data blocks + tail per fragment
		t.Fatalf("aes attributions = %d, want %d", b.Count("aes"), 2*iters)
	}
	if b.Elapsed("mac") == 0 || b.Elapsed("aes") == 0 {
		t.Fatal("attributed time should be non-zero")
	}
}
