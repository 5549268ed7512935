package accel

import (
	"bytes"
	"testing"
	"time"

	"sslperf/internal/aes"
	"sslperf/internal/md5x"
	"sslperf/internal/perf"
	"sslperf/internal/sha1x"
	"sslperf/internal/sslcrypto"
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

// TestEngineStitchedEqualsSerial holds the one-pass fragment to the
// serial one across the 16- and 64-byte phase boundaries, through the
// stitched kernel wherever this CPU has it.
func TestEngineStitchedEqualsSerial(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 120, 121, 1024, 4096, 10000, 16384} {
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
		stitched, err := ep.EncryptFragmentStitched(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial, stitched) {
			t.Fatalf("n=%d: stitched fragment differs from serial", n)
		}
		if len(serial)%16 != 0 {
			t.Fatalf("n=%d: fragment %d not a block multiple", n, len(serial))
		}
	}
	md5, err := NewEngine(make([]byte, 16), make([]byte, 16), make([]byte, 16), sslcrypto.MACMD5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := md5.EncryptFragmentStitched([]byte("data")); err == nil {
		t.Fatal("stitched fragment accepted an MD5 MAC")
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
