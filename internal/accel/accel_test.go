package accel

import (
	"testing"
	"time"

	"sslperf/internal/aes"
	"sslperf/internal/md5x"
	"sslperf/internal/perf"
	"sslperf/internal/sha1x"
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

// TestComponentTimesAndModel holds the Figure 6 model over two unit
// (component) times: overlapping them can at most halve their sum.
func TestComponentTimesAndModel(t *testing.T) {
	// Overlap of two positive components is > 1x and <= 2x.
	if s := ModelOverlapSpeedup(3*time.Millisecond, time.Millisecond); s <= 1.0 || s > 2.0 {
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
