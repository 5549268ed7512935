package perf

import (
	"strings"
	"testing"
	"time"
)

func TestCyclesRoundTrip(t *testing.T) {
	d := 100 * time.Microsecond
	c := Cycles(d)
	if c <= 0 {
		t.Fatalf("Cycles(%v) = %v, want > 0", d, c)
	}
	back := Duration(c)
	if diff := back - d; diff > time.Microsecond || diff < -time.Microsecond {
		t.Fatalf("Duration(Cycles(%v)) = %v, want ~%v", d, back, d)
	}
}

func TestCyclesScalesWithModelGHz(t *testing.T) {
	if got := Cycles(time.Nanosecond); got != 2.26 {
		t.Fatalf("Cycles(1ns) = %v, want 2.26 (ModelGHz)", got)
	}
}

func TestBreakdownBasics(t *testing.T) {
	b := NewBreakdown()
	b.Add("a", 10*time.Millisecond)
	b.Add("b", 30*time.Millisecond)
	b.Add("a", 10*time.Millisecond)
	if got := b.Elapsed("a"); got != 20*time.Millisecond {
		t.Fatalf("Elapsed(a) = %v, want 20ms", got)
	}
	if got := b.Total(); got != 50*time.Millisecond {
		t.Fatalf("Total = %v, want 50ms", got)
	}
	if got := b.Percent("b"); got != 60 {
		t.Fatalf("Percent(b) = %v, want 60", got)
	}
	names := b.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v, want [a b]", names)
	}
}

func TestBreakdownEmptyPercent(t *testing.T) {
	b := NewBreakdown()
	if got := b.Percent("missing"); got != 0 {
		t.Fatalf("Percent on empty = %v, want 0", got)
	}
}

func TestBreakdownScale(t *testing.T) {
	b := NewBreakdown()
	b.Add("a", 100*time.Millisecond)
	b.Scale(10)
	if got := b.Elapsed("a"); got != 10*time.Millisecond {
		t.Fatalf("after Scale(10): %v, want 10ms", got)
	}
}

func TestBreakdownScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(0) did not panic")
		}
	}()
	NewBreakdown().Scale(0)
}

func TestBreakdownSortedByElapsed(t *testing.T) {
	b := NewBreakdown()
	b.Add("small", time.Millisecond)
	b.Add("big", time.Second)
	s := b.SortedByElapsed()
	if s[0].Name != "big" {
		t.Fatalf("sorted[0] = %q, want big", s[0].Name)
	}
}

func TestBreakdownString(t *testing.T) {
	b := NewBreakdown()
	b.Add("step1", time.Millisecond)
	out := b.String()
	if !strings.Contains(out, "step1") || !strings.Contains(out, "total") {
		t.Fatalf("String() missing expected content:\n%s", out)
	}
}

func TestTraceCountsAndTotal(t *testing.T) {
	var tr Trace
	tr.Emit(OpXor, 10)
	tr.Emit(OpXor, 1)
	tr.Emit(OpMul, 5)
	if got := tr.Count(OpXor); got != 11 {
		t.Fatalf("Count(xor) = %d, want 11", got)
	}
	if got := tr.Total(); got != 16 {
		t.Fatalf("Total = %d, want 16", got)
	}
}

func TestTracePathLength(t *testing.T) {
	var tr Trace
	tr.Emit(OpAdd, 200)
	tr.Bytes = 100
	if got := tr.PathLength(); got != 2.0 {
		t.Fatalf("PathLength = %v, want 2", got)
	}
	var empty Trace
	if got := empty.PathLength(); got != 0 {
		t.Fatalf("empty PathLength = %v, want 0", got)
	}
}

func TestTraceCPIBounds(t *testing.T) {
	var tr Trace
	tr.Emit(OpXor, 50)
	tr.Emit(OpLoad, 30)
	tr.Emit(OpAdd, 20)
	cpi := tr.CPI()
	if cpi < 0.3 || cpi > 1.0 {
		t.Fatalf("CPI = %v, want within the paper's compute-bound band", cpi)
	}
	var empty Trace
	if empty.CPI() != 0 {
		t.Fatalf("empty CPI = %v, want 0", empty.CPI())
	}
}

func TestTraceMulRaisesCPI(t *testing.T) {
	var logical, mul Trace
	logical.Emit(OpXor, 100)
	mul.Emit(OpMul, 100)
	if mul.CPI() <= logical.CPI() {
		t.Fatalf("mul CPI %v should exceed xor CPI %v (paper: RSA highest CPI)",
			mul.CPI(), logical.CPI())
	}
}

func TestTraceAddAndReset(t *testing.T) {
	var a, b Trace
	a.Emit(OpAnd, 3)
	a.Bytes = 10
	b.Emit(OpAnd, 2)
	b.Emit(OpOr, 1)
	b.Bytes = 5
	a.Add(&b)
	if a.Count(OpAnd) != 5 || a.Count(OpOr) != 1 || a.Bytes != 15 {
		t.Fatalf("Add merged wrong: %v", a)
	}
	a.Reset()
	if a.Total() != 0 || a.Bytes != 0 {
		t.Fatalf("Reset did not clear")
	}
}

func TestTraceMixSortedAndCoverage(t *testing.T) {
	var tr Trace
	tr.Emit(OpLoad, 50)
	tr.Emit(OpXor, 30)
	tr.Emit(OpAdd, 20)
	mix := tr.Mix()
	if len(mix) != 3 || mix[0].Op != OpLoad || mix[0].Percent != 50 {
		t.Fatalf("Mix = %+v", mix)
	}
	top, cov := tr.TopMix(2)
	if len(top) != 2 || cov != 80 {
		t.Fatalf("TopMix(2) = %+v coverage %v, want 2 entries covering 80%%", top, cov)
	}
}

func TestTraceThroughput(t *testing.T) {
	var tr Trace
	tr.Emit(OpXor, 1000)
	tr.Bytes = 1000
	mbps := tr.ThroughputMBps()
	if mbps <= 0 {
		t.Fatalf("ThroughputMBps = %v, want > 0", mbps)
	}
	var empty Trace
	if empty.ThroughputMBps() != 0 {
		t.Fatal("empty trace throughput should be 0")
	}
}

func TestOpString(t *testing.T) {
	if OpAddC.String() != "adc" {
		t.Fatalf("OpAddC = %q, want adc", OpAddC.String())
	}
	if got := Op(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("out-of-range op string = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "2.50")
	tb.AddRow("gamma") // short row padded
	out := tb.String()
	for _, want := range []string{"Table X", "alpha", "beta", "2.50", "gamma"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if n := len(tb.Rows()); n != 3 {
		t.Fatalf("len(Rows()) = %d, want 3", n)
	}
}

func TestTraceString(t *testing.T) {
	var tr Trace
	tr.Emit(OpRotate, 7)
	tr.Bytes = 7
	out := tr.String()
	if !strings.Contains(out, "rotate") || !strings.Contains(out, "path length") {
		t.Fatalf("Trace.String missing content:\n%s", out)
	}
}
