package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
)

// TestLatHistQuantiles pins the step quantiles the profiler reports:
// they come from the observatory's one sub-octave histogram, so a
// single sample reads back within an eighth (the log2 buckets it
// replaced said 16µs for 10µs), the overflow bucket reports the
// observed max, and a spread population separates p50 from p99.
func TestLatHistQuantiles(t *testing.T) {
	step := func(samples ...time.Duration) AnatomyStep {
		p := NewProfiler()
		for _, d := range samples {
			p.Fold(&telemetry.Handshake{Steps: []telemetry.StepTiming{{Step: probe.StepInit, Dur: d}}})
		}
		return p.Snapshot().Steps[0]
	}
	one := step(10 * time.Microsecond)
	for _, q := range []time.Duration{one.P50, one.P95, one.P99} {
		if q > 10*time.Microsecond || q < 8750*time.Nanosecond {
			t.Fatalf("single-sample quantile = %v, want within an eighth below 10µs", q)
		}
	}
	if over := step(2 * time.Hour); over.P50 != 2*time.Hour {
		t.Fatalf("overflow quantile = %v, want the max", over.P50)
	}
	var spread []time.Duration
	for i := 0; i < 90; i++ {
		spread = append(spread, 5*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		spread = append(spread, 5*time.Millisecond)
	}
	s := step(spread...)
	if s.P50 < 4*time.Microsecond || s.P50 > 6*time.Microsecond {
		t.Fatalf("p50 = %v, want ~5µs", s.P50)
	}
	if s.P99 < 4*time.Millisecond {
		t.Fatalf("p99 = %v, want in the slow band", s.P99)
	}
}

func foldTestTrace(p *Profiler, stepDur, rsaDur time.Duration) {
	p.Fold(&telemetry.Handshake{
		Dur:   stepDur + time.Millisecond,
		Steps: []telemetry.StepTiming{{Step: probe.StepGetClientKX, Dur: stepDur}},
		Calls: []telemetry.Call{
			{Kind: CatCrypto, Name: probe.FnRSAPrivateDecrypt, Step: probe.StepGetClientKX, Dur: rsaDur},
			{Kind: CatIO, Name: "write", Dur: time.Millisecond},
		},
	})
}

func TestProfilerSnapshot(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 4; i++ {
		foldTestTrace(p, 10*time.Millisecond, 8*time.Millisecond)
	}
	snap := p.Snapshot()
	if snap.Traces != 4 || snap.Handshakes != 4 {
		t.Fatalf("traces/handshakes = %d/%d", snap.Traces, snap.Handshakes)
	}
	if len(snap.Steps) != 1 {
		t.Fatalf("steps = %+v", snap.Steps)
	}
	st := snap.Steps[0]
	if st.Name != "get_client_kx" || st.Count != 4 {
		t.Fatalf("step row = %+v", st)
	}
	// One step is 100% of step time; io calls don't count.
	if st.SharePct < 99.9 || st.SharePct > 100.1 {
		t.Fatalf("share = %v, want 100", st.SharePct)
	}
	if st.MeanKcyc <= 0 || st.P95 < st.P50 {
		t.Fatalf("step stats malformed: %+v", st)
	}
	if len(snap.Crypto) != 1 || snap.Crypto[0].Name != "rsa_private_decryption" {
		t.Fatalf("crypto rows = %+v", snap.Crypto)
	}
	// Categorized by probe.CategoryOf, same as the offline Table 3.
	if snap.Crypto[0].Category != "public key encryption" {
		t.Fatalf("rsa_private_decryption category = %q", snap.Crypto[0].Category)
	}
	// 8ms of 10ms step time = 80% crypto share.
	if snap.CryptoSharePct < 79 || snap.CryptoSharePct > 81 {
		t.Fatalf("crypto share = %v, want ~80", snap.CryptoSharePct)
	}
	if len(snap.Categories) != 1 || snap.Categories[0].Name != "public key encryption" {
		t.Fatalf("categories = %+v", snap.Categories)
	}
}

func TestEmptySnapshotRenders(t *testing.T) {
	p := NewProfiler()
	snap := p.Snapshot()
	if snap.Traces != 0 || len(snap.Steps) != 0 {
		t.Fatalf("empty snapshot = %+v", snap)
	}
	if txt := snap.Text(); !strings.Contains(txt, "0 sampled traces") {
		t.Fatalf("empty text rendering:\n%s", txt)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back AnatomySnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotTextTables(t *testing.T) {
	p := NewProfiler()
	foldTestTrace(p, 10*time.Millisecond, 8*time.Millisecond)
	txt := p.Snapshot().Text()
	for _, want := range []string{
		"continuous Table 2", "get_client_kx",
		"continuous Table 3", "rsa_private_decryption", "public key encryption",
		"total crypto operations",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("text missing %q:\n%s", want, txt)
		}
	}
}
