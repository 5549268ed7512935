package lifecycle_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
)

// The live anatomy is the metrics registry's fold of what the sampler
// decides: every handshake's step timeline goes into the Table 2 rows,
// and the crypto calls of the connections the sampler keeps go into the
// Table 3 rows. These tests drive connections through a sampling table
// and read the result back from telemetry.Registry.Anatomy and
// /debug/anatomy.

// anatomyHandshake runs one server connection whose only step,
// get_client_kx, takes stepDur and holds an rsaDur RSA private
// decryption, then an application write that no anatomy row counts.
func anatomyHandshake(tab *lifecycle.Table, stepDur, rsaDur time.Duration) {
	c := begin(tab)
	c.Emit(probe.Event{Kind: probe.KindHandshakeStart, Fn: "server", At: time.Now()})
	step(c, probe.StepGetClientKX, stepDur,
		probe.Event{Kind: probe.KindCrypto, Fn: probe.FnRSAPrivateDecrypt, Dur: rsaDur})
	c.Emit(probe.Event{Kind: probe.KindAppIO, Written: true, Bytes: 1, At: time.Now(), Dur: time.Millisecond})
	done(c, "RC4-MD5")
	end(c)
}

// getAnatomy serves /debug/anatomy from reg and decodes it.
func getAnatomy(t *testing.T, reg *telemetry.Registry) telemetry.Anatomy {
	t.Helper()
	mux := http.NewServeMux()
	telemetry.Register(mux, reg)
	rec, body := getOK(t, mux, "/debug/anatomy")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var a telemetry.Anatomy
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAnatomySampledStepsCountEveryHandshake: under 1-in-4 sampling
// the step rows still count all sixteen handshakes, the crypto rows
// four, and the crypto share reads what it reads with every connection
// kept — it divides by the sampled handshakes' own step time.
func TestAnatomySampledStepsCountEveryHandshake(t *testing.T) {
	read := func(every int) telemetry.Anatomy {
		tab, _, reg := newTable(every, 0)
		for i := 0; i < 16; i++ {
			anatomyHandshake(tab, 10*time.Millisecond, 8*time.Millisecond)
		}
		return getAnatomy(t, reg)
	}
	all, quarter := read(1), read(4)
	if len(quarter.Steps) != 1 || quarter.Steps[0].Count != 16 || quarter.Handshakes != 16 {
		t.Fatalf("1-in-4 step rows = %+v over %d handshakes, want one row counting 16", quarter.Steps, quarter.Handshakes)
	}
	if quarter.Sampled != 4 || len(quarter.Crypto) != 1 || quarter.Crypto[0].Count != 4 {
		t.Fatalf("1-in-4 sampled %d, crypto rows %+v, want 4 sampled RSA decryptions", quarter.Sampled, quarter.Crypto)
	}
	if all.Sampled != 16 || all.CryptoSharePct != 80 || quarter.CryptoSharePct != all.CryptoSharePct {
		t.Fatalf("crypto share: 1-in-4 %v%%, every connection %v%% (%d sampled), want both 80%%",
			quarter.CryptoSharePct, all.CryptoSharePct, all.Sampled)
	}
	if quarter.Crypto[0].MeanKcyc != all.Crypto[0].MeanKcyc || quarter.Steps[0].SharePct != 100 {
		t.Fatalf("per-handshake rows moved with sampling: %+v vs %+v", quarter, all)
	}
}

// TestLatHistQuantiles pins the step quantiles the anatomy reports:
// they come from the observatory's one sub-octave histogram, so a
// single sample reads back within an eighth (the log2 buckets it
// replaced said 16µs for 10µs), the overflow bucket reports the
// observed max, and a spread population separates p50 from p99.
func TestLatHistQuantiles(t *testing.T) {
	step := func(samples ...time.Duration) telemetry.AnatomyStep {
		reg := telemetry.NewRegistry()
		for _, d := range samples {
			reg.FoldHandshake(&telemetry.Handshake{Steps: []telemetry.StepTiming{{Step: probe.StepInit, Dur: d}}})
		}
		return reg.Anatomy().Steps[0]
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

// TestProfilerSnapshot: the anatomy of four sampled handshakes, each a
// 10 ms step holding an 8 ms RSA decryption.
func TestProfilerSnapshot(t *testing.T) {
	tab, _, reg := newTable(1, 0)
	for i := 0; i < 4; i++ {
		anatomyHandshake(tab, 10*time.Millisecond, 8*time.Millisecond)
	}
	snap := reg.Anatomy()
	if snap.Handshakes != 4 || snap.Sampled != 4 {
		t.Fatalf("handshakes/sampled = %d/%d", snap.Handshakes, snap.Sampled)
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
	snap := telemetry.NewRegistry().Anatomy()
	if snap.Handshakes != 0 || len(snap.Steps) != 0 {
		t.Fatalf("empty anatomy = %+v", snap)
	}
	if txt := snap.Text(); !strings.Contains(txt, "0 handshakes, 0 sampled") {
		t.Fatalf("empty text rendering:\n%s", txt)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.Anatomy
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotTextTables(t *testing.T) {
	tab, _, reg := newTable(1, 0)
	anatomyHandshake(tab, 10*time.Millisecond, 8*time.Millisecond)
	txt := reg.Anatomy().Text()
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

// TestDebugAnatomyReset: the anatomy is zeroed by Registry.Reset —
// which /debug/reset calls with every other surface's — and keeps
// folding afterwards; the endpoint has no reset of its own.
func TestDebugAnatomyReset(t *testing.T) {
	tab, _, reg := newTable(1, 0)
	anatomyHandshake(tab, time.Millisecond, 0)
	if s := reg.Anatomy(); s.Handshakes != 1 {
		t.Fatalf("pre-reset anatomy = %+v", s)
	}
	mux := http.NewServeMux()
	telemetry.Register(mux, reg)
	for _, method := range []string{"GET", "POST"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, "/debug/anatomy/reset", nil))
		if rec.Code != 404 {
			t.Fatalf("%s /debug/anatomy/reset: %d, want 404", method, rec.Code)
		}
	}
	if s := reg.Anatomy(); s.Handshakes != 1 {
		t.Fatal("a request reset the anatomy")
	}

	reg.Reset()
	s := reg.Anatomy()
	if s.Handshakes != 0 || s.Sampled != 0 || len(s.Steps) != 0 || len(s.Crypto) != 0 {
		t.Fatalf("post-reset anatomy = %+v", s)
	}
	anatomyHandshake(tab, time.Millisecond, 0)
	if s := reg.Anatomy(); s.Handshakes != 1 || s.Sampled != 1 {
		t.Fatalf("post-reset fold lost: %+v", s)
	}
}

func TestDebugAnatomyEndpoint(t *testing.T) {
	tab, _, reg := newTable(1, 0)
	anatomyHandshake(tab, time.Millisecond, 0)
	if snap := getAnatomy(t, reg); snap.Handshakes != 1 || len(snap.Steps) != 1 {
		t.Fatalf("anatomy = %+v", snap)
	}

	mux := http.NewServeMux()
	telemetry.Register(mux, reg)
	rec, body := getOK(t, mux, "/debug/anatomy?format=text")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "continuous Table 2") {
		t.Fatalf("text body:\n%s", body)
	}
}
