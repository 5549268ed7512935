package baseline

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
	"sslperf/internal/trace"
)

// snap builds an anatomy snapshot with the given dominant-step,
// crypto and category shares.
func snap(handshakes uint64, kxShare, cryptoShare, publicShare float64) trace.AnatomySnapshot {
	rest := (100 - kxShare) / 2
	catRest := cryptoShare - publicShare
	return trace.AnatomySnapshot{
		At:         time.Now(),
		Traces:     handshakes,
		Handshakes: handshakes,
		Steps: []trace.AnatomyStep{
			{Name: "init", SharePct: rest},
			{Name: "get_client_kx", SharePct: kxShare},
			{Name: "send_finished", SharePct: rest},
		},
		Categories: []trace.AnatomyCategory{
			{Name: handshake.CategoryPublic, SharePct: publicShare},
			{Name: handshake.CategoryHash, SharePct: catRest},
		},
		CryptoSharePct: cryptoShare,
	}
}

func TestCheckAnatomyOK(t *testing.T) {
	rep := CheckAnatomy(snap(100, 94, 87, 82), PaperExpectation())
	if rep.Status != StatusOK {
		t.Fatalf("paper-shaped snapshot = %s:\n%s", rep.Status, rep.Text())
	}
	if len(rep.Checks) != 3 {
		t.Fatalf("%d checks, want 3", len(rep.Checks))
	}
}

func TestCheckAnatomyNoData(t *testing.T) {
	rep := CheckAnatomy(snap(2, 94, 87, 82), PaperExpectation())
	if rep.Status != StatusNoData {
		t.Fatalf("2 handshakes = %s, want NO_DATA", rep.Status)
	}
}

func TestCheckAnatomyDrifting(t *testing.T) {
	// RSA step collapsed to 30%: dominant-step check must drift.
	rep := CheckAnatomy(snap(100, 30, 87, 82), PaperExpectation())
	if rep.Status != StatusDrifting {
		t.Fatalf("collapsed kx = %s, want DRIFTING\n%s", rep.Status, rep.Text())
	}
	found := false
	for _, c := range rep.Checks {
		if strings.HasPrefix(c.Name, "dominant_step") && c.Status == StatusDrifting {
			found = true
		}
	}
	if !found {
		t.Fatalf("dominant_step not flagged:\n%s", rep.Text())
	}

	// Crypto share collapsed: crypto_share drifts even with ordering intact.
	rep = CheckAnatomy(snap(100, 94, 40, 35), PaperExpectation())
	if rep.Status != StatusDrifting {
		t.Fatalf("40%% crypto = %s, want DRIFTING", rep.Status)
	}
}

func TestCheckAnatomyUsurpedOrderingDrifts(t *testing.T) {
	// The expected step holds 55% (above the 50 floor) but another
	// step holds more — ordering itself is the signal.
	s := snap(100, 55, 87, 82)
	s.Steps[0].SharePct = 60 // init usurps
	rep := CheckAnatomy(s, PaperExpectation())
	if rep.Status != StatusDrifting {
		t.Fatalf("usurped ordering = %s, want DRIFTING\n%s", rep.Status, rep.Text())
	}
}

func TestHealthEndpoint(t *testing.T) {
	current := snap(100, 94, 87, 82)
	mux := http.NewServeMux()
	RegisterHealth(mux, func() trace.AnatomySnapshot { return current }, PaperExpectation())

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if rec.Code != 200 {
		t.Fatalf("healthy = %d", rec.Code)
	}
	var rep HealthReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusOK || rep.Handshakes != 100 {
		t.Fatalf("body = %+v", rep)
	}

	// The endpoint snapshots live state: when the anatomy drifts, the
	// next poll flips to 503/DRIFTING.
	current = snap(100, 30, 87, 82)
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("drifting = %d, want 503", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusDrifting {
		t.Fatalf("drifting body = %+v", rep)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health?format=text", nil))
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Fatalf("text Content-Type = %q", got)
	}
	if !strings.Contains(rec.Body.String(), StatusDrifting) {
		t.Fatalf("text body:\n%s", rec.Body.String())
	}
}

func TestHealthEndpointAgainstRealProfiler(t *testing.T) {
	// End-to-end through a real profiler: fold synthetic handshakes
	// whose step durations follow the paper's shape, then read health.
	tr := trace.NewTracer(trace.Config{})
	for i := 0; i < 10; i++ {
		tr.Profiler().Fold(&telemetry.Handshake{
			Steps: []telemetry.StepTiming{
				{Step: probe.StepInit, Dur: 20 * time.Microsecond},
				{Step: probe.StepGetClientKX, Dur: 3 * time.Millisecond},
				{Step: probe.StepSendFinished, Dur: 30 * time.Microsecond},
			},
			Calls: []telemetry.Call{
				{Kind: trace.CatCrypto, Name: probe.FnRSAPrivateDecrypt, Dur: 2900 * time.Microsecond},
				{Kind: trace.CatCrypto, Name: probe.FnFinalFinishMac, Dur: 20 * time.Microsecond},
			},
		})
	}
	mux := http.NewServeMux()
	RegisterHealth(mux, tr.Profiler().Snapshot, PaperExpectation())
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if rec.Code != 200 {
		t.Fatalf("real profiler health = %d:\n%s", rec.Code, rec.Body.String())
	}
	var rep HealthReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusOK || rep.Handshakes != 10 {
		t.Fatalf("body = %+v", rep)
	}
}
