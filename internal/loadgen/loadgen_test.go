package loadgen

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func startTestServer(t *testing.T) *Server {
	t.Helper()
	srv, err := StartServer(ServerOptions{KeyBits: 512, FileSize: 512, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func phase(t *testing.T, res *Result, name string) PhaseStats {
	t.Helper()
	for _, p := range res.Phases {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("phase %q missing from %+v", name, res.Phases)
	return PhaseStats{}
}

func TestOpenLoopRun(t *testing.T) {
	srv := startTestServer(t)
	res, err := Run(Config{
		Addr:     srv.Addr(),
		Rate:     300,
		Duration: 400 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "open" {
		t.Fatalf("mode = %q", res.Mode)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failures: %v", res.Failed, res.Errors)
	}
	if res.Done < 50 {
		t.Fatalf("only %d connections done", res.Done)
	}
	if res.WarmupDiscarded == 0 {
		t.Fatal("warmup transactions were not discarded")
	}
	total := phase(t, res, PhaseTotal)
	corrected := phase(t, res, PhaseTotalCorrected)
	if total.Hist.Count == 0 || corrected.Hist.Count != total.Hist.Count {
		t.Fatalf("phase counts: total %d corrected %d", total.Hist.Count, corrected.Hist.Count)
	}
	// Coordinated-omission correction can only add scheduling lag.
	if corrected.Hist.Sum < total.Hist.Sum {
		t.Fatalf("corrected sum %d < actual sum %d", corrected.Hist.Sum, total.Hist.Sum)
	}
	for _, name := range []string{PhaseConnect, PhaseHandshake, PhaseFirstByte} {
		if p := phase(t, res, name); p.Hist.Count == 0 {
			t.Fatalf("phase %s empty", name)
		}
	}
	hs := phase(t, res, PhaseHandshake).Hist
	if !(hs.P50 <= hs.P95 && hs.P95 <= hs.P99 && int64(hs.P99) <= hs.Max) {
		t.Fatalf("quantiles not monotone: %+v", hs)
	}
}

func TestClosedLoopResumptionAndMix(t *testing.T) {
	srv := startTestServer(t)
	mix, err := ParseSuiteMix("RC4-MD5:3,DES-CBC3-SHA:1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Addr:           srv.Addr(),
		Concurrency:    4,
		Duration:       500 * time.Millisecond,
		Requests:       2,
		ResumeFraction: 0.5,
		Mix:            mix,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "closed" {
		t.Fatalf("mode = %q", res.Mode)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failures: %v", res.Failed, res.Errors)
	}
	if res.Done < 8 {
		t.Fatalf("only %d connections done", res.Done)
	}
	if res.Resumed == 0 {
		t.Fatal("resume fraction 0.5 produced no resumed handshakes")
	}
	if res.Requests != 2*res.Done {
		t.Fatalf("requests %d != 2 * done %d", res.Requests, res.Done)
	}
	sawRC4 := false
	for name := range res.BySuite {
		if strings.HasPrefix(name, "RC4-MD5") {
			sawRC4 = true
		}
	}
	if !sawRC4 {
		t.Fatalf("suite mix never picked RC4-MD5: %v", res.BySuite)
	}
	// Closed loop records no schedule-derived phases.
	for _, p := range res.Phases {
		if p.Name == PhaseTotalCorrected || p.Name == PhaseSchedLag {
			t.Fatalf("closed loop recorded %s", p.Name)
		}
	}
}

func TestResultCheckAndText(t *testing.T) {
	srv := startTestServer(t)
	mix, err := ParseSuiteMix("RC4-MD5,DES-CBC3-SHA")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Addr:     srv.Addr(),
		Rate:     200,
		Duration: 300 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
		Mix:      mix,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatalf("clean run fails its self-check: %v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil || back.Done != res.Done || len(back.Phases) != len(res.Phases) {
		t.Fatalf("JSON round trip: %v, done %d/%d", err, back.Done, res.Done)
	}

	// Map-keyed sections render sorted, so identical runs diff clean:
	// each landmark must follow the previous one, on every rendering.
	res.Errors = map[string]uint64{"read: b": 1, "dial: a": 2}
	for i := 0; i < 20; i++ {
		txt, at := res.Text(), 0
		for _, want := range []string{"p95", "handshake", "suite mix:", "DES-CBC3-SHA", "RC4-MD5", "errors:", "dial: a", "read: b"} {
			j := strings.Index(txt[at:], want)
			if j < 0 {
				t.Fatalf("text rendering lacks %q in order:\n%s", want, txt)
			}
			at += j
		}
	}

	// A disordered quantile or a handshake outlasting its total fails.
	total := &res.Phases[3]
	if total.Name != PhaseTotal {
		t.Fatalf("phase 3 is %q", total.Name)
	}
	saved := total.Hist
	total.Hist.P95 = total.Hist.Max + 1
	if err := res.Check(); err == nil || !strings.Contains(err.Error(), "not monotone") {
		t.Fatalf("disordered quantile passed: %v", err)
	}
	total.Hist = saved
	total.Hist.Mean = 0
	if err := res.Check(); err == nil || !strings.Contains(err.Error(), "exceeds mean total") {
		t.Fatalf("handshake > total passed: %v", err)
	}
}

func TestParseSuiteMixErrors(t *testing.T) {
	if _, err := ParseSuiteMix("NO-SUCH-SUITE"); err == nil {
		t.Fatal("unknown suite accepted")
	}
	if _, err := ParseSuiteMix("RC4-MD5:-1"); err == nil {
		t.Fatal("negative weight accepted")
	}
	mix, err := ParseSuiteMix("RC4-MD5")
	if err != nil || len(mix) != 1 || mix[0].Weight != 1 {
		t.Fatalf("default weight: %v %v", mix, err)
	}
}
