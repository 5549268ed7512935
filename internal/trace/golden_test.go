package trace_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"sslperf/internal/baseline"
	"sslperf/internal/handshake"
	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/trace"
)

// goldenDur is the synthetic per-step latency of the recorded
// handshake; get_client_kx gets goldenKXDur so the paper's dominance
// shape holds, with goldenRSADur of it attributed to the RSA private
// decryption.
const (
	goldenDur    = 10 * time.Millisecond
	goldenKXDur  = 200 * time.Millisecond
	goldenRSADur = 190 * time.Millisecond
)

// goldenEvents builds the deterministic probe event stream of one
// synthetic server handshake covering every canonical Table 2 step.
func goldenEvents() []probe.Event {
	base := time.Unix(1000, 0)
	var evs []probe.Event
	at := base
	for _, st := range probe.Steps() {
		d := goldenDur
		if st == probe.StepGetClientKX {
			d = goldenKXDur
		}
		evs = append(evs, probe.Event{Kind: probe.KindStepEnter, Step: st, At: at})
		if st == probe.StepGetClientKX {
			evs = append(evs, probe.Event{Kind: probe.KindCrypto, Step: st,
				Fn: probe.FnRSAPrivateDecrypt, At: at, Dur: goldenRSADur})
		}
		evs = append(evs, probe.Event{Kind: probe.KindStepExit, Step: st, At: at.Add(d), Dur: d})
		at = at.Add(d)
	}
	return evs
}

// stepDur returns the synthetic duration assigned to a step name.
func stepDur(name string) time.Duration {
	if name == probe.StepGetClientKX.Name() {
		return goldenKXDur
	}
	return goldenDur
}

// TestGoldenStepNamesAcrossSurfaces replays one recorded handshake's
// probe events into every consumer of the canonical step enum and
// asserts the three observability surfaces — the /debug/anatomy JSON,
// the Chrome trace export, and the offline anatomy fold the baseline
// shape checks read — render byte-identical step names and per-step
// totals, all matching testdata/steps.golden.
func TestGoldenStepNamesAcrossSurfaces(t *testing.T) {
	raw, err := os.ReadFile("testdata/steps.golden")
	if err != nil {
		t.Fatal(err)
	}
	var goldenNames []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		goldenNames = append(goldenNames, f[1])
	}

	// The enum itself must match the golden table (index, name, desc).
	var rendered strings.Builder
	for _, st := range probe.Steps() {
		fmt.Fprintf(&rendered, "%d\t%s\t%s\n", st.Index(), st.Name(), st.Desc())
	}
	if rendered.String() != string(raw) {
		t.Fatalf("probe.Steps() table diverged from testdata/steps.golden:\n%s", rendered.String())
	}

	// Replay the same event stream into the offline anatomy fold and
	// into enough traced connections to clear the health checker's
	// MinHandshakes floor.
	events := goldenEvents()
	anatomy := handshake.NewAnatomy()
	for _, e := range events {
		anatomy.Emit(e)
	}
	tracer := trace.NewTracer(trace.Config{SampleEvery: 1})
	exp := baseline.PaperExpectation()
	for conn := uint64(1); conn <= exp.MinHandshakes; conn++ {
		ct := tracer.ConnBegin()
		ct.Emit(probe.Event{Kind: probe.KindConnOpen, Conn: conn, Fn: "server"})
		ct.Emit(probe.Event{Kind: probe.KindHandshakeStart, Fn: "server"})
		for _, e := range events {
			ct.Emit(e)
		}
		ct.Finish("ok")
	}

	// Surface 1: the offline anatomy (what ssl.Conn.Anatomy returns).
	var anatomyNames []string
	for i, st := range anatomy.Steps {
		anatomyNames = append(anatomyNames, st.Name)
		if st.Elapsed != stepDur(st.Name) {
			t.Fatalf("anatomy step %d (%s) elapsed %v, want %v", i, st.Name, st.Elapsed, stepDur(st.Name))
		}
	}

	// Surface 2: the /debug/anatomy JSON (the live profiler fold).
	mux := http.NewServeMux()
	trace.Register(mux, tracer)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/anatomy")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var anat struct {
		Steps []struct {
			Name     string  `json:"name"`
			MeanKcyc float64 `json:"mean_kcycles"`
		} `json:"steps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&anat); err != nil {
		t.Fatal(err)
	}
	var debugNames []string
	for _, st := range anat.Steps {
		debugNames = append(debugNames, st.Name)
		want := perf.Cycles(stepDur(st.Name)) / 1000
		if st.MeanKcyc != want {
			t.Fatalf("/debug/anatomy %s mean %v kcycles, want %v", st.Name, st.MeanKcyc, want)
		}
	}

	// Surface 3: the Chrome trace export.
	resp, err = http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			TID  uint64  `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var chromeNames []string
	for _, ev := range doc.TraceEvents {
		if ev.Cat != trace.CatStep || ev.TID != 1 {
			continue
		}
		chromeNames = append(chromeNames, ev.Name)
		if got := time.Duration(ev.Dur * 1e3); got != stepDur(ev.Name) {
			t.Fatalf("chrome span %s dur %v, want %v", ev.Name, got, stepDur(ev.Name))
		}
	}

	for surface, names := range map[string][]string{
		"anatomy":        anatomyNames,
		"/debug/anatomy": debugNames,
		"chrome trace":   chromeNames,
	} {
		if strings.Join(names, "\n") != strings.Join(goldenNames, "\n") {
			t.Fatalf("%s step names diverged from golden:\n got %v\nwant %v", surface, names, goldenNames)
		}
	}

	// The baseline shape checker reads the same names: the paper
	// expectation's dominant step must be a canonical name and the
	// replayed handshake must satisfy the Table 2/3 shape.
	if exp.DominantStep != probe.StepGetClientKX.Name() {
		t.Fatalf("baseline dominant step %q is not the canonical %q",
			exp.DominantStep, probe.StepGetClientKX.Name())
	}
	rep := baseline.CheckAnatomy(tracer.Profiler().Snapshot(), exp)
	if rep.Status != baseline.StatusOK {
		t.Fatalf("health check on golden handshake = %s: %+v", rep.Status, rep.Checks)
	}
}
