package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sslperf/internal/history"
	"sslperf/internal/lifecycle"
	"sslperf/internal/loadgen"
	"sslperf/internal/slo"
	"sslperf/internal/telemetry"
)

// TestObservatorySmoke is the acceptance loop for the time-series
// observatory: an in-process server with history sampling attached,
// sslload driving real handshakes, then three checks — the
// /debug/history handshakes/s series reconciles exactly with the
// telemetry counters, /debug/watch streams live deltas, and ssltop's
// one-shot dashboard renders non-empty from the same endpoint.
func TestObservatorySmoke(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracker := slo.New(slo.Config{TargetP99: 5 * time.Second})
	tab := lifecycle.NewTable(lifecycle.Options{Registry: reg, SLO: tracker})
	srv, err := loadgen.StartServer(loadgen.ServerOptions{
		KeyBits:  512,
		FileSize: 512,
		Seed:     42,
		Table:    tab,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	h := history.New(history.Config{Interval: 25 * time.Millisecond})
	history.AddStandardSources(h, history.Sources{
		Telemetry: reg,
		Runtime:   true,
		SLO:       tracker,
		Lifecycle: tab,
	})
	// Baseline before any traffic: the first sample's delta is always
	// zero, so taking it now makes every later handshake land inside
	// the observed window and the reconciliation exact.
	h.SampleNow()
	h.Start()
	defer h.Stop()

	mux := http.NewServeMux()
	history.Register(mux, h)
	web := httptest.NewServer(mux)
	defer web.Close()

	// Watch the stream while the load runs: it must deliver at least
	// three ticks.
	watchDone := make(chan error, 1)
	watchLines := make(chan int, 1)
	go func() {
		resp, err := http.Get(web.URL + "/debug/watch?series=handshakes.full,conns.live&interval=25ms")
		if err != nil {
			watchDone <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		n := 0
		for n < 5 && sc.Scan() {
			var d history.Delta
			if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
				watchDone <- err
				return
			}
			if _, ok := d.Values["handshakes.full"]; !ok {
				watchDone <- fmt.Errorf("delta missing handshakes.full: %s", sc.Text())
				return
			}
			n++
		}
		watchLines <- n
		watchDone <- nil
	}()

	res, err := loadgen.Run(loadgen.Config{
		Addr:        srv.Addr(),
		Concurrency: 4,
		Duration:    400 * time.Millisecond,
		Requests:    2,
		Seed:        99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done == 0 {
		t.Fatal("load run completed no connections")
	}

	if err := <-watchDone; err != nil {
		t.Fatalf("watch stream: %v", err)
	}
	if n := <-watchLines; n < 3 {
		t.Fatalf("watch delivered %d deltas, want >= 3", n)
	}

	// Capture the tail tick so every handshake is inside the window,
	// then reconcile the series sum against the cumulative counters.
	h.Stop()
	h.SampleNow()

	var snap history.Snapshot
	getJSON(t, web.URL+"/debug/history?series=handshakes.full,handshakes.resumed,handshakes.failed", &snap)
	if len(snap.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(snap.Series))
	}
	var seriesTotal float64
	for _, sd := range snap.Series {
		if sd.Kind != "counter" {
			t.Fatalf("%s kind %q, want counter", sd.Name, sd.Kind)
		}
		if len(sd.Points) == 0 {
			t.Fatalf("%s has no points after a load run", sd.Name)
		}
		seriesTotal += sd.Sum
	}
	counts := reg.Counts()
	counterTotal := float64(counts.HandshakesFull + counts.HandshakesResumed + counts.HandshakesFailed)
	if seriesTotal != counterTotal {
		t.Fatalf("history handshake sum %v != telemetry counters %v", seriesTotal, counterTotal)
	}
	if seriesTotal == 0 {
		t.Fatal("no handshakes observed in the history window")
	}

	// The handshakes/s rendering: at least one point must show a
	// nonzero rate.
	full, _ := snap.Get("handshakes.full")
	var sawRate bool
	for _, v := range full.Points {
		if v > 0 {
			sawRate = true
			break
		}
	}
	if !sawRate {
		t.Fatalf("handshakes.full rate series all-zero: %v", full.Points)
	}

	// ssltop -once against the same endpoint: fetch + render must
	// produce a dashboard with the live panels.
	client := &http.Client{Timeout: 5 * time.Second}
	frames := fetchAll(client, []string{web.URL}, 60, nil)
	out := renderFrames(frames)
	if frames[0].Err != "" {
		t.Fatalf("fetch: %s", frames[0].Err)
	}
	for _, want := range []string{"handshakes", "conns", "slo burn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "(no history yet)") || strings.Contains(out, "unreachable") {
		t.Fatalf("dashboard empty:\n%s", out)
	}
}

// TestRecordReplayRoundTrip records frames from a live endpoint and
// re-renders them offline.
func TestRecordReplayRoundTrip(t *testing.T) {
	h := history.New(history.Config{Interval: 10 * time.Millisecond})
	reg := telemetry.NewRegistry()
	history.AddStandardSources(h, history.Sources{Telemetry: reg})
	done := &telemetry.Handshake{Suite: "TLS_RSA_WITH_RC4_128_MD5", Version: 0x0300, Dur: time.Millisecond}
	reg.FoldHandshake(done)
	h.SampleNow()
	reg.FoldHandshake(done)
	h.SampleNow()

	mux := http.NewServeMux()
	history.Register(mux, h)
	web := httptest.NewServer(mux)
	defer web.Close()

	path := filepath.Join(t.TempDir(), "run.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	// Two polling rounds into the record file.
	fetchAll(client, []string{web.URL}, 60, f)
	h.SampleNow()
	fetchAll(client, []string{web.URL}, 60, f)
	f.Close()

	var out strings.Builder
	if err := replayRun(&out, path, 0, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "handshakes") {
		t.Fatalf("replay missing dashboard:\n%s", out.String())
	}

	// Full replay renders every round.
	out.Reset()
	if err := replayRun(&out, path, 0, false); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "ssltop —"); got != 2 {
		t.Fatalf("replayed %d rounds, want 2", got)
	}

	if err := replayRun(&out, filepath.Join(t.TempDir(), "missing"), 0, true); err == nil {
		t.Fatal("replay of missing file succeeded")
	}
}

func TestFetchFrameTargetForms(t *testing.T) {
	h := history.New(history.Config{Interval: time.Second})
	mux := http.NewServeMux()
	history.Register(mux, h)
	web := httptest.NewServer(mux)
	defer web.Close()
	client := &http.Client{Timeout: time.Second}

	hostPort := strings.TrimPrefix(web.URL, "http://")
	for _, target := range []string{web.URL, hostPort, web.URL + "/"} {
		f := fetchFrame(client, target, 10)
		if f.Err != "" {
			t.Fatalf("target %q: %s", target, f.Err)
		}
	}
	f := fetchFrame(client, "127.0.0.1:1", 10)
	if f.Err == "" {
		t.Fatal("dead target fetched without error")
	}
	out := renderFrames([]frame{f})
	if !strings.Contains(out, "unreachable") {
		t.Fatalf("error frame not rendered:\n%s", out)
	}
}

func TestSumSeriesAlignsTails(t *testing.T) {
	snap := history.Snapshot{Series: []history.SeriesData{
		{Name: "a", Points: []float64{1, 2, 3}},
		{Name: "b", Points: []float64{10}},
	}}
	got := sumSeries(snap, "a", "b", "missing")
	want := []float64{1, 2, 13}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}
