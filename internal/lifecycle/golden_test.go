package lifecycle_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/ssl"
	"sslperf/internal/telemetry"
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

// goldenConns is how many connections replay the golden handshake.
const goldenConns = 8

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
// asserts the observability surfaces — the /debug/anatomy JSON (the
// registry every Table 2 rendering reads) and the Chrome trace export
// of the connections' records — render byte-identical step names and
// per-step totals, all matching testdata/steps.golden.
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

	// Replay the same event stream into several traced connections.
	events := goldenEvents()
	reg := telemetry.NewRegistry()
	table := lifecycle.NewTable(lifecycle.Options{
		SampleEvery: 1, Registry: reg, Ring: goldenConns,
	})
	start, end := events[0].At, events[len(events)-1].At
	for conn := uint64(1); conn <= goldenConns; conn++ {
		sink := table.Observe()
		sink.Emit(probe.Event{Kind: probe.KindConnOpen, Conn: conn, Fn: "server", At: start})
		sink.Emit(probe.Event{Kind: probe.KindHandshakeStart, Fn: "server", At: start})
		for _, e := range events {
			sink.Emit(e)
		}
		sink.Emit(probe.Event{Kind: probe.KindHandshakeDone, Fn: "RC4-MD5", Version: 0x0300, At: end, Dur: end.Sub(start)})
		sink.Emit(probe.Event{Kind: probe.KindConnClose, At: end})
	}

	// Surface 1: the /debug/anatomy JSON (the registry's fold).
	mux := http.NewServeMux()
	telemetry.Register(mux, reg)
	lifecycle.Register(mux, table)
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

	// Surface 2: the Chrome trace export.
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
		if ev.Cat != telemetry.CatStep || ev.TID != 1 {
			continue
		}
		chromeNames = append(chromeNames, ev.Name)
		if got := time.Duration(ev.Dur * 1e3); got != stepDur(ev.Name) {
			t.Fatalf("chrome span %s dur %v, want %v", ev.Name, got, stepDur(ev.Name))
		}
	}

	for surface, names := range map[string][]string{
		"/debug/anatomy": debugNames,
		"chrome trace":   chromeNames,
	} {
		if strings.Join(names, "\n") != strings.Join(goldenNames, "\n") {
			t.Fatalf("%s step names diverged from golden:\n got %v\nwant %v", surface, names, goldenNames)
		}
	}
}

// TestOneRecordAllSurfaces runs one real seeded full handshake and a
// 1 KiB exchange with every observer on and checks that everything
// that shows the connection is a rendering of the one record: the
// /debug/conns row, the flight-recorder text, the Chrome export and the
// close-log line carry the same connection ID, step names, step
// durations and byte totals; and the handshake folded once into the
// registry, whose /debug/anatomy step rows hold the record's step time.
func TestOneRecordAllSurfaces(t *testing.T) {
	id, err := ssl.NewIdentity(ssl.NewPRNG(5), 512, "golden", time.Unix(1_700_000_000, 0))
	if err != nil {
		t.Fatal(err)
	}
	var closeLog bytes.Buffer
	reg := telemetry.NewRegistry()
	table := lifecycle.NewTable(lifecycle.Options{
		Registry: reg, SampleEvery: 1,
		CloseLog: lifecycle.NewCloseLog(&closeLog, 1), Ring: 4,
	})
	mux := http.NewServeMux()
	telemetry.Register(mux, reg)
	lifecycle.Register(mux, table)
	get := func(url string, v any) string {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d", url, rec.Code)
		}
		if v != nil {
			if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
				t.Fatalf("GET %s: %v", url, err)
			}
		}
		return rec.Body.String()
	}

	ct, st := ssl.Pipe()
	server := ssl.ServerConn(st, &ssl.Config{
		Rand: ssl.NewPRNG(6), Key: id.Key, CertDER: id.CertDER,
		Observer: table,
	})
	client := ssl.ClientConn(ct, &ssl.Config{Rand: ssl.NewPRNG(7), InsecureSkipVerify: true})
	errc := make(chan error, 1)
	go func() {
		err := server.Handshake()
		if err == nil {
			if _, err = server.Read(make([]byte, 16)); err == nil {
				_, err = server.Write(make([]byte, 1024))
			}
		}
		errc <- err
	}()
	if err := client.Handshake(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("GET /\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(client, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// While the connection lives its row and its flight-recorder
	// record are one snapshot of one entry.
	var conns lifecycle.Snapshot
	get("/debug/conns", &conns)
	if len(conns.Conns) != 1 {
		t.Fatalf("/debug/conns has %d rows, want 1", len(conns.Conns))
	}
	row := conns.Conns[0]
	var live []lifecycle.Record
	get(fmt.Sprintf("/debug/flightrecorder?conn=%d", row.ID), &live)
	if len(live) != 1 || live[0].BytesOut != row.BytesOut || live[0].BytesIn != row.BytesIn ||
		fmt.Sprint(live[0].Steps) != fmt.Sprint(row.Steps) {
		t.Fatalf("live record %+v disagrees with its /debug/conns row %+v", live, row)
	}
	if row.BytesOut < 1024 || row.State != "established" || len(row.Steps) != 10 {
		t.Fatalf("row = %+v, want an established full handshake that wrote 1 KiB", row)
	}
	client.Close()
	server.Close()

	// The closed record: JSON, text, Chrome and close-log.
	var closed []lifecycle.Record
	get(fmt.Sprintf("/debug/flightrecorder?conn=%d", row.ID), &closed)
	if len(closed) != 1 || closed[0].State != "closed" {
		t.Fatalf("closed record = %+v", closed)
	}
	rec := closed[0]
	if fmt.Sprint(rec.Steps) != fmt.Sprint(row.Steps) || rec.HandshakeUs != row.HandshakeUs {
		t.Fatalf("closing changed the handshake: %+v vs %+v", rec, row)
	}
	text := get(fmt.Sprintf("/debug/flightrecorder?format=text&conn=%d", row.ID), nil)
	if want := fmt.Sprintf("conn %d server", rec.ID); !strings.HasPrefix(text, want) {
		t.Fatalf("flight-recorder text starts %q, want %q", text[:40], want)
	}
	if want := fmt.Sprintf("in=%dB/%drec out=%dB/%drec", rec.BytesIn, rec.RecordsIn, rec.BytesOut, rec.RecordsOut); !strings.Contains(text, want) {
		t.Fatalf("flight-recorder text misses %q:\n%s", want, text)
	}
	var line struct {
		Conn     uint64               `json:"conn"`
		BytesIn  uint64               `json:"bytes_in"`
		BytesOut uint64               `json:"bytes_out"`
		Steps    []lifecycle.StepLine `json:"steps"`
	}
	if err := json.Unmarshal(closeLog.Bytes(), &line); err != nil {
		t.Fatalf("close-log line: %v\n%s", err, closeLog.String())
	}
	if line.Conn != rec.ID || line.BytesIn != rec.BytesIn || line.BytesOut != rec.BytesOut ||
		fmt.Sprint(line.Steps) != fmt.Sprint(rec.Steps) {
		t.Fatalf("close-log line %+v disagrees with the record %+v", line, rec)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			TID  uint64  `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	get("/debug/trace", &doc)
	var chrome []lifecycle.StepLine
	var sawCrypto, sawIO bool
	for _, ev := range doc.TraceEvents {
		if ev.TID != rec.ID {
			continue
		}
		switch ev.Cat {
		case telemetry.CatStep:
			chrome = append(chrome, lifecycle.StepLine{Step: ev.Name, Us: ev.Dur})
		case telemetry.CatCrypto:
			sawCrypto = true
		case telemetry.CatIO:
			sawIO = true
		}
	}
	if !sawCrypto || !sawIO {
		t.Fatalf("chrome export misses detail: crypto=%v io=%v", sawCrypto, sawIO)
	}
	if len(chrome) != len(rec.Steps) {
		t.Fatalf("chrome export has %d step spans, record %d", len(chrome), len(rec.Steps))
	}
	for i, st := range rec.Steps {
		if chrome[i].Step != st.Step || chrome[i].Us != st.Us {
			t.Fatalf("chrome step %d = %+v, record %+v", i, chrome[i], st)
		}
		if want := fmt.Sprintf("step %s %.1fus", st.Step, st.Us); !strings.Contains(text, want) {
			t.Fatalf("flight-recorder text misses %q:\n%s", want, text)
		}
	}

	// The handshake folded once, from the same timeline: the live
	// Table 2 holds the record's step time, and the sampled handshake's
	// crypto calls fill Table 3.
	var anatomy telemetry.Anatomy
	get("/debug/anatomy", &anatomy)
	if len(anatomy.Steps) != len(rec.Steps) || anatomy.Handshakes != 1 || anatomy.Sampled != 1 {
		t.Fatalf("anatomy has %d steps over %d handshakes (%d sampled), the record %d steps",
			len(anatomy.Steps), anatomy.Handshakes, anatomy.Sampled, len(rec.Steps))
	}
	for i, st := range rec.Steps {
		a := anatomy.Steps[i]
		want := perf.Cycles(time.Duration(math.Round(st.Us*1e3))) / 1000
		if a.Name != st.Step || a.Count != 1 || a.MeanKcyc != want || a.MaxKcyc != want {
			t.Fatalf("step %d: anatomy %s %v kcycles ×%d, record %s %vus", i, a.Name, a.MeanKcyc, a.Count, st.Step, st.Us)
		}
	}
	if anatomy.CryptoSharePct <= 0 || len(anatomy.Crypto) == 0 {
		t.Fatalf("sampled handshake folded no crypto: %+v", anatomy)
	}
	if c := reg.Counts(); c.BytesOut != rec.BytesOut || c.BytesIn != rec.BytesIn || c.Connections != 1 {
		t.Fatalf("registry folded %+v, record moved %d in / %d out", c, rec.BytesIn, rec.BytesOut)
	}
}
