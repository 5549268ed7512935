package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/slo"
	"sslperf/internal/ssl"
	"sslperf/internal/telemetry"
	"sslperf/internal/trace"
)

// TestLifecycleObservatorySmoke closes the loop the way an operator
// would during an sslload run: an in-process server with the full
// lifecycle stack attached, /debug/conns and /debug/slo served over
// real HTTP showing live data mid-run, and afterwards an exact
// reconciliation of the close-log ledger against the telemetry
// handshake counters.
func TestLifecycleObservatorySmoke(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracker := slo.New(slo.Config{TargetP99: 5 * time.Second})
	var closeBuf bytes.Buffer
	tab := lifecycle.NewTable(lifecycle.Options{
		Registry: reg,
		SLO:      tracker,
		CloseLog: lifecycle.NewCloseLog(&closeBuf, 1),
	})
	srv, err := StartServer(ServerOptions{
		KeyBits:  512,
		FileSize: 512,
		Seed:     42,
		Table:    tab,
	})
	if err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	lifecycle.Register(mux, tab)
	slo.Register(mux, tracker)
	web := httptest.NewServer(mux)
	defer web.Close()

	// Hold one connection established so the live table has a row to
	// show while the load runs.
	tc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	held := ssl.ClientConn(tc, &ssl.Config{Rand: ssl.NewPRNG(7), InsecureSkipVerify: true})
	if err := held.Handshake(); err != nil {
		t.Fatal(err)
	}
	// The client's handshake returns on the server's Finished, a moment
	// before the server marks its side established; one answered
	// request proves it has.
	if _, err := held.Write([]byte("GET /\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := held.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}

	var connsSnap lifecycle.Snapshot
	getJSON(t, web.URL+"/debug/conns?state=established", &connsSnap)
	if connsSnap.Live < 1 || len(connsSnap.Conns) < 1 {
		t.Fatalf("live table empty with a connection held open: %+v", connsSnap)
	}
	row := connsSnap.Conns[0]
	if row.State != "established" || row.Suite == "" || row.Remote == "" {
		t.Fatalf("held connection row %+v", row)
	}

	res, err := Run(Config{
		Addr:        srv.Addr(),
		Concurrency: 4,
		Duration:    300 * time.Millisecond,
		Requests:    2,
		Seed:        99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done == 0 {
		t.Fatal("load run completed no connections")
	}

	var sloSnap slo.Snapshot
	getJSON(t, web.URL+"/debug/slo", &sloSnap)
	w10 := sloSnap.Window("10s")
	if w10.Handshakes == 0 {
		t.Fatalf("SLO 10s window empty after a load run: %+v", sloSnap)
	}
	if w10.QueueDelays == 0 {
		t.Fatal("SLO saw no accept-to-first-step queue delays")
	}

	// The text renderings serve too.
	for _, path := range []string{"/debug/conns?format=text", "/debug/slo?format=text"} {
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Drain everything, then reconcile exactly.
	held.Close()
	srv.Close()

	final := tab.Snapshot(lifecycle.SnapshotOptions{})
	if final.Live != 0 {
		t.Fatalf("%d connections still live after server close", final.Live)
	}
	if final.Opened != final.Closed {
		t.Fatalf("opened %d != closed %d", final.Opened, final.Closed)
	}

	tsnap := reg.Snapshot()
	hsDone := tsnap.Handshakes.Full + tsnap.Handshakes.Resumed
	ledger := final.CloseLog
	if ledger.Successes != hsDone {
		t.Fatalf("close-log successes %d != telemetry handshakes done %d",
			ledger.Successes, hsDone)
	}
	if ledger.Failures != tsnap.Handshakes.Failed {
		t.Fatalf("close-log failures %d != telemetry failures %d",
			ledger.Failures, tsnap.Handshakes.Failed)
	}
	if ledger.Successes+ledger.Failures != final.Closed {
		t.Fatalf("ledger %d+%d does not cover %d closes",
			ledger.Successes, ledger.Failures, final.Closed)
	}

	// Every close emitted exactly one JSON line (sampling 1-in-1), and
	// each line parses.
	var lines uint64
	sc := bufio.NewScanner(&closeBuf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("close-log line %d is not JSON: %v", lines+1, err)
		}
		if rec["msg"] != "conn_close" {
			t.Fatalf("close-log line %d msg %v", lines+1, rec["msg"])
		}
		lines++
	}
	if lines != ledger.Logged {
		t.Fatalf("%d close-log lines on the wire, ledger says %d", lines, ledger.Logged)
	}
	if lines != final.Closed {
		t.Fatalf("%d close-log lines for %d closes at sample=1", lines, final.Closed)
	}
}

// TestOneConnectionID drives 32 concurrent connections through the
// in-process server with every sink on and checks that they all name
// a connection by the one ID its open event carried: the /debug/conns
// row, the close-log line and the retained record that the flight
// recorder and the span trace render carry the same number, so an
// operator can join them.
func TestOneConnectionID(t *testing.T) {
	const conns = 32
	var closeBuf bytes.Buffer
	tab := lifecycle.NewTable(lifecycle.Options{
		Registry: telemetry.NewRegistry(),
		Tracer:   trace.NewTracer(trace.Config{SampleEvery: 1}),
		SLO:      slo.New(slo.Config{}),
		CloseLog: lifecycle.NewCloseLog(&closeBuf, 1),
		Ring:     2 * conns,
	})
	srv, err := StartServer(ServerOptions{
		KeyBits:  512,
		FileSize: 64,
		Seed:     43,
		Table:    tab,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every client holds its connection established until all have
	// been seen in the live table.
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < conns; i++ {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			err := func() error {
				tc, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					return err
				}
				c := ssl.ClientConn(tc, &ssl.Config{Rand: ssl.NewPRNG(uint64(100 + i)), InsecureSkipVerify: true})
				defer c.Close()
				if _, err := c.Write([]byte("GET /\n")); err != nil {
					return err
				}
				if _, err := c.Read(make([]byte, 1)); err != nil {
					return err
				}
				ready.Done()
				<-release
				return nil
			}()
			if err != nil {
				t.Error(err)
				ready.Done()
			}
		}(i)
	}
	ready.Wait()
	table := map[uint64]bool{}
	for _, row := range tab.Snapshot(lifecycle.SnapshotOptions{}).Conns {
		table[row.ID] = true
	}
	close(release)
	done.Wait()
	srv.Close()
	if len(table) != conns {
		t.Fatalf("live table held %d connections, want %d", len(table), conns)
	}

	closeLog := map[uint64]bool{}
	sc := bufio.NewScanner(&closeBuf)
	for sc.Scan() {
		var rec struct {
			Conn uint64 `json:"conn"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		closeLog[rec.Conn] = true
	}
	traces := map[uint64]bool{}
	for _, rec := range tab.Records(0) {
		traces[rec.ID] = true
	}
	for id := range table {
		if !closeLog[id] || !traces[id] {
			t.Errorf("conn %d of /debug/conns: in close-log %v, in /debug/trace %v", id, closeLog[id], traces[id])
		}
		text := lifecycle.FlightText(tab.Records(id))
		if !strings.Contains(text, "handshake_start") || !strings.HasSuffix(text, " close\n") {
			t.Errorf("conn %d: flight recorder does not hold one life from handshake_start to close:\n%s", id, text)
		}
	}
	if len(closeLog) != conns || len(traces) != conns {
		t.Errorf("close-log names %d connections and the trace ring %d, want %d each", len(closeLog), len(traces), conns)
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
