package history

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/pathlen"
	"sslperf/internal/probe"
	"sslperf/internal/slo"
	"sslperf/internal/telemetry"
	"sslperf/internal/trace"
)

// observatory is every surface a -telemetry -trace server builds,
// ticked by hand.
type observatory struct {
	reg    *telemetry.Registry
	col    *pathlen.Collector
	tracer *trace.Tracer
	tab    *lifecycle.Table
	h      *History
}

func newObservatory() *observatory {
	o := &observatory{
		reg:    telemetry.NewRegistry(),
		col:    pathlen.NewCollector(),
		tracer: trace.NewTracer(trace.Config{SampleEvery: 1}),
	}
	tracker := slo.New(slo.Config{})
	o.tab = lifecycle.NewTable(lifecycle.Options{
		Registry: o.reg, Tracer: o.tracer, Pathlen: o.col, SLO: tracker, Ring: 16,
	})
	o.h, _ = newTestHistory(Config{Interval: time.Second, FineSlots: 64})
	AddStandardSources(o.h, Sources{
		Telemetry: o.reg, Runtime: true, SLO: tracker,
		Lifecycle: o.tab, Pathlen: o.col, Anatomy: o.tracer.Profiler(),
	})
	return o
}

var liveConnIDs atomic.Uint64

// establish opens a connection on the table and completes a one-step
// handshake on it.
func (o *observatory) establish() probe.Sink {
	sink, at := o.tab.Observe(), time.Now()
	sink.Emit(probe.Event{Kind: probe.KindConnOpen, Conn: liveConnIDs.Add(1), Fn: "server", At: at})
	sink.Emit(probe.Event{Kind: probe.KindHandshakeStart, Fn: "server", At: at})
	sink.Emit(probe.Event{Kind: probe.KindStepEnter, Step: probe.StepInit, At: at})
	sink.Emit(probe.Event{Kind: probe.KindStepExit, Step: probe.StepInit, At: at, Dur: time.Microsecond})
	sink.Emit(probe.Event{Kind: probe.KindHandshakeDone, Fn: "RC4-MD5", Version: 0x0300, At: at, Dur: time.Millisecond})
	return sink
}

// write moves one n-byte record out through the connection: cipher
// pass, MAC pass, the framed record, the application write.
func write(sink probe.Sink, n int) {
	at := time.Now()
	sink.Emit(probe.Event{Kind: probe.KindRecordCrypto, Op: probe.OpMACCompute, Prim: "MD5", Bytes: n, At: at, Dur: 2 * time.Microsecond})
	sink.Emit(probe.Event{Kind: probe.KindRecordCrypto, Op: probe.OpCipherEncrypt, Prim: "RC4", Bytes: n, At: at, Dur: 3 * time.Microsecond})
	sink.Emit(probe.Event{Kind: probe.KindRecordIO, Written: true, Bytes: n})
	sink.Emit(probe.Event{Kind: probe.KindAppIO, Written: true, Bytes: n, At: at, Dur: 6 * time.Microsecond})
}

// TestLiveConnectionCountsBeforeClose pins the live-read rule end to
// end: a long-lived connection folds its record/byte totals and its
// path-length tally only when it closes, yet the registry's counters
// and the history's records.*, bytes.* and pathlen.* series move while
// it is still open — and closing it counts nothing a second time.
func TestLiveConnectionCountsBeforeClose(t *testing.T) {
	o := newObservatory()
	sink := o.establish()
	o.h.SampleNow() // baseline

	const n, records = 4096, 10
	for i := 0; i < records; i++ {
		write(sink, n)
	}
	if c := o.reg.Counts(); c.BytesOut != n*records || c.RecordsOut != records || c.Connections != 1 {
		t.Fatalf("registry counts with the connection still open = %+v, want %d bytes / %d records / 1 connection",
			c, n*records, records)
	}
	if b, _, _, _ := o.col.Totals(); b != n*records {
		t.Fatalf("cipher bytes with the connection still open = %d, want %d", b, n*records)
	}
	o.h.SampleNow()

	point := func(name string, i int) float64 {
		t.Helper()
		sd, ok := o.h.Snapshot(SnapshotOptions{Series: []string{name}}).Get(name)
		if !ok || len(sd.Points) <= i {
			t.Fatalf("series %s has no point %d: %+v", name, i, sd)
		}
		return sd.Points[i]
	}
	if got := point("bytes.out", 1); got != n*records {
		t.Fatalf("bytes.out while open = %v, want %d", got, n*records)
	}
	if got := point("records.out", 1); got != records {
		t.Fatalf("records.out while open = %v, want %d", got, records)
	}
	if point("pathlen.cipher_cyc_b", 1) <= 0 || point("pathlen.mac_cyc_b", 1) <= 0 {
		t.Fatal("pathlen.* series did not move while the connection was open")
	}

	// Close: the totals move from the entry into the aggregates. Every
	// counter reads the same as before; the next tick's delta is zero.
	sink.Emit(probe.Event{Kind: probe.KindConnClose, At: time.Now()})
	if c := o.reg.Counts(); c.BytesOut != n*records || c.RecordsOut != records || c.Connections != 1 {
		t.Fatalf("registry counts after close = %+v: double-counted or lost", c)
	}
	if b, _, _, _ := o.col.Totals(); b != n*records {
		t.Fatalf("cipher bytes after close = %d, want %d", b, n*records)
	}
	o.h.SampleNow()
	if got := point("bytes.out", 2); got != 0 {
		t.Fatalf("bytes.out delta across the close = %v, want 0", got)
	}
	if got := point("pathlen.cipher_cyc_b", 2); got != 0 {
		t.Fatalf("pathlen.cipher_cyc_b across the close = %v, want 0 (no new bytes)", got)
	}
}

// TestConcurrentEmitAndRead is the -race gate for the one-record
// design: eight connections emit (and open and close) while /metrics,
// /debug/conns, /debug/trace, /debug/flightrecorder and the history
// tick read. At every tick the counters must be monotone — a read that
// caught a connection mid-fold would see its bytes twice or not at all.
func TestConcurrentEmitAndRead(t *testing.T) {
	o := newObservatory()
	mux := http.NewServeMux()
	telemetry.Register(mux, o.reg)
	lifecycle.Register(mux, o.tab)
	pathlen.Register(mux, o.col)

	const conns, lives, writes = 8, 20, 10
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := 0; l < lives; l++ {
				sink := o.establish()
				for i := 0; i < writes; i++ {
					write(sink, 100)
				}
				sink.Emit(probe.Event{Kind: probe.KindConnClose, At: time.Now()})
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, url := range []string{"/metrics", "/debug/conns", "/debug/trace", "/debug/flightrecorder?format=text", "/debug/pathlength"} {
		readers.Add(1)
		go func(url string) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
				if rec.Code != 200 {
					t.Errorf("GET %s: %d", url, rec.Code)
					return
				}
			}
		}(url)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		var last telemetry.Counts
		for {
			select {
			case <-stop:
				return
			default:
			}
			o.h.SampleNow()
			c := o.reg.Counts()
			if c.BytesOut < last.BytesOut || c.RecordsOut < last.RecordsOut || c.Connections < last.Connections {
				t.Errorf("counters went backwards: %+v after %+v", c, last)
				return
			}
			last = c
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	c := o.reg.Counts()
	if want := uint64(conns * lives); c.Connections != want || c.HandshakesFull != want ||
		c.RecordsOut != want*writes || c.BytesOut != want*writes*100 {
		t.Fatalf("final counts = %+v, want %d connections × %d records of 100 bytes", c, want, writes)
	}
	if b, _, _, _ := o.col.Totals(); b != uint64(conns*lives*writes*100) {
		t.Fatalf("cipher bytes = %d, want %d", b, conns*lives*writes*100)
	}
	if got := o.tracer.Profiler().Snapshot().Handshakes; got != conns*lives {
		t.Fatalf("profiler folded %d handshakes, want %d", got, conns*lives)
	}
}
