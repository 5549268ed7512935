package history

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sslperf/internal/telemetry"
)

// newSLOHistory is a stepped-clock history over a registry's series,
// ticked once so the next folds land in the following tick.
func newSLOHistory(fineSlots int) (*History, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	h, _ := newTestHistory(Config{Interval: time.Second, FineSlots: fineSlots})
	AddStandardSources(h, Sources{Telemetry: reg})
	h.SampleNow()
	return h, reg
}

func fold(reg *telemetry.Registry, failed bool, d, queue time.Duration) {
	reg.FoldHandshake(&telemetry.Handshake{Suite: "RC4-MD5", Failed: failed, Dur: d, QueueDelay: queue})
}

// TestWindowsAggregate: 8 fast successes, 1 slow one and 1 failure in
// one tick read the same rates in every window, then age out of the
// windows shortest first.
func TestWindowsAggregate(t *testing.T) {
	h, reg := newSLOHistory(0)
	for i := 0; i < 8; i++ {
		fold(reg, false, 10*time.Millisecond, 2*time.Millisecond)
	}
	fold(reg, false, 80*time.Millisecond, 6*time.Millisecond) // slow: over the 50ms target
	fold(reg, true, 5*time.Millisecond, -1)                   // no step ran: no queue delay
	h.SampleNow()

	snap := h.SLO(reg.SLOTarget())
	if len(snap.Windows) != 3 || snap.TargetP99Ms != 50 {
		t.Fatalf("snapshot = %+v, want three windows against a 50ms target", snap)
	}
	for _, w := range snap.Windows {
		if w.Handshakes != 10 || w.Failed != 1 || w.Slow != 1 {
			t.Fatalf("%s window: handshakes=%d failed=%d slow=%d, want 10/1/1", w.Window, w.Handshakes, w.Failed, w.Slow)
		}
		for _, r := range []struct {
			name      string
			got, want float64
		}{
			{"error rate", w.ErrorRate, 0.1},
			{"bad rate", w.BadRate, 0.2},
			{"burn rate", w.BurnRate, 20}, // bad rate / budget = 0.2 / 0.01
			{"mean", w.MeanUs, 160e3 / 9},
			{"queue mean", w.QueueMeanUs, 22e3 / 9},
		} {
			if math.Abs(r.got-r.want) > 1e-6 {
				t.Fatalf("%s window %s = %v, want %v", w.Window, r.name, r.got, r.want)
			}
		}
		// The worst tick's p99 and queue max, within a bucket's eighth.
		if w.P99Us < 70e3 || w.P99Us > 90e3 || w.QueueMaxUs < 5.25e3 || w.QueueMaxUs > 6.75e3 {
			t.Fatalf("%s window p99 = %vus, queue max = %vus, want ~80000 and ~6000", w.Window, w.P99Us, w.QueueMaxUs)
		}
	}

	// 15 ticks on: the 10s window has emptied, 1m keeps every event.
	for i := 0; i < 15; i++ {
		h.SampleNow()
	}
	snap = h.SLO(reg.SLOTarget())
	if w := snap.Windows[0]; w.Handshakes != 0 || w.P99Us != 0 {
		t.Fatalf("10s window retained %d handshakes (p99 %vus) after 15 ticks", w.Handshakes, w.P99Us)
	}
	if w := snap.Windows[1]; w.Handshakes != 10 {
		t.Fatalf("1m window lost events: %d, want 10", w.Handshakes)
	}

	// Past five minutes everything has aged out.
	for i := 0; i < 300; i++ {
		h.SampleNow()
	}
	if w := h.SLO(reg.SLOTarget()).Windows[2]; w.Handshakes != 0 || w.Seconds != 300 {
		t.Fatalf("5m window over %vs retained %d handshakes after 316 ticks", w.Seconds, w.Handshakes)
	}
}

// TestQuantilesApproximate: a tick of 100 handshakes at 10ms reads an
// exact mean and a p99 within a sub-octave bucket's eighth of 10ms in
// every window.
func TestQuantilesApproximate(t *testing.T) {
	h, reg := newSLOHistory(0)
	for i := 0; i < 100; i++ {
		fold(reg, false, 10*time.Millisecond, -1)
	}
	h.SampleNow()

	for _, w := range h.SLO(time.Second).Windows {
		if w.Handshakes != 100 || w.Slow != 0 {
			t.Fatalf("%s window: handshakes=%d slow=%d, want 100/0", w.Window, w.Handshakes, w.Slow)
		}
		if math.Abs(w.MeanUs-10000) > 1e-6 {
			t.Fatalf("%s window mean %vus, want 10000", w.Window, w.MeanUs)
		}
		if w.P99Us < 8750 || w.P99Us > 11250 {
			t.Fatalf("%s window p99 %vus implausible for a 10ms population", w.Window, w.P99Us)
		}
	}
}

// TestSLORateOverHeldTicks: a history younger than its windows divides
// by the ticks it holds, past the baseline sample, so every window reads
// the same rate over the same span; a Reset starts the span again.
func TestSLORateOverHeldTicks(t *testing.T) {
	h, reg := newSLOHistory(0)
	for tick := 0; tick < 4; tick++ {
		for i := 0; i < 3; i++ {
			fold(reg, false, time.Millisecond, time.Millisecond)
		}
		h.SampleNow()
	}
	snap := h.SLO(reg.SLOTarget())
	short, long := snap.Windows[0], snap.Windows[2]
	if short.Seconds != 4 || long.Seconds != 4 {
		t.Fatalf("spans %vs and %vs, want the 4 intervals after the baseline", short.Seconds, long.Seconds)
	}
	if long.HandshakeRate != short.HandshakeRate || short.HandshakeRate != 12.0/4 {
		t.Fatalf("5m row %v hs/s, 10s row %v hs/s, want both 3", long.HandshakeRate, short.HandshakeRate)
	}

	// A Reset's first sample is a baseline again: two more ticks of 3
	// handshakes are 6 over 2 seconds.
	reg.Reset()
	h.Reset()
	h.SampleNow()
	for tick := 0; tick < 2; tick++ {
		for i := 0; i < 3; i++ {
			fold(reg, false, time.Millisecond, time.Millisecond)
		}
		h.SampleNow()
	}
	if w := h.SLO(reg.SLOTarget()).Windows[2]; w.Seconds != 2 || w.Handshakes != 6 || w.HandshakeRate != 3 {
		t.Fatalf("5m row after a reset: %d handshakes over %vs at %v hs/s, want 6 over 2s at 3", w.Handshakes, w.Seconds, w.HandshakeRate)
	}

	// A ring shorter than a window bounds its span too.
	h, reg = newSLOHistory(8)
	for i := 0; i < 20; i++ {
		fold(reg, false, time.Millisecond, time.Millisecond)
		h.SampleNow()
	}
	if w := h.SLO(reg.SLOTarget()).Windows[0]; w.Seconds != 8 || w.HandshakeRate != 1 {
		t.Fatalf("10s window over an 8-slot ring: %vs at %v hs/s, want 8s at 1", w.Seconds, w.HandshakeRate)
	}
}

// TestSLOViewHTTP serves the view as JSON and text, and a nil history
// as an empty view.
func TestSLOViewHTTP(t *testing.T) {
	h, reg := newSLOHistory(0)
	fold(reg, false, time.Millisecond, time.Millisecond)
	h.SampleNow()
	mux := http.NewServeMux()
	RegisterSLO(mux, h, reg)
	get := func(mux *http.ServeMux, url string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", url, rec.Code)
		}
		body, _ := io.ReadAll(rec.Body)
		return string(body)
	}
	text := get(mux, "/debug/slo?format=text")
	for _, want := range []string{"handshakes in flight", "10s", "1m", "5m", "burn", "q-max-us"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text view misses %q:\n%s", want, text)
		}
	}
	if body := get(mux, "/debug/slo"); !strings.Contains(body, `"handshakes_per_sec"`) {
		t.Fatalf("JSON view: %s", body)
	}

	var nilHist *History
	if snap := nilHist.SLO(time.Second); len(snap.Windows) != 0 {
		t.Fatalf("nil history produced windows: %+v", snap.Windows)
	}
	empty := http.NewServeMux()
	RegisterSLO(empty, nil, nil)
	if body := get(empty, "/debug/slo"); !strings.Contains(body, `"windows": null`) {
		t.Fatalf("nil history view: %s", body)
	}
}

// countingLive is a conn table that counts its live reads.
type countingLive struct {
	sync.Mutex
	reads int
}

func (l *countingLive) LiveCounts() telemetry.Counts { l.reads++; return telemetry.Counts{} }

func (l *countingLive) Observatory() telemetry.ObservatoryStats {
	return telemetry.ObservatoryStats{}
}

// TestOneLiveReadPerTick: every registry-backed series fills from one
// Registry.Counts read, which walks the live conn table once per tick.
func TestOneLiveReadPerTick(t *testing.T) {
	reg := telemetry.NewRegistry()
	live := &countingLive{}
	reg.SetLive(live)
	h := New(Config{Interval: time.Second})
	AddStandardSources(h, Sources{Telemetry: reg, Runtime: true})
	for tick := 1; tick <= 3; tick++ {
		h.SampleNow()
		if live.reads != tick {
			t.Fatalf("%d live reads after %d ticks, want one per tick", live.reads, tick)
		}
	}
}
