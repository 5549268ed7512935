package lifecycle

import (
	"testing"
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
)

// connTableOps are the conn-table hot paths, each set up warm and
// handed back as one operation. BenchmarkConnTable times them and
// TestConnTableZeroAlloc gates them, so the two cannot measure
// different bodies.
var connTableOps = []struct {
	name  string
	setup func() (op func())
}{
	{"open-close", func() func() {
		tab := warmTable(Options{})
		return func() { open(tab, "bench").end() }
	}},
	{"full-life", func() func() {
		// The whole lifecycle a served connection pays: open,
		// handshake transitions with step and record events on the
		// spine, registry fold, close.
		tab := warmTable(Options{})
		at := time.Now()
		return func() {
			c := open(tab, "bench")
			c.start()
			c.Emit(probe.Event{Kind: probe.KindStepEnter, Step: probe.StepGetClientHello, At: at})
			c.Emit(probe.Event{Kind: probe.KindStepExit, Step: probe.StepGetClientHello, At: at, Dur: time.Microsecond})
			c.Emit(probe.Event{Kind: probe.KindStepEnter, Step: probe.StepGetClientKX, At: at})
			c.Emit(probe.Event{Kind: probe.KindStepExit, Step: probe.StepGetClientKX, At: at, Dur: time.Microsecond})
			c.Emit(probe.Event{Kind: probe.KindRecordIO, Bytes: 512, Written: false})
			c.Emit(probe.Event{Kind: probe.KindRecordIO, Bytes: 512, Written: true})
			c.established("RC4-MD5", 0x0300, false, time.Millisecond)
			c.end()
		}
	}},
	{"emit", func() func() {
		c := open(NewTable(Options{}), "bench")
		written := false
		return func() {
			written = !written
			c.Emit(probe.Event{Kind: probe.KindRecordIO, Bytes: 1024, Written: written})
		}
	}},
}

// warmTable builds a table folding into a registry and cycles enough
// entries through it to fill the pool and the shard maps.
func warmTable(o Options) *Table {
	o.Registry = telemetry.NewRegistry()
	tab := NewTable(o)
	for i := 0; i < 64; i++ {
		open(tab, "warm").end()
	}
	return tab
}

// BenchmarkConnTable times the conn-table hot path: what attaching the
// observatory to a server costs per connection and per record event.
func BenchmarkConnTable(b *testing.B) {
	for _, o := range connTableOps {
		b.Run(o.name, func(b *testing.B) {
			op := o.setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// TestConnTableZeroAlloc pins the same paths at zero allocations per
// operation: opening, transitioning, and closing an entry recycle
// pooled entries and reuse freed shard-map slots, so the observatory
// costs bookkeeping, not garbage. An allocation here means the entry
// pool or the fixed-size timeline regressed.
func TestConnTableZeroAlloc(t *testing.T) {
	for _, o := range connTableOps {
		if a := testing.AllocsPerRun(100, o.setup()); a != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", o.name, a)
		}
	}
}
