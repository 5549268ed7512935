package probe

import (
	"context"
	"sync/atomic"
	"time"
)

// A Sink consumes probe events. Emit is called synchronously on the
// emitting goroutine, in sink attachment order; a slow sink slows the
// connection. Sinks attached to per-connection buses see one
// goroutine at a time (the ssl package serializes connections), but a
// sink shared across connections or attached to an engine bus must be
// safe for concurrent Emit calls.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// Observe implements Observer: one function watches every connection.
func (f SinkFunc) Observe() Sink { return f }

// An Observer is offered every connection as it opens and answers
// with the sink that connection's events go to: itself when it
// aggregates across connections (a metrics registry), a fresh
// per-connection accumulator (a table entry, a span trace), or nil to
// decline — a sampler passing this connection over. A connection all
// of whose observers decline runs on the nil bus. The sink learns who
// it is watching from the KindConnOpen event that follows.
type Observer interface {
	Observe() Sink
}

// connSeq numbers connections process-wide, so every sink that keys
// by Event.Conn — flight recorder, span traces, the conn table and
// its close-log — names one connection by one number.
var connSeq atomic.Uint64

// A Bus stamps events once and fans them out to its sinks. A nil
// *Bus is the off state: every method is a nil-receiver no-op, so an
// uninstrumented hot path pays one pointer test and performs zero
// allocations — NewBus returns nil when no sinks are attached
// precisely so that the fast path engages.
//
// The step cursor (StepEnter/StepExit) is single-owner state: only
// the handshake goroutine moves it. Stateless emissions (RecordIO,
// the Engine* helpers) may come from any goroutine as long as the
// sinks tolerate it.
type Bus struct {
	sinks []Sink

	cur       Step
	open      bool
	stepStart time.Time

	// suspended/stepAccum support non-blocking handshakes parked on
	// WouldBlock: StepSuspend banks the active time accrued so far and
	// stops the clock; StepResume restarts it. StepExit then reports
	// banked + current active time, so a step that waited minutes for
	// wire bytes still attributes only the cycles it actually spent —
	// the /debug/anatomy shares stay exact across suspension. Sinks see
	// the park as a KindHandshakeSuspend/Resume pair inside the step;
	// the stream remains exactly one Enter and one Exit per step.
	suspended bool
	stepAccum time.Duration

	// conn is the ID ConnOpen drew, stamped on every event; hsStart is
	// when HandshakeStart ran.
	conn    uint64
	hsStart time.Time

	// labelCtx carries the open step's pprof labels when profile
	// labelling is enabled (see SetProfileLabels); nil otherwise. It is
	// single-owner state like the step cursor.
	labelCtx context.Context
}

// NewBus builds a bus over the non-nil sinks, returning nil (the
// no-op bus) when none remain.
func NewBus(sinks ...Sink) *Bus {
	var list []Sink
	for _, s := range sinks {
		if s != nil {
			list = append(list, s)
		}
	}
	if len(list) == 0 {
		return nil
	}
	return &Bus{sinks: list}
}

// Over returns a bus over sinks that continues b's connection — the
// same ID and handshake clock, a fresh step cursor — or nil when no
// sinks remain. Swap sinks between steps, not inside one.
func (b *Bus) Over(sinks ...Sink) *Bus {
	nb := NewBus(sinks...)
	if nb != nil && b != nil {
		nb.conn, nb.hsStart = b.conn, b.hsStart
	}
	return nb
}

// With returns a bus carrying b's sinks plus the given ones (see
// Over); compose sinks before the handshake starts.
func (b *Bus) With(sinks ...Sink) *Bus {
	if b == nil {
		return NewBus(sinks...)
	}
	if len(sinks) == 0 {
		return b
	}
	all := make([]Sink, 0, len(b.sinks)+len(sinks))
	all = append(all, b.sinks...)
	all = append(all, sinks...)
	return b.Over(all...)
}

// Active reports whether events will reach any sink.
func (b *Bus) Active() bool { return b != nil }

func (b *Bus) emit(e Event) {
	e.Conn = b.conn
	for _, s := range b.sinks {
		s.Emit(e)
	}
}

// openStep returns the step the cursor is inside, or StepNone.
func (b *Bus) openStep() Step {
	if b.open {
		return b.cur
	}
	return StepNone
}

// StepEnter opens step st, closing any step still open (steps never
// nest in the SSL FSM).
func (b *Bus) StepEnter(st Step) {
	if b == nil {
		return
	}
	b.StepExit()
	now := time.Now()
	b.cur, b.open, b.stepStart = st, true, now
	b.suspended, b.stepAccum = false, 0
	if ProfileLabels() {
		b.labelCtx = labelStep(st)
	}
	b.emit(Event{Kind: KindStepEnter, Step: st, At: now})
}

// StepExit closes the open step, emitting its in-step duration
// (active time only — intervals parked by StepSuspend are excluded);
// a no-op when no step is open.
func (b *Bus) StepExit() {
	if b == nil || !b.open {
		return
	}
	now := time.Now()
	dur := b.stepAccum
	if !b.suspended {
		dur += now.Sub(b.stepStart)
	}
	b.open = false
	b.emit(Event{Kind: KindStepExit, Step: b.cur, At: now, Dur: dur})
	b.cur = StepNone
	b.suspended, b.stepAccum = false, 0
	if b.labelCtx != nil {
		b.labelCtx = nil
		clearLabels()
	}
}

// StepSuspend parks the open step's clock: the active time accrued
// since entry (or the last resume) is banked and the goroutine's
// pprof step labels are cleared, so time spent waiting for wire bytes
// is attributed to neither the step nor its profile bucket. Sinks get
// a KindHandshakeSuspend inside the step's one Enter/Exit pair. A
// no-op when no step is open or already suspended.
func (b *Bus) StepSuspend() {
	if b == nil || !b.open || b.suspended {
		return
	}
	now := time.Now()
	b.stepAccum += now.Sub(b.stepStart)
	b.suspended = true
	if b.labelCtx != nil {
		b.labelCtx = nil
		clearLabels()
	}
	b.emit(Event{Kind: KindHandshakeSuspend, Step: b.cur, At: now})
}

// StepResume restarts a suspended step's clock, re-applies its pprof
// labels and emits KindHandshakeResume. A no-op when no step is open
// or the step is not suspended.
func (b *Bus) StepResume() {
	if b == nil || !b.open || !b.suspended {
		return
	}
	b.stepStart = time.Now()
	b.suspended = false
	if ProfileLabels() {
		b.labelCtx = labelStep(b.cur)
	}
	b.emit(Event{Kind: KindHandshakeResume, Step: b.cur, At: b.stepStart})
}

// Crypto runs fn, attributing its duration to the named crypto
// function within the open step. On a nil bus fn runs untimed.
func (b *Bus) Crypto(fn string, f func()) {
	if b == nil {
		f()
		return
	}
	start := time.Now()
	if b.labelCtx != nil {
		labelCrypto(b.labelCtx, fn, f)
	} else {
		f()
	}
	b.emit(Event{Kind: KindCrypto, Step: b.openStep(), Fn: fn, At: start, Dur: time.Since(start)})
}

// CryptoErr is Crypto for functions that can fail.
func (b *Bus) CryptoErr(fn string, f func() error) error {
	var err error
	b.Crypto(fn, func() { err = f() })
	return err
}

// Stamp returns the spine's notion of "now" for a region about to be
// measured, or the zero time on a nil bus (where the later emission
// is a no-op anyway). Hot paths use Stamp + the emission helpers so
// the spine owns every clock read.
func (b *Bus) Stamp() time.Time {
	if b == nil {
		return time.Time{}
	}
	return time.Now()
}

// RecordCrypto reports one record-layer cipher/MAC pass over bytes of
// payload that began at start (from Stamp). Prim names the primitive
// doing the work ("RC4", "AES", "MD5", …) so per-primitive path-length
// accounting needs no suite lookup. The event carries the open
// handshake step, if any, so sinks can attribute the encrypted
// finished messages to Table 2's pri_encryption/pri_decryption/mac
// rows and leave bulk-phase work unattributed.
func (b *Bus) RecordCrypto(op RecordOp, prim string, bytes int, start time.Time) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindRecordCrypto, Step: b.openStep(), Op: op,
		Prim: prim, Bytes: bytes, At: start, Dur: time.Since(start)})
}

// RecordIO reports one framed record written or opened with its
// plaintext payload size.
func (b *Bus) RecordIO(written, alert bool, bytes int) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindRecordIO, Step: b.openStep(), Written: written,
		Alert: alert, Bytes: bytes})
}

// EngineValue reports a dimensionless engine sample.
func (b *Bus) EngineValue(name string, v int64) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindEngineValue, Fn: name, Value: v})
}

// EngineTimer reports a completed engine region.
func (b *Bus) EngineTimer(name string, d time.Duration) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindEngineTimer, Fn: name, Dur: d})
}

// Timed runs fn, reporting its duration as an engine timer. On a nil
// bus fn runs untimed.
func (b *Bus) Timed(name string, f func()) {
	if b == nil {
		f()
		return
	}
	start := time.Now()
	f()
	b.emit(Event{Kind: KindEngineTimer, Fn: name, At: start, Dur: time.Since(start)})
}

// EngineSpan reports one cross-connection engine operation of the
// given size that began at start (from Stamp), linked to the spans it
// served.
func (b *Bus) EngineSpan(name string, size int, start time.Time, links []SpanRef) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindEngineSpan, Fn: name, Value: int64(size),
		Links: links, At: start, Dur: time.Since(start)})
}

// ConnOpen opens the connection's stream: it draws the connection's
// ID, which every event from here on carries, and reports the role
// ("client" or "server") and the peer address, if known.
func (b *Bus) ConnOpen(role, remote string) {
	if b == nil {
		return
	}
	b.conn = connSeq.Add(1)
	b.emit(Event{Kind: KindConnOpen, Fn: role, Detail: remote, At: time.Now()})
}

// HandshakeStart starts the handshake clock that HandshakeDone and
// HandshakeFail report against.
func (b *Bus) HandshakeStart(role string) {
	if b == nil {
		return
	}
	b.hsStart = time.Now()
	b.emit(Event{Kind: KindHandshakeStart, Fn: role, At: b.hsStart})
}

// HandshakeDone reports a completed handshake and what it negotiated.
func (b *Bus) HandshakeDone(suite string, version uint16, resumed bool) {
	if b == nil {
		return
	}
	now := time.Now()
	b.emit(Event{Kind: KindHandshakeDone, Fn: suite, Version: version,
		Resumed: resumed, At: now, Dur: now.Sub(b.hsStart)})
}

// HandshakeFail reports a terminal handshake error under its canonical
// class and tag, with the error text as detail.
func (b *Bus) HandshakeFail(class FailClass, tag, detail string) {
	if b == nil {
		return
	}
	now := time.Now()
	b.emit(Event{Kind: KindHandshakeFail, Class: class, Fn: tag,
		Detail: detail, At: now, Dur: now.Sub(b.hsStart)})
}

// AppIO reports one application-data read or write of bytes plaintext
// bytes that began at start (from Stamp).
func (b *Bus) AppIO(written bool, bytes int, start time.Time) {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindAppIO, Written: written, Bytes: bytes,
		At: start, Dur: time.Since(start)})
}

// ConnClose ends the connection's stream.
func (b *Bus) ConnClose() {
	if b == nil {
		return
	}
	b.emit(Event{Kind: KindConnClose, At: time.Now()})
}
