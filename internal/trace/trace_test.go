package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sslperf/internal/probe"
)

// begin samples one connection and opens it on the trace the way the
// connection's bus would.
func begin(tr *Tracer, conn uint64) *ConnTrace {
	ct := tr.ConnBegin()
	if ct != nil {
		ct.Emit(probe.Event{Kind: probe.KindConnOpen, Conn: conn, Fn: "server"})
	}
	return ct
}

func TestNilTracerAndConnTraceAreNoOps(t *testing.T) {
	var tr *Tracer
	if ct := tr.ConnBegin(); ct != nil || tr.Observe() != nil {
		t.Fatal("nil tracer sampled a connection")
	}
	tr.EngineSpan("x", "", time.Now(), time.Millisecond, nil)
	if got := tr.Traces(); got != nil {
		t.Fatalf("nil tracer Traces() = %v", got)
	}
	if got := tr.Stats(); got != (Stats{}) {
		t.Fatalf("nil tracer Stats() = %+v", got)
	}
	if tr.Profiler() != nil {
		t.Fatal("nil tracer returned a profiler")
	}

	var ct *ConnTrace
	id := ct.Begin("x", CatStep, 0)
	ct.End(id, time.Millisecond)
	ct.Event("y", CatCrypto, 0, time.Now(), time.Millisecond)
	ct.Finish("ok")
	if ct.Observe() != nil {
		t.Fatal("nil ConnTrace offered itself as a sink")
	}
	if ct.TraceID() != 0 {
		t.Fatal("nil ConnTrace has a trace ID")
	}
	if ct.Ref() != (Ref{}) {
		t.Fatal("nil ConnTrace returned a non-zero Ref")
	}
}

func TestSamplingModulus(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 16; i++ {
		if ct := begin(tr, uint64(i)); ct != nil {
			sampled++
			ct.Finish("ok")
		}
	}
	if sampled != 4 {
		t.Fatalf("SampleEvery=4 over 16 connections sampled %d, want 4", sampled)
	}
	st := tr.Stats()
	if st.Seen != 16 || st.Sampled != 4 || st.Finished != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRateLimit(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, MaxPerSec: 2})
	sampled := 0
	for i := 0; i < 10; i++ {
		if ct := begin(tr, uint64(i)); ct != nil {
			sampled++
		}
	}
	if sampled != 2 {
		t.Fatalf("MaxPerSec=2 sampled %d in one burst, want 2", sampled)
	}
	if st := tr.Stats(); st.RateLimited != 8 {
		t.Fatalf("RateLimited = %d, want 8", st.RateLimited)
	}
}

func TestSpanLifecycleAndPublish(t *testing.T) {
	tr := NewTracer(Config{})
	ct := begin(tr, 42)
	if ct == nil {
		t.Fatal("default config did not sample")
	}
	hs := ct.Begin("handshake", CatConn, 0)
	step := ct.Begin("get_client_kx", CatStep, hs)
	ct.Event("rsa_decrypt", CatCrypto, step, time.Now(), 3*time.Millisecond)
	ct.End(step, 5*time.Millisecond) // explicit elapsed override
	ct.End(hs, -1)                   // wall clock
	ct.setDetail(hs, "RSA-RC4-SHA")
	ct.Finish("ok")
	ct.Finish("again") // idempotent: first outcome wins

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	td := traces[0]
	if td.Conn != 42 || td.Role != "server" || td.Outcome != "ok" {
		t.Fatalf("trace = %+v", td)
	}
	if len(td.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(td.Spans))
	}
	byName := map[string]*Span{}
	for i := range td.Spans {
		byName[td.Spans[i].Name] = &td.Spans[i]
	}
	if byName["get_client_kx"].Duration != 5*time.Millisecond {
		t.Fatalf("explicit elapsed not honored: %v", byName["get_client_kx"].Duration)
	}
	if byName["rsa_decrypt"].Parent != byName["get_client_kx"].ID {
		t.Fatal("crypto span not parented under its step")
	}
	if byName["handshake"].Detail != "RSA-RC4-SHA" {
		t.Fatalf("detail = %q", byName["handshake"].Detail)
	}
	if byName["handshake"].Duration <= 0 {
		t.Fatal("wall-clock duration not stamped")
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	tr := NewTracer(Config{})
	ct := begin(tr, 1)
	ct.Begin("handshake", CatConn, 0) // never ended
	ct.Finish("io_error")
	td := tr.Traces()[0]
	if td.Spans[0].Duration <= 0 {
		t.Fatal("Finish left an open span with zero duration")
	}
	if td.Outcome != "io_error" {
		t.Fatalf("outcome = %q", td.Outcome)
	}
}

func TestRefTracksCurrentStep(t *testing.T) {
	tr := NewTracer(Config{})
	ct := begin(tr, 1)
	if ref := ct.Ref(); ref.Trace != ct.TraceID() || ref.Span != 0 {
		t.Fatalf("pre-step Ref = %+v", ref)
	}
	step := ct.Begin("get_client_kx", CatStep, 0)
	if ref := ct.Ref(); ref.Span != step {
		t.Fatalf("in-step Ref = %+v, want span %d", ct.Ref(), step)
	}
}

func TestEngineSpansRetainedAndCounted(t *testing.T) {
	tr := NewTracer(Config{EngineRingSize: 4})
	for i := 0; i < 6; i++ {
		tr.EngineSpan("rsa_batch", fmt.Sprintf("size=%d", i), time.Now(),
			time.Millisecond, []Ref{{Trace: 1, Span: uint64(i)}})
	}
	spans := tr.EngineSpans()
	if len(spans) != 4 {
		t.Fatalf("ring of 4 retained %d spans", len(spans))
	}
	// Oldest-first: the ring was lapped, so the oldest survivor is #2.
	if spans[0].Detail != "size=2" || spans[3].Detail != "size=5" {
		t.Fatalf("snapshot order wrong: %q .. %q", spans[0].Detail, spans[3].Detail)
	}
	if st := tr.Stats(); st.EngineSpans != 6 {
		t.Fatalf("EngineSpans stat = %d, want 6", st.EngineSpans)
	}
}

func TestTraceRingWraps(t *testing.T) {
	tr := NewTracer(Config{RingSize: 2})
	for i := 0; i < 5; i++ {
		ct := begin(tr, uint64(100+i))
		ct.Finish("ok")
	}
	traces := tr.Traces()
	if len(traces) != 2 {
		t.Fatalf("ring of 2 retained %d traces", len(traces))
	}
	if traces[0].Conn != 103 || traces[1].Conn != 104 {
		t.Fatalf("wrong survivors: conn %d, %d", traces[0].Conn, traces[1].Conn)
	}
}

func TestMaxSpansFinishesTrace(t *testing.T) {
	tr := NewTracer(Config{MaxSpans: 8})
	ct := begin(tr, 1)
	for i := 0; i < 20; i++ {
		ct.Event("write", CatIO, 0, time.Now(), time.Microsecond)
	}
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("full trace not auto-finished (%d published)", len(traces))
	}
	if got := traces[0].Outcome; got != "span_limit" {
		t.Fatalf("outcome = %q, want span_limit", got)
	}
	if n := len(traces[0].Spans); n != 8 {
		t.Fatalf("trace grew to %d spans past MaxSpans=8", n)
	}
}

func TestFoldThenFinishCountsOnce(t *testing.T) {
	tr := NewTracer(Config{})
	ct := begin(tr, 1)
	s := ct.Begin("init", CatStep, 0)
	ct.End(s, time.Millisecond)
	ct.fold()
	ct.fold() // second fold is a no-op
	ct.Finish("ok")
	snap := tr.Profiler().Snapshot()
	if snap.Traces != 1 || snap.Handshakes != 1 {
		t.Fatalf("folded %d traces / %d handshakes, want 1/1", snap.Traces, snap.Handshakes)
	}
	if len(snap.Steps) != 1 || snap.Steps[0].Count != 1 {
		t.Fatalf("steps = %+v", snap.Steps)
	}
}

func TestConcurrentTracing(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 2, RingSize: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ct := begin(tr, uint64(g*100+i))
				if ct == nil {
					continue
				}
				s := ct.Begin("init", CatStep, 0)
				ct.Event("md5", CatCrypto, s, time.Now(), time.Microsecond)
				ct.End(s, time.Microsecond)
				tr.EngineSpan("rsa_batch", "size=2", time.Now(), time.Microsecond,
					[]Ref{ct.Ref()})
				ct.Finish("ok")
			}
		}(g)
	}
	wg.Wait()
	st := tr.Stats()
	if st.Seen != 400 {
		t.Fatalf("seen = %d, want 400", st.Seen)
	}
	if st.Sampled != 200 || st.Finished != 200 {
		t.Fatalf("sampled/finished = %d/%d, want 200/200", st.Sampled, st.Finished)
	}
	if got := tr.Profiler().Snapshot().Handshakes; got != 200 {
		t.Fatalf("profiler folded %d handshakes, want 200", got)
	}
}
