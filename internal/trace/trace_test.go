package trace

import (
	"fmt"
	"testing"
	"time"
)

func TestSamplingModulus(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 16; i++ {
		switch v := tr.Sample(); v {
		case DetailFull:
			sampled++
		case DetailSampledOut:
		default:
			t.Fatalf("verdict %q without a rate limit", v)
		}
	}
	if sampled != 4 {
		t.Fatalf("SampleEvery=4 over 16 connections sampled %d, want 4", sampled)
	}
	st := tr.Stats()
	if st.Seen != 16 || st.Sampled != 4 || st.RateLimited != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRateLimit(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, MaxPerSec: 2})
	sampled, limited := 0, 0
	for i := 0; i < 10; i++ {
		switch tr.Sample() {
		case DetailFull:
			sampled++
		case DetailRateLimited:
			limited++
		}
	}
	if sampled != 2 || limited != 8 {
		t.Fatalf("MaxPerSec=2 sampled %d / limited %d in one burst, want 2/8", sampled, limited)
	}
	if st := tr.Stats(); st.RateLimited != 8 {
		t.Fatalf("RateLimited = %d, want 8", st.RateLimited)
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
