package trace

import "testing"

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
