package workload

import (
	"bytes"
	"testing"
)

func TestFileSweep(t *testing.T) {
	sweep := FileSweep()
	want := []int{1024, 2048, 4096, 8192, 16384, 32768}
	if len(sweep) != len(want) {
		t.Fatalf("sweep = %v", sweep)
	}
	for i := range want {
		if sweep[i] != want[i] {
			t.Fatalf("sweep[%d] = %d, want %d", i, sweep[i], want[i])
		}
	}
}

func TestWebPattern(t *testing.T) {
	p := Web(5, 1024)
	if len(p.Sessions) != 5 {
		t.Fatalf("sessions = %d", len(p.Sessions))
	}
	for _, s := range p.Sessions {
		if s.Resume || len(s.Transactions) != 1 || s.Transactions[0].ResponseLen != 1024 {
			t.Fatalf("session = %+v, want one full-handshake 1024-byte response", s)
		}
	}
}

func TestBankingResumeRatio(t *testing.T) {
	p := Banking(100, 0.9)
	resumed := 0
	for _, s := range p.Sessions {
		if s.Resume {
			resumed++
		}
	}
	if resumed < 85 || resumed > 90 {
		t.Fatalf("resumed = %d of 100, want ~90", resumed)
	}
	if p.Sessions[0].Resume {
		t.Fatal("first session cannot resume")
	}
	// Zero ratio -> no resumption.
	for _, s := range Banking(10, 0).Sessions {
		if s.Resume {
			t.Fatal("zero ratio should mean all full handshakes")
		}
	}
}

func TestPayloadDeterministic(t *testing.T) {
	a := Payload(1000)
	b := Payload(1000)
	if !bytes.Equal(a, b) {
		t.Fatal("payload not deterministic")
	}
	if bytes.Equal(a[:500], make([]byte, 500)) {
		t.Fatal("payload is all zeros")
	}
	// Longer payload extends the shorter one.
	c := Payload(2000)
	if !bytes.Equal(c[:1000], a) {
		t.Fatal("payload not prefix-consistent")
	}
}

// The framing is what sslload and bench/ parse and verify
// byte for byte; it must stay "LEN n\n" + Payload(n).
func TestResponseFraming(t *testing.T) {
	want := append([]byte("LEN 1500\n"), Payload(1500)...)
	if got := Response(1500); !bytes.Equal(got, want) {
		t.Fatalf("Response(1500) starts %q, want %q", got[:12], want[:12])
	}
}
