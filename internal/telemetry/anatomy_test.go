package telemetry

import (
	"testing"
	"time"

	"sslperf/internal/probe"
)

// crypto is one attributed crypto call of a sampled handshake's detail.
func crypto(st probe.Step, fn string, d time.Duration) Call {
	return Call{Kind: CatCrypto, Name: fn, Step: st, Dur: d}
}

// sampled is a finished full handshake the sampler kept in detail.
func sampled(steps []StepTiming, calls ...Call) *Handshake {
	h := hsDone("DES-CBC3-SHA", 0x0300, false, time.Millisecond, steps...)
	h.Sampled, h.Calls = true, calls
	return h
}

// stepRow returns the anatomy's row for st.
func stepRow(t *testing.T, a Anatomy, st probe.Step) AnatomyStep {
	t.Helper()
	for _, row := range a.Steps {
		if row.Name == st.Name() {
			return row
		}
	}
	t.Fatalf("no %s row in %+v", st.Name(), a.Steps)
	return AnatomyStep{}
}

// TestAnatomyStepAccounting folds one sampled full handshake and
// checks Table 2's rows: every step keeps its own time and the calls
// made inside it, rsa_private_decryption sits on the get_client_kx row
// only, and finish_mac, called in several steps, is split between
// them.
func TestAnatomyStepAccounting(t *testing.T) {
	r := NewRegistry()
	r.FoldHandshake(sampled(
		[]StepTiming{
			step(probe.StepInit, 2*time.Millisecond),
			step(probe.StepGetClientHello, time.Millisecond),
			step(probe.StepGetClientKX, 20*time.Millisecond),
			step(probe.StepSendFinished, 3*time.Millisecond),
		},
		crypto(probe.StepInit, probe.FnInitFinishedMac, time.Millisecond),
		crypto(probe.StepGetClientHello, probe.FnFinishMac, 100*time.Microsecond),
		crypto(probe.StepGetClientKX, probe.FnRSAPrivateDecrypt, 18*time.Millisecond),
		crypto(probe.StepGetClientKX, probe.FnGenMasterSecret, 200*time.Microsecond),
		crypto(probe.StepGetClientKX, probe.FnFinishMac, 300*time.Microsecond),
		crypto(probe.StepSendFinished, probe.FnFinishMac, 400*time.Microsecond),
		crypto(probe.StepSendFinished, probe.FnFinishMac, 500*time.Microsecond),
		crypto(probe.StepSendFinished, probe.FnPriEncryption, 50*time.Microsecond),
	))
	a := r.Anatomy()
	if a.Handshakes != 1 || a.Sampled != 1 || len(a.Steps) != 4 {
		t.Fatalf("anatomy folded %d handshakes (%d sampled) into %d steps, want 1 (1) into 4",
			a.Handshakes, a.Sampled, len(a.Steps))
	}
	if a.Steps[0].Name != probe.StepInit.Name() || a.Steps[1].Name != probe.StepGetClientHello.Name() {
		t.Fatalf("step identity = %+v", a.Steps)
	}
	if want := kcycles(2 * time.Millisecond); a.Steps[0].MeanKcyc != want {
		t.Fatalf("init = %v kcycles, want %v", a.Steps[0].MeanKcyc, want)
	}

	// Each step's crypto column holds the calls made inside it, in
	// the order they ran; a function called twice in one step is one
	// row.
	calls := func(st probe.Step) map[string]float64 {
		out := map[string]float64{}
		for _, c := range stepRow(t, a, st).Crypto {
			if c.Step != st.Name() {
				t.Fatalf("%s row carries a call of step %q", st.Name(), c.Step)
			}
			out[c.Name] = c.MeanKcyc
		}
		return out
	}
	kx := stepRow(t, a, probe.StepGetClientKX)
	if len(kx.Crypto) != 3 || kx.Crypto[0].Name != probe.FnRSAPrivateDecrypt ||
		kx.Crypto[1].Name != probe.FnGenMasterSecret || kx.Crypto[2].Name != probe.FnFinishMac {
		t.Fatalf("get_client_kx crypto = %+v", kx.Crypto)
	}
	for _, st := range []probe.Step{probe.StepInit, probe.StepGetClientHello, probe.StepSendFinished} {
		if _, ok := calls(st)[probe.FnRSAPrivateDecrypt]; ok {
			t.Fatalf("rsa_private_decryption attributed to %s", st.Name())
		}
	}
	var rsaRows int
	for _, c := range a.Crypto {
		if c.Name == probe.FnRSAPrivateDecrypt {
			rsaRows++
			if c.Step != probe.StepGetClientKX.Name() || c.Count != 1 || c.MeanKcyc != kcycles(18*time.Millisecond) {
				t.Fatalf("rsa_private_decryption row = %+v", c)
			}
		}
	}
	if rsaRows != 1 {
		t.Fatalf("%d rsa_private_decryption rows, want 1", rsaRows)
	}
	for st, want := range map[probe.Step]time.Duration{
		probe.StepGetClientHello: 100 * time.Microsecond,
		probe.StepGetClientKX:    300 * time.Microsecond,
		probe.StepSendFinished:   900 * time.Microsecond,
	} {
		if got := calls(st)[probe.FnFinishMac]; got != kcycles(want) {
			t.Errorf("finish_mac in %s = %v kcycles, want %v", st.Name(), got, kcycles(want))
		}
	}
	if got := len(stepRow(t, a, probe.StepSendFinished).Crypto); got != 2 {
		t.Fatalf("send_finished has %d crypto rows, want finish_mac and pri_encryption", got)
	}

	// Crypto time is part of step time, never more.
	var cryptoKcyc, stepKcyc float64
	for _, c := range a.Crypto {
		cryptoKcyc += c.MeanKcyc
	}
	for _, st := range a.Steps {
		stepKcyc += st.MeanKcyc
	}
	if cryptoKcyc == 0 || cryptoKcyc > stepKcyc || a.CryptoSharePct <= 0 || a.CryptoSharePct > 100 {
		t.Fatalf("crypto %v kcycles (%.1f%%) of %v step kcycles", cryptoKcyc, a.CryptoSharePct, stepKcyc)
	}
}

// TestAnatomyCategoryOrder: Table 3's categories come out public,
// private, hash, other, whichever order their calls folded in.
func TestAnatomyCategoryOrder(t *testing.T) {
	want := []string{probe.CategoryPublic, probe.CategoryPrivate, probe.CategoryHash, probe.CategoryOther}
	calls := []Call{
		crypto(probe.StepGetClientHello, probe.FnRandPseudoBytes, time.Microsecond),
		crypto(probe.StepGetClientHello, probe.FnFinishMac, time.Microsecond),
		crypto(probe.StepGetFinished, probe.FnPriDecryption, time.Microsecond),
		crypto(probe.StepGetClientKX, probe.FnRSAPrivateDecrypt, time.Microsecond),
	}
	reversed := []Call{calls[3], calls[2], calls[1], calls[0]}
	steps := []StepTiming{step(probe.StepGetClientHello, time.Millisecond)}
	for _, order := range [][]Call{calls, reversed} {
		r := NewRegistry()
		r.FoldHandshake(sampled(steps, order...))
		var got []string
		for _, c := range r.Anatomy().Categories {
			got = append(got, c.Name)
		}
		if len(got) != len(want) {
			t.Fatalf("categories %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fold order %s first: categories %v, want %v", order[0].Name, got, want)
			}
		}
	}
}
