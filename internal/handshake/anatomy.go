package handshake

import (
	"time"

	"sslperf/internal/perf"
	"sslperf/internal/probe"
)

// Crypto function names used in step attributions, matching the
// OpenSSL symbols of the paper's Table 2. The canonical definitions
// live in internal/probe (the instrumentation spine); these aliases
// keep the handshake-level API stable.
const (
	FnInitFinishedMac   = probe.FnInitFinishedMac
	FnRandPseudoBytes   = probe.FnRandPseudoBytes
	FnFinishMac         = probe.FnFinishMac
	FnX509              = probe.FnX509
	FnRSAPrivateDecrypt = probe.FnRSAPrivateDecrypt
	FnGenMasterSecret   = probe.FnGenMasterSecret
	FnGenKeyBlock       = probe.FnGenKeyBlock
	FnFinalFinishMac    = probe.FnFinalFinishMac
	FnPriDecryption     = probe.FnPriDecryption
	FnMac               = probe.FnMac
	FnPriEncryption     = probe.FnPriEncryption
	// DHE-suite functions (ServerKeyExchange path).
	FnDHGenerateKey = probe.FnDHGenerateKey
	FnRSASign       = probe.FnRSASign
	FnDHComputeKey  = probe.FnDHComputeKey
)

// Crypto-operation categories for Table 3 (canonical in probe).
const (
	CategoryPublic  = probe.CategoryPublic
	CategoryPrivate = probe.CategoryPrivate
	CategoryHash    = probe.CategoryHash
	CategoryOther   = probe.CategoryOther
)

// CategoryOf maps a crypto function name (the Fn* constants) onto its
// Table 3 category.
func CategoryOf(fn string) string { return probe.CategoryOf(fn) }

// A CryptoCall is one attributed crypto operation inside a step.
type CryptoCall struct {
	Name    string
	Elapsed time.Duration
}

// A Step is one of the ten server handshake steps with its total
// latency and the crypto calls it made — one row of Table 2.
type Step struct {
	Index   int
	Name    string
	Desc    string
	Elapsed time.Duration
	Crypto  []CryptoCall
}

// CryptoTotal sums the step's crypto-call time.
func (s *Step) CryptoTotal() time.Duration {
	var sum time.Duration
	for _, c := range s.Crypto {
		sum += c.Elapsed
	}
	return sum
}

// An Anatomy records the per-step, per-crypto-call timing of one
// server handshake — the probe sink that folds the event spine into
// Table 2 rows. Attach it with ssl.Conn.SetAnatomy (or pass it to
// NewServerFSM); it receives step boundaries, attributed crypto
// calls, and the record-layer work of the encrypted finished
// messages. A nil *Anatomy is a valid no-op sink.
type Anatomy struct {
	Steps []Step
}

// NewAnatomy returns an empty recorder.
func NewAnatomy() *Anatomy { return &Anatomy{} }

// Emit implements probe.Sink: step boundaries append and close Steps,
// crypto events append attributed calls, and record-layer crypto
// inside a step lands on the paper's pri_encryption/pri_decryption/
// mac rows. Record work outside any step (bulk transfer) is ignored —
// Table 2 covers the handshake only.
func (a *Anatomy) Emit(e probe.Event) {
	if a == nil {
		return
	}
	switch e.Kind {
	case probe.KindStepEnter:
		a.Steps = append(a.Steps, Step{
			Index: e.Step.Index(), Name: e.Step.Name(), Desc: e.Step.Desc(),
		})
	case probe.KindStepExit:
		if len(a.Steps) == 0 {
			return
		}
		cur := &a.Steps[len(a.Steps)-1]
		cur.Elapsed += e.Dur
	case probe.KindCrypto:
		a.addCrypto(e.Fn, e.Dur)
	case probe.KindRecordCrypto:
		if e.Step == probe.StepNone {
			return
		}
		a.addCrypto(e.Op.StepFn(), e.Dur)
	}
}

// addCrypto attributes one timed crypto call to the current step.
func (a *Anatomy) addCrypto(fn string, d time.Duration) {
	if len(a.Steps) == 0 {
		return
	}
	cur := &a.Steps[len(a.Steps)-1]
	cur.Crypto = append(cur.Crypto, CryptoCall{Name: fn, Elapsed: d})
}

// Total returns the summed step latency.
func (a *Anatomy) Total() time.Duration {
	var sum time.Duration
	for _, s := range a.Steps {
		sum += s.Elapsed
	}
	return sum
}

// CryptoBreakdown aggregates crypto-call time by category — the
// paper's Table 3: public key encryption, private key encryption,
// hashing, and other crypto (randomness, X509, key derivation's
// hashing is counted as hashing).
func (a *Anatomy) CryptoBreakdown() *perf.Breakdown {
	b := perf.NewBreakdown()
	// Seed category order for stable output.
	b.Add(CategoryPublic, 0)
	b.Add(CategoryPrivate, 0)
	b.Add(CategoryHash, 0)
	b.Add(CategoryOther, 0)
	for _, s := range a.Steps {
		for _, c := range s.Crypto {
			b.Add(CategoryOf(c.Name), c.Elapsed)
		}
	}
	return b
}

// CryptoTotal sums all crypto-call time across steps.
func (a *Anatomy) CryptoTotal() time.Duration {
	var sum time.Duration
	for _, s := range a.Steps {
		sum += s.CryptoTotal()
	}
	return sum
}
