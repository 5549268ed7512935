package webmodel

import (
	"math"
	"sync"
	"testing"
	"time"

	"sslperf/internal/cpufeat"
	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/testenv"
	"sslperf/internal/workload"
)

var (
	idOnce sync.Once
	testID *ssl.Identity
)

func identity(t testing.TB) *ssl.Identity {
	t.Helper()
	idOnce.Do(func() {
		var err error
		// 1024-bit key, the paper's web-server configuration.
		testID, err = ssl.NewIdentity(ssl.NewPRNG(99), 1024, "webmodel-test", time.Now())
		if err != nil {
			panic(err)
		}
	})
	return testID
}

func newServer(t testing.TB) *Server {
	s, err := suite.ByName("DES-CBC3-SHA")
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(identity(t), s)
}

func TestRunTransactionMeasures(t *testing.T) {
	srv := newServer(t)
	res, sess, err := srv.RunTransaction(1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed {
		t.Fatal("first transaction cannot be resumed")
	}
	if res.BytesSent != 1024 {
		t.Fatalf("sent %d bytes", res.BytesSent)
	}
	if res.Crypto.Public == 0 {
		t.Fatal("no RSA time measured")
	}
	if res.Crypto.Private == 0 || res.Crypto.Hash == 0 {
		t.Fatalf("bulk crypto not measured: %+v", res.Crypto)
	}
	if res.SSLTotal < res.Crypto.Total() {
		t.Fatal("SSL total below crypto total")
	}
	if sess == nil || len(sess.ID) == 0 {
		t.Fatal("no session returned")
	}
}

// The paper's headline: at small file sizes the public-key operation
// dominates the crypto time (~90% at 1 KB), and its share shrinks as
// the file grows while private-key encryption and hashing grow.
func TestFigure2Shape(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector instruments the Go symmetric kernels but not the asm bignum: the shares would measure the instrumentation")
	}
	srv := newServer(t)
	shareAt := func(size int) (public, private, hash float64) {
		var agg CryptoSplit
		// Average a few runs to stabilize.
		for i := 0; i < 3; i++ {
			res, _, err := srv.RunTransaction(size, nil)
			if err != nil {
				t.Fatal(err)
			}
			agg.Add(res.Crypto)
		}
		total := float64(agg.Total())
		return 100 * float64(agg.Public) / total,
			100 * float64(agg.Private) / total,
			100 * float64(agg.Hash) / total
	}
	pub1, priv1, _ := shareAt(1 << 10)
	pub32, priv32, _ := shareAt(32 << 10)
	if pub1 < 50 {
		t.Fatalf("public share at 1KB = %.1f%%, want dominant (paper ~90%%)", pub1)
	}
	if pub32 >= pub1 {
		t.Fatalf("public share should fall with size: %.1f%% -> %.1f%%", pub1, pub32)
	}
	if priv32 <= priv1 {
		t.Fatalf("private share should grow with size: %.1f%% -> %.1f%%", priv1, priv32)
	}
}

func TestResumptionSkipsRSA(t *testing.T) {
	srv := newServer(t)
	_, sess, err := srv.RunTransaction(1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := srv.RunTransaction(1024, sess)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed {
		t.Fatal("second transaction did not resume")
	}
	if res2.Crypto.Public != 0 {
		t.Fatalf("resumed session still paid %v of RSA", res2.Crypto.Public)
	}
}

func TestRunSessionMultipleTransactions(t *testing.T) {
	srv := newServer(t)
	txs := []workload.Transaction{
		{RequestLen: 100, ResponseLen: 2048},
		{RequestLen: 100, ResponseLen: 4096},
	}
	res, _, err := srv.RunSession(txs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesSent != 2048+4096 {
		t.Fatalf("sent %d", res.BytesSent)
	}
}

func TestEnvironmentModelCalibration(t *testing.T) {
	ssl1KB := 5 * time.Millisecond
	m := CalibrateEnvironment(ssl1KB)
	res := &TransactionResult{
		Crypto:    CryptoSplit{Public: 4 * time.Millisecond, Hash: time.Millisecond},
		SSLTotal:  5 * time.Millisecond,
		BytesSent: 1024,
	}
	b := m.Transaction(res)
	// At the calibration point the shares must reproduce Table 1.
	if got := b.Percent(ComponentLibcrypto) + b.Percent(ComponentLibssl); got < 69 || got > 74 {
		t.Fatalf("ssl share = %.1f%%, want ~71.65%%\n%s", got, b)
	}
	if got := b.Percent(ComponentVMLinux); got < 15 || got > 20 {
		t.Fatalf("kernel share = %.1f%%, want ~17.5%%", got)
	}
	if got := b.Percent(ComponentHTTPD); got > 4 {
		t.Fatalf("httpd share = %.1f%%, want ~1.8%%", got)
	}
}

func TestEnvironmentModelExtrapolation(t *testing.T) {
	m := CalibrateEnvironment(5 * time.Millisecond)
	small := &TransactionResult{
		Crypto: CryptoSplit{Public: 4 * time.Millisecond}, SSLTotal: 5 * time.Millisecond,
		BytesSent: 1024,
	}
	// A 32x larger response must increase the modeled kernel cost.
	big := &TransactionResult{
		Crypto:   CryptoSplit{Public: 4 * time.Millisecond, Private: 2 * time.Millisecond},
		SSLTotal: 7 * time.Millisecond, BytesSent: 32 * 1024,
	}
	bs := m.Transaction(small)
	bb := m.Transaction(big)
	if bb.Elapsed(ComponentVMLinux) <= bs.Elapsed(ComponentVMLinux) {
		t.Fatal("kernel cost did not grow with bytes")
	}
}

// TestCryptoSplitBreakdownOrder checks add charges Table 3's categories,
// in Figure 2's order, to the public, private, hash and other fields,
// and Total sums them.
func TestCryptoSplitBreakdownOrder(t *testing.T) {
	var c CryptoSplit
	for i, cat := range []string{probe.CategoryPublic, probe.CategoryPrivate, probe.CategoryHash, probe.CategoryOther} {
		c.add(cat, time.Duration(i+1))
	}
	if want := (CryptoSplit{Public: 1, Private: 2, Hash: 3, Other: 4}); c != want {
		t.Fatalf("split = %+v, want %+v", c, want)
	}
	if c.Total() != 10 {
		t.Fatalf("total = %d", c.Total())
	}
}

// TestStitchedSealCountedOnce checks an AES128-SHA transfer's bulk
// seals land in the split exactly once: on a CPU that stitches them,
// as private+hash (one timing, not split between the two), and
// otherwise as the usual private and hash passes.
func TestStitchedSealCountedOnce(t *testing.T) {
	s, err := suite.ByName("AES128-SHA")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := NewServer(identity(t), s).RunTransaction(64*1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stitched, kernel := res.Crypto.Stitched > 0, cpufeat.X86.AES && cpufeat.X86.SHA; stitched != kernel {
		t.Fatalf("stitched time %v on a CPU where the kernel is %v", res.Crypto.Stitched, kernel)
	}
	if res.Crypto.Private == 0 || res.Crypto.Hash == 0 {
		t.Fatalf("request open and finished messages not measured: %+v", res.Crypto)
	}
}

// TestRegistryFoldsEveryTransaction: the server's registry folds every
// handshake RunSession ran, and its Table 2 rows are the per-transaction
// handshake times, split by step.
func TestRegistryFoldsEveryTransaction(t *testing.T) {
	srv := newServer(t)
	const n = 3
	var handshake time.Duration
	for i := 0; i < n; i++ {
		res, _, err := srv.RunTransaction(1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		handshake += res.Handshake
	}
	a := srv.Registry().Anatomy()
	if a.Handshakes != n || a.Sampled != n {
		t.Fatalf("registry folded %d handshakes (%d sampled), want %d", a.Handshakes, a.Sampled, n)
	}
	var stepKcyc float64
	var rsa bool
	for _, st := range a.Steps {
		if st.Count != n {
			t.Fatalf("step %s folded %d times, want %d", st.Name, st.Count, n)
		}
		stepKcyc += st.MeanKcyc
		for _, c := range st.Crypto {
			rsa = rsa || (st.Name == probe.StepGetClientKX.Name() && c.Name == probe.FnRSAPrivateDecrypt)
		}
	}
	if len(a.Steps) != 10 || !rsa {
		t.Fatalf("Table 2 rows = %+v, want the ten steps of a full handshake with the RSA decryption in get_client_kx", a.Steps)
	}
	if want := perf.Cycles(handshake/n) / 1000; math.Abs(stepKcyc-want) > 1e-3*want {
		t.Fatalf("registry steps sum to %.3f kcycles per handshake, the transactions' handshake time to %.3f", stepKcyc, want)
	}
}
