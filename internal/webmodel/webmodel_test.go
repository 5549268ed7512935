package webmodel

import (
	"sync"
	"testing"
	"time"

	"sslperf/internal/aessha1"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
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

func TestCryptoSplitBreakdownOrder(t *testing.T) {
	c := CryptoSplit{Public: 1, Private: 2, Hash: 3, Other: 4}
	names := c.Breakdown().Names()
	want := []string{"public", "private", "hash", "other"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order = %v", names)
		}
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
	if stitched := res.Crypto.Stitched > 0; stitched != aessha1.HardwareRounds() {
		t.Fatalf("stitched time %v on a CPU where the kernel is %v", res.Crypto.Stitched, aessha1.HardwareRounds())
	}
	if res.Crypto.Private == 0 || res.Crypto.Hash == 0 {
		t.Fatalf("request open and finished messages not measured: %+v", res.Crypto)
	}
	if got := res.Crypto.Breakdown().Elapsed("private+hash"); got != res.Crypto.Stitched {
		t.Fatalf("breakdown private+hash %v, stitched time %v", got, res.Crypto.Stitched)
	}
}
