package webmodel

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"sslperf/internal/cpufeat"
	"sslperf/internal/probe"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/telemetry"
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
	split := srv.Split()
	if split.Public == 0 {
		t.Fatal("no RSA time measured")
	}
	if split.Private == 0 || split.Hash == 0 {
		t.Fatalf("bulk crypto not measured: %+v", split)
	}
	if res.SSLTotal < split.Total() {
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
		// Sum a few runs to stabilize, with the collector held off: a
		// collection landing inside a short hash call can outweigh it.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		srv.Registry().Reset()
		for i := 0; i < 3; i++ {
			if _, _, err := srv.RunTransaction(size, nil); err != nil {
				t.Fatal(err)
			}
		}
		agg := srv.Split()
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
	srv.Registry().Reset()
	res2, _, err := srv.RunTransaction(1024, sess)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed {
		t.Fatal("second transaction did not resume")
	}
	if public := srv.Split().Public; public != 0 {
		t.Fatalf("resumed session still paid %v of RSA", public)
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
	b := m.Transaction(5*time.Millisecond, 5*time.Millisecond, 1024)
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
	bs := m.Transaction(4*time.Millisecond, 5*time.Millisecond, 1024)
	// A 32x larger response must increase the modeled kernel cost.
	bb := m.Transaction(6*time.Millisecond, 7*time.Millisecond, 32*1024)
	if bb.Elapsed(ComponentVMLinux) <= bs.Elapsed(ComponentVMLinux) {
		t.Fatal("kernel cost did not grow with bytes")
	}
}

// TestCryptoSplitBreakdownOrder checks split charges Table 3's
// categories, in Figure 2's order, to the public, private, hash and
// other fields on top of the record cells, skips the in-step record
// rows the cells already count, and Total sums them.
func TestCryptoSplitBreakdownOrder(t *testing.T) {
	rows := []telemetry.AnatomyCrypto{
		{Name: probe.FnRSAPrivateDecrypt, Category: probe.CategoryPublic, Total: 1},
		{Name: "cipher", Category: probe.CategoryPrivate, Total: 2},
		{Name: probe.FnGenKeyBlock, Category: probe.CategoryHash, Total: 3},
		{Name: probe.FnRandPseudoBytes, Category: probe.CategoryOther, Total: 4},
		{Name: probe.FnPriEncryption, Category: probe.CategoryPrivate, Total: 100},
		{Name: probe.FnPriDecryption, Category: probe.CategoryPrivate, Total: 100},
		{Name: probe.FnMac, Category: probe.CategoryHash, Total: 100},
	}
	c := split(rows, [3]telemetry.CryptoCell{{Nanos: 10}, {Nanos: 20}, {Nanos: 40}})
	if want := (CryptoSplit{Public: 1, Private: 12, Hash: 23, Other: 4, Stitched: 40}); c != want {
		t.Fatalf("split = %+v, want %+v", c, want)
	}
	if c.Total() != 80 {
		t.Fatalf("total = %d", c.Total())
	}
}

// TestSplitCountsEachRecordPassOnce: over one 1 KB DES-CBC3-SHA
// transaction, the split's private-key time is the registry's cipher
// cells exactly, and its hashing the handshake's hash rows but the
// in-step MAC plus the MAC cells — the finished messages' record
// passes, which are Table 2 rows as well as cells, count once.
func TestSplitCountsEachRecordPassOnce(t *testing.T) {
	srv := newServer(t)
	if _, _, err := srv.RunTransaction(1024, nil); err != nil {
		t.Fatal(err)
	}
	counts := srv.Registry().Counts()
	cells := counts.Crypto.Groups()
	var hash time.Duration
	inStep := map[string]bool{}
	for _, row := range srv.Registry().Anatomy().Crypto {
		switch row.Name {
		case probe.FnPriEncryption, probe.FnPriDecryption, probe.FnMac:
			inStep[row.Name] = row.Total > 0
		default:
			if row.Category == probe.CategoryHash {
				hash += row.Total
			}
		}
	}
	if !inStep[probe.FnPriEncryption] || !inStep[probe.FnPriDecryption] || !inStep[probe.FnMac] {
		t.Fatalf("in-step record rows = %v, want all three timed", inStep)
	}
	got := srv.Split()
	if want := time.Duration(cells[0].Nanos); got.Private != want {
		t.Fatalf("split private %v, cipher cells %v", got.Private, want)
	}
	if want := hash + time.Duration(cells[1].Nanos); got.Hash != want {
		t.Fatalf("split hash %v, handshake hash rows + MAC cells %v", got.Hash, want)
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
	srv := NewServer(identity(t), s)
	if _, _, err := srv.RunTransaction(64*1024, nil); err != nil {
		t.Fatal(err)
	}
	split := srv.Split()
	if stitched, kernel := split.Stitched > 0, cpufeat.X86.AES && cpufeat.X86.SHA; stitched != kernel {
		t.Fatalf("stitched time %v on a CPU where the kernel is %v", split.Stitched, kernel)
	}
	if split.Private == 0 || split.Hash == 0 {
		t.Fatalf("request open and finished messages not measured: %+v", split)
	}
}

// TestRegistryFoldsEveryTransaction: the server's registry folds every
// handshake RunSession ran, each with its ten steps.
func TestRegistryFoldsEveryTransaction(t *testing.T) {
	srv := newServer(t)
	const n = 3
	for i := 0; i < n; i++ {
		if _, _, err := srv.RunTransaction(1024, nil); err != nil {
			t.Fatal(err)
		}
	}
	a := srv.Registry().Anatomy()
	if a.Handshakes != n || a.Sampled != n {
		t.Fatalf("registry folded %d handshakes (%d sampled), want %d", a.Handshakes, a.Sampled, n)
	}
	var rsa bool
	for _, st := range a.Steps {
		if st.Count != n {
			t.Fatalf("step %s folded %d times, want %d", st.Name, st.Count, n)
		}
		for _, c := range st.Crypto {
			rsa = rsa || (st.Name == probe.StepGetClientKX.Name() && c.Name == probe.FnRSAPrivateDecrypt)
		}
	}
	if len(a.Steps) != 10 || !rsa {
		t.Fatalf("Table 2 rows = %+v, want the ten steps of a full handshake with the RSA decryption in get_client_kx", a.Steps)
	}
}
