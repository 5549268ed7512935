package core

import (
	"strconv"
	"strings"
	"testing"

	"sslperf/internal/bn"
	"sslperf/internal/rsa"
)

func quickCfg() *Config { return &Config{Quick: true, KeyBits: 512} }

func TestRegistryCompleteAndOrdered(t *testing.T) {
	all := All()
	want := []string{
		"fig1", "table1", "fig2", "table2", "table3", "fig3", "table4",
		"table5", "table6", "table7", "table8", "table9", "table10",
		"table11", "table12", "fig4", "fig5", "fig6",
		"ablation-mul", "ablation-resume", "ablation-kx",
		"ablation-version", "ablation-latency",
	}
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d: %s", len(all), len(want), IDs())
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("order[%d] = %s, want %s", i, e.ID, want[i])
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("table2")
	if err != nil || e.ID != "table2" {
		t.Fatalf("ByID: %v", err)
	}
	if _, err := ByID("table99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestAllExperimentsRun executes every experiment end-to-end in quick
// mode — the whole paper reproduction in miniature.
func TestAllExperimentsRun(t *testing.T) {
	cfg := quickCfg()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if rep.ID != e.ID {
				t.Fatalf("report id %s", rep.ID)
			}
			if len(rep.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			out := rep.String()
			if len(out) < 50 {
				t.Fatalf("suspiciously short report:\n%s", out)
			}
			for _, tbl := range rep.Tables {
				if tbl.NumRows() == 0 {
					t.Fatalf("empty table %q", tbl.Title)
				}
			}
		})
	}
}

func TestFig1TraceContainsProtocolFlow(t *testing.T) {
	e, _ := ByID("fig1")
	rep, err := e.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, msg := range []string{
		"ClientHello", "ServerHello", "Certificate", "ServerHelloDone",
		"ClientKeyExchange", "change_cipher_spec", "Finished",
		"application_data",
	} {
		if !strings.Contains(out, msg) {
			t.Errorf("trace missing %q:\n%s", msg, out)
		}
	}
	// The paper's suite skips ServerKeyExchange.
	if strings.Contains(out, "ServerKeyExchange") {
		t.Error("trace contains ServerKeyExchange; RSA suites must skip it")
	}
}

// TestTable2RSADominates runs at the paper's 1024-bit key: step 7 is
// two 512-bit exponentiations, which must still be most of a full
// handshake on the production kernel (paper: ~92%).
func TestTable2RSADominates(t *testing.T) {
	cfg := &Config{Quick: true, KeyBits: 1024}
	steps, total, err := runHandshakes(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	var kx *float64
	for _, s := range steps {
		if s.Name == "get_client_kx" {
			v := float64(s.Elapsed)
			kx = &v
		}
	}
	if kx == nil {
		t.Fatal("no get_client_kx step")
	}
	if *kx < 0.5*float64(total) {
		t.Fatalf("get_client_kx = %.0f of %d; paper: ~92%%", *kx, total)
	}
}

// TestTable7ComputationDominates: of the six phases of an RSA
// decryption, the modular computation is by far the largest (paper:
// 97.0% at 512 bits, 98.9% at 1024) — on the production kernel the
// stack runs, and on the counting kernel the paper's profile tables
// are regenerated from.
func TestTable7ComputationDominates(t *testing.T) {
	check := func(kernel string) {
		b, err := profileDecrypt(quickCfg(), 1024, 5)
		if err != nil {
			t.Fatal(err)
		}
		if top := b.SortedByElapsed()[0].Name; top != rsa.PhaseComputation {
			t.Errorf("%s kernel: largest phase is %s, want %s\n%s", kernel, top, rsa.PhaseComputation, b)
		}
		if pct := b.Percent(rsa.PhaseComputation); pct < 80 {
			t.Errorf("%s kernel: computation = %.1f%% of a decryption, want >= 80%%\n%s", kernel, pct, b)
		}
	}
	check("production")
	bn.StartProfile()
	defer bn.StopProfile()
	check("counting")
}

// pctCell parses the percentage in column col of a table row.
func pctCell(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("row %v: %v", row, err)
	}
	return v
}

// TestTable8MulAddWordsOnTop: the flat profile of an RSA decryption on
// the counting kernel is topped by the mul-add word loop (paper: 47%).
func TestTable8MulAddWordsOnTop(t *testing.T) {
	e, _ := ByID("table8")
	rep, err := e.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows()
	if rows[0][0] != "bn_mul_add_words" {
		t.Fatalf("top function = %s, want bn_mul_add_words\n%s", rows[0][0], rep)
	}
	if pct := pctCell(t, rows[0], 1); pct < 30 {
		t.Fatalf("bn_mul_add_words = %.1f%%, want the dominant share\n%s", pct, rep)
	}
}

// TestAblationMulRowsDiffer: the multiplication-algorithm switch only
// exists on the counting kernel, so its rows differing is the check
// that the ablation still profiles that kernel — Karatsuba at
// OpenSSL's cutoff moves work into bn_sub_words and bn_add_words,
// schoolbook leaves almost none there.
func TestAblationMulRowsDiffer(t *testing.T) {
	e, _ := ByID("ablation-mul")
	rep, err := e.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[0].Rows()
	schoolbook, karatsuba8 := rows[0], rows[2]
	for col, name := range map[int]string{2: "bn_sub_words", 3: "bn_add_words"} {
		if s, k := pctCell(t, schoolbook, col), pctCell(t, karatsuba8, col); k <= s {
			t.Errorf("%s: karatsuba (thr 8) %.1f%% not above schoolbook %.1f%%\n%s", name, k, s, rep)
		}
	}
}

func TestTable4StaticContent(t *testing.T) {
	e, _ := ByID("table4")
	rep, err := e.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"128b", "3x16", "1,256,8b", "44,32b", "8,64,32b"} {
		if !strings.Contains(out, want) {
			t.Errorf("table4 missing %q:\n%s", want, out)
		}
	}
}

func TestTable9Listing(t *testing.T) {
	e, _ := ByID("table9")
	rep, err := e.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"mull %ebp", "adcl", "widening multiply"} {
		if !strings.Contains(out, want) {
			t.Errorf("table9 missing %q", want)
		}
	}
}

func TestIdentityCached(t *testing.T) {
	cfg := quickCfg()
	a, err := identityFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := identityFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identity not cached")
	}
}
