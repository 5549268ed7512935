package core

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"sslperf/internal/bn"
	"sslperf/internal/rsa"
	"sslperf/internal/testenv"
)

func quickCfg() *Config { return &Config{Quick: true, KeyBits: 512} }

// raceSkip is why the wall-clock share tests skip under -race.
const raceSkip = "asserts wall-clock shares: the race detector instruments the Go code but not the asm bignum"

func TestRegistryCompleteAndOrdered(t *testing.T) {
	all := All()
	want := []string{
		"fig1", "table1", "fig2", "table2", "table3", "fig3", "table4",
		"table5", "table6", "table7", "table8", "table9", "table10",
		"table11", "table12", "fig4", "fig5", "fig6", "isa",
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
				if len(tbl.Rows()) == 0 {
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
	if testenv.Race {
		t.Skip(raceSkip)
	}
	cfg := &Config{Quick: true, KeyBits: 1024}
	testenv.Timing(t, func() error {
		a, err := runHandshakes(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		total := stepKcyc(a)
		var kx *float64
		for _, s := range a.Steps {
			if s.Name == "get_client_kx" {
				v := s.MeanKcyc
				kx = &v
			}
		}
		if kx == nil {
			t.Fatal("no get_client_kx step")
		}
		if *kx < 0.5*total {
			return fmt.Errorf("get_client_kx = %.0f of %.0f; paper: ~92%%", *kx, total)
		}
		return nil
	})
}

// TestTable7ComputationDominates: of the six phases of an RSA
// decryption, the modular computation is by far the largest (paper:
// 97.0% at 512 bits, 98.9% at 1024) — on the production kernel the
// stack runs, and on the counting kernel the paper's profile tables
// are regenerated from.
func TestTable7ComputationDominates(t *testing.T) {
	if testenv.Race {
		t.Skip(raceSkip)
	}
	check := func(kernel string) {
		testenv.Timing(t, func() error {
			b, err := profileDecrypt(quickCfg(), 1024, 5)
			if err != nil {
				t.Fatal(err)
			}
			if top := b.SortedByElapsed()[0].Name; top != rsa.PhaseComputation {
				return fmt.Errorf("%s kernel: largest phase is %s, want %s\n%s", kernel, top, rsa.PhaseComputation, b)
			}
			if pct := b.Percent(rsa.PhaseComputation); pct < 80 {
				return fmt.Errorf("%s kernel: computation = %.1f%% of a decryption, want >= 80%%\n%s", kernel, pct, b)
			}
			return nil
		})
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
	if testenv.Race {
		t.Skip(raceSkip)
	}
	e, _ := ByID("table8")
	testenv.Timing(t, func() error {
		rep, err := e.Run(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		rows := rep.Tables[0].Rows()
		if rows[0][0] != "bn_mul_add_words" {
			return fmt.Errorf("top function = %s, want bn_mul_add_words\n%s", rows[0][0], rep)
		}
		if pct := pctCell(t, rows[0], 1); pct < 30 {
			return fmt.Errorf("bn_mul_add_words = %.1f%%, want the dominant share\n%s", pct, rep)
		}
		return nil
	})
}

// TestAblationMulRowsDiffer: the multiplication-algorithm switch only
// exists on the counting kernel, so its rows differing is the check
// that the ablation still profiles that kernel — Karatsuba at
// OpenSSL's cutoff moves work into bn_sub_words and bn_add_words,
// schoolbook leaves almost none there.
func TestAblationMulRowsDiffer(t *testing.T) {
	if testenv.Race {
		t.Skip(raceSkip)
	}
	e, _ := ByID("ablation-mul")
	testenv.Timing(t, func() error {
		rep, err := e.Run(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		rows := rep.Tables[0].Rows()
		schoolbook, karatsuba8 := rows[0], rows[2]
		for col, name := range map[int]string{2: "bn_sub_words", 3: "bn_add_words"} {
			if s, k := pctCell(t, schoolbook, col), pctCell(t, karatsuba8, col); k <= s {
				return fmt.Errorf("%s: karatsuba (thr 8) %.1f%% not above schoolbook %.1f%%\n%s", name, k, s, rep)
			}
		}
		return nil
	})
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
	for _, want := range []string{"mull %ebp", "adcl", "widening multiply", "shipped kernel: " + bn.Kernel(), "SqrMont"} {
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

// TestRSAKeyPerSeed: the RSA experiments' key cache is keyed by seed as
// well as size, so a second seed in one process gets a key of its own,
// and one seed gets the same key back.
func TestRSAKeyPerSeed(t *testing.T) {
	a, err := rsaKeyFor(&Config{Seed: 1}, 512)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rsaKeyFor(&Config{Seed: 2}, 512)
	if err != nil {
		t.Fatal(err)
	}
	again, err := rsaKeyFor(&Config{Seed: 1}, 512)
	if err != nil {
		t.Fatal(err)
	}
	if a.N.Cmp(b.N) == 0 {
		t.Error("seeds 1 and 2 share one modulus")
	}
	if again != a {
		t.Error("seed 1's key not cached")
	}
}

// The ten server-side steps of Table 2, in protocol order.
var table2Steps = []string{
	"init",
	"get_client_hello",
	"send_server_hello",
	"send_server_cert",
	"send_server_done",
	"get_client_kx",
	"get_cipher_spec/get_finished",
	"send_cipher_spec",
	"send_finished",
	"server_flush",
}

func TestCaptureHandshakeTrace(t *testing.T) {
	b, err := HandshakeTrace(&Config{Seed: 1, KeyBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var steps []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Cat == "step" {
			steps = append(steps, e.Name)
		}
	}
	if len(steps) != len(table2Steps) {
		t.Fatalf("got %d step spans %v, want the %d Table 2 steps", len(steps), steps, len(table2Steps))
	}
	for i, want := range table2Steps {
		if steps[i] != want {
			t.Errorf("step span %d = %q, want %q", i, steps[i], want)
		}
	}
	var cats = map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			cats[e.Cat] = true
		}
	}
	for _, want := range []string{"conn", "step", "crypto", "io"} {
		if !cats[want] {
			t.Errorf("no %q spans in trace (have %v)", want, cats)
		}
	}
}
