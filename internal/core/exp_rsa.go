package core

import (
	"fmt"
	"time"

	"sslperf/internal/bn"
	"sslperf/internal/perf"
	"sslperf/internal/rsa"
	"sslperf/internal/ssl"
)

func init() {
	register(&Experiment{
		ID:       "table7",
		Title:    "Execution time breakdown for RSA decryption",
		PaperRef: "computation 97.0% (512-bit) / 98.8% (1024-bit)",
		Run:      runTable7,
	})
	register(&Experiment{
		ID:       "table8",
		Title:    "Top ten functions in RSA",
		PaperRef: "bn_mul_add_words 47.0%, bn_sub_words 22.6%, BN_from_montgomery 9.5%",
		Run:      runTable8,
	})
	register(&Experiment{
		ID:       "table9",
		Title:    "Instructions in bn_mul_add_words",
		PaperRef: "the 9-instruction mul/add/adc inner loop",
		Run:      runTable9,
	})
}

// rsaKeys memoizes the RSA experiments' keys per (seed, bits), under
// idMu, as identityFor does the server identities.
var rsaKeys = map[[2]uint64]*rsa.PrivateKey{}

func rsaKeyFor(cfg *Config, bits int) (*rsa.PrivateKey, error) {
	key := [2]uint64{cfg.seed(), uint64(bits)}
	idMu.Lock()
	defer idMu.Unlock()
	if k, ok := rsaKeys[key]; ok {
		return k, nil
	}
	k, err := rsa.GenerateKey(ssl.NewPRNG(cfg.seed()+uint64(bits)), bits)
	if err != nil {
		return nil, err
	}
	rsaKeys[key] = k
	return k, nil
}

// profileDecrypt averages the six-phase breakdown over n decryptions
// of a 48-byte message (the pre-master size).
func profileDecrypt(cfg *Config, bits, n int) (*perf.Breakdown, error) {
	key, err := rsaKeyFor(cfg, bits)
	if err != nil {
		return nil, err
	}
	rnd := ssl.NewPRNG(cfg.seed() + 7)
	msg := make([]byte, 48)
	rnd.Read(msg)
	ct, err := key.EncryptPKCS1(rnd, msg)
	if err != nil {
		return nil, err
	}
	// Warm blinding to steady state.
	if _, err := key.DecryptPKCS1(rnd, ct); err != nil {
		return nil, err
	}
	agg := perf.NewBreakdown()
	for i := 0; i < n; i++ {
		if _, err := key.DecryptPKCS1Profiled(rnd, ct, agg); err != nil {
			return nil, err
		}
	}
	agg.Scale(n)
	return agg, nil
}

var paperTable7 = map[string][2]string{
	rsa.PhaseInit:         {"0.07", "0.02"},
	rsa.PhaseDataToBN:     {"0.07", "0.02"},
	rsa.PhaseBlinding:     {"1.20", "0.66"},
	rsa.PhaseComputation:  {"97.01", "98.85"},
	rsa.PhaseBNToData:     {"0.05", "0.02"},
	rsa.PhaseBlockParsing: {"1.60", "0.43"},
}

func runTable7(cfg *Config) (*Report, error) {
	n := cfg.scale(50)
	b512, err := profileDecrypt(cfg, 512, n)
	if err != nil {
		return nil, err
	}
	b1024, err := profileDecrypt(cfg, 1024, n)
	if err != nil {
		return nil, err
	}
	t := perf.NewTable("Table 7: RSA decryption breakdown",
		"step", "512b cycles", "512b %", "1024b cycles", "1024b %",
		"paper 512 %", "paper 1024 %")
	for i, name := range rsa.Phases {
		t.AddRow(fmt.Sprintf("%d %s", i+1, name),
			fmt.Sprintf("%.0f", perf.Cycles(b512.Elapsed(name))),
			fmt.Sprintf("%.2f", b512.Percent(name)),
			fmt.Sprintf("%.0f", perf.Cycles(b1024.Elapsed(name))),
			fmt.Sprintf("%.2f", b1024.Percent(name)),
			paperTable7[name][0], paperTable7[name][1])
	}
	t.AddRow("total",
		fmt.Sprintf("%.0f", perf.Cycles(b512.Total())), "100",
		fmt.Sprintf("%.0f", perf.Cycles(b1024.Total())), "100", "100", "100")
	return &Report{ID: "table7", Title: "RSA breakdown", Tables: []*perf.Table{t}}, nil
}

var paperTable8 = map[string]string{
	"bn_mul_add_words":   "47.04",
	"bn_sub_words":       "22.61",
	"BN_from_montgomery": "9.47",
	"bn_add_words":       "4.92",
	"BN_usub":            "3.24",
	"BN_copy":            "1.50",
	"BN_sqr":             "1.04",
}

func runTable8(cfg *Config) (*Report, error) {
	key, err := rsaKeyFor(cfg, 1024)
	if err != nil {
		return nil, err
	}
	rnd := ssl.NewPRNG(cfg.seed() + 8)
	msg := make([]byte, 48)
	rnd.Read(msg)
	ct, err := key.EncryptPKCS1(rnd, msg)
	if err != nil {
		return nil, err
	}
	if _, err := key.DecryptPKCS1(rnd, ct); err != nil {
		return nil, err
	}
	n := cfg.scale(50)
	prof := bn.StartProfile()
	for i := 0; i < n; i++ {
		if _, err := key.DecryptPKCS1(rnd, ct); err != nil {
			bn.StopProfile()
			return nil, err
		}
	}
	bn.StopProfile()

	t := perf.NewTable("Table 8: top functions in RSA decryption (exclusive time)",
		"function", "%", "paper %")
	count := 0
	for _, s := range prof.SortedByElapsed() {
		if count >= 10 {
			break
		}
		count++
		t.AddRow(s.Name, fmt.Sprintf("%.2f", prof.Percent(s.Name)), paperTable8[s.Name])
	}
	return &Report{ID: "table8", Title: "Top RSA functions", Tables: []*perf.Table{t},
		Notes: []string{
			"exclusive (self) time per function, like the paper's flat Oprofile report",
			"the paper's high bn_sub_words share comes from OpenSSL's Karatsuba multiplication; this library uses schoolbook multiplication, so that time appears under bn_mul_add_words instead",
		}}, nil
}

func runTable9(cfg *Config) (*Report, error) {
	t := perf.NewTable("Table 9: inner loop of bn_mul_add_words",
		"instruction", "role")
	for _, row := range bn.InnerLoopListing() {
		t.AddRow(row[0], row[1])
	}
	mul, sqr := timeMont512(cfg.scale(20000))
	t.AddRow("shipped kernel: "+bn.Kernel(),
		fmt.Sprintf("measured 512-bit MulMont %.0f ns, SqrMont %.0f ns", mul, sqr))
	// Also show the abstract per-limb trace the model uses.
	var tr perf.Trace
	bn.TraceMulAddWords(&tr, 1)
	mix := perf.NewTable("Abstract per-limb operation counts (model)",
		"op class", "count")
	for _, e := range tr.Mix() {
		mix.AddRow(e.Op.String(), fmt.Sprint(e.Count))
	}
	return &Report{ID: "table9", Title: "bn_mul_add_words inner loop",
		Tables: []*perf.Table{t, mix}}, nil
}

// timeMont512 returns the mean ns of n MulMont and of n SqrMont on a
// fixed odd 512-bit modulus: the width of an RSA-1024 CRT half, on the
// kernel this CPU runs.
func timeMont512(n int) (mul, sqr float64) {
	m, err := bn.NewMont(bn.New().AddWord(bn.New().Lsh(bn.NewInt(0xb7e151628aed2a6b), 448), 0x9e3779b9))
	if err != nil {
		panic(err)
	}
	x := m.ToMont(bn.New(), bn.New().Lsh(bn.NewInt(0x243f6a8885a308d3), 440))
	z := bn.New()
	start := time.Now()
	for i := 0; i < n; i++ {
		m.MulMont(z, x, x)
	}
	mul = float64(time.Since(start).Nanoseconds()) / float64(n)
	start = time.Now()
	for i := 0; i < n; i++ {
		m.SqrMont(z, x)
	}
	sqr = float64(time.Since(start).Nanoseconds()) / float64(n)
	return mul, sqr
}

// measureRSAThroughput returns decrypted bytes/second for Table 11.
func measureRSAThroughput(cfg *Config) (float64, error) {
	key, err := rsaKeyFor(cfg, 1024)
	if err != nil {
		return 0, err
	}
	rnd := ssl.NewPRNG(cfg.seed() + 9)
	msg := make([]byte, 48)
	ct, err := key.EncryptPKCS1(rnd, msg)
	if err != nil {
		return 0, err
	}
	if _, err := key.DecryptPKCS1(rnd, ct); err != nil {
		return 0, err
	}
	n := cfg.scale(40)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := key.DecryptPKCS1(rnd, ct); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	// One op "processes" a modulus worth of data (128 bytes).
	return float64(n*key.Size()) / elapsed.Seconds(), nil
}
