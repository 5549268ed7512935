package core

import (
	"fmt"
	"time"

	"sslperf/internal/bn"
	"sslperf/internal/perf"
	"sslperf/internal/record"
	"sslperf/internal/ssl"
	"sslperf/internal/telemetry"
	"sslperf/internal/webmodel"
)

// Ablation experiments — beyond the paper's tables, these quantify
// the design choices DESIGN.md calls out.

func init() {
	register(&Experiment{
		ID:       "ablation-mul",
		Title:    "Ablation: multiplication algorithm vs RSA function profile",
		PaperRef: "explains Table 8's bn_sub_words 22.6% (OpenSSL's Karatsuba)",
		Run:      runAblationMul,
	})
	register(&Experiment{
		ID:       "ablation-resume",
		Title:    "Ablation: full handshake vs session resumption",
		PaperRef: "quantifies the paper's 'session re-negotiation avoids the public key encryption'",
		Run:      runAblationResume,
	})
	register(&Experiment{
		ID:       "ablation-kx",
		Title:    "Ablation: RSA vs ephemeral-DH key exchange",
		PaperRef: "the paper's other asymmetric algorithm (Diffie-Hellman) priced on the same stack",
		Run:      runAblationKx,
	})
	register(&Experiment{
		ID:       "ablation-version",
		Title:    "Ablation: SSL 3.0 vs TLS 1.0 protocol cost",
		PaperRef: "the successor protocol's HMAC + PRF priced against SSLv3's constructions",
		Run:      runAblationVersion,
	})
	register(&Experiment{
		ID:       "ablation-latency",
		Title:    "Ablation: handshake latency distribution",
		PaperRef: "the per-request view behind the paper's averages (Table 2 is a mean)",
		Run:      runAblationLatency,
	})
}

func runAblationLatency(cfg *Config) (*Report, error) {
	srv, err := serverFor(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.scale(60)
	if n < 5 {
		n = 5
	}
	_, sess, err := srv.RunTransaction(1024, nil)
	if err != nil {
		return nil, err
	}
	srv.Registry().Reset()
	for i := 0; i < n; i++ {
		if _, _, err := srv.RunTransaction(1024, nil); err != nil {
			return nil, err
		}
		rr, s2, err := srv.RunTransaction(1024, sess)
		if err != nil {
			return nil, err
		}
		if !rr.Resumed {
			return nil, fmt.Errorf("resumption failed at %d", i)
		}
		sess = s2
	}
	t := perf.NewTable(
		fmt.Sprintf("Ablation: handshake latency distribution (n=%d, Kcycles)", n),
		"handshake", "mean", "p50", "p90", "p99", "max")
	row := func(name string, h telemetry.HistogramSnapshot) {
		t.AddRow(name, kcyc(time.Duration(h.Mean)), kcyc(time.Duration(h.P50)),
			kcyc(time.Duration(h.P90)), kcyc(time.Duration(h.P99)), kcyc(time.Duration(h.Max)))
	}
	snap := srv.Registry().Snapshot()
	row("full", snap.FullLatency)
	row("resumed", snap.ResumedLatency)
	return &Report{ID: "ablation-latency", Title: "Handshake latency distribution",
		Tables: []*perf.Table{t},
		Notes: []string{
			"full handshakes are tightly distributed around the RSA operation; resumed ones are both ~5x faster at the median and much flatter",
			"the rows are the server registry's full and resumed handshake-latency histograms (the ones /metrics serves): wall time from handshake start to done, the client's turns included; a bucket spans at most a quarter of its lower bound, and a percentile is its bucket's midpoint, at most an eighth off the exact one",
		}}, nil
}

func runAblationVersion(cfg *Config) (*Report, error) {
	id, err := identityFor(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.iters()
	t := perf.NewTable("Ablation: protocol version (DES-CBC3-SHA, 8KB transaction)",
		"version", "SSL Kcycles", "public-key Kcycles", "hash Kcycles", "private Kcycles")
	for _, v := range []struct {
		name string
		ver  uint16
	}{{"SSL 3.0", record.VersionSSL30}, {"TLS 1.0", record.VersionTLS10}} {
		srv := webmodel.NewServer(id, paperSuite())
		srv.Version = v.ver
		total, err := runTransactions(srv, n, 8192)
		if err != nil {
			return nil, err
		}
		split := srv.Split()
		t.AddRow(v.name, kcycPer(total, n), kcycPer(split.Public, n), kcycPer(split.Hash, n), kcycPer(split.Private, n))
	}
	return &Report{ID: "ablation-version", Title: "Protocol version ablation",
		Tables: []*perf.Table{t},
		Notes: []string{
			"TLS 1.0 swaps SSLv3's pad1/pad2 MAC for HMAC (two extra compression passes per record are avoided by HMAC's precomputed pads, but the PRF doubles the KDF hashing); both protocols' record costs are within a few percent — the paper's conclusions are version-insensitive",
		}}, nil
}

func runAblationKx(cfg *Config) (*Report, error) {
	id, err := identityFor(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.iters()
	t := perf.NewTable("Ablation: handshake cost by key exchange (3DES suites, 1KB transaction)",
		"key exchange", "SSL Kcycles", "public-key Kcycles", "hash Kcycles")
	for _, name := range []string{"DES-CBC3-SHA", "EDH-RSA-DES-CBC3-SHA"} {
		s, err := suiteByName(name)
		if err != nil {
			return nil, err
		}
		srv := webmodel.NewServer(id, s)
		total, err := runTransactions(srv, n, 1024)
		if err != nil {
			return nil, err
		}
		split := srv.Split()
		t.AddRow(name, kcycPer(total, n), kcycPer(split.Public, n), kcycPer(split.Hash, n))
	}
	return &Report{ID: "ablation-kx", Title: "Key exchange ablation",
		Tables: []*perf.Table{t},
		Notes: []string{
			"DHE pays three extra public-key operations server-side (ephemeral keygen, RSA signature, shared-secret computation) plus forward secrecy; the paper's RSA-only measurement is the cheap end of the asymmetric spectrum",
		}}, nil
}

// rsaProfileUnder collects the exclusive-time bn function profile of
// n RSA-1024 decryptions under the given multiplication config.
func rsaProfileUnder(cfg *Config, mode bn.MulMode, threshold, n int) (*perf.Breakdown, time.Duration, error) {
	key, err := rsaKeyFor(cfg, 1024)
	if err != nil {
		return nil, 0, err
	}
	rnd := ssl.NewPRNG(cfg.seed() + 55)
	ct, err := key.EncryptPKCS1(rnd, make([]byte, 48))
	if err != nil {
		return nil, 0, err
	}
	if _, err := key.DecryptPKCS1(rnd, ct); err != nil {
		return nil, 0, err
	}
	prevMode := bn.SetMulMode(mode)
	prevThr := bn.SetKaratsubaThreshold(threshold)
	defer func() {
		bn.SetMulMode(prevMode)
		bn.SetKaratsubaThreshold(prevThr)
	}()
	start := time.Now()
	prof := bn.StartProfile()
	for i := 0; i < n; i++ {
		if _, err := key.DecryptPKCS1(rnd, ct); err != nil {
			bn.StopProfile()
			return nil, 0, err
		}
	}
	bn.StopProfile()
	return prof, time.Since(start) / time.Duration(n), nil
}

func runAblationMul(cfg *Config) (*Report, error) {
	n := cfg.scale(40)
	configs := []struct {
		name      string
		mode      bn.MulMode
		threshold int
	}{
		{"schoolbook", bn.MulSchoolbook, 16},
		{"karatsuba (thr 16)", bn.MulKaratsuba, 16},
		{"karatsuba (thr 8, OpenSSL-like)", bn.MulKaratsuba, 8},
	}
	t := perf.NewTable("Ablation: bn function profile of RSA-1024 decryption by mul algorithm",
		"configuration", "bn_mul_add_words %", "bn_sub_words %",
		"bn_add_words %", "BN_from_montgomery %", "Kcycles/op")
	for _, c := range configs {
		prof, per, err := rsaProfileUnder(cfg, c.mode, c.threshold, n)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name,
			fmt.Sprintf("%.1f", prof.Percent("bn_mul_add_words")),
			fmt.Sprintf("%.1f", prof.Percent("bn_sub_words")),
			fmt.Sprintf("%.1f", prof.Percent("bn_add_words")),
			fmt.Sprintf("%.1f", prof.Percent("BN_from_montgomery")),
			kcyc(per))
	}
	return &Report{ID: "ablation-mul",
		Title:  "Multiplication algorithm vs RSA profile",
		Tables: []*perf.Table{t},
		Notes: []string{
			"paper's Table 8 (OpenSSL Karatsuba, 32-bit): bn_mul_add_words 47.0%, bn_sub_words 22.6%, bn_add_words 4.9%",
			"lowering the recursion cutoff moves multiplication work out of the mul-add kernel and into the subtractive difference terms — the attribution shift, not the absolute speed, is the point",
		}}, nil
}

func runAblationResume(cfg *Config) (*Report, error) {
	n := cfg.iters()
	// Full and resumed sessions alternate, each kind on its own server
	// (and so its own registry) over one session cache.
	fullSrv, err := serverFor(cfg)
	if err != nil {
		return nil, err
	}
	resumedSrv, err := serverFor(cfg)
	if err != nil {
		return nil, err
	}
	resumedSrv.Cache = fullSrv.Cache
	_, sess, err := fullSrv.RunTransaction(1024, nil)
	if err != nil {
		return nil, err
	}
	fullSrv.Registry().Reset()
	var fullTotal, resumedTotal time.Duration
	for i := 0; i < n; i++ {
		rf, _, err := fullSrv.RunTransaction(1024, nil)
		if err != nil {
			return nil, err
		}
		fullTotal += rf.SSLTotal
		rr, s2, err := resumedSrv.RunTransaction(1024, sess)
		if err != nil {
			return nil, err
		}
		if !rr.Resumed {
			return nil, fmt.Errorf("resumption failed on iteration %d", i)
		}
		resumedTotal += rr.SSLTotal
		sess = s2
	}
	full, resumed := fullSrv.Split(), resumedSrv.Split()

	t := perf.NewTable("Ablation: full vs resumed session (1KB transaction, DES-CBC3-SHA)",
		"metric", "full handshake", "resumed", "saving")
	row := func(name string, a, b time.Duration) {
		saving := "-"
		if a > 0 {
			saving = fmt.Sprintf("%.1f%%", 100*(1-float64(b)/float64(a)))
		}
		t.AddRow(name, kcycPer(a, n)+" Kcyc", kcycPer(b, n)+" Kcyc", saving)
	}
	row("SSL processing", fullTotal, resumedTotal)
	row("public key crypto", full.Public, resumed.Public)
	row("hashing", full.Hash, resumed.Hash)
	row("private key crypto", full.Private, resumed.Private)
	return &Report{ID: "ablation-resume",
		Title:  "Resumption ablation",
		Tables: []*perf.Table{t},
		Notes: []string{
			"the paper: 'Session re-negotiation using the previously setup keys can avoid the public key encryption, therefore greatly reduces the handshake overhead' — the public-key row must show ~100% saving",
		}}, nil
}
