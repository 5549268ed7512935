package core

import (
	"fmt"

	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
)

// paperTable2 holds the paper's per-step latencies (thousands of
// cycles on the 2.26 GHz P4) for side-by-side comparison.
var paperTable2 = map[string]float64{
	"init":                         348,
	"get_client_hello":             198,
	"send_server_hello":            61,
	"send_server_cert":             239,
	"send_server_done":             12,
	"get_client_kx":                18941,
	"get_cipher_spec/get_finished": 287,
	"send_cipher_spec":             0.74,
	"send_finished":                114,
	"server_flush":                 2.5,
}

// runHandshakes performs n instrumented full handshakes and returns
// the server registry's Tables 2 and 3 over exactly those handshakes.
func runHandshakes(cfg *Config, n int) (telemetry.Anatomy, error) {
	srv, err := serverFor(cfg)
	if err != nil {
		return telemetry.Anatomy{}, err
	}
	if _, err := runTransactions(srv, n, 64); err != nil {
		return telemetry.Anatomy{}, err
	}
	return srv.Registry().Anatomy(), nil
}

// stepKcyc sums the steps' mean time: one full handshake's total,
// since each of its steps runs once.
func stepKcyc(a telemetry.Anatomy) float64 {
	var total float64
	for _, s := range a.Steps {
		total += s.MeanKcyc
	}
	return total
}

func init() {
	register(&Experiment{
		ID:       "table2",
		Title:    "Execution time breakdown in SSL handshake",
		PaperRef: "10 server steps; get_client_kx (RSA) 18.9M cycles of 20.5M total",
		Run: func(cfg *Config) (*Report, error) {
			a, err := runHandshakes(cfg, cfg.iters())
			if err != nil {
				return nil, err
			}
			t := perf.NewTable(
				"Table 2: SSL server handshake anatomy (DES-CBC3-SHA, RSA-"+
					fmt.Sprint(cfg.keyBits())+")",
				"step", "functionality", "latency (Kcycles)",
				"crypto functions called", "crypto latency (Kcycles)",
				"paper (Kcycles)")
			for _, s := range a.Steps {
				paper := ""
				if v, ok := paperTable2[s.Name]; ok {
					paper = fmt.Sprintf("%.1f", v)
				}
				if len(s.Crypto) == 0 {
					t.AddRow(fmt.Sprint(s.Index), s.Name, kc(s.MeanKcyc), "", "", paper)
					continue
				}
				for i, c := range s.Crypto {
					if i == 0 {
						t.AddRow(fmt.Sprint(s.Index), s.Name, kc(s.MeanKcyc),
							c.Name, kc(c.MeanKcyc), paper)
					} else {
						t.AddRow("", "", "", c.Name, kc(c.MeanKcyc), "")
					}
				}
			}
			t.AddRow("", "total", kc(stepKcyc(a)), "", "", "20540")
			rep := &Report{ID: "table2", Title: "SSL handshake anatomy", Tables: []*perf.Table{t}}
			rep.Notes = append(rep.Notes,
				"paper column: 2.26 GHz Pentium 4 + OpenSSL 0.9.7d; ours: this Go stack at the model frequency",
				"shape check: get_client_kx (the RSA private decryption) must dominate everything else",
				"server_flush writes nothing here: the pair the handshakes run on has no transport, as ssltest's BIO pair has none; a live server's step 9 carries its final flight's write")
			return rep, nil
		},
	})

	register(&Experiment{
		ID:       "table3",
		Title:    "Crypto operations during SSL handshake",
		PaperRef: "public 90.4%, private 0.1%, hash 2.8%, other 1.7%, crypto total 95.0%",
		Run: func(cfg *Config) (*Report, error) {
			a, err := runHandshakes(cfg, cfg.iters())
			if err != nil {
				return nil, err
			}
			paper := map[string]string{
				probe.CategoryPublic:  "90.4",
				probe.CategoryPrivate: "0.1",
				probe.CategoryHash:    "2.8",
				probe.CategoryOther:   "1.7",
			}
			t := perf.NewTable("Table 3: crypto operations during SSL handshake",
				"functionality", "latency (Kcycles)", "% of handshake", "paper %")
			var crypto float64
			for _, c := range a.Categories {
				crypto += c.Kcyc
				t.AddRow(c.Name, kc(c.Kcyc), fmt.Sprintf("%.1f", c.SharePct), paper[c.Name])
			}
			t.AddRow("total crypto operations", kc(crypto),
				fmt.Sprintf("%.1f", a.CryptoSharePct), "95.0")
			t.AddRow("total SSL processing", kc(stepKcyc(a)), "100", "100")
			return &Report{ID: "table3", Title: "Crypto during handshake",
				Tables: []*perf.Table{t}}, nil
		},
	})
}
