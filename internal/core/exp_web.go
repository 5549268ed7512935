package core

import (
	"fmt"
	"time"

	"sslperf/internal/handshake"
	"sslperf/internal/perf"
	"sslperf/internal/record"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/webmodel"
	"sslperf/internal/workload"
)

func init() {
	register(&Experiment{
		ID:       "fig1",
		Title:    "SSL protocol flow (message trace)",
		PaperRef: "handshake message sequence diagram",
		Run:      runFig1,
	})
	register(&Experiment{
		ID:       "table1",
		Title:    "Execution time breakdown in web server",
		PaperRef: "libcrypto 70.83%, libssl 0.82%, httpd 1.84%, vmlinux 17.51%, other 9.00%",
		Run:      runTable1,
	})
	register(&Experiment{
		ID:       "fig2",
		Title:    "Time breakdown in crypto library vs request file size",
		PaperRef: "public ~90% at 1KB, falling; private+hash growing with size",
		Run:      runFig2,
	})
}

// runTransactions scopes srv's registry to n full transactions of size
// bytes, which it runs, and returns their summed SSL time. The registry
// then reads their crypto split and Tables 2 and 3. One unmeasured
// transaction runs first, so the key's blinding set-up (one ModInverse
// and one exponentiation, on its first decryption) stays out of the
// measured loop.
func runTransactions(srv *webmodel.Server, n, size int) (time.Duration, error) {
	if _, _, err := srv.RunTransaction(size, nil); err != nil {
		return 0, err
	}
	srv.Registry().Reset()
	var sslTotal time.Duration
	for i := 0; i < n; i++ {
		res, _, err := srv.RunTransaction(size, nil)
		if err != nil {
			return 0, err
		}
		sslTotal += res.SSLTotal
	}
	return sslTotal, nil
}

// runFig1 runs one full handshake, a small request and response and
// the close on a Pair, and lists every record the pair moves.
func runFig1(cfg *Config) (*Report, error) {
	id, err := identityFor(cfg)
	if err != nil {
		return nil, err
	}
	t := perf.NewTable("Figure 1: SSL protocol flow (observed on the wire)",
		"direction", "record type", "handshake message", "bytes")
	p := webmodel.NewPair(&ssl.Config{
		Rand:               ssl.NewPRNG(cfg.seed() + 100),
		Suites:             []suite.ID{paperSuite().ID},
		InsecureSkipVerify: true,
	}, &ssl.Config{
		Rand:    ssl.NewPRNG(cfg.seed() + 101),
		Key:     id.Key,
		CertDER: id.CertDER,
	})
	var encrypted [2]bool // per direction: a ChangeCipherSpec has passed
	p.Wire = func(toServer bool, b []byte) {
		dir, d := "S -> C", 0
		if toServer {
			dir, d = "C -> S", 1
		}
		for len(b) >= 5 {
			typ, body := record.ContentType(b[0]), b[5:5+(int(b[3])<<8|int(b[4]))]
			b = b[5+len(body):]
			message := ""
			switch typ {
			case record.TypeHandshake:
				if encrypted[d] {
					message = "Finished (encrypted)"
				} else if len(body) > 0 {
					message = handshake.MessageName(body[0])
				}
			case record.TypeChangeCipherSpec:
				encrypted[d] = true
			case record.TypeApplicationData:
				message = "(encrypted data)"
			}
			t.AddRow(dir, typ.String(), message, fmt.Sprint(len(body)))
		}
	}
	defer p.Close()
	if err := p.Handshake(); err != nil {
		return nil, err
	}
	if err := p.Exchange([]byte("GET / HTTP/1.0\r\n\r\n"), make([]byte, 64)); err != nil {
		return nil, err
	}
	p.Close()
	return &Report{ID: "fig1", Title: "Protocol flow", Tables: []*perf.Table{t},
		Notes: []string{"server key exchange and certificate request are skipped: the certificate's RSA key performs the exchange (as in the paper's cipher suite)"}}, nil
}

func runTable1(cfg *Config) (*Report, error) {
	srv, err := serverFor(cfg)
	if err != nil {
		return nil, err
	}
	const size = 1024
	n := cfg.iters()
	sslTotal, err := runTransactions(srv, n, size)
	if err != nil {
		return nil, err
	}
	sslMean, cryptoMean := sslTotal/time.Duration(n), srv.Split().Total()/time.Duration(n)
	b := webmodel.CalibrateEnvironment(sslMean).Transaction(cryptoMean, sslMean, size)
	paper := map[string]string{
		webmodel.ComponentLibcrypto: "70.83",
		webmodel.ComponentLibssl:    "0.82",
		webmodel.ComponentHTTPD:     "1.84",
		webmodel.ComponentVMLinux:   "17.51",
		webmodel.ComponentOther:     "9.00",
	}
	desc := map[string]string{
		webmodel.ComponentLibcrypto: "crypto library (measured)",
		webmodel.ComponentLibssl:    "SSL functions (measured)",
		webmodel.ComponentHTTPD:     "web server (modeled)",
		webmodel.ComponentVMLinux:   "kernel TCP stack (modeled)",
		webmodel.ComponentOther:     "libc, threads, ... (modeled)",
	}
	t := perf.NewTable("Table 1: HTTPS transaction breakdown (1KB page, DES-CBC3-SHA)",
		"component", "functionality", "%", "paper %")
	for _, name := range b.Names() {
		t.AddRow(name, desc[name], fmt.Sprintf("%.2f", b.Percent(name)), paper[name])
	}
	return &Report{ID: "table1", Title: "Web server breakdown",
		Tables: []*perf.Table{t},
		Notes: []string{
			"SSL components are measured on this stack; httpd/kernel/other use the calibrated environment model (see webmodel and DESIGN.md)",
		}}, nil
}

func runFig2(cfg *Config) (*Report, error) {
	srv, err := serverFor(cfg)
	if err != nil {
		return nil, err
	}
	t := perf.NewTable("Figure 2: crypto library time split vs request file size",
		"file size", "public %", "private %", "hash %", "other %", "private+hash %")
	n := cfg.iters()
	for _, size := range workload.FileSweep() {
		if _, err := runTransactions(srv, n, size); err != nil {
			return nil, err
		}
		agg := srv.Split()
		total := float64(agg.Total())
		t.AddRow(fmt.Sprintf("%dKB", size/1024),
			fmt.Sprintf("%.1f", 100*float64(agg.Public)/total),
			fmt.Sprintf("%.1f", 100*float64(agg.Private)/total),
			fmt.Sprintf("%.1f", 100*float64(agg.Hash)/total),
			fmt.Sprintf("%.1f", 100*float64(agg.Other)/total),
			fmt.Sprintf("%.1f", 100*float64(agg.Stitched)/total))
	}
	return &Report{ID: "fig2", Title: "Crypto split vs file size",
		Tables: []*perf.Table{t},
		Notes: []string{
			"private+hash: bulk records whose cipher and MAC ran as one stitched AES-CBC + SHA-1 pass (AES suites, on a CPU with AES-NI and the SHA extensions), one timing that is not split between the two",
			"paper shape: public ≈90% at 1KB and falls with size; private-key encryption and hashing grow proportionally to the file",
		}}, nil
}
