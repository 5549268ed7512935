package core

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sslperf/internal/accel"
	"sslperf/internal/aes"
	"sslperf/internal/aessha1"
	"sslperf/internal/bn"
	"sslperf/internal/cpufeat"
	"sslperf/internal/handshake"
	"sslperf/internal/pathlen"
	"sslperf/internal/perf"
	"sslperf/internal/rsa"
	"sslperf/internal/sha1x"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/webmodel"
	"sslperf/internal/workload"
)

func init() {
	register(&Experiment{
		ID:       "isa",
		Title:    "Figures 4-6 on the whole connection: server time with each CPU feature masked (measured)",
		PaperRef: "ISA support, a round unit and a crypto engine speed up SSL's inner loops (Sec. 6.2)",
		Run:      runISA,
	})
}

// isaWays are the feature sets the experiment runs the stack on: the
// CPU's own, each feature masked in turn, and none.
var isaWays = []struct {
	name string
	off  cpufeat.Features
}{
	{"all on", cpufeat.Features{}},
	{"AES masked", cpufeat.Features{AES: true}},
	{"SHA masked", cpufeat.Features{SHA: true}},
	{"ADX masked", cpufeat.Features{ADX: true}},
	{"none", cpufeat.Features{AES: true, SHA: true, ADX: true}},
}

// isaLoads are the three operations timed on each way.
var isaLoads = []string{"full handshake", "resumed handshake", "16 KB seal+open"}

func runISA(cfg *Config) (*Report, error) {
	id, err := identityFor(cfg)
	if err != nil {
		return nil, err
	}
	detected := cpufeat.X86
	// The ways take turns, a round at a time, so a drift in host speed
	// lands on all of them.
	const rounds = 4
	n := cfg.scale(500)
	spent := make([][3][]time.Duration, len(isaWays))
	kernels := make([]string, len(isaWays))
	for round := 0; round < rounds; round++ {
		for w, way := range isaWays {
			times, ks, err := isaRun(id, way.off, n)
			if err != nil {
				return nil, fmt.Errorf("isa %s: %w", way.name, err)
			}
			for l := range times {
				spent[w][l] = append(spent[w][l], times[l]...)
			}
			kernels[w] = ks
		}
	}
	// The median op, so a collection that lands inside one of the
	// short resumed handshakes does not move its way's figure.
	us := func(w, l int) float64 {
		d := slices.Clone(spent[w][l])
		slices.Sort(d)
		return d[len(d)/2].Seconds() * 1e6
	}

	t := perf.NewTable("Server us/op, AES128-SHA, sans-IO, one goroutine",
		"features", isaLoads[0], isaLoads[1], isaLoads[2], "kernels (AES, SHA-1, bignum, seal)")
	for w, way := range isaWays {
		t.AddRow(way.name, fmt.Sprintf("%.1f", us(w, 0)), fmt.Sprintf("%.1f", us(w, 1)),
			fmt.Sprintf("%.2f", us(w, 2)), kernels[w])
	}

	// What each feature buys: the share of the op's server time with
	// that feature masked that turning it on removes, and the speedup.
	models := isaModels(cfg)
	buys := perf.NewTable("What each feature buys the whole operation, beside the paper's model of its kernel",
		"feature", "paper", "model speedup", isaLoads[0], isaLoads[1], isaLoads[2])
	buy := func(masked, on, l int) string {
		off, with := us(masked, l), us(on, l)
		return fmt.Sprintf("%.0f%% (%.2fx)", 100*(off-with)/off, off/with)
	}
	for _, r := range []struct {
		feature, paper, model string
		masked, on            int
	}{
		{"AES (with the stitched seal)", "fig5", models[0], 1, 0},
		{"SHA (with the stitched seal)", "fig4", models[1], 2, 0},
		{"ADX", "-", "-", 3, 0},
		{"all three", "fig6", models[2], 4, 0},
	} {
		buys.AddRow(r.feature, r.paper, r.model, buy(r.masked, r.on, 0), buy(r.masked, r.on, 1), buy(r.masked, r.on, 2))
	}
	return &Report{ID: "isa", Title: "ISA extensions on the whole connection", Tables: []*perf.Table{t, buys},
		Notes: []string{
			fmt.Sprintf("host: %s/%s, %d CPUs; features this CPU reports: AES %v, SHA %v, ADX %v (a masked feature the CPU lacks reads as all on)",
				runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), detected.AES, detected.SHA, detected.ADX),
			fmt.Sprintf("server us/op: the server's Spent on a webmodel.Pair (its own Feed/HandshakeStep calls of an in-process sans-IO handshake, RSA-%d, SSL 3.0, no syscalls), or its Feed and ReadData of one 16 KB client record plus its WriteData of one 16 KB record; the median of %d ops per way, the five ways taking turns over %d rounds", cfg.keyBits(), rounds*n, rounds),
			"each way masks its features (cpufeat.Disable) before the key's Montgomery contexts and the connections are built, so every object runs the masked table's kernels; the kernels column is what those objects' packages name under that mask",
			"share bought = (masked - all on) / masked; masking AES or SHA also turns off the stitched seal, so their rows include what fig6's engine buys, and 'all three' compares none with all on",
			"model speedup: fig5's AES-128 round unit (software vs hardware model cycles per block), fig4's three-operand ISA on SHA-1, and fig6's engine overlap implied by measured MAC and AES unit times; the paper models no wider multiply, so ADX (Table 9's loop on MULX/ADCX/ADOX) has none",
		}}, nil
}

// isaRun masks off, builds a fresh copy of id's key so its Montgomery
// contexts are built under the mask, and times n of each isaLoads
// operation after one of each as a warm-up, each on a Pair. It returns
// the server time of each op of each load and the kernels the masked
// table names.
func isaRun(id *ssl.Identity, off cpufeat.Features, n int) (spent [3][]time.Duration, kernels string, err error) {
	defer cpufeat.Disable(off)()
	k := id.Key
	key := &rsa.PrivateKey{PublicKey: k.PublicKey, D: k.D, P: k.P, Q: k.Q, Dp: k.Dp, Dq: k.Dq, Qinv: k.Qinv}
	kernels = fmt.Sprintf("%s, %s, %s, %s", aes.Kernel(), sha1x.Kernel(), bn.Kernel(), aessha1.Kernel())
	// connect runs one AES128-SHA handshake, resuming sess from cache
	// when sess is non-nil.
	connect := func(cache *handshake.SessionCache, sess *handshake.Session, seed uint64) (*webmodel.Pair, error) {
		p := webmodel.NewPair(&ssl.Config{Rand: ssl.NewPRNG(2*seed + 1), InsecureSkipVerify: true,
			Suites: []suite.ID{suite.RSAWithAES128CBCSHA}, Session: sess},
			&ssl.Config{Rand: ssl.NewPRNG(2*seed + 2), Key: key, CertDER: id.CertDER, SessionCache: cache})
		if err := p.Handshake(); err != nil {
			return nil, err
		}
		if st, _ := p.Server.ConnectionState(); st.Resumed != (sess != nil) {
			return nil, fmt.Errorf("resumed = %v with a session offered = %v", st.Resumed, sess != nil)
		}
		return p, nil
	}
	cache := handshake.NewSessionCache(4)
	first, err := connect(cache, nil, 0)
	if err != nil {
		return spent, "", err
	}
	sess, err := first.Client.Session()
	if err != nil {
		return spent, "", err
	}
	established, err := connect(cache, sess, 1)
	if err != nil {
		return spent, "", err
	}
	payload := workload.Payload(16384)
	for i := 0; i <= n; i++ {
		full, err := connect(nil, nil, uint64(2*i+2))
		if err != nil {
			return spent, "", err
		}
		resumed, err := connect(cache, sess, uint64(2*i+3))
		if err != nil {
			return spent, "", err
		}
		before := established.Spent()
		if err := established.Exchange(payload, payload); err != nil {
			return spent, "", err
		}
		if i > 0 {
			spent[0] = append(spent[0], full.Spent())
			spent[1] = append(spent[1], resumed.Spent())
			spent[2] = append(spent[2], established.Spent()-before)
		}
	}
	return spent, kernels, nil
}

// isaModels computes the three model speedups the paper's figures
// argue from, formatted: fig5's AES-128 round unit, fig4's
// three-operand ISA on SHA-1, and fig6's engine overlap of the MAC and
// AES unit times the two-pass record seal reports on 16 KB records.
func isaModels(cfg *Config) [3]string {
	var out [3]string
	if tr, rounds, err := pathlen.AESBlockTrace(16); err == nil {
		sw, hw := accel.AESRoundUnit(tr, rounds)
		out[0] = fmt.Sprintf("%.1fx", sw/hw)
	}
	sha := pathlen.Lookup("SHA-1").Trace()
	out[1] = fmt.Sprintf("%.2fx", accel.Speedup(sha, accel.ThreeOperandISA(sha)))
	out[2] = "-"
	if _, twoPass, err := fig6Cores(); err == nil {
		out[2] = fmt.Sprintf("%.2fx", accel.ModelOverlapSpeedup(unitTimes(twoPass, workload.Payload(16384), cfg.scale(200))))
	}
	return out
}
