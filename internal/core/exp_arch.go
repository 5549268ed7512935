package core

import (
	"fmt"
	"time"

	"sslperf/internal/aes"
	"sslperf/internal/aessha1"
	"sslperf/internal/bn"
	"sslperf/internal/des"
	"sslperf/internal/md5x"
	"sslperf/internal/perf"
	"sslperf/internal/rc4"
	"sslperf/internal/sha1x"
	"sslperf/internal/workload"
)

func init() {
	register(&Experiment{
		ID:       "table11",
		Title:    "Architectural characteristics of crypto operations",
		PaperRef: "CPI 0.52-0.77; path lengths AES 50 / DES 69 / 3DES 194 / RC4 14 / RSA 61457 / MD5 12 / SHA-1 24",
		Run:      runTable11,
	})
	register(&Experiment{
		ID:       "table12",
		Title:    "Top operation classes per crypto operation",
		PaperRef: "mov tops everything but DES/3DES (xor); RSA add/adc/mul-heavy",
		Run:      runTable12,
	})
}

// primitiveTraces builds the 1KB abstract traces for each primitive.
func primitiveTraces() (map[string]*perf.Trace, []string) {
	names := []string{"AES", "DES", "3DES", "RC4", "RSA", "MD5", "SHA-1"}
	out := map[string]*perf.Trace{}

	aesC, _ := aes.New(make([]byte, 16))
	tr := &perf.Trace{}
	for i := 0; i < 64; i++ { // 64 blocks = 1KB
		aesC.TraceEncryptBlock(tr)
	}
	out["AES"] = tr

	desC, _ := des.New(make([]byte, 8))
	tr = &perf.Trace{}
	for i := 0; i < 128; i++ {
		desC.TraceEncryptBlock(tr)
	}
	out["DES"] = tr

	tdesC, _ := des.NewTriple(make([]byte, 24))
	tr = &perf.Trace{}
	for i := 0; i < 128; i++ {
		tdesC.TraceEncryptBlock(tr)
	}
	out["3DES"] = tr

	tr = &perf.Trace{}
	rc4.TraceKeystream(tr, 1024)
	out["RC4"] = tr

	tr = &perf.Trace{}
	bn.TraceRSADecrypt(tr, 1024)
	tr.Bytes = 128
	out["RSA"] = tr

	tr = &perf.Trace{}
	md5x.TraceHash(tr, 1024)
	out["MD5"] = tr

	tr = &perf.Trace{}
	sha1x.TraceHash(tr, 1024)
	out["SHA-1"] = tr
	return out, names
}

// measuredThroughput measures wall-clock MB/s for the symmetric
// primitives and hashes over 1KB units.
func measuredThroughput(cfg *Config) map[string]float64 {
	n := cfg.scale(20000)
	data := workload.Payload(1024)
	out := map[string]float64{}
	run := func(name string, fn func()) {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		elapsed := time.Since(start).Seconds()
		out[name] = float64(n) * 1024 / elapsed / 1e6
	}
	aesC, _ := aes.New(make([]byte, 16))
	buf := make([]byte, 16)
	run("AES", func() {
		for i := 0; i+16 <= len(data); i += 16 {
			aesC.Encrypt(buf, data[i:i+16])
		}
	})
	desC, _ := des.New(make([]byte, 8))
	dbuf := make([]byte, 8)
	run("DES", func() {
		for i := 0; i+8 <= len(data); i += 8 {
			desC.Encrypt(dbuf, data[i:i+8])
		}
	})
	tdesC, _ := des.NewTriple(make([]byte, 24))
	run("3DES", func() {
		for i := 0; i+8 <= len(data); i += 8 {
			tdesC.Encrypt(dbuf, data[i:i+8])
		}
	})
	rc4C, _ := rc4.New(make([]byte, 16))
	rbuf := make([]byte, 1024)
	run("RC4", func() { rc4C.XORKeyStream(rbuf, data) })
	run("MD5", func() { md5x.Sum16(data) })
	run("SHA-1", func() { sha1x.Sum20(data) })
	d, iv, enc := sha1x.New(), make([]byte, 16), make([]byte, len(data))
	run("AES+SHA-1", func() {
		d.Reset()
		aessha1.EncryptHash(aesC, enc, iv, d, data)
	})
	return out
}

var paperTable11 = map[string][3]string{
	"AES":   {"0.66", "50", "51.19"},
	"DES":   {"0.67", "69", "36.95"},
	"3DES":  {"0.66", "194", "13.32"},
	"RC4":   {"0.57", "14", "211.34"},
	"RSA":   {"0.77", "61457", "0.036"},
	"MD5":   {"0.72", "12", "197.86"},
	"SHA-1": {"0.52", "24", "135.30"},
}

func runTable11(cfg *Config) (*Report, error) {
	traces, names := primitiveTraces()
	measured := measuredThroughput(cfg)
	rsaTput, err := measureRSAThroughput(cfg)
	if err != nil {
		return nil, err
	}
	measured["RSA"] = rsaTput / 1e6

	t := perf.NewTable("Table 11: architectural characteristics (1KB units; RSA-1024)",
		"primitive", "CPI (model)", "path length (ops/B)", "throughput (MB/s, measured)",
		"paper CPI", "paper path len", "paper MB/s")
	for _, name := range names {
		tr := traces[name]
		p := paperTable11[name]
		row := name
		switch name {
		case "AES":
			row = fmt.Sprintf("AES (%s)", aes.Kernel())
		case "SHA-1":
			row = fmt.Sprintf("SHA-1 (%s)", sha1x.Kernel())
		}
		t.AddRow(row,
			fmt.Sprintf("%.2f", tr.CPI()),
			fmt.Sprintf("%.0f", tr.PathLength()),
			fmt.Sprintf("%.2f", measured[name]),
			p[0], p[1], p[2])
	}
	t.AddRow(fmt.Sprintf("AES+SHA-1 (%s)", aessha1.Kernel()), "-", "-",
		fmt.Sprintf("%.2f", measured["AES+SHA-1"]), "-", "-", "-")
	return &Report{ID: "table11", Title: "Architectural characteristics",
		Tables: []*perf.Table{t},
		Notes: []string{
			"AES+SHA-1 is no primitive of the paper's: it is the bulk record's AES-CBC encryption and SHA-1 hash of the same bytes in one pass, the form an AES128-SHA record is sealed in where CPUID reports AES-NI and the SHA extensions (otherwise two passes, as its row names); MB/s counts each byte once; the AES and SHA-1 rows above time single-block calls and one-shot digests, so the two-pass form of the same work is timed by fig6 and BenchmarkEncryptHash, not by those rows; the abstract model has no trace for it",
			"CPI and path length come from the abstract instruction model (SoftSDV substitute) of the code the paper traced (for AES, the tables; for SHA-1, the scalar rounds); throughput is wall-clock on this machine, for AES and SHA-1 on the kernel its row names",
			"paper ordering to check: RSA slowest by orders of magnitude; RC4 fastest symmetric; 3DES ~3x DES; MD5 faster than SHA-1 — which holds for the scalar SHA-1 rounds and reverses on SHA1RNDS4",
		}}, nil
}

func runTable12(cfg *Config) (*Report, error) {
	traces, names := primitiveTraces()
	var tables []*perf.Table
	for _, name := range names {
		top, covered := traces[name].TopMix(10)
		t := perf.NewTable(fmt.Sprintf("Table 12 (%s): top operation classes", name),
			"op class", "x86 analogue", "%")
		for _, e := range top {
			t.AddRow(e.Op.String(), x86Analogue(e.Op), fmt.Sprintf("%.2f", e.Percent))
		}
		t.AddRow("(coverage)", "", fmt.Sprintf("%.2f", covered))
		tables = append(tables, t)
	}
	return &Report{ID: "table12", Title: "Operation mixes", Tables: tables,
		Notes: []string{
			"load/store/lookup classes together correspond to the paper's movl/movb rows; the x86 column gives the closest mnemonic",
		}}, nil
}

func x86Analogue(op perf.Op) string {
	switch op {
	case perf.OpLoad, perf.OpStore, perf.OpMove:
		return "movl"
	case perf.OpLookup:
		return "movl (indexed)"
	case perf.OpXor:
		return "xorl"
	case perf.OpAnd:
		return "andl"
	case perf.OpOr:
		return "orl"
	case perf.OpNot:
		return "notl"
	case perf.OpAdd:
		return "addl/leal"
	case perf.OpAddC:
		return "adcl"
	case perf.OpMul:
		return "mull"
	case perf.OpShift:
		return "shrl/shll"
	case perf.OpRotate:
		return "roll/rorl"
	case perf.OpBranch:
		return "jnz"
	case perf.OpCmp:
		return "cmpl"
	}
	return "?"
}
