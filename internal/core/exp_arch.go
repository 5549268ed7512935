package core

import (
	"fmt"
	"time"

	"sslperf/internal/aes"
	"sslperf/internal/aessha1"
	"sslperf/internal/pathlen"
	"sslperf/internal/perf"
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

// mbps times n runs of fn over data, in MB/s.
func mbps(n int, data []byte, fn func([]byte)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(data)
	}
	return float64(n) * float64(len(data)) / time.Since(start).Seconds() / 1e6
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
	rsaTput, err := measureRSAThroughput(cfg)
	if err != nil {
		return nil, err
	}
	n, data := cfg.scale(20000), workload.Payload(1024)

	t := perf.NewTable("Table 11: architectural characteristics (1KB units; RSA-1024)",
		"primitive", "CPI (model)", "path length (ops/B)", "throughput (MB/s, measured)",
		"paper CPI", "paper path len", "paper MB/s")
	for _, prim := range pathlen.Primitives {
		tr := prim.Trace()
		p := paperTable11[prim.Name]
		row := prim.Name
		if k := prim.Kernel(); k != "" {
			row = fmt.Sprintf("%s (%s)", prim.Name, k)
		}
		measured := rsaTput / 1e6
		if run := prim.Run(); run != nil {
			measured = mbps(n, data, run)
		}
		t.AddRow(row,
			fmt.Sprintf("%.2f", tr.CPI()),
			fmt.Sprintf("%.0f", tr.PathLength()),
			fmt.Sprintf("%.2f", measured),
			p[0], p[1], p[2])
	}
	aesC, _ := aes.New(make([]byte, 16))
	d, iv, enc := sha1x.New(), make([]byte, 16), make([]byte, len(data))
	stitched := mbps(n, data, func(b []byte) {
		d.Reset()
		aessha1.EncryptHash(aesC, enc, iv, d, b)
	})
	t.AddRow(fmt.Sprintf("AES+SHA-1 (%s)", aessha1.Kernel()), "-", "-",
		fmt.Sprintf("%.2f", stitched), "-", "-", "-")
	return &Report{ID: "table11", Title: "Architectural characteristics",
		Tables: []*perf.Table{t},
		Notes: []string{
			"AES+SHA-1 is no primitive of the paper's: it is the bulk record's AES-CBC encryption and SHA-1 hash of the same bytes in one pass, the form an AES128-SHA record is sealed in where CPUID reports AES-NI and the SHA extensions (otherwise two passes, as its row names); MB/s counts each byte once; the AES and SHA-1 rows above time single-block calls and one-shot digests, so the two-pass form of the same work is timed by fig6 and BenchmarkEncryptHash, not by those rows; the abstract model has no trace for it",
			"CPI and path length come from the abstract instruction model (SoftSDV substitute) of the code the paper traced (for AES, the tables; for SHA-1, the scalar rounds); throughput is wall-clock on this machine, for AES and SHA-1 on the kernel its row names",
			"paper ordering to check: RSA slowest by orders of magnitude; RC4 fastest symmetric; 3DES ~3x DES; MD5 faster than SHA-1 — which holds for the scalar SHA-1 rounds and reverses on SHA1RNDS4",
		}}, nil
}

func runTable12(cfg *Config) (*Report, error) {
	var tables []*perf.Table
	for _, p := range pathlen.Primitives {
		top, covered := p.Trace().TopMix(10)
		t := perf.NewTable(fmt.Sprintf("Table 12 (%s): top operation classes", p.Name),
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
