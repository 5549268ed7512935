// Package pathlen is the offline half of the paper's Tables 11 and 12:
// the abstract-instruction path-length model of each primitive (CPI
// and instructions/byte of the code the paper traced, which
// cryptospeed and sslanatomy -pathlen print) and a fold of a pprof CPU
// profile by the spine's sample labels (sslanatomy -foldprofile). The
// live measurement is the telemetry registry's /debug/pathlength,
// which carries no model columns: the model describes the table and
// scalar kernels, not the AESENC or SHA1RNDS4 code a CPU may run.
package pathlen

import (
	"sync"

	"sslperf/internal/aes"
	"sslperf/internal/bn"
	"sslperf/internal/des"
	"sslperf/internal/md5x"
	"sslperf/internal/perf"
	"sslperf/internal/rc4"
	"sslperf/internal/sha1x"
)

// Model is one primitive's abstract-instruction characterization: the
// CPI and instructions/byte the perf kernels predict over a 1KB unit
// (128 bytes for RSA), matching Table 11's columns.
type Model struct {
	Name         string  `json:"name"`
	CPI          float64 `json:"cpi"`
	InstrPerByte float64 `json:"instr_per_byte"`
	// CyclesPerByte is the model's prediction CPI × instr/byte, and
	// MBps the throughput that implies at the model clock — the
	// numbers a measurement (cryptospeed) is compared against.
	CyclesPerByte float64 `json:"cycles_per_byte"`
	MBps          float64 `json:"mbps"`
}

var (
	modelOnce  sync.Once
	modelTable map[string]Model
	modelOrder []string
)

// buildModels runs the abstract-instruction kernels once, mirroring
// the offline Table 11 experiment (internal/core exp_arch): 1KB units
// for the symmetric primitives and hashes, one 1024-bit CRT decrypt
// for RSA.
func buildModels() {
	traces := map[string]*perf.Trace{}
	modelOrder = []string{"AES", "DES", "3DES", "RC4", "RSA", "MD5", "SHA-1"}

	aesC, _ := aes.New(make([]byte, 16))
	tr := &perf.Trace{}
	for i := 0; i < 64; i++ { // 64 blocks = 1KB
		aesC.TraceEncryptBlock(tr)
	}
	traces["AES"] = tr

	desC, _ := des.New(make([]byte, 8))
	tr = &perf.Trace{}
	for i := 0; i < 128; i++ {
		desC.TraceEncryptBlock(tr)
	}
	traces["DES"] = tr

	tdesC, _ := des.NewTriple(make([]byte, 24))
	tr = &perf.Trace{}
	for i := 0; i < 128; i++ {
		tdesC.TraceEncryptBlock(tr)
	}
	traces["3DES"] = tr

	tr = &perf.Trace{}
	rc4.TraceKeystream(tr, 1024)
	traces["RC4"] = tr

	tr = &perf.Trace{}
	bn.TraceRSADecrypt(tr, 1024)
	tr.Bytes = 128
	traces["RSA"] = tr

	tr = &perf.Trace{}
	md5x.TraceHash(tr, 1024)
	traces["MD5"] = tr

	tr = &perf.Trace{}
	sha1x.TraceHash(tr, 1024)
	traces["SHA-1"] = tr

	modelTable = make(map[string]Model, len(traces))
	for name, tr := range traces {
		m := Model{
			Name:         name,
			CPI:          tr.CPI(),
			InstrPerByte: tr.PathLength(),
		}
		m.CyclesPerByte = m.CPI * m.InstrPerByte
		if m.CyclesPerByte > 0 {
			// bytes/s = clock / (cycles/byte); scale to MB/s.
			m.MBps = perf.ModelGHz * 1e9 / m.CyclesPerByte / 1e6
		}
		modelTable[name] = m
	}
}

// ModelFor returns the abstract-instruction model for a primitive
// name ("AES", "RC4", "MD5", …). ok is false for primitives the model
// does not cover (NULL, other).
func ModelFor(name string) (Model, bool) {
	modelOnce.Do(buildModels)
	m, ok := modelTable[name]
	return m, ok
}

// Models returns every modelled primitive in Table 11 order.
func Models() []Model {
	modelOnce.Do(buildModels)
	out := make([]Model, 0, len(modelOrder))
	for _, name := range modelOrder {
		out = append(out, modelTable[name])
	}
	return out
}
