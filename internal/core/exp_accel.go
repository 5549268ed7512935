package core

import (
	"fmt"
	"time"

	"sslperf/internal/accel"
	"sslperf/internal/aes"
	"sslperf/internal/aessha1"
	"sslperf/internal/md5x"
	"sslperf/internal/pathlen"
	"sslperf/internal/perf"
	"sslperf/internal/sha1x"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/workload"
)

func init() {
	register(&Experiment{
		ID:       "fig4",
		Title:    "ISA support: three-operand logical operations (model), beside the shipped SHA-1 kernel",
		PaperRef: "MD5/SHA-1 three-input functions need >=2 two-operand instructions",
		Run:      runFig4,
	})
	register(&Experiment{
		ID:       "fig5",
		Title:    "Hardware support: AES round table-lookup unit (model)",
		PaperRef: "four independent basic ops per round, fully parallel in hardware",
		Run:      runFig5,
	})
	register(&Experiment{
		ID:       "fig6",
		Title:    "Crypto engine: AES + MAC overlapped on one core (measured)",
		PaperRef: "MAC calculation overlapped with AES encryption of the fragment",
		Run:      runFig6,
	})
}

func runFig4(cfg *Config) (*Report, error) {
	t := perf.NewTable("Figure 4: modeled effect of 3-operand logical ISA on hashing, beside the shipped kernel",
		"hash", "ops before", "ops after", "cycles before", "cycles after", "speedup",
		"shipped kernel", "measured ns/block")
	n, buf := cfg.scale(200), make([]byte, 16384)
	blocks := float64(n * len(buf) / sha1x.BlockSize)
	md, sha := md5x.New(), sha1x.New()
	for _, h := range []struct {
		name, kernel string
		write        func(p []byte) (int, error)
	}{
		{"MD5", "scalar", md.Write},
		{"SHA-1", sha1x.Kernel(), sha.Write},
	} {
		before := pathlen.Lookup(h.name).Trace()
		after := accel.ThreeOperandISA(before)
		start := time.Now()
		for i := 0; i < n; i++ {
			h.write(buf)
		}
		ns := float64(time.Since(start).Nanoseconds()) / blocks
		t.AddRow(h.name,
			fmt.Sprint(before.Total()), fmt.Sprint(after.Total()),
			fmt.Sprintf("%.0f", before.EstimatedCycles()),
			fmt.Sprintf("%.0f", after.EstimatedCycles()),
			fmt.Sprintf("%.2fx", accel.Speedup(before, after)),
			h.kernel, fmt.Sprintf("%.1f", ns))
	}
	scalar := sha1x.ProfilePhases(len(buf), n).Elapsed(sha1x.PhaseUpdate)
	return &Report{ID: "fig4", Title: "3-operand ISA model", Tables: []*perf.Table{t},
		Notes: []string{
			"model columns: the scalar rounds' abstract instruction stream with and without three-operand logical instructions, in model cycles",
			"measured column: 16 KB through Digest.Write on the kernel this CPU runs — for SHA-1, SHA1RNDS4 when CPUID reports the SHA extensions, the scalar rounds otherwise",
			fmt.Sprintf("scalar SHA-1 on this CPU (the form Table 10 times): %.1f ns/block",
				float64(scalar.Nanoseconds())/blocks),
		}}, nil
}

func runFig5(cfg *Config) (*Report, error) {
	kernel := aes.Kernel()
	t := perf.NewTable("Figure 5: modeled AES round hardware unit, beside the shipped kernel",
		"key size", "sw cycles/block", "hw cycles/block", "speedup",
		"shipped kernel", "measured ns/block")
	buf, iv := make([]byte, 16384), make([]byte, aes.BlockSize)
	blocks := len(buf) / aes.BlockSize
	for _, keyLen := range []int{16, 32} {
		c, err := aes.New(make([]byte, keyLen))
		if err != nil {
			return nil, err
		}
		tr, rounds, err := pathlen.AESBlockTrace(keyLen)
		if err != nil {
			return nil, err
		}
		sw, hw := accel.AESRoundUnit(tr, rounds)
		// CBC encryption is one serial chain of blocks, so ns/block is
		// the latency of one block through the kernel, as the model's.
		n := cfg.scale(200)
		start := time.Now()
		for i := 0; i < n; i++ {
			c.EncryptCBC(buf, buf, iv)
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(n*blocks)
		t.AddRow(fmt.Sprintf("%d-bit", keyLen*8),
			fmt.Sprintf("%.0f", sw), fmt.Sprintf("%.0f", hw),
			fmt.Sprintf("%.1fx", sw/hw), kernel, fmt.Sprintf("%.1f", ns))
	}
	return &Report{ID: "fig5", Title: "AES round unit model", Tables: []*perf.Table{t},
		Notes: []string{
			"model columns: the table kernel's abstract instruction stream against a 4-cycle-per-round lookup unit, in model cycles",
			"measured column: CBC encryption of 16 KB on the kernel this CPU runs — AESENC when CPUID reports AES-NI, the tables otherwise",
		}}, nil
}

func runFig6(cfg *Config) (*Report, error) {
	kernel := aessha1.Kernel()
	t := perf.NewTable("Figure 6: crypto engine on one core — two-pass vs stitched AES-CBC + SHA-1 fragment",
		"fragment", "two-pass us", "stitched us", "measured speedup",
		"engine model speedup", "stitched kernel")
	iters := cfg.scale(2000)
	// The last size is a full 16KB fragment, whose unit times the
	// attribution note reports.
	var macT, aesT time.Duration
	for _, size := range []int{1024, 4096, 16384} {
		data := workload.Payload(size)
		e, err := accel.NewEngine(make([]byte, 16), make([]byte, 16),
			workload.Payload(20), sslcrypto.MACSHA1)
		if err != nil {
			return nil, err
		}
		// The two forms take turns, a quarter of the fragments at a
		// time, so a drift in host speed lands on both.
		var serial, stitched time.Duration
		for round := 0; round < 4; round++ {
			start := time.Now()
			for i := 0; i < iters/4+1; i++ {
				if _, err := e.EncryptFragmentSerial(data); err != nil {
					return nil, err
				}
			}
			serial += time.Since(start)
			start = time.Now()
			for i := 0; i < iters/4+1; i++ {
				if _, err := e.EncryptFragmentStitched(data); err != nil {
					return nil, err
				}
			}
			stitched += time.Since(start)
		}
		per := func(d time.Duration) float64 {
			return d.Seconds() * 1e6 / float64(4*(iters/4+1))
		}
		macT, aesT = e.ComponentTimes(data, iters/4+1)
		t.AddRow(fmt.Sprintf("%dB", size),
			fmt.Sprintf("%.2f", per(serial)),
			fmt.Sprintf("%.2f", per(stitched)),
			fmt.Sprintf("%.2fx", float64(serial)/float64(stitched)),
			fmt.Sprintf("%.2fx", accel.ModelOverlapSpeedup(macT, aesT)),
			kernel)
	}
	busy := float64(macT + aesT)
	unitNote := fmt.Sprintf(
		"engine unit attribution over 16KB fragments (ComponentTimes): mac %.0f%%, aes %.0f%% of unit-busy time",
		100*float64(macT)/busy, 100*float64(aesT)/busy)

	// Discrete-event engine simulation: unit-count scaling for a bulk
	// stream of 16KB records (the paper: "several crypto units within
	// one engine can run in parallel in the bulk transfer phase").
	sim := perf.NewTable("Figure 6 (simulated engine): unit scaling on 1000 x 16KB records",
		"AES+hash units", "throughput (MB/s @1GHz)", "speedup vs serial",
		"AES util", "hash util")
	work := make([]int, 1000)
	for i := range work {
		work[i] = 16384
	}
	base := accel.DefaultEngineSim()
	serial, err := base.SerialBaseline(work)
	if err != nil {
		return nil, err
	}
	for _, cfgU := range [][2]int{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {4, 2}, {8, 4}} {
		s := accel.DefaultEngineSim()
		s.AESUnits, s.HashUnits = cfgU[0], cfgU[1]
		res, err := s.Run(work)
		if err != nil {
			return nil, err
		}
		sim.AddRow(fmt.Sprintf("%d+%d", cfgU[0], cfgU[1]),
			fmt.Sprintf("%.0f", res.ThroughputMBps(1.0)),
			fmt.Sprintf("%.2fx", serial.TotalCycles/res.TotalCycles),
			fmt.Sprintf("%.0f%%", 100*res.AESUtilization),
			fmt.Sprintf("%.0f%%", 100*res.HashUtilization))
	}
	return &Report{ID: "fig6", Title: "Crypto engine on one core",
		Tables: []*perf.Table{t, sim},
		Notes: []string{
			"measured columns: one fragment (data ‖ SHA-1 MAC ‖ padding, AES-128-CBC) sealed both ways on one core — MAC then encrypt, and one pass with the cipher and the hash interleaved (AESENC beside SHA1RNDS4, where CPUID reports both; otherwise the same two passes); model column: hardware-engine speedup implied by the separately measured MAC and AES unit times (serial = mac+aes vs overlapped = max)",
			unitNote,
			"the simulated engine uses Figure 5's round-unit service rate; scaling flattens once the slower pool saturates",
		}}, nil
}
