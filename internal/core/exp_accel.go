package core

import (
	"fmt"
	"strings"
	"time"

	"sslperf/internal/accel"
	"sslperf/internal/aes"
	"sslperf/internal/cpufeat"
	"sslperf/internal/md5x"
	"sslperf/internal/pathlen"
	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/sha1x"
	"sslperf/internal/suite"
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

// fig6Sizes are the application records Figure 6 seals.
var fig6Sizes = []int{1024, 4096, 16384}

// fig6Cores returns two identically keyed AES128-SHA record cores: one
// armed as a connection arms it (stitched where this CPU has AES-NI and
// the SHA extensions), one armed with SHA masked, so it seals in two
// passes. The mask covers SetWriteState alone: objects built under it
// would hash on the scalar rounds, and the stitched loop, which reads
// the feature table at every call, would run two passes under it.
func fig6Cores() (stitched, twoPass *record.Core, err error) {
	s, err := suite.ByName("AES128-SHA")
	if err != nil {
		return nil, nil, err
	}
	var cores [2]*record.Core
	for i, off := range []cpufeat.Features{{}, {SHA: true}} {
		ci, err := s.NewCipher(workload.Payload(s.KeyLen), workload.Payload(s.IVLen), true)
		if err != nil {
			return nil, nil, err
		}
		m, err := s.NewMAC(workload.Payload(s.MACLen()))
		if err != nil {
			return nil, nil, err
		}
		cores[i] = record.NewCore()
		cores[i].SetPrimitives(s.CipherAlgo, s.MAC.String())
		restore := cpufeat.Disable(off)
		cores[i].SetWriteState(ci, m)
		restore()
	}
	return cores[0], cores[1], nil
}

// sealRecords seals n application records of data on c, draining its
// outgoing buffer after each, as a connection's write does.
func sealRecords(c *record.Core, data []byte, n int) {
	for i := 0; i < n; i++ {
		_ = c.WriteRecord(record.TypeApplicationData, data) // seals into memory: never fails
		c.ConsumeOutgoing(len(c.Outgoing()))
	}
}

// unitTimes seals n records of data on a two-pass core with a bus
// attached and returns the mean MAC and cipher time per record its own
// record-crypto events report: the units a Figure 6 engine overlaps.
func unitTimes(twoPass *record.Core, data []byte, n int) (mac, aes time.Duration) {
	twoPass.Probe = probe.NewBus(probe.SinkFunc(func(e probe.Event) {
		switch {
		case e.Kind != probe.KindRecordCrypto:
		case e.Op == probe.OpMACCompute:
			mac += e.Dur
		case e.Op == probe.OpCipherEncrypt:
			aes += e.Dur
		}
	}))
	sealRecords(twoPass, data, n)
	twoPass.Probe = nil
	return mac / time.Duration(n), aes / time.Duration(n)
}

func runFig6(cfg *Config) (*Report, error) {
	stitched, twoPass, err := fig6Cores()
	if err != nil {
		return nil, err
	}
	t := perf.NewTable("Figure 6: crypto engine on one core — record.Core's AES128-SHA seal, two-pass vs stitched",
		"record", "two-pass us", "stitched us", "measured speedup",
		"engine model speedup", "two-pass kernels", "stitched kernels")
	n := cfg.scale(2000)/4 + 1
	// The last size is a full 16KB record, whose unit times the
	// attribution note reports.
	var macT, aesT time.Duration
	for _, size := range fig6Sizes {
		data := workload.Payload(size)
		// The two forms take turns, a quarter of the records at a time,
		// so a drift in host speed lands on both. Neither has a probe.
		var spent [2]time.Duration
		for round := 0; round < 4; round++ {
			for i, c := range []*record.Core{twoPass, stitched} {
				start := time.Now()
				sealRecords(c, data, n)
				spent[i] += time.Since(start)
			}
		}
		macT, aesT = unitTimes(twoPass, data, n)
		t.AddRow(fmt.Sprintf("%dB", size),
			fmt.Sprintf("%.2f", spent[0].Seconds()*1e6/float64(4*n)),
			fmt.Sprintf("%.2f", spent[1].Seconds()*1e6/float64(4*n)),
			fmt.Sprintf("%.2fx", float64(spent[0])/float64(spent[1])),
			fmt.Sprintf("%.2fx", accel.ModelOverlapSpeedup(macT, aesT)),
			strings.Join(twoPass.Kernels(), " "), strings.Join(stitched.Kernels(), " "))
	}
	busy := float64(macT + aesT)
	return &Report{ID: "fig6", Title: "Crypto engine on one core", Tables: []*perf.Table{t},
		Notes: []string{
			"measured columns: application records (payload ‖ SHA-1 MAC ‖ padding, AES-128-CBC) sealed by record.Core.WriteRecord, the seal every connection runs, on two identically keyed cores — one armed with the SHA extensions masked, so it MACs then encrypts, and one armed as it ships, which encrypts and hashes in one interleaved pass (AESENC beside SHA1RNDS4, where CPUID reports both; otherwise the same two passes); kernel columns: each core's Kernels()",
			"model column: hardware-engine speedup implied by the two-pass core's MAC and AES unit times, from its own record-crypto probe events on a separate pass (serial = mac+aes vs overlapped = max)",
			fmt.Sprintf("engine unit attribution over 16KB records (two-pass core's probe events): mac %.0f%%, aes %.0f%% of unit-busy time",
				100*float64(macT)/busy, 100*float64(aesT)/busy),
		}}, nil
}
