package core

import (
	"fmt"
	"time"

	"sslperf/internal/accel"
	"sslperf/internal/aes"
	"sslperf/internal/md5x"
	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/sha1x"
	"sslperf/internal/sslcrypto"
	"sslperf/internal/workload"
)

func init() {
	register(&Experiment{
		ID:       "fig4",
		Title:    "ISA support: three-operand logical operations (model)",
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
		Title:    "Crypto engine: pipelined AES + MAC (measured)",
		PaperRef: "MAC calculation overlapped with AES encryption of the fragment",
		Run:      runFig6,
	})
}

func runFig4(cfg *Config) (*Report, error) {
	t := perf.NewTable("Figure 4: modeled effect of 3-operand logical ISA on hashing",
		"hash", "ops before", "ops after", "cycles before", "cycles after", "speedup")
	for _, h := range []struct {
		name  string
		trace func(tr *perf.Trace)
	}{
		{"MD5", func(tr *perf.Trace) { md5x.TraceHash(tr, 1024) }},
		{"SHA-1", func(tr *perf.Trace) { sha1x.TraceHash(tr, 1024) }},
	} {
		var before perf.Trace
		h.trace(&before)
		after := accel.ThreeOperandISA(&before)
		t.AddRow(h.name,
			fmt.Sprint(before.Total()), fmt.Sprint(after.Total()),
			fmt.Sprintf("%.0f", before.EstimatedCycles()),
			fmt.Sprintf("%.0f", after.EstimatedCycles()),
			fmt.Sprintf("%.2fx", accel.Speedup(&before, after)))
	}
	return &Report{ID: "fig4", Title: "3-operand ISA model", Tables: []*perf.Table{t}}, nil
}

func runFig5(cfg *Config) (*Report, error) {
	t := perf.NewTable("Figure 5: modeled AES round hardware unit",
		"key size", "sw cycles/block", "hw cycles/block", "speedup")
	for _, keyLen := range []int{16, 32} {
		c, err := aes.New(make([]byte, keyLen))
		if err != nil {
			return nil, err
		}
		var tr perf.Trace
		c.TraceEncryptBlock(&tr)
		sw, hw := accel.AESRoundUnit(&tr, c.Rounds())
		t.AddRow(fmt.Sprintf("%d-bit", keyLen*8),
			fmt.Sprintf("%.0f", sw), fmt.Sprintf("%.0f", hw),
			fmt.Sprintf("%.1fx", sw/hw))
	}
	return &Report{ID: "fig5", Title: "AES round unit model", Tables: []*perf.Table{t}}, nil
}

func runFig6(cfg *Config) (*Report, error) {
	t := perf.NewTable("Figure 6: crypto engine — serial vs pipelined AES+MAC",
		"fragment", "serial MB/s", "pipelined MB/s", "measured speedup",
		"engine model speedup")
	iters := cfg.scale(2000)
	for _, size := range []int{1024, 4096, 16384} {
		data := workload.Payload(size)
		mkEngine := func() (*accel.Engine, error) {
			return accel.NewEngine(make([]byte, 16), make([]byte, 16),
				workload.Payload(20), sslcrypto.MACSHA1)
		}
		es, err := mkEngine()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := es.EncryptFragmentSerial(data); err != nil {
				return nil, err
			}
		}
		serial := time.Since(start)
		ep, err := mkEngine()
		if err != nil {
			return nil, err
		}
		start = time.Now()
		for i := 0; i < iters; i++ {
			if _, err := ep.EncryptFragmentPipelined(data); err != nil {
				return nil, err
			}
		}
		piped := time.Since(start)
		mbps := func(d time.Duration) float64 {
			return float64(iters) * float64(size) / d.Seconds() / 1e6
		}
		em, err := mkEngine()
		if err != nil {
			return nil, err
		}
		macT, aesT := em.ComponentTimes(data, iters/4+1)
		t.AddRow(fmt.Sprintf("%dB", size),
			fmt.Sprintf("%.1f", mbps(serial)),
			fmt.Sprintf("%.1f", mbps(piped)),
			fmt.Sprintf("%.2fx", float64(serial)/float64(piped)),
			fmt.Sprintf("%.2fx", accel.ModelOverlapSpeedup(macT, aesT)))
	}
	// Cross-goroutine unit attribution: an instrumented pipelined pass
	// whose hashing-unit goroutine and cipher unit aggregate into one
	// perf.SharedBreakdown concurrently.
	ei, err := accel.NewEngine(make([]byte, 16), make([]byte, 16),
		workload.Payload(20), sslcrypto.MACSHA1)
	if err != nil {
		return nil, err
	}
	breakdown := perf.NewSharedBreakdown()
	ei.Probe = probe.NewBus(breakdown)
	attrData := workload.Payload(16384)
	for i := 0; i < cfg.scale(200); i++ {
		if _, err := ei.EncryptFragmentPipelined(attrData); err != nil {
			return nil, err
		}
	}
	shares := breakdown.Snapshot()
	unitNote := fmt.Sprintf(
		"engine unit attribution over 16KB fragments (SharedBreakdown): mac %.0f%%, aes %.0f%% of unit-busy time",
		shares.Percent("mac"), shares.Percent("aes"))

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
	return &Report{ID: "fig6", Title: "Crypto engine pipelining",
		Tables: []*perf.Table{t, sim},
		Notes: []string{
			"measured column: goroutine pipeline, which needs >1 host CPU to overlap; model column: hardware-engine speedup implied by the separately measured MAC and AES unit times (serial = mac+aes vs overlapped = max)",
			unitNote,
			"the simulated engine uses Figure 5's round-unit service rate; scaling flattens once the slower pool saturates",
		}}, nil
}
