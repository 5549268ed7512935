package pathlen

import (
	"fmt"
	"strings"

	"sslperf/internal/perf"
)

// Text renders the snapshot as the live Tables 11/12: per-primitive
// intensity with the model columns alongside, then per-step byte
// attribution.
func (s Snapshot) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "live path length (model %.2f GHz)\n\n", s.ModelGHz)

	prims := perf.NewTable("per-primitive path length (continuous Table 11)",
		"primitive", "ops", "bytes", "B/op", "MB/s",
		"cyc/B", "instr/B", "model CPI", "model instr/B")
	for _, r := range s.Prims {
		instr, cpi, model := "-", "-", "-"
		if r.ModelCPI > 0 {
			instr = fmt.Sprintf("%.1f", r.InstrPerByte)
			cpi = fmt.Sprintf("%.2f", r.ModelCPI)
			model = fmt.Sprintf("%.1f", r.ModelInstrPerByte)
		}
		prims.AddRow(r.Name, fmt.Sprint(r.Ops), fmt.Sprint(r.Bytes),
			fmt.Sprintf("%.1f", r.BytesPerOp),
			fmt.Sprintf("%.1f", r.MBps),
			fmt.Sprintf("%.1f", r.CyclesPerByte),
			instr, cpi, model)
	}
	sb.WriteString(prims.String())

	if len(s.Steps) > 0 {
		sb.WriteByte('\n')
		steps := perf.NewTable("per-step byte attribution (Table 2 × record crypto)",
			"step", "class", "n", "wall kcyc", "crypto kcyc", "crypto bytes", "cyc/B")
		for _, r := range s.Steps {
			cycB := "-"
			if r.CryptoBytes > 0 {
				cycB = fmt.Sprintf("%.1f", r.CyclesPerByte)
			}
			steps.AddRow(r.Name, r.Class, fmt.Sprint(r.Count),
				fmt.Sprintf("%.1f", perf.Cycles(nsDur(r.WallNanos))/1000),
				fmt.Sprintf("%.1f", perf.Cycles(nsDur(r.CryptoNanos))/1000),
				fmt.Sprint(r.CryptoBytes), cycB)
		}
		sb.WriteString(steps.String())
	}

	return sb.String()
}
