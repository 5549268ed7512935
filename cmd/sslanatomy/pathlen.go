package main

import (
	"encoding/json"
	"fmt"
	"os"

	"sslperf/internal/pathlen"
	"sslperf/internal/perf"
	"sslperf/internal/probe"
)

// runPathlenModel prints the abstract-instruction path-length model —
// the offline half of the Tables 11/12 reproduction, and the only
// place its CPI and instructions/byte appear: the running server's
// /debug/pathlength measures cycles/byte on the kernels that ran,
// which this model of the table and scalar kernels does not describe.
func runPathlenModel(jsonOut bool) error {
	models := pathlen.Models()
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			GHz    float64         `json:"model_ghz"`
			Models []pathlen.Model `json:"models"`
		}{perf.ModelGHz, models})
	}
	t := perf.NewTable(
		fmt.Sprintf("abstract-instruction path length model (Table 11, %.2f GHz clock)", perf.ModelGHz),
		"primitive", "CPI", "instr/B", "cyc/B", "MB/s")
	for _, m := range models {
		t.AddRow(m.Name,
			fmt.Sprintf("%.3f", m.CPI),
			fmt.Sprintf("%.2f", m.InstrPerByte),
			fmt.Sprintf("%.2f", m.CyclesPerByte),
			fmt.Sprintf("%.1f", m.MBps))
	}
	fmt.Println(t)
	return nil
}

// foldKeys are the label keys a -foldprofile run groups by, in
// presentation order: Table 2 step, then crypto function.
var foldKeys = []string{probe.LabelKeyStep, probe.LabelKeyFn}

// runFoldProfile reads a pprof CPU profile (written by a server run
// with -pprof-labels) and folds its samples by the spine's label
// keys, turning a flat profile into per-step CPU attribution.
func runFoldProfile(path string, jsonOut bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if jsonOut {
		out := map[string][]pathlen.FoldRow{}
		for _, key := range foldKeys {
			rows, err := pathlen.FoldProfile(data, key)
			if err != nil {
				return err
			}
			out[key] = rows
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	for _, key := range foldKeys {
		rows, err := pathlen.FoldProfile(data, key)
		if err != nil {
			return err
		}
		if key != probe.LabelKeyStep && len(rows) == 1 && rows[0].Label == pathlen.FoldUnlabeled {
			continue // nothing labeled under this key; skip the table
		}
		t := perf.NewTable("cpu profile by "+key, key, "cpu", "samples", "share")
		for _, r := range rows {
			t.AddRow(r.Label,
				fmt.Sprintf("%v", nsString(r.Nanos)),
				fmt.Sprintf("%d", r.Samples),
				fmt.Sprintf("%.1f%%", r.SharePct))
		}
		fmt.Println(t)
	}
	return nil
}

func nsString(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.0fµs", float64(ns)/1e3)
	}
}
