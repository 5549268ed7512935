package main

import (
	"encoding/json"
	"fmt"
	"os"

	"sslperf/internal/pathlen"
	"sslperf/internal/perf"
	"sslperf/internal/probe"
)

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
