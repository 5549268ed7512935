package core

import (
	"fmt"

	"sslperf/internal/md5x"
	"sslperf/internal/perf"
	"sslperf/internal/sha1x"
)

func init() {
	register(&Experiment{
		ID:       "table10",
		Title:    "Execution time breakdown for MD5 and SHA-1",
		PaperRef: "update 90.9% (MD5) / 92.1% (SHA-1) on 1024-byte input",
		Run:      runTable10,
	})
}

var paperTable10 = map[string][2]string{
	"init":   {"0.88", "0.62"},
	"update": {"90.88", "92.05"},
	"final":  {"8.24", "7.33"},
}

func runTable10(cfg *Config) (*Report, error) {
	n := cfg.scale(100000)
	md := md5x.ProfilePhases(1024, n)
	sha := sha1x.ProfilePhases(1024, n)
	t := perf.NewTable("Table 10: MD5 / SHA-1 phase breakdown (1024-byte input)",
		"step", "MD5 cycles", "MD5 %", "SHA-1 cycles", "SHA-1 %",
		"paper MD5 %", "paper SHA-1 %")
	for _, name := range md.Names() {
		t.AddRow(name,
			fmt.Sprintf("%.0f", perf.Cycles(md.Elapsed(name))/float64(n)),
			fmt.Sprintf("%.2f", md.Percent(name)),
			fmt.Sprintf("%.0f", perf.Cycles(sha.Elapsed(name))/float64(n)),
			fmt.Sprintf("%.2f", sha.Percent(name)),
			paperTable10[name][0], paperTable10[name][1])
	}
	t.AddRow("total",
		fmt.Sprintf("%.0f", perf.Cycles(md.Total())/float64(n)), "100",
		fmt.Sprintf("%.0f", perf.Cycles(sha.Total())/float64(n)), "100",
		"100", "100")
	return &Report{ID: "table10", Title: "Hash phase breakdown",
		Tables: []*perf.Table{t},
		Notes: []string{
			"paper totals: MD5 6679 cycles, SHA-1 10723 cycles for 1KB — SHA-1 ~1.6x MD5, a ratio this stack should roughly preserve",
			"the SHA-1 column is the scalar rounds, the form the paper timed, on every CPU; where CPUID reports the SHA extensions connections hash on SHA1RNDS4 instead (fig4, table11)",
		}}, nil
}
