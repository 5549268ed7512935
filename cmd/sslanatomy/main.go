// Command sslanatomy regenerates the tables and figures of "Anatomy
// and Performance of SSL Processing" (ISPASS 2005) on this
// repository's from-scratch SSL stack.
//
// Usage:
//
//	sslanatomy -experiment table2        # one experiment
//	sslanatomy -experiment all           # the whole evaluation
//	sslanatomy -experiment table2 -json  # machine-readable output
//	sslanatomy -list                     # what's available
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"sslperf/internal/core"
	"sslperf/internal/record"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (e.g. table2, fig3) or 'all'")
		list       = flag.Bool("list", false, "list experiments and exit")
		seed       = flag.Uint64("seed", 0, "PRNG seed (0 = default)")
		keyBits    = flag.Int("keybits", 1024, "server RSA key size")
		iters      = flag.Int("iterations", 10, "measurement repetitions")
		quick      = flag.Bool("quick", false, "reduced workloads (CI mode)")
		suiteName  = flag.String("suite", "", "cipher suite for protocol experiments (default DES-CBC3-SHA)")
		useTLS     = flag.Bool("tls", false, "run protocol experiments over TLS 1.0 instead of SSL 3.0")
		jsonOut    = flag.Bool("json", false, "emit reports as a JSON array instead of text tables")
		traceOut   = flag.String("trace", "", "write a single-handshake Chrome trace to this file and exit")
		foldProf   = flag.String("foldprofile", "", "fold a pprof CPU profile by sslstep/sslfn labels and exit")
	)
	flag.Parse()

	if *foldProf != "" {
		if err := runFoldProfile(*foldProf, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cfg := &core.Config{
		Seed:       *seed,
		KeyBits:    *keyBits,
		Iterations: *iters,
		Quick:      *quick,
		SuiteName:  *suiteName,
	}
	if *useTLS {
		cfg.Version = record.VersionTLS10
	}

	if *traceOut != "" {
		b, err := core.HandshakeTrace(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*traceOut, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d-byte Chrome trace to %s (load in chrome://tracing or ui.perfetto.dev)\n",
			len(b), *traceOut)
		return
	}

	if *list {
		for _, e := range core.All() {
			fmt.Printf("%-8s %s\n         paper: %s\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}

	var exps []*core.Experiment
	if *experiment == "all" {
		exps = core.All()
	} else {
		e, err := core.ByID(*experiment)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		exps = []*core.Experiment{e}
	}

	var reports []*core.Report
	for _, e := range exps {
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *jsonOut {
			reports = append(reports, rep)
		} else {
			fmt.Println(rep)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
