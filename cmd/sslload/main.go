// Command sslload drives HTTPS-like load against sslserver and
// reports coordinated-omission-safe per-phase latency.
//
// Open loop (fixed arrival rate):
//
//	sslload -addr localhost:4433 -rate 200 -duration 10s -json out.json
//
// Closed loop (fixed concurrency):
//
//	sslload -addr localhost:4433 -concurrency 8 -duration 10s
//
// Self-contained smoke (spins up an in-process server, then checks
// the recorded distributions with loadgen.Result.Check):
//
//	sslload -selftest -duration 5s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sslperf/internal/loadgen"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:4433", "target server address")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate (conns/s); 0 = closed loop")
		concurrency = flag.Int("concurrency", 0, "closed-loop workers / open-loop in-flight cap (0 = default)")
		duration    = flag.Duration("duration", 10*time.Second, "measured window")
		warmup      = flag.Duration("warmup", 2*time.Second, "warmup window discarded from distributions")
		requests    = flag.Int("requests", 1, "requests per connection")
		resume      = flag.Float64("resume", 0, "fraction of connections attempting session resumption [0,1]")
		suites      = flag.String("suites", "", "weighted cipher-suite mix, e.g. RC4-MD5:3,DES-CBC3-SHA:1 (empty = offer all)")
		useTLS      = flag.Bool("tls", false, "offer TLS 1.0 instead of SSL 3.0")
		seed        = flag.Uint64("seed", 0, "deterministic PRNG seed (0 = time-based)")
		jsonOut     = flag.String("json", "", "write the result as JSON to this file")
		selftest    = flag.Bool("selftest", false, "start an in-process server, load it, and check the result")
		keyBits     = flag.Int("keybits", 1024, "selftest server RSA key size")
		fileSize    = flag.Int("filesize", 1024, "selftest server response payload bytes")
	)
	flag.Parse()

	mix, err := loadgen.ParseSuiteMix(*suites)
	if err != nil {
		fatal(err)
	}
	cfg := loadgen.Config{
		Addr:           *addr,
		Rate:           *rate,
		Concurrency:    *concurrency,
		Duration:       *duration,
		Warmup:         *warmup,
		Requests:       *requests,
		ResumeFraction: *resume,
		Mix:            mix,
		TLS:            *useTLS,
		Seed:           *seed,
	}

	if *selftest {
		srv, err := loadgen.StartServer(loadgen.ServerOptions{
			KeyBits:  *keyBits,
			FileSize: *fileSize,
			Seed:     *seed,
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		cfg.Addr = srv.Addr()
		if cfg.Rate == 0 && cfg.Concurrency == 0 {
			cfg.Rate = 200 // exercise the coordinated-omission path by default
		}
		fmt.Printf("selftest server on %s (%d-bit key, %d-byte payload)\n\n", cfg.Addr, *keyBits, *fileSize)
	}

	res, err := loadgen.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Text())

	if *jsonOut != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nresult written to %s\n", *jsonOut)
	}

	if *selftest {
		// The smoke gate: the run must have done real work and recorded
		// clean distributions.
		if res.Done == 0 || res.Failed > res.Done/10 {
			fatal(fmt.Errorf("selftest: %d done, %d failed: %v", res.Done, res.Failed, res.Errors))
		}
		if err := res.Check(); err != nil {
			fatal(fmt.Errorf("selftest: %w", err))
		}
		fmt.Printf("\nselftest OK: %d connections, distributions consistent\n", res.Done)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sslload:", err)
	os.Exit(1)
}
