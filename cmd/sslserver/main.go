// Command sslserver serves a static payload over SSLv3 on TCP — the
// measured half of the paper's web-server setup. Pair it with
// sslload to drive HTTPS-like transactions across real sockets
// (-concurrency 1 -resume 1 for one sequential session chain).
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"sslperf/internal/debughttp"
	"sslperf/internal/handshake"
	"sslperf/internal/history"
	"sslperf/internal/lifecycle"
	"sslperf/internal/probe"
	"sslperf/internal/server"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/telemetry"
	"sslperf/internal/workload"
)

// Settings that every recipe, test and benchmark runs at one value:
// constants, not flags.
const (
	flightRecords   = 256 // closed records kept for /debug/flightrecorder and /debug/trace
	logRate         = 10  // per-connection console lines per second
	historyInterval = time.Second
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:4433", "listen address")
		keyBits   = flag.Int("keybits", 1024, "RSA key size")
		fileSize  = flag.Int("filesize", 1024, "response payload bytes")
		suiteName = flag.String("suite", "", "restrict to one cipher suite (e.g. DES-CBC3-SHA)")
		seed      = flag.Uint64("seed", 0, "PRNG seed (0 = time-based)")
		telAddr   = flag.String("telemetry", "",
			"serve /metrics, the /debug surfaces and pprof on this address (e.g. :9090)")
		traceEvery = flag.Int("trace", 0,
			"keep 1 in N connections in detail: their calls on /debug/trace and in /debug/anatomy's crypto rows (0 = off, 1 = every)")
		pprofOn = flag.Bool("pprof", false,
			"expose net/http/pprof under /debug/pprof/ on the telemetry address")
		pprofLabels = flag.Bool("pprof-labels", false,
			"attach pprof labels (sslstep/sslfn/sslcat) to handshake, crypto, and bulk work so CPU profiles fold by Table 2 step")
		sloTarget = flag.Duration("slotarget", telemetry.DefaultSLOTarget,
			"handshake-latency SLO target: successes slower than this burn the error budget on /debug/slo")
		closeLogPath = flag.String("closelog", "",
			"write one structured JSON line per connection close to this file (\"stderr\" for stderr)")
		closeLogSample = flag.Int("closelog-sample", 100,
			"close-log 1 in N successful closes (failed closes always log)")
	)
	flag.Parse()

	if *pprofLabels {
		probe.SetProfileLabels(true)
	}

	seedVal := *seed
	if seedVal == 0 {
		seedVal = uint64(time.Now().UnixNano())
	}

	var closeLog *lifecycle.CloseLog
	switch *closeLogPath {
	case "":
	case "stderr":
		closeLog = lifecycle.NewCloseLog(os.Stderr, *closeLogSample)
	default:
		f, err := os.OpenFile(*closeLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		closeLog = lifecycle.NewCloseLog(f, *closeLogSample)
	}

	table := buildProbes(*telAddr, *traceEvery, *pprofOn, *sloTarget, closeLog)

	srv := &server.Server{
		Config:  ssl.Config{SessionCache: handshake.NewSessionCache(4096)},
		Seed:    seedVal,
		Table:   table,
		Log:     server.NewLog(logRate),
		Handler: server.Respond(workload.Response(*fileSize)),
	}
	if *suiteName != "" {
		s, err := suite.ByName(*suiteName)
		if err != nil {
			log.Fatal(err)
		}
		srv.Config.Suites = []suite.ID{s.ID}
	}

	log.Printf("generating %d-bit identity...", *keyBits)
	id, err := ssl.NewIdentity(ssl.NewPRNG(seedVal), *keyBits, "sslserver", time.Now())
	if err != nil {
		log.Fatal(err)
	}
	srv.Config.Key, srv.Config.CertDER = id.Key, id.CertDER

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (%d-byte responses)", *addr, *fileSize)
	log.Fatal(srv.Serve(ln))
}

// buildProbes is the single place the -telemetry/-trace/-pprof flag
// cluster turns into live observers: it builds the aggregates and the
// conn table that folds into them — the one observer every connection
// gets — mounts /metrics and the /debug surfaces on one mux, and
// serves it. Without -telemetry or -closelog nothing could read any of
// it, so it returns nil and the server runs the sink-free path.
func buildProbes(telAddr string, traceEvery int, pprofOn bool, sloTarget time.Duration, closeLog *lifecycle.CloseLog) *lifecycle.Table {
	opts := lifecycle.Options{CloseLog: closeLog}
	if telAddr == "" {
		// Every /debug surface and pprof is served on the telemetry
		// address: without one nothing could read a record, a trace or
		// an aggregate, so none is kept — the table exists for the
		// close-log alone, or not at all.
		if traceEvery > 0 || pprofOn {
			log.Printf("warning: -trace/-pprof need -telemetry to be served; ignoring them")
		}
		if opts.CloseLog == nil {
			return nil
		}
		return lifecycle.NewTable(opts)
	}
	opts.SampleEvery = traceEvery
	opts.Registry = telemetry.NewRegistry()
	opts.Registry.SetSLOTarget(sloTarget)
	opts.Ring = flightRecords
	table := lifecycle.NewTable(opts)

	mux := http.NewServeMux()
	telemetry.Register(mux, opts.Registry)
	lifecycle.Register(mux, table)
	// The history sampler ticks over every surface built above, so it
	// wires up last; /debug/slo is a view of its rings.
	hist := history.New(history.Config{Interval: historyInterval})
	history.AddStandardSources(hist, history.Sources{
		Telemetry: opts.Registry,
		Runtime:   true,
		Lifecycle: table,
	})
	history.Register(mux, hist)
	history.RegisterSLO(mux, hist, opts.Registry)
	hist.Start()
	// POST /debug/reset is the one reset: it scopes every observatory
	// at once — metrics with the anatomy and path length, conn table
	// and record ring, and the history rings /debug/slo reads — so
	// "warm up, reset, measure" needs one call.
	mux.HandleFunc("/debug/reset", func(w http.ResponseWriter, req *http.Request) {
		if !debughttp.PostOnly(w, req) {
			return
		}
		opts.Registry.Reset()
		table.Reset()
		hist.Reset()
		debughttp.WriteText(w, "reset\n")
	})
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	}
	go func() {
		log.Printf("telemetry on http://%s/metrics", telAddr)
		if err := http.ListenAndServe(telAddr, mux); err != nil {
			log.Printf("telemetry server: %v", err)
		}
	}()
	return table
}
