// Command sslserver serves a static payload over SSLv3 on TCP — the
// measured half of the paper's web-server setup. Pair it with
// sslclient to drive HTTPS-like transactions across real sockets.
//
// With -rsabatch N the server deploys a Fiat batch-RSA key set:
// N certificates over one shared modulus with distinct small public
// exponents, assigned to connections round-robin, so concurrent
// ClientKeyExchange decryptions amortize into one full-size
// exponentiation per batch (see internal/rsabatch).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"sslperf/internal/baseline"
	"sslperf/internal/debughttp"
	"sslperf/internal/handshake"
	"sslperf/internal/history"
	"sslperf/internal/lifecycle"
	"sslperf/internal/pathlen"
	"sslperf/internal/probe"
	"sslperf/internal/rsabatch"
	"sslperf/internal/server"
	"sslperf/internal/slo"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/telemetry"
	"sslperf/internal/trace"
	"sslperf/internal/workload"
	"sslperf/internal/x509lite"
)

// Settings that every recipe, test and benchmark runs at one value:
// constants, not flags.
const (
	flightRecords   = 256  // closed records kept for /debug/flightrecorder and /debug/trace
	sloBudget       = 0.01 // allowed fraction of failed-or-slow handshakes (a 99% objective)
	logRate         = 10   // per-connection console lines per second
	historyInterval = time.Second
	rsaWorkers      = 2
	rsaLinger       = 500 * time.Microsecond // how long a partial RSA batch waits for more handshakes
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
		rsaBatch = flag.Int("rsabatch", 0,
			fmt.Sprintf("batch RSA decryptions across up to N concurrent handshakes (0 = off, max %d)", rsabatch.MaxBatch))
		traceEvery = flag.Int("trace", 0,
			"keep 1 in N connections in detail for /debug/trace and /debug/anatomy (0 = off, 1 = every)")
		pprofOn = flag.Bool("pprof", false,
			"expose net/http/pprof under /debug/pprof/ on the telemetry address")
		pprofLabels = flag.Bool("pprof-labels", false,
			"attach pprof labels (sslstep/sslfn/sslcat/sslengine) to handshake, crypto, and bulk work so CPU profiles fold by Table 2 step")
		sloTarget = flag.Duration("slotarget", 50*time.Millisecond,
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
		Cache:   handshake.NewSessionCache(4096),
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
		srv.Suites = []suite.ID{s.ID}
	}

	if *rsaBatch > 0 {
		log.Printf("generating %d-bit batch key set (width %d)...", *keyBits, *rsaBatch)
		ks, err := rsabatch.GenerateKeySet(ssl.NewPRNG(seedVal), *keyBits, *rsaBatch)
		if err != nil {
			log.Fatal(err)
		}
		now := time.Now()
		rnd := ssl.NewPRNG(seedVal + 1)
		for i, key := range ks.Keys {
			cn := fmt.Sprintf("sslserver-batch-%d", i)
			cert, err := x509lite.Create(rnd, cn, &key.PublicKey, cn, key,
				now.Add(-24*time.Hour), now.Add(365*24*time.Hour))
			if err != nil {
				log.Fatal(err)
			}
			srv.Certs = append(srv.Certs, cert.Raw)
		}
		// The table is also the one sink engines emit into.
		var engineSinks []probe.Sink
		if table != nil {
			engineSinks = []probe.Sink{table}
		}
		engine := rsabatch.NewEngine(ks, rsabatch.Config{
			BatchSize: *rsaBatch,
			Linger:    rsaLinger,
			Workers:   rsaWorkers,
			Rand:      ssl.NewPRNG(seedVal + 2),
			Probes:    engineSinks,
		})
		srv.Keys = ks.Keys
		srv.Decrypter = engine.DecrypterTraced
		log.Printf("batch RSA engine: width %d, linger %v, %d workers",
			*rsaBatch, rsaLinger, rsaWorkers)
	} else {
		log.Printf("generating %d-bit identity...", *keyBits)
		id, err := ssl.NewIdentity(ssl.NewPRNG(seedVal), *keyBits, "sslserver", time.Now())
		if err != nil {
			log.Fatal(err)
		}
		srv.Keys = append(srv.Keys, id.Key)
		srv.Certs = append(srv.Certs, id.CertDER)
	}

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
// gets, and the one sink engines emit into — mounts /metrics and the
// /debug surfaces on one mux, and serves it. Without -telemetry or
// -closelog nothing could read any of it, so it returns nil and the
// server runs the sink-free path.
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
	if traceEvery > 0 {
		opts.Tracer = trace.NewTracer(trace.Config{SampleEvery: traceEvery})
	}
	opts.Registry = telemetry.NewRegistry()
	opts.Pathlen = pathlen.NewCollector()
	opts.SLO = slo.New(slo.Config{TargetP99: sloTarget, ErrorBudget: sloBudget})
	opts.Ring = flightRecords
	table := lifecycle.NewTable(opts)
	profiler := opts.Tracer.Profiler()

	mux := http.NewServeMux()
	telemetry.Register(mux, opts.Registry)
	pathlen.Register(mux, opts.Pathlen)
	lifecycle.Register(mux, table)
	slo.Register(mux, opts.SLO)
	var anatomySnap func() trace.AnatomySnapshot
	if profiler != nil {
		trace.Register(mux, profiler)
		anatomySnap = profiler.Snapshot
	}
	// /debug/health always mounts with telemetry: the anatomy checks
	// need -trace, the SLO burn verdict does not.
	baseline.RegisterHealth(mux, anatomySnap, baseline.PaperExpectation(),
		baseline.SLOBurnCheck(opts.SLO, "1m", 10))
	// The history sampler ticks over every surface built above, so it
	// wires up last. It keeps sampling whatever subset exists (no
	// -trace means no anatomy series, etc.).
	hist := history.New(history.Config{Interval: historyInterval})
	history.AddStandardSources(hist, history.Sources{
		Telemetry: opts.Registry,
		Runtime:   true,
		SLO:       opts.SLO,
		Lifecycle: table,
		Pathlen:   opts.Pathlen,
		Anatomy:   profiler,
	})
	history.Register(mux, hist)
	hist.Start()
	// POST /debug/reset is the one reset: it scopes every observatory
	// at once — metrics, anatomy profiler, path-length sum, conn table
	// and record ring, SLO windows, and history rings — so "warm up,
	// reset, measure" needs one call.
	mux.HandleFunc("/debug/reset", func(w http.ResponseWriter, req *http.Request) {
		if !debughttp.PostOnly(w, req) {
			return
		}
		opts.Registry.Reset()
		profiler.Reset()
		opts.Pathlen.Reset()
		table.Reset()
		opts.SLO.Reset()
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
