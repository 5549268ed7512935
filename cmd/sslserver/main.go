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
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sslperf/internal/baseline"
	"sslperf/internal/debughttp"
	"sslperf/internal/handshake"
	"sslperf/internal/history"
	"sslperf/internal/lifecycle"
	"sslperf/internal/pathlen"
	"sslperf/internal/probe"
	"sslperf/internal/record"
	"sslperf/internal/rsa"
	"sslperf/internal/rsabatch"
	"sslperf/internal/slo"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/telemetry"
	"sslperf/internal/trace"
	"sslperf/internal/workload"
	"sslperf/internal/x509lite"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:4433", "listen address")
		keyBits   = flag.Int("keybits", 1024, "RSA key size")
		fileSize  = flag.Int("filesize", 1024, "response payload bytes")
		suiteName = flag.String("suite", "", "restrict to one cipher suite (e.g. DES-CBC3-SHA)")
		seed      = flag.Uint64("seed", 0, "PRNG seed (0 = time-based)")
		ssl3Only  = flag.Bool("ssl3only", false, "refuse TLS 1.0 (SSL 3.0 only)")
		telAddr   = flag.String("telemetry", "",
			"serve /metrics, /debug/flightrecorder, and pprof on this address (e.g. :9090)")
		flightRec = flag.Int("flightrecorder", 256,
			"closed connection records kept for /debug/flightrecorder and /debug/trace")
		rsaBatch = flag.Int("rsabatch", 0,
			fmt.Sprintf("batch RSA decryptions across up to N concurrent handshakes (0 = off, max %d)", rsabatch.MaxBatch))
		rsaWorkers = flag.Int("rsaworkers", 2, "batch RSA worker goroutines")
		rsaLinger  = flag.Duration("rsalinger", 500*time.Microsecond,
			"how long a partial RSA batch waits for more handshakes")
		traceEvery = flag.Int("trace", 0,
			"keep 1 in N connections in detail for /debug/trace and /debug/anatomy (0 = off, 1 = every)")
		traceRate = flag.Int("tracerate", 0,
			"cap connections kept in detail per second (0 = unlimited)")
		pprofOn = flag.Bool("pprof", false,
			"expose net/http/pprof under /debug/pprof/ on the telemetry address")
		pprofLabels = flag.Bool("pprof-labels", false,
			"attach pprof labels (sslstep/sslfn/sslcat/sslengine) to handshake, crypto, and bulk work so CPU profiles fold by Table 2 step")
		sloTarget = flag.Duration("slotarget", 50*time.Millisecond,
			"handshake-latency SLO target: successes slower than this burn the error budget on /debug/slo")
		sloBudget = flag.Float64("slobudget", 0.01,
			"SLO error budget: allowed fraction of failed-or-slow handshakes (0.01 = 99% objective)")
		closeLog = flag.String("closelog", "",
			"write one structured JSON line per connection close to this file (\"stderr\" for stderr)")
		closeLogSample = flag.Int("closelog-sample", 100,
			"close-log 1 in N successful closes (failed closes always log)")
		logRate = flag.Int("lograte", 10,
			"max per-connection log lines per second, with a suppressed-count summary (0 = unlimited)")
		historyInterval = flag.Duration("history", time.Second,
			"time-series sampling interval for /debug/history and /debug/watch (0 = off)")
		eventLoop = flag.Bool("eventloop", false,
			"serve with a single-threaded epoll event loop over non-blocking conns instead of one goroutine per connection (linux only)")
	)
	flag.Parse()

	if *pprofLabels {
		probe.SetProfileLabels(true)
	}

	seedVal := *seed
	if seedVal == 0 {
		seedVal = uint64(time.Now().UnixNano())
	}

	var closeLogW io.Writer
	switch *closeLog {
	case "":
	case "stderr":
		closeLogW = os.Stderr
	default:
		f, err := os.OpenFile(*closeLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		closeLogW = f
	}

	table := buildProbes(probeFlags{
		TelemetryAddr:  *telAddr,
		FlightRecorder: *flightRec,
		TraceEvery:     *traceEvery,
		TraceRate:      *traceRate,
		Pprof:          *pprofOn,
		SLOTarget:      *sloTarget,
		SLOBudget:      *sloBudget,
		CloseLogW:      closeLogW,
		CloseLogSample: *closeLogSample,
		History:        *historyInterval,
	})

	srv := &server{
		cache:   handshake.NewSessionCache(4096),
		table:   table,
		connLog: newLogLimiter(*logRate),
		seed:    seedVal,
	}
	if *suiteName != "" {
		s, err := suite.ByName(*suiteName)
		if err != nil {
			log.Fatal(err)
		}
		srv.suites = []suite.ID{s.ID}
	}
	if *ssl3Only {
		srv.version = record.VersionSSL30
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
			srv.certs = append(srv.certs, cert.Raw)
		}
		// The table is also the one sink engines emit into.
		var engineSinks []probe.Sink
		if table != nil {
			engineSinks = []probe.Sink{table}
		}
		srv.engine = rsabatch.NewEngine(ks, rsabatch.Config{
			BatchSize: *rsaBatch,
			Linger:    *rsaLinger,
			Workers:   *rsaWorkers,
			Rand:      ssl.NewPRNG(seedVal + 2),
			Probes:    engineSinks,
		})
		srv.keys = ks.Keys
		log.Printf("batch RSA engine: width %d, linger %v, %d workers",
			*rsaBatch, *rsaLinger, *rsaWorkers)
	} else {
		log.Printf("generating %d-bit identity...", *keyBits)
		id, err := ssl.NewIdentity(ssl.NewPRNG(seedVal), *keyBits, "sslserver", time.Now())
		if err != nil {
			log.Fatal(err)
		}
		srv.keys = append(srv.keys, id.Key)
		srv.certs = append(srv.certs, id.CertDER)
	}

	response := workload.Response(*fileSize)
	if *eventLoop {
		log.Printf("event loop listening on %s (%d-byte responses)", *addr, *fileSize)
		log.Fatal(runEventLoop(*addr, srv, response))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (%d-byte responses)", *addr, *fileSize)
	for {
		tc, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		go srv.serve(tc, response)
	}
}

// probeFlags carries the observability flag values into buildProbes.
type probeFlags struct {
	TelemetryAddr  string
	FlightRecorder int
	TraceEvery     int
	TraceRate      int
	Pprof          bool
	SLOTarget      time.Duration
	SLOBudget      float64
	CloseLogW      io.Writer
	CloseLogSample int
	History        time.Duration
}

// buildProbes is the single place the -telemetry/-trace/-pprof flag
// cluster turns into live observers: it builds the aggregates and the
// conn table that folds into them — the one observer every connection
// gets, and the one sink engines emit into — mounts /metrics and the
// /debug surfaces on one mux, and serves it. Without -telemetry or
// -closelog nothing could read any of it, so it returns nil and the
// server runs the sink-free path.
func buildProbes(f probeFlags) *lifecycle.Table {
	var opts lifecycle.Options
	if f.CloseLogW != nil {
		opts.CloseLog = lifecycle.NewCloseLog(f.CloseLogW, f.CloseLogSample)
	}
	if f.TelemetryAddr == "" {
		// Every /debug surface and pprof is served on the telemetry
		// address: without one nothing could read a record, a trace or
		// an aggregate, so none is kept — the table exists for the
		// close-log alone, or not at all.
		if f.TraceEvery > 0 || f.Pprof {
			log.Printf("warning: -trace/-pprof need -telemetry to be served; ignoring them")
		}
		if opts.CloseLog == nil {
			return nil
		}
		return lifecycle.NewTable(opts)
	}
	if f.TraceEvery > 0 {
		opts.Tracer = trace.NewTracer(trace.Config{
			SampleEvery: f.TraceEvery,
			MaxPerSec:   f.TraceRate,
		})
	}
	opts.Registry = telemetry.NewRegistry()
	opts.Pathlen = pathlen.NewCollector()
	opts.SLO = slo.New(slo.Config{TargetP99: f.SLOTarget, ErrorBudget: f.SLOBudget})
	opts.Ring = f.FlightRecorder
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
	var hist *history.History
	if f.History > 0 {
		hist = history.New(history.Config{Interval: f.History})
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
	}
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
	if f.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	}
	go func() {
		log.Printf("telemetry on http://%s/metrics", f.TelemetryAddr)
		if err := http.ListenAndServe(f.TelemetryAddr, mux); err != nil {
			log.Printf("telemetry server: %v", err)
		}
	}()
	return table
}

// server holds the shared state every connection config draws from.
// Keys/certs are parallel slices: one entry without batching, one per
// batch exponent with it.
type server struct {
	keys    []*rsa.PrivateKey
	certs   [][]byte
	engine  *rsabatch.Engine
	cache   *handshake.SessionCache
	table   *lifecycle.Table // every connection's one observer (nil: sink-free)
	connLog *logLimiter
	suites  []suite.ID
	version uint16
	seed    uint64
	connSeq atomic.Uint64
}

// logLimiter is a token bucket over per-connection log lines: under a
// failure storm (or a high-rate success run) the log stays readable at
// the configured rate, and each emitted line is preceded by a one-line
// summary of how many lines the bucket swallowed since the last one. A
// nil limiter passes everything through.
type logLimiter struct {
	mu         sync.Mutex
	rate       float64 // tokens per second
	burst      float64
	tokens     float64
	last       time.Time
	suppressed uint64
}

func newLogLimiter(linesPerSec int) *logLimiter {
	if linesPerSec <= 0 {
		return nil
	}
	r := float64(linesPerSec)
	return &logLimiter{rate: r, burst: r, tokens: r, last: time.Now()}
}

// Printf logs one line if the bucket allows it, prefixed by a summary
// of any suppressed backlog; otherwise it counts the line silently.
func (l *logLimiter) Printf(format string, args ...any) {
	if l == nil {
		log.Printf(format, args...)
		return
	}
	l.mu.Lock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	if l.tokens < 1 {
		l.suppressed++
		l.mu.Unlock()
		return
	}
	l.tokens--
	sup := l.suppressed
	l.suppressed = 0
	l.mu.Unlock()
	if sup > 0 {
		log.Printf("(%d connection log lines suppressed by -lograte)", sup)
	}
	log.Printf(format, args...)
}

// Suppressed reports lines currently swallowed and not yet summarized.
func (l *logLimiter) Suppressed() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.suppressed
}

// configFor builds the per-connection Config. Every connection gets
// its own PRNG (ssl.PRNG is not safe for concurrent use) and, under
// batching, the next key of the set round-robin; the accept count
// that picks them is not an identity — the connection's ID is the one
// its open event carries. The returned entry is the connection's
// record, non-nil when the server is observed: it is taken here, at
// accept time, so the caller can mark the accept on it, it is the
// connection's one observer, and the batch decrypter links its spans
// to the entry's open step.
func (s *server) configFor() (*ssl.Config, *lifecycle.Conn) {
	n := s.connSeq.Add(1)
	i := int(n) % len(s.keys)
	cfg := &ssl.Config{
		Rand:         ssl.NewPRNG(s.seed + 17*n),
		Key:          s.keys[i],
		CertDER:      s.certs[i],
		SessionCache: s.cache,
		Suites:       s.suites,
		Version:      s.version,
	}
	entry := s.table.Begin()
	if entry != nil {
		cfg.Observers = []probe.Observer{entry}
	}
	if s.engine != nil {
		cfg.Decrypter = s.engine.Decrypter(i)
		if entry != nil {
			cfg.Decrypter = s.engine.DecrypterTraced(i, entry.Ref)
		}
	}
	return cfg, entry
}

func (s *server) serve(tc net.Conn, response []byte) {
	accepted := time.Now()
	cfg, entry := s.configFor()
	entry.Mark("accept", accepted, time.Since(accepted))
	conn := ssl.ServerConn(tc, cfg)
	defer conn.Close()
	if err := conn.Handshake(); err != nil {
		// The connection's record (when the server is observed) has
		// already folded this failure under the same canonical fail
		// class; the console line rides
		// the token bucket so a failure storm cannot flood the log.
		s.connLog.Printf("%s: handshake failed (%s): %v",
			tc.RemoteAddr(), ssl.FailureReason(err), err)
		return
	}
	state, _ := conn.ConnectionState()
	s.connLog.Printf("%s: %s resumed=%v", tc.RemoteAddr(), state.Suite.Name, state.Resumed)
	buf := make([]byte, 4096)
	// The bulk loop runs under the bulk_transfer pprof label (a no-op
	// unless -pprof-labels armed them), so CPU profiles separate data
	// transfer from Table 2 handshake steps.
	probe.LabelBulkPhase(func() {
		for {
			// One request (any read) -> one response.
			if _, err := conn.Read(buf); err != nil {
				return
			}
			if _, err := conn.Write(response); err != nil {
				return
			}
		}
	})
}
