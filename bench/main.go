// Command bench is the repository's benchmark: a closed-loop load
// generator that drives a separate sslserver process over loopback TCP
// in four workloads and reports end-to-end metrics, plus, in a traced
// run, a per-layer budget measured from outside by timing calls into
// each layer's exported functions. README.md in this directory holds
// the protocol, every metric's definition and the layer → end-to-end
// predictions.
//
//	bash bench/run.sh                                  # all workloads, untraced
//	bash bench/run.sh -trace 1 -out traced.json        # per-layer budget
//	bash bench/run.sh -compare a.json b.json           # two -out files
//	bash bench/run.sh --workload full_handshake --seed 7 --seconds 25 --trace 0
//
// The last form is the one BENCHMARK.json's driver uses: it ends with
// one JSON line holding the metrics of that workload.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

const (
	// rounds is how many measured windows a workload's run is split
	// into, interleaved with those of the other workloads.
	rounds = 5
	// warmup runs before each measured window, unmeasured. It is short
	// because a slice that is still cold is not among the quiet ones.
	warmup = 200 * time.Millisecond
	// setups is how many times a run sets a workload up; setup_s is
	// their median and the last one is the server measured.
	setups = 9
	// calibBytes is the fixed SHA-256 spin behind host.calib_ms.
	calibBytes = 16 << 20
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all: the four interleaved round by round")
		seed         = flag.Uint64("seed", 1, "seed of the server identity and the client PRNGs")
		seconds      = flag.Float64("seconds", 30, "measured seconds per workload, split into 5 rounds")
		trace        = flag.Int("trace", 0, "1 = traced run: client spans, /proc counters and the layer probes")
		out          = flag.String("out", "", "write the full result, per-round values included, to this JSON file")
		traceOut     = flag.String("trace-out", "", "traced run: write the generator's spans to this file, one JSON object per line")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if they disagree beyond a bound")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files, got %d arguments", flag.NArg()))
		}
		same, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !same {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}

	selected := workloads
	if *workloadName != "all" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fatal(err)
		}
		selected = []*workload{w}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "bench: %v: stopping servers\n", s)
		stopAllServers()
		os.Exit(1)
	}()

	res, spans, err := run(selected, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	stopAllServers()
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, spans); err != nil {
			fatal(err)
		}
	}
	if len(selected) == 1 {
		// The driver's contract: the last line of standard output is
		// the selected workload's metrics as one JSON object.
		obj, err := res.driverLine()
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(obj)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !res.correct() {
		fmt.Fprintln(os.Stderr, "bench: FAILED: some ops failed their checks, see fail_ratio above")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// calibrate hashes a fixed buffer and returns how long that took. It
// runs once per round beside the numbers it qualifies: a slow host
// period shows here as well as there.
func calibrate(buf []byte) float64 {
	t := time.Now()
	sha256.Sum256(buf)
	return ms(time.Since(t))
}

// run sets the selected workloads up, measures them round by round
// (interleaved, so that a slow host period hits one round of each)
// and tears them down. measure is the measured
// time per workload.
func run(selected []*workload, seed uint64, measure time.Duration, traced bool) (*result, map[string][]span, error) {
	pin := pinSelf()
	root, err := repoRoot()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir, "bin"), 0o755); err != nil {
		return nil, nil, err
	}
	bin, err := buildServer(root)
	if err != nil {
		return nil, nil, err
	}
	runDir, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, nil, err
	}
	live.Lock()
	live.runDir = runDir // removed by stopAllServers, on every way out
	live.Unlock()

	nClients := pin.Nproc
	res := &result{Header: header{
		Seed: seed, Pinning: *pin, Clients: nClients, GoVersion: runtime.Version(),
		Rounds: rounds, RoundSeconds: measure.Seconds() / rounds, WarmupSeconds: warmup.Seconds(),
		Traced: traced, Start: time.Now().UTC().Format(time.RFC3339),
	}}
	res.Header.print(os.Stdout)

	epoch := time.Now()
	type running struct {
		g      *generator
		wr     *workloadResult
		rounds []roundStats
		calib  []float64
	}
	var runs []*running
	defer func() {
		for _, r := range runs {
			r.g.tearDown()
		}
	}()
	for _, w := range selected {
		r := &running{wr: &workloadResult{Name: w.Name}}
		var times []float64
		for i := 0; i < setups; i++ {
			// The last set-up is the one measured and runs on the
			// seed itself; the earlier ones draw other identities so
			// that setup_s is not one key's luck at prime search.
			g, d, err := setUp(bin, runDir, w, seed+uint64(setups-1-i), pin, nClients, traced, epoch)
			if err != nil {
				return nil, nil, err
			}
			times = append(times, d.Seconds())
			if i < setups-1 {
				g.tearDown()
				continue
			}
			r.g = g
		}
		r.wr.EndToEnd = map[string]metric{"setup_s": ofRounds("s", times)}
		runs = append(runs, r)
	}

	calibBuf := make([]byte, calibBytes)
	window := measure / rounds
	for i := 0; i < rounds; i++ {
		for _, r := range runs {
			r.calib = append(r.calib, calibrate(calibBuf))
			// A traced run splits each window into an untraced and a
			// traced half, alternating which comes first, so that the
			// two see the same host and their ratio is the tracing
			// overhead.
			plan := []bool{false}
			if traced {
				plan = []bool{i%2 == 1, i%2 == 0}
			}
			warm := warmup
			for _, tr := range plan {
				rs, err := r.g.round(warm, window/time.Duration(len(plan)), tr)
				if err != nil {
					return nil, nil, fmt.Errorf("%w\n--- server log tail ---\n%s", err, r.g.srv.logTail(15))
				}
				r.rounds = append(r.rounds, rs)
				warm = 0
			}
		}
	}

	spans := map[string][]span{}
	for _, r := range runs {
		if err := r.wr.fill(r.g, r.rounds, r.calib, traced); err != nil {
			return nil, nil, err
		}
		if traced {
			spans[r.g.w.Name] = r.g.spans()
		}
		res.Workloads = append(res.Workloads, r.wr)
	}
	// The probes run with the servers gone, so nothing competes.
	for _, r := range runs {
		r.g.tearDown()
	}
	runs = nil
	if traced {
		if res.Layers, err = runProbes(seed); err != nil {
			return nil, nil, err
		}
	}
	return res, spans, nil
}
