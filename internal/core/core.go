// Package core is the paper's primary contribution rebuilt as a
// library: the anatomy/characterization harness. It defines one
// experiment per table and figure in the paper's evaluation, runs it
// against this repository's from-scratch SSL stack, and renders the
// same rows the paper reports alongside the paper's own numbers where
// that aids comparison.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sslperf/internal/lifecycle"
	"sslperf/internal/perf"
	"sslperf/internal/ssl"
	"sslperf/internal/suite"
	"sslperf/internal/webmodel"
)

// Config controls experiment scale.
type Config struct {
	// Seed makes runs reproducible.
	Seed uint64
	// KeyBits is the server RSA key size (default 1024, the paper's
	// web-server configuration).
	KeyBits int
	// Iterations averages repeated measurements (default 10).
	Iterations int
	// Quick reduces work for use inside the test suite.
	Quick bool
	// SuiteName selects the cipher suite for the protocol-level
	// experiments (default DES-CBC3-SHA, the paper's).
	SuiteName string
	// Version selects the protocol version (default SSL 3.0).
	Version uint16
}

// suite resolves the configured cipher suite.
func (c *Config) suite() (*suite.Suite, error) {
	name := c.SuiteName
	if name == "" {
		name = "DES-CBC3-SHA"
	}
	return suite.ByName(name)
}

func (c *Config) seed() uint64 {
	if c.Seed == 0 {
		return 20050320 // ISPASS 2005
	}
	return c.Seed
}

func (c *Config) keyBits() int {
	if c.KeyBits == 0 {
		return 1024
	}
	return c.KeyBits
}

func (c *Config) iters() int {
	if c.Quick {
		return 2
	}
	if c.Iterations <= 0 {
		return 10
	}
	return c.Iterations
}

// scale shrinks a work count in Quick mode.
func (c *Config) scale(n int) int {
	if c.Quick {
		n /= 20
		if n < 1 {
			n = 1
		}
	}
	return n
}

// A Report is one experiment's rendered result. It marshals to JSON
// (tables as {title, header, rows}) for the sslanatomy -json mode
// that feeds machine-readable bench trajectories.
type Report struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Tables holds the regenerated paper tables/series.
	Tables []*perf.Table `json:"tables"`
	// Notes carries paper-vs-measured commentary.
	Notes []string `json:"notes,omitempty"`
}

// String renders the full report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", strings.ToUpper(r.ID), r.Title)
	for _, t := range r.Tables {
		sb.WriteByte('\n')
		sb.WriteString(t.String())
	}
	if len(r.Notes) > 0 {
		sb.WriteByte('\n')
		for _, n := range r.Notes {
			fmt.Fprintf(&sb, "note: %s\n", n)
		}
	}
	return sb.String()
}

// An Experiment regenerates one paper table or figure.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string // what the paper reports, for the listing
	Run      func(cfg *Config) (*Report, error)
}

var (
	regMu    sync.Mutex
	registry []*Experiment
)

func register(e *Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	registry = append(registry, e)
}

// All returns every experiment in paper order.
func All() []*Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Experiment, len(registry))
	copy(out, registry)
	order := map[string]int{
		"fig1": 0, "table1": 1, "fig2": 2, "table2": 3, "table3": 4,
		"fig3": 5, "table4": 6, "table5": 7, "table6": 8, "table7": 9,
		"table8": 10, "table9": 11, "table10": 12, "table11": 13,
		"table12": 14, "fig4": 15, "fig5": 16, "fig6": 17, "isa": 18,
		"ablation-mul": 19, "ablation-resume": 20, "ablation-kx": 21,
		"ablation-version": 22, "ablation-latency": 23,
	}
	sort.SliceStable(out, func(i, j int) bool {
		return order[out[i].ID] < order[out[j].ID]
	})
	return out
}

// ByID finds an experiment.
func ByID(id string) (*Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("core: unknown experiment %q (try: %s)", id, IDs())
}

// IDs lists all experiment identifiers.
func IDs() string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

// identityCache memoizes server identities per (seed, bits): RSA
// keygen is the slowest setup step and every experiment shares it.
var (
	idMu    sync.Mutex
	idCache = map[[2]uint64]*ssl.Identity{}
)

func identityFor(cfg *Config) (*ssl.Identity, error) {
	key := [2]uint64{cfg.seed(), uint64(cfg.keyBits())}
	idMu.Lock()
	defer idMu.Unlock()
	if id, ok := idCache[key]; ok {
		return id, nil
	}
	id, err := ssl.NewIdentity(ssl.NewPRNG(cfg.seed()), cfg.keyBits(),
		"sslperf.example", time.Unix(1100000000, 0)) // fixed epoch: Nov 2004
	if err != nil {
		return nil, err
	}
	idCache[key] = id
	return id, nil
}

// serverFor builds a measurement server per the config's identity,
// suite, and protocol version.
func serverFor(cfg *Config) (*webmodel.Server, error) {
	id, err := identityFor(cfg)
	if err != nil {
		return nil, err
	}
	st, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	srv := webmodel.NewServer(id, st)
	srv.Version = cfg.Version
	return srv, nil
}

// HandshakeTrace runs one 1KB transaction on the configured server and
// returns the connection's record as Chrome trace-event JSON — the
// single-handshake counterpart of sslserver's live /debug/trace, for
// loading in chrome://tracing or Perfetto.
func HandshakeTrace(cfg *Config) ([]byte, error) {
	srv, err := serverFor(cfg)
	if err != nil {
		return nil, err
	}
	if _, _, err := srv.RunTransaction(1024, nil); err != nil {
		return nil, err
	}
	return lifecycle.ChromeTrace(srv.Records())
}

func paperSuite() *suite.Suite {
	s, err := suite.ByName("DES-CBC3-SHA")
	if err != nil {
		panic(err)
	}
	return s
}

// suiteByName is a local alias so experiment files avoid importing
// the suite package for one lookup.
func suiteByName(name string) (*suite.Suite, error) { return suite.ByName(name) }

// kcyc formats a duration as thousands of model cycles, the unit of
// the paper's Table 2.
func kcyc(d time.Duration) string { return kc(perf.Cycles(d) / 1000) }

// kcycPer formats a total over n transactions as kcyc formats one
// transaction's mean.
func kcycPer(d time.Duration, n int) string { return kcyc(d / time.Duration(n)) }

// kc formats thousands of model cycles as Table 2 prints them.
func kc(k float64) string { return fmt.Sprintf("%.1f", k) }
