package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"sslperf/internal/perf"
	"sslperf/internal/probe"
	"sslperf/internal/telemetry"
)

// cryptoStat accumulates one crypto function across sampled
// connections.
type cryptoStat struct {
	count uint64
	total time.Duration
}

// A Profiler folds sampled connections online into live
// paper-equivalents: per-step cycle shares and latency quantiles
// (Table 2) and crypto attribution by function and category (Table 3).
// Folding happens once per connection, when its handshake ends, so a
// snapshot is O(steps), never O(connections).
type Profiler struct {
	mu         sync.Mutex
	traces     uint64
	handshakes uint64                        // folds that carried steps
	steps      [numSteps]telemetry.Histogram // step latency (ns), by probe.Step
	fnOrder    []string
	fns        map[string]*cryptoStat
	stepTotal  time.Duration // summed step time across folds
}

// numSteps covers every probe.Step including StepNone.
const numSteps = int(probe.StepServerFlush) + 1

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{fns: make(map[string]*cryptoStat)}
}

// Reset drops everything the profiler has folded so far, so a drift
// window (e.g. one load-generator run) can be measured from a clean
// slate instead of the process lifetime. Handshakes ending concurrently
// fold entirely before or entirely after the cut.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.traces = 0
	p.handshakes = 0
	for i := range p.steps {
		p.steps[i].Reset()
	}
	p.fnOrder = nil
	p.fns = make(map[string]*cryptoStat)
	p.stepTotal = 0
	p.mu.Unlock()
}

// Fold merges one sampled connection's finished handshake: its steps
// feed the per-step histograms, its crypto calls (in-step record work
// included, under its Table 2 row name) the function attribution. A
// client's handshake has no steps and counts as a trace only.
func (p *Profiler) Fold(h *telemetry.Handshake) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.traces++
	if len(h.Steps) > 0 {
		p.handshakes++
	}
	for _, st := range h.Steps {
		if int(st.Step) < numSteps {
			p.steps[st.Step].Observe(int64(st.Dur))
			p.stepTotal += st.Dur
		}
	}
	for i := range h.Calls {
		call := &h.Calls[i]
		if call.Kind != CatCrypto {
			continue
		}
		cs := p.fns[call.Name]
		if cs == nil {
			cs = &cryptoStat{}
			p.fns[call.Name] = cs
			p.fnOrder = append(p.fnOrder, call.Name)
		}
		cs.count++
		cs.total += call.Dur
	}
}

// SharesInto fills shares[i] with the percentage of total step time
// currently attributed to steps[i] (0 for unseen steps), and returns
// total crypto time as a percentage of step time — the same numbers an
// AnatomySnapshot renders, read under one lock with no allocation, for
// the history sampler's 1s tick. shares must be at least as long as
// steps. A nil profiler reads all zeros.
func (p *Profiler) SharesInto(steps []probe.Step, shares []float64) (cryptoSharePct float64) {
	for i := range steps {
		shares[i] = 0
	}
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stepTotal <= 0 {
		return 0
	}
	for i, st := range steps {
		if int(st) < numSteps {
			shares[i] = 100 * float64(p.steps[st].Sum()) / float64(p.stepTotal)
		}
	}
	var cryptoTotal time.Duration
	for _, cs := range p.fns {
		cryptoTotal += cs.total
	}
	return 100 * float64(cryptoTotal) / float64(p.stepTotal)
}

// AnatomyStep is one live Table 2 row.
type AnatomyStep struct {
	Name     string  `json:"name"`
	Count    uint64  `json:"count"`
	MeanKcyc float64 `json:"mean_kcycles"`
	P50Kcyc  float64 `json:"p50_kcycles"`
	P95Kcyc  float64 `json:"p95_kcycles"`
	P99Kcyc  float64 `json:"p99_kcycles"`
	MaxKcyc  float64 `json:"max_kcycles"`
	SharePct float64 `json:"share_pct"`

	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// AnatomyCrypto is one live Table 3 attribution row.
type AnatomyCrypto struct {
	Name     string  `json:"name"`
	Category string  `json:"category"`
	Count    uint64  `json:"count"`
	MeanKcyc float64 `json:"mean_kcycles"`
	SharePct float64 `json:"share_pct"` // share of total step time
}

// AnatomyCategory is one Table 3 category summary row.
type AnatomyCategory struct {
	Name     string  `json:"name"`
	Kcyc     float64 `json:"kcycles_per_handshake"`
	SharePct float64 `json:"share_pct"`
}

// An AnatomySnapshot is the profiler's current state: the continuous
// Tables 2 and 3, derived from sampled production traffic.
type AnatomySnapshot struct {
	At         time.Time         `json:"at"`
	Traces     uint64            `json:"traces"`
	Handshakes uint64            `json:"handshakes"`
	Steps      []AnatomyStep     `json:"steps,omitempty"`
	Crypto     []AnatomyCrypto   `json:"crypto,omitempty"`
	Categories []AnatomyCategory `json:"categories,omitempty"`
	// CryptoSharePct is total crypto time as a share of total step
	// time — the paper's "total crypto operations 95.0%" row.
	CryptoSharePct float64 `json:"crypto_share_pct"`
}

func kcyc(d time.Duration) float64 { return perf.Cycles(d) / 1000 }

// Snapshot renders the profiler's accumulated state.
func (p *Profiler) Snapshot() AnatomySnapshot {
	if p == nil {
		return AnatomySnapshot{At: time.Now()} // lint:allow-clock
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := AnatomySnapshot{
		At:         time.Now(), // lint:allow-clock
		Traces:     p.traces,
		Handshakes: p.handshakes,
	}
	// Steps come out in Table 2 order; one no handshake ran is left out.
	for _, st := range probe.Steps() {
		h, name := p.steps[st].Snapshot(), st.Name()
		if h.Count == 0 {
			continue
		}
		share := 0.0
		if p.stepTotal > 0 {
			share = 100 * float64(h.Sum) / float64(p.stepTotal)
		}
		p50, p95, p99 := time.Duration(h.P50), time.Duration(h.P95), time.Duration(h.P99)
		s.Steps = append(s.Steps, AnatomyStep{
			Name: name, Count: h.Count,
			MeanKcyc: kcyc(time.Duration(h.Sum) / time.Duration(h.Count)),
			P50Kcyc:  kcyc(p50), P95Kcyc: kcyc(p95), P99Kcyc: kcyc(p99),
			MaxKcyc: kcyc(time.Duration(h.Max)), SharePct: share,
			P50: p50, P95: p95, P99: p99,
		})
	}
	cats := map[string]time.Duration{}
	var catOrder []string
	var cryptoTotal time.Duration
	for _, name := range p.fnOrder {
		cs := p.fns[name]
		mean := time.Duration(0)
		if p.handshakes > 0 {
			mean = cs.total / time.Duration(p.handshakes)
		}
		share := 0.0
		if p.stepTotal > 0 {
			share = 100 * float64(cs.total) / float64(p.stepTotal)
		}
		cat := probe.CategoryOf(name)
		if _, ok := cats[cat]; !ok {
			catOrder = append(catOrder, cat)
		}
		cats[cat] += cs.total
		cryptoTotal += cs.total
		s.Crypto = append(s.Crypto, AnatomyCrypto{
			Name: name, Category: cat, Count: cs.count,
			MeanKcyc: kcyc(mean), SharePct: share,
		})
	}
	for _, cat := range catOrder {
		perHS := time.Duration(0)
		if p.handshakes > 0 {
			perHS = cats[cat] / time.Duration(p.handshakes)
		}
		share := 0.0
		if p.stepTotal > 0 {
			share = 100 * float64(cats[cat]) / float64(p.stepTotal)
		}
		s.Categories = append(s.Categories, AnatomyCategory{
			Name: cat, Kcyc: kcyc(perHS), SharePct: share,
		})
	}
	if p.stepTotal > 0 {
		s.CryptoSharePct = 100 * float64(cryptoTotal) / float64(p.stepTotal)
	}
	return s
}

// Text renders the snapshot as the live Tables 2 and 3.
func (s AnatomySnapshot) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "live anatomy (%d sampled traces, %d handshakes, model %.2f GHz)\n\n",
		s.Traces, s.Handshakes, perf.ModelGHz())

	steps := perf.NewTable("handshake steps (continuous Table 2, kcycles)",
		"step", "n", "mean", "p50", "p95", "p99", "max", "share")
	for _, st := range s.Steps {
		steps.AddRow(st.Name, fmt.Sprint(st.Count),
			fmt.Sprintf("%.1f", st.MeanKcyc),
			fmt.Sprintf("%.1f", st.P50Kcyc),
			fmt.Sprintf("%.1f", st.P95Kcyc),
			fmt.Sprintf("%.1f", st.P99Kcyc),
			fmt.Sprintf("%.1f", st.MaxKcyc),
			fmt.Sprintf("%.2f%%", st.SharePct))
	}
	sb.WriteString(steps.String())

	if len(s.Crypto) > 0 {
		sb.WriteByte('\n')
		fns := perf.NewTable("crypto attribution (continuous Table 3)",
			"function", "category", "n", "kcycles/hs", "share")
		for _, c := range s.Crypto {
			fns.AddRow(c.Name, c.Category, fmt.Sprint(c.Count),
				fmt.Sprintf("%.1f", c.MeanKcyc),
				fmt.Sprintf("%.2f%%", c.SharePct))
		}
		sb.WriteString(fns.String())
	}

	if len(s.Categories) > 0 {
		sb.WriteByte('\n')
		cats := perf.NewTable("crypto categories",
			"category", "kcycles/hs", "share")
		for _, c := range s.Categories {
			cats.AddRow(c.Name, fmt.Sprintf("%.1f", c.Kcyc),
				fmt.Sprintf("%.2f%%", c.SharePct))
		}
		cats.AddRow("total crypto operations", "", fmt.Sprintf("%.2f%%", s.CryptoSharePct))
		sb.WriteString(cats.String())
	}
	return sb.String()
}
