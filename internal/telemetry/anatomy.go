package telemetry

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"sslperf/internal/perf"
	"sslperf/internal/probe"
)

// The registry is the one fold of the paper's Tables 2 and 3, live
// (/debug/anatomy) and offline (the experiments that render it): the
// per-step histograms take every handshake's timeline, and the crypto
// rows take the calls of the handshakes the conn table's sampler kept in
// detail, keyed by the step they ran in. Crypto shares divide by those
// sampled handshakes' own step time, so they read the same under 1-in-N
// sampling as with every connection kept.

// cryptoKey names one Table 2 crypto row: a function called inside a
// step.
type cryptoKey struct {
	step probe.Step
	fn   string
}

// cryptoStat accumulates one crypto row across sampled handshakes.
type cryptoStat struct {
	count uint64
	total time.Duration
}

// categories are Table 3's rows, in the paper's order.
var categories = [...]string{
	probe.CategoryPublic, probe.CategoryPrivate, probe.CategoryHash, probe.CategoryOther,
}

// foldSampled merges a sampled handshake's crypto calls (in-step record
// work included, under its Table 2 row name) and its step time, the
// crypto shares' denominator. Callers hold r.mu.
func (r *Registry) foldSampled(h *Handshake, stepTime time.Duration) {
	r.sampled++
	r.sampledStepTime += stepTime
	for i := range h.Calls {
		call := &h.Calls[i]
		if call.Kind != CatCrypto {
			continue
		}
		key := cryptoKey{call.Step, call.Name}
		cs := r.fns[key]
		if cs == nil {
			cs = &cryptoStat{}
			r.fns[key] = cs
			r.fnOrder = append(r.fnOrder, key)
		}
		cs.count++
		cs.total += call.Dur
	}
}

// stepTotal sums every step histogram: all handshakes' step time.
func (r *Registry) stepTotal() int64 {
	var total int64
	for i := range r.steps {
		total += r.steps[i].Sum()
	}
	return total
}

// cryptoTotal sums the sampled handshakes' crypto time. Callers hold
// r.mu.
func (r *Registry) cryptoTotal() time.Duration {
	var total time.Duration
	for _, cs := range r.fns {
		total += cs.total
	}
	return total
}

// pct is part as a percentage of whole (0 when whole is 0).
func pct[T int64 | time.Duration](part, whole T) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// SharesInto fills shares[i] with steps[i]'s percentage of total step
// time (0 for unseen steps) and returns sampled crypto time as a
// percentage of sampled step time — the numbers Anatomy renders, read
// with no allocation for the history sampler's 1s tick. shares must be
// at least as long as steps. A nil registry reads all zeros.
func (r *Registry) SharesInto(steps []probe.Step, shares []float64) (cryptoSharePct float64) {
	for i := range steps {
		shares[i] = 0
	}
	if r == nil {
		return 0
	}
	total := r.stepTotal()
	for i, st := range steps {
		if int(st) < numSteps {
			shares[i] = pct(r.steps[st].Sum(), total)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return pct(r.cryptoTotal(), r.sampledStepTime)
}

// AnatomyStep is one live Table 2 row, over every handshake.
type AnatomyStep struct {
	Index    int     `json:"index"` // the Table 2 row number
	Name     string  `json:"name"`
	Count    uint64  `json:"count"`
	MeanKcyc float64 `json:"mean_kcycles"`
	P50Kcyc  float64 `json:"p50_kcycles"`
	P95Kcyc  float64 `json:"p95_kcycles"`
	P99Kcyc  float64 `json:"p99_kcycles"`
	MaxKcyc  float64 `json:"max_kcycles"`
	SharePct float64 `json:"share_pct"`
	// CryptoBytes and CryptoCycPerByte are the record crypto inside the
	// step (the encrypted finished messages).
	CryptoBytes      uint64  `json:"crypto_bytes,omitempty"`
	CryptoCycPerByte float64 `json:"crypto_cycles_per_byte,omitempty"`
	// Crypto is the sampled crypto calls made inside the step: Table
	// 2's crypto column.
	Crypto []AnatomyCrypto `json:"crypto,omitempty"`

	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// AnatomyCrypto is one crypto function called inside one step, over
// the sampled handshakes: a Table 2 crypto row, attributed to its Table
// 3 category.
type AnatomyCrypto struct {
	Step     string  `json:"step"`
	Name     string  `json:"name"`
	Category string  `json:"category"`
	Count    uint64  `json:"count"`
	MeanKcyc float64 `json:"mean_kcycles"` // per sampled handshake
	SharePct float64 `json:"share_pct"`    // of sampled step time
	// Total is the row's time summed over the sampled handshakes.
	Total time.Duration `json:"total_ns"`
}

// AnatomyCategory is one Table 3 category summary row. Categories
// come out in the paper's order.
type AnatomyCategory struct {
	Name     string  `json:"name"`
	Kcyc     float64 `json:"kcycles_per_handshake"`
	SharePct float64 `json:"share_pct"`
}

// An Anatomy is the /debug/anatomy body: the continuous Tables 2 and
// 3, derived from production traffic.
type Anatomy struct {
	At         time.Time         `json:"at"`
	Handshakes uint64            `json:"handshakes"` // folded with a step timeline
	Sampled    uint64            `json:"sampled"`    // of those, kept in detail
	Steps      []AnatomyStep     `json:"steps,omitempty"`
	Crypto     []AnatomyCrypto   `json:"crypto,omitempty"`
	Categories []AnatomyCategory `json:"categories,omitempty"`
	// CryptoSharePct is sampled crypto time as a share of sampled step
	// time — the paper's "total crypto operations 95.0%" row.
	CryptoSharePct float64 `json:"crypto_share_pct"`
}

func kcycles(d time.Duration) float64 { return perf.Cycles(d) / 1000 }

// Anatomy renders the registry's live Tables 2 and 3.
func (r *Registry) Anatomy() Anatomy {
	s := Anatomy{At: time.Now()} // lint:allow-clock
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Handshakes, s.Sampled = r.stepped, r.sampled
	perHS := func(d time.Duration) float64 {
		if r.sampled == 0 {
			return 0
		}
		return kcycles(d / time.Duration(r.sampled))
	}
	var cats [len(categories)]time.Duration
	var seen [len(categories)]bool
	for _, key := range r.fnOrder {
		cs := r.fns[key]
		cat := probe.CategoryOf(key.fn)
		i := slices.Index(categories[:], cat)
		cats[i] += cs.total
		seen[i] = true
		s.Crypto = append(s.Crypto, AnatomyCrypto{
			Step: key.step.Name(), Name: key.fn, Category: cat, Count: cs.count,
			MeanKcyc: perHS(cs.total), SharePct: pct(cs.total, r.sampledStepTime),
			Total: cs.total,
		})
	}
	for i, cat := range categories {
		if seen[i] {
			s.Categories = append(s.Categories, AnatomyCategory{
				Name: cat, Kcyc: perHS(cats[i]), SharePct: pct(cats[i], r.sampledStepTime),
			})
		}
	}
	s.CryptoSharePct = pct(r.cryptoTotal(), r.sampledStepTime)

	// Steps come out in Table 2 order, each with the calls made inside
	// it in first-seen order; one no handshake ran is left out.
	total := r.stepTotal()
	for _, st := range probe.Steps() {
		h := r.steps[st].Snapshot()
		if h.Count == 0 {
			continue
		}
		p50, p95, p99 := time.Duration(h.P50), time.Duration(h.P95), time.Duration(h.P99)
		row := AnatomyStep{
			Index: st.Index(), Name: st.Name(), Count: h.Count,
			MeanKcyc: kcycles(time.Duration(h.Sum) / time.Duration(h.Count)),
			P50Kcyc:  kcycles(p50), P95Kcyc: kcycles(p95), P99Kcyc: kcycles(p99),
			MaxKcyc: kcycles(time.Duration(h.Max)), SharePct: pct(h.Sum, total),
			CryptoBytes: r.stepCrypto[st].Bytes, CryptoCycPerByte: r.stepCrypto[st].CyclesPerByte(),
			P50: p50, P95: p95, P99: p99,
		}
		for i, key := range r.fnOrder {
			if key.step == st {
				row.Crypto = append(row.Crypto, s.Crypto[i])
			}
		}
		s.Steps = append(s.Steps, row)
	}
	return s
}

// Text renders the anatomy as the live Tables 2 and 3.
func (s Anatomy) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "live anatomy (%d handshakes, %d sampled for crypto, model %.2f GHz)\n\n",
		s.Handshakes, s.Sampled, perf.ModelGHz)

	steps := perf.NewTable("handshake steps (continuous Table 2, kcycles, every handshake)",
		"step", "n", "mean", "p50", "p95", "p99", "max", "share", "crypto B", "crypto cyc/B")
	for _, st := range s.Steps {
		cycB := "-"
		if st.CryptoBytes > 0 {
			cycB = fmt.Sprintf("%.1f", st.CryptoCycPerByte)
		}
		steps.AddRow(st.Name, fmt.Sprint(st.Count),
			fmt.Sprintf("%.1f", st.MeanKcyc),
			fmt.Sprintf("%.1f", st.P50Kcyc),
			fmt.Sprintf("%.1f", st.P95Kcyc),
			fmt.Sprintf("%.1f", st.P99Kcyc),
			fmt.Sprintf("%.1f", st.MaxKcyc),
			fmt.Sprintf("%.2f%%", st.SharePct),
			fmt.Sprint(st.CryptoBytes), cycB)
	}
	sb.WriteString(steps.String())

	if len(s.Crypto) > 0 {
		sb.WriteByte('\n')
		fns := perf.NewTable("crypto attribution (continuous Table 3 by Table 2 step, sampled handshakes)",
			"step", "function", "category", "n", "kcycles/hs", "share")
		for _, c := range s.Crypto {
			fns.AddRow(c.Step, c.Name, c.Category, fmt.Sprint(c.Count),
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
