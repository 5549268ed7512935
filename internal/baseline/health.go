// Package baseline folds the live anatomy profiler's Table 2/3 shares
// through the paper's expectations, so a server can answer "is the RSA
// step still ~90% of the handshake?" continuously at /debug/health.
package baseline

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"sslperf/internal/debughttp"
	"sslperf/internal/probe"
	"sslperf/internal/slo"
	"sslperf/internal/trace"
)

// Health statuses. NoData means the profiler has not folded enough
// handshakes yet to judge; it maps to HTTP 200 so a freshly started
// server is not "unhealthy".
const (
	StatusOK       = "OK"
	StatusDrifting = "DRIFTING"
	StatusNoData   = "NO_DATA"
)

// AnatomyExpectation is the paper's Table 2/3 shape as live bounds:
// which step must dominate the handshake and by how much, and how
// crypto-heavy the whole must stay. The live anatomy profiler's
// snapshot is folded through these continuously at /debug/health.
type AnatomyExpectation struct {
	// MinHandshakes is how many folded handshakes the verdict needs;
	// below it the report says NO_DATA instead of guessing.
	MinHandshakes uint64 `json:"min_handshakes"`

	// DominantStep must hold the largest per-step share (Table 2's
	// get_client_kx — the RSA private decryption) with at least
	// MinDominantStepPct of total step time. The paper measures 92%,
	// we measure ~94; the floor is generous so legitimate workload
	// mix (resumption, DHE) does not page anyone, while a broken or
	// bypassed RSA path trips immediately.
	DominantStep       string  `json:"dominant_step"`
	MinDominantStepPct float64 `json:"min_dominant_step_pct"`

	// MinCryptoPct floors total crypto share of handshake time —
	// Table 3's "total crypto operations" row (paper 95.0%, measured
	// 87.4%).
	MinCryptoPct float64 `json:"min_crypto_pct"`

	// DominantCategory must be the largest Table 3 category with at
	// least MinDominantCategoryPct (paper: public key encryption at
	// 90.4%, measured 82.2%).
	DominantCategory       string  `json:"dominant_category"`
	MinDominantCategoryPct float64 `json:"min_dominant_category_pct"`
}

// PaperExpectation returns the default expectation derived from the
// paper's Tables 2 and 3 with tolerant floors.
func PaperExpectation() AnatomyExpectation {
	return AnatomyExpectation{
		MinHandshakes:          8,
		DominantStep:           probe.StepGetClientKX.Name(),
		MinDominantStepPct:     50,
		MinCryptoPct:           60,
		DominantCategory:       probe.CategoryPublic,
		MinDominantCategoryPct: 50,
	}
}

// A HealthCheck is one expectation's live verdict. Unit annotates
// Value in the text rendering; empty means percent (the anatomy
// shares), the SLO burn check uses "x" (a budget multiplier).
type HealthCheck struct {
	Name   string  `json:"name"`
	Status string  `json:"status"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit,omitempty"`
	Want   string  `json:"want"`
	Detail string  `json:"detail,omitempty"`
}

// A HealthReport is the /debug/health body: the overall verdict plus
// each check's share-vs-floor reading.
type HealthReport struct {
	At         time.Time     `json:"at"`
	Status     string        `json:"status"`
	Handshakes uint64        `json:"handshakes"`
	Traces     uint64        `json:"traces"`
	Checks     []HealthCheck `json:"checks,omitempty"`
}

// Text renders the report as a terse human-readable block.
func (h HealthReport) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%d handshakes folded)\n", h.Status, h.Handshakes)
	for _, c := range h.Checks {
		unit := c.Unit
		if unit == "" {
			unit = "%"
		}
		fmt.Fprintf(&sb, "  %-8s %-18s %6.2f%s  want %s", c.Status, c.Name, c.Value, unit, c.Want)
		if c.Detail != "" {
			fmt.Fprintf(&sb, "  (%s)", c.Detail)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CheckAnatomy folds a live anatomy snapshot through the expectation:
// the paper's "is libcrypto still ~70% / is the RSA step still
// dominant?" question answered against whatever traffic the profiler
// has sampled.
func CheckAnatomy(snap trace.AnatomySnapshot, exp AnatomyExpectation) HealthReport {
	rep := HealthReport{
		At:         snap.At,
		Handshakes: snap.Handshakes,
		Traces:     snap.Traces,
	}
	if snap.Handshakes < exp.MinHandshakes {
		rep.Status = StatusNoData
		return rep
	}

	check := func(name string, value, floor float64, want, detail string) {
		c := HealthCheck{Name: name, Status: StatusOK, Value: value, Want: want, Detail: detail}
		if value < floor {
			c.Status = StatusDrifting
		}
		rep.Checks = append(rep.Checks, c)
	}

	// Dominant handshake step (Table 2).
	var topStep string
	var topStepPct, wantStepPct float64
	for _, st := range snap.Steps {
		if st.SharePct > topStepPct {
			topStep, topStepPct = st.Name, st.SharePct
		}
		if st.Name == exp.DominantStep {
			wantStepPct = st.SharePct
		}
	}
	detail := ""
	if topStep != exp.DominantStep {
		detail = fmt.Sprintf("dominated by %s at %.2f%% instead", topStep, topStepPct)
	}
	check("dominant_step:"+exp.DominantStep, wantStepPct, exp.MinDominantStepPct,
		fmt.Sprintf(">= %.0f%% and largest", exp.MinDominantStepPct), detail)
	if topStep != exp.DominantStep {
		// Above the floor or not, a usurped ordering is drift.
		rep.Checks[len(rep.Checks)-1].Status = StatusDrifting
	}

	// Total crypto share (Table 3's bottom row).
	check("crypto_share", snap.CryptoSharePct, exp.MinCryptoPct,
		fmt.Sprintf(">= %.0f%%", exp.MinCryptoPct), "")

	// Dominant crypto category (Table 3).
	var topCat string
	var topCatPct, wantCatPct float64
	for _, c := range snap.Categories {
		if c.SharePct > topCatPct {
			topCat, topCatPct = c.Name, c.SharePct
		}
		if c.Name == exp.DominantCategory {
			wantCatPct = c.SharePct
		}
	}
	detail = ""
	if topCat != exp.DominantCategory {
		detail = fmt.Sprintf("dominated by %q at %.2f%% instead", topCat, topCatPct)
	}
	check("dominant_category:"+strings.ReplaceAll(exp.DominantCategory, " ", "_"),
		wantCatPct, exp.MinDominantCategoryPct,
		fmt.Sprintf(">= %.0f%% and largest", exp.MinDominantCategoryPct), detail)
	if topCat != exp.DominantCategory {
		rep.Checks[len(rep.Checks)-1].Status = StatusDrifting
	}

	rep.Status = StatusOK
	for _, c := range rep.Checks {
		if c.Status == StatusDrifting {
			rep.Status = StatusDrifting
			break
		}
	}
	return rep
}

// SLOBurnCheck adapts one SLO window's burn rate into a /debug/health
// check: DRIFTING when the window is burning its error budget faster
// than maxBurn, NO_DATA while the window is empty. Pass it to
// RegisterHealth as an extra check to fold the SLO verdict into the
// anatomy gate.
func SLOBurnCheck(t *slo.Tracker, window string, maxBurn float64) func() HealthCheck {
	return func() HealthCheck {
		ws := t.Snapshot().Window(window)
		c := HealthCheck{
			Name:   "slo_burn:" + window,
			Status: StatusOK,
			Value:  ws.BurnRate,
			Unit:   "x",
			Want:   fmt.Sprintf("<= %.1fx budget", maxBurn),
		}
		if ws.Handshakes == 0 {
			c.Status = StatusNoData
			return c
		}
		if ws.BurnRate > maxBurn {
			c.Status = StatusDrifting
			c.Detail = fmt.Sprintf("%d of %d handshakes bad (failed %d, slow %d)",
				ws.Failed+ws.Slow, ws.Handshakes, ws.Failed, ws.Slow)
		}
		return c
	}
}

// RegisterHealth mounts /debug/health on mux, folding each request's
// fresh anatomy snapshot through exp. DRIFTING answers 503 so a plain
// curl -f (or a load balancer) can gate on it; OK and NO_DATA answer
// 200. ?format=text renders the terse table.
//
// Extra checks (e.g. the SLO burn-rate fold from internal/slo) are
// evaluated per request and appended to the report; a DRIFTING extra
// drifts the whole verdict even when the anatomy is clean. A nil
// snapshot skips the anatomy checks entirely — the endpoint then
// answers from the extras alone (a server run without tracing still
// gets its SLO verdict) and reads OK once any extra has data.
func RegisterHealth(mux *http.ServeMux, snapshot func() trace.AnatomySnapshot, exp AnatomyExpectation, extra ...func() HealthCheck) {
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, req *http.Request) {
		var rep HealthReport
		if snapshot != nil {
			rep = CheckAnatomy(snapshot(), exp)
		} else {
			rep = HealthReport{At: time.Now(), Status: StatusNoData}
		}
		for _, fn := range extra {
			c := fn()
			rep.Checks = append(rep.Checks, c)
			if c.Status == StatusDrifting && rep.Status != StatusDrifting {
				rep.Status = StatusDrifting
			}
			if snapshot == nil && c.Status == StatusOK && rep.Status == StatusNoData {
				rep.Status = StatusOK
			}
		}
		code := http.StatusOK
		if rep.Status == StatusDrifting {
			code = http.StatusServiceUnavailable
		}
		if debughttp.WantText(req) {
			debughttp.HeadText(w)
			w.WriteHeader(code)
			w.Write([]byte(rep.Text()))
			return
		}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		debughttp.HeadJSON(w)
		w.WriteHeader(code)
		w.Write(b)
	})
}
