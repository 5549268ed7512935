package bn

import (
	"time"

	"sslperf/internal/perf"
)

// Function names used in profiles, matching the OpenSSL symbols the
// paper's Table 8 reports so the regenerated table is directly
// comparable.
const (
	fnMulAddWords    = "bn_mul_add_words"
	fnSubWords       = "bn_sub_words"
	fnAddWords       = "bn_add_words"
	fnFromMontgomery = "BN_from_montgomery"
	fnUsub           = "BN_usub"
	fnCopy           = "BN_copy"
	fnSqr            = "BN_sqr"
	fnMul            = "BN_mul"
	fnDiv            = "BN_div"
	fnModExp         = "BN_mod_exp"
	fnCleanse        = "OPENSSL_cleanse"
)

// The profiler attributes *exclusive* (self) time to each bn function,
// the way a flat Oprofile report does: time spent in a callee is
// charged to the callee, not the caller. That is what makes the
// paper's Table 8 read the way it does — BN_from_montgomery's inner
// loop is bn_mul_add_words, so the loop's time shows up under
// bn_mul_add_words and only the remainder under BN_from_montgomery.
//
// The bookkeeping around a call is charged to nobody, and it is
// measured call by call, not calibrated: a frame's span in its parent
// runs from the clock read that opens profEnter to the one that closes
// profExit, plus the one clock read's worth the two ends leave outside
// it, timed by a back-to-back pair of reads in profEnter. A constant
// calibrated once per process goes stale as the host's speed moves, and
// a few ns too many, credited once per child, zero a caller with many
// children (a 4096-bit BN_mul has about 500).
//
// Profiling is process-global and not safe for concurrent use; it is
// meant for single-goroutine experiment runs, like the paper's.
type profiler struct {
	enabled bool
	stack   []profFrame
	b       *perf.Breakdown
}

type profFrame struct {
	name         string
	enter, start time.Time     // profEnter's first and last clock read
	read, child  time.Duration // one clock read; the children's spans
}

var prof profiler

// StartProfile begins collecting an exclusive-time function profile.
// It returns the breakdown that will accumulate results; read it after
// StopProfile. Starting while already started resets the profile.
func StartProfile() *perf.Breakdown {
	prof.b = perf.NewBreakdown()
	prof.stack = prof.stack[:0]
	prof.enabled = true
	return prof.b
}

// StopProfile stops collecting. The breakdown returned by StartProfile
// holds the accumulated exclusive times.
func StopProfile() {
	prof.enabled = false
	prof.stack = prof.stack[:0]
}

// ProfileEnabled reports whether a profile is being collected.
func ProfileEnabled() bool { return prof.enabled }

func profEnter(name string) {
	if !prof.enabled {
		return
	}
	prof.stack = append(prof.stack, profFrame{name: name, enter: time.Now()})
	f := &prof.stack[len(prof.stack)-1]
	r := time.Now()
	f.start = time.Now()
	f.read = f.start.Sub(r)
}

func profExit() {
	if !prof.enabled || len(prof.stack) == 0 {
		return
	}
	end := time.Now()
	top := prof.stack[len(prof.stack)-1]
	prof.stack = prof.stack[:len(prof.stack)-1]
	prof.b.Add(top.name, max(end.Sub(top.start)-top.child, 0))
	if len(prof.stack) > 0 {
		prof.stack[len(prof.stack)-1].child += time.Since(top.enter) + top.read
	}
}
