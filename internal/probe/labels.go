package probe

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
)

// profileLabels gates pprof label propagation globally. Labelling a
// goroutine costs an allocation per step, so it is off by default and
// enabled only when someone intends to capture a CPU profile (the
// sslserver -pprof-labels flag, the pathlen experiments).
var profileLabels atomic.Bool

// SetProfileLabels enables or disables pprof label propagation on
// every bus in the process. When enabled, each handshake step sets the
// goroutine label sslstep=<Table 2 name> between StepEnter and
// StepExit, each Bus.Crypto call additionally carries sslfn=<function>
// and sslcat=<Table 3 category> — so a CPU profile captured while traffic flows folds directly onto
// the paper's step and category rows.
func SetProfileLabels(on bool) { profileLabels.Store(on) }

// ProfileLabels reports whether pprof label propagation is enabled.
func ProfileLabels() bool { return profileLabels.Load() }

// LabelKeyStep is the pprof label key carrying the Table 2 step name.
const LabelKeyStep = "sslstep"

// LabelKeyFn is the pprof label key carrying the crypto function name.
const LabelKeyFn = "sslfn"

// LabelKeyCategory is the pprof label key carrying the Table 3
// category.
const LabelKeyCategory = "sslcat"

// LabelBulk is the step-label value used for bulk-phase work outside
// any handshake step (the record layer's application-data path).
const LabelBulk = "bulk_transfer"

// labelStep applies the step label to the calling goroutine and
// returns the label context StepExit/labelCrypto restore from.
func labelStep(st Step) context.Context {
	ctx := pprof.WithLabels(context.Background(),
		pprof.Labels(LabelKeyStep, st.Name()))
	pprof.SetGoroutineLabels(ctx)
	return ctx
}

// clearLabels drops the goroutine's labels at step exit.
func clearLabels() { pprof.SetGoroutineLabels(context.Background()) }

// labelCrypto runs f with the function and category labels layered on
// top of the step context, restoring the step labels afterwards.
func labelCrypto(ctx context.Context, fn string, f func()) {
	pprof.Do(ctx, pprof.Labels(LabelKeyFn, fn, LabelKeyCategory, CategoryOf(fn)),
		func(context.Context) { f() })
}

// LabelBulkPhase runs f with the bulk-transfer step label when
// profile labelling is enabled (and plainly otherwise). Connection
// serve loops wrap their post-handshake I/O in it so bulk-phase CPU
// samples group under their own row instead of "(unlabeled)".
func LabelBulkPhase(f func()) {
	if !ProfileLabels() {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(LabelKeyStep, LabelBulk),
		func(context.Context) { f() })
}
