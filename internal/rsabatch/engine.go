package rsabatch

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"sslperf/internal/probe"
	"sslperf/internal/rsa"
)

// Telemetry metric names the engine emits.
const (
	MetricBatchSize  = "rsabatch_batch_size"  // value histogram: requests per flushed batch
	MetricQueueDepth = "rsabatch_queue_depth" // value histogram: submission queue depth at submit
	MetricLinger     = "rsabatch_linger"      // duration histogram: first-enqueue → flush latency
)

// Config tunes an Engine. Zero values select the documented defaults.
type Config struct {
	// BatchSize is the flush threshold: a batch is dispatched as soon
	// as it holds this many requests (all under distinct exponents).
	// Defaults to 4; capped at the key-set width.
	BatchSize int

	// Linger is how long a partial batch waits for company before it
	// is flushed anyway — the latency bound a lone handshake pays.
	// Defaults to 500µs.
	Linger time.Duration

	// Workers is the number of goroutines executing flushed batches;
	// while one worker runs the tree another can collect the next
	// batch. Defaults to 2.
	Workers int

	// QueueDepth bounds the submission queue. When it is full,
	// Submit blocks up to SubmitTimeout and then decrypts directly —
	// backpressure degrades to the unbatched path instead of
	// queueing without bound. Defaults to 64.
	QueueDepth int

	// SubmitTimeout is the deadline for enqueueing a request before
	// the caller falls back to direct decryption. Defaults to 10ms.
	SubmitTimeout time.Duration

	// Rand, when non-nil, blinds each batch's root exponentiation
	// (serialized internally; see KeySet.DecryptBatch).
	Rand io.Reader

	// Probes subscribes sinks to the engine's probe events: value
	// samples for batch size and queue depth, a timer for linger
	// latency, and one engine span per executed batch (linked to the
	// handshake spans it served). Sinks are shared across the
	// engine's goroutines and must tolerate concurrent Emit calls.
	Probes []probe.Sink
}

func (c *Config) withDefaults(width int) Config {
	out := *c
	if out.BatchSize <= 0 {
		out.BatchSize = 4
	}
	if out.BatchSize > width {
		out.BatchSize = width
	}
	if out.Linger <= 0 {
		out.Linger = 500 * time.Microsecond
	}
	if out.Workers <= 0 {
		out.Workers = 2
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 64
	}
	if out.SubmitTimeout <= 0 {
		out.SubmitTimeout = 10 * time.Millisecond
	}
	return out
}

// Stats counts engine activity (all fields read with atomic loads via
// the Stats method).
type Stats struct {
	Batched       uint64 // requests resolved through a batch tree
	Direct        uint64 // requests resolved by per-request CRT decryption
	FlushFull     uint64 // batches flushed because they reached BatchSize
	FlushLinger   uint64 // batches flushed by the linger timer
	FlushCollide  uint64 // batches flushed early by an exponent collision
	VerifyRetries uint64 // items re-decrypted after a self-check mismatch
}

type result struct {
	pt  []byte
	err error
}

type request struct {
	idx  int
	ct   []byte
	rnd  io.Reader     // caller's randomness, used only on the direct path
	link probe.SpanRef // submitting handshake's span, for batch-span links
	done chan result
}

// An Engine collects concurrent RSA decrypt requests against a
// KeySet into Fiat batches and executes them on a bounded worker
// pool. Handshake goroutines submit through the per-key Decrypter
// handles and block only for their own result; the dispatcher
// amortizes the full-size exponentiation across whoever arrives
// within the batch window.
type Engine struct {
	ks  *KeySet
	cfg Config
	bus *probe.Bus

	subq chan *request
	quit chan struct{}
	wg   sync.WaitGroup

	// mu orders submissions against Close: enqueues hold the read
	// lock, Close flips closed under the write lock, so after Close's
	// final drain no request can be stranded on subq.
	mu        sync.RWMutex
	closed    bool
	closeOnce sync.Once

	batched       atomic.Uint64
	direct        atomic.Uint64
	flushFull     atomic.Uint64
	flushLinger   atomic.Uint64
	flushCollide  atomic.Uint64
	verifyRetries atomic.Uint64
}

// lockedReader serializes a shared randomness source: the blinding
// reads happen on whichever worker runs the batch, so the engine's
// Rand is touched from several goroutines.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

// NewEngine starts an engine over ks. Call Close to stop its
// goroutines.
func NewEngine(ks *KeySet, cfg Config) *Engine {
	c := cfg.withDefaults(len(ks.Keys))
	if c.Rand != nil {
		c.Rand = &lockedReader{r: c.Rand}
	}
	e := &Engine{
		ks:   ks,
		cfg:  c,
		bus:  probe.NewBus(c.Probes...),
		subq: make(chan *request, c.QueueDepth),
		quit: make(chan struct{}),
	}
	workq := make(chan []*request)
	for i := 0; i < c.Workers; i++ {
		e.wg.Add(1)
		go e.worker(workq)
	}
	e.wg.Add(1)
	go e.collect(workq)
	return e
}

// KeySet returns the engine's key set.
func (e *Engine) KeySet() *KeySet { return e.ks }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Batched:       e.batched.Load(),
		Direct:        e.direct.Load(),
		FlushFull:     e.flushFull.Load(),
		FlushLinger:   e.flushLinger.Load(),
		FlushCollide:  e.flushCollide.Load(),
		VerifyRetries: e.verifyRetries.Load(),
	}
}

// Close stops the dispatcher and workers after flushing any pending
// batch. Submissions racing with Close fall back to direct
// decryption; Close may block up to SubmitTimeout for them.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		close(e.quit)
	})
	e.wg.Wait()
	// With closed set and the goroutines gone, nothing else touches
	// subq: serve any requests that slipped in during the shutdown
	// race directly.
	for {
		select {
		case req := <-e.subq:
			e.direct.Add(1)
			pt, err := e.ks.Keys[req.idx].DecryptPKCS1(e.randFor(req), req.ct)
			req.done <- result{pt: pt, err: err}
		default:
			return
		}
	}
}

// collect is the dispatcher loop: it gathers requests into a batch
// and flushes on size, exponent collision, linger expiry, or
// shutdown.
func (e *Engine) collect(workq chan []*request) {
	defer e.wg.Done()
	defer close(workq)

	var (
		pending    []*request
		mask       uint32
		batchStart time.Time
		timer      = time.NewTimer(0)
		lingerC    <-chan time.Time
	)
	if !timer.Stop() {
		<-timer.C
	}

	flush := func() {
		if len(pending) == 0 {
			return
		}
		timer.Stop()
		lingerC = nil
		e.bus.EngineValue(MetricBatchSize, int64(len(pending)))
		e.bus.EngineTimer(MetricLinger, time.Since(batchStart))
		batch := pending
		pending = nil
		mask = 0
		select {
		case workq <- batch: // backpressure: waits for a free worker
		case <-e.quit:
			// Workers drain workq before exiting, but if we lose the
			// race the batch still must complete: run it inline.
			e.runBatch(batch)
		}
	}

	for {
		select {
		case req := <-e.subq:
			bit := uint32(1) << uint(req.idx)
			if mask&bit != 0 {
				// Second request under the same exponent: Fiat needs
				// pairwise-coprime exponents, so the current batch
				// ships now and this request opens the next one.
				e.flushCollide.Add(1)
				flush()
			}
			pending = append(pending, req)
			mask |= bit
			if len(pending) == 1 {
				batchStart = time.Now()
				timer.Reset(e.cfg.Linger)
				lingerC = timer.C
			}
			if len(pending) >= e.cfg.BatchSize {
				e.flushFull.Add(1)
				flush()
			}
		case <-lingerC:
			e.flushLinger.Add(1)
			flush()
		case <-e.quit:
			// Drain whatever is already queued, then flush and exit.
			for {
				select {
				case req := <-e.subq:
					pending = append(pending, req)
				default:
					flush()
					return
				}
			}
		}
	}
}

// worker executes flushed batches until the dispatcher closes workq.
func (e *Engine) worker(workq chan []*request) {
	defer e.wg.Done()
	for batch := range workq {
		e.runBatch(batch)
	}
}

// runBatch resolves one batch: the Fiat tree for two or more
// requests, the plain CRT path for a singleton, and a per-item CRT
// retry for any self-check miss.
func (e *Engine) runBatch(batch []*request) {
	if len(batch) == 1 {
		req := batch[0]
		e.direct.Add(1)
		pt, err := e.ks.Keys[req.idx].DecryptPKCS1(e.randFor(req), req.ct)
		req.done <- result{pt: pt, err: err}
		return
	}
	if e.bus.Active() {
		start := e.bus.Stamp()
		defer func() {
			var links []probe.SpanRef
			for _, req := range batch {
				if req.link != (probe.SpanRef{}) {
					links = append(links, req.link)
				}
			}
			e.bus.EngineSpan("rsa_batch", len(batch), start, links)
		}()
	}
	idxs := make([]int, len(batch))
	cts := make([][]byte, len(batch))
	for i, req := range batch {
		idxs[i] = req.idx
		cts[i] = req.ct
	}
	var pts [][]byte
	var errs []error
	var err error
	// Label the batched tree walk so CPU profiles attribute its
	// samples to sslengine=rsa_batch even though it runs off the
	// handshake goroutines (no-op unless profile labels are armed).
	probe.LabelEngine("rsa_batch", func() {
		pts, errs, err = e.ks.DecryptBatch(e.cfg.Rand, idxs, cts)
	})
	if err != nil {
		// Whole-batch failure (e.g. a degenerate ciphertext made a
		// tree value non-invertible): every request falls back to the
		// independent CRT path.
		for _, req := range batch {
			e.direct.Add(1)
			pt, derr := e.ks.Keys[req.idx].DecryptPKCS1(e.randFor(req), req.ct)
			req.done <- result{pt: pt, err: derr}
		}
		return
	}
	for i, req := range batch {
		if errs[i] == ErrVerify {
			e.verifyRetries.Add(1)
			e.direct.Add(1)
			pt, derr := e.ks.Keys[req.idx].DecryptPKCS1(e.randFor(req), req.ct)
			req.done <- result{pt: pt, err: derr}
			continue
		}
		e.batched.Add(1)
		req.done <- result{pt: pts[i], err: errs[i]}
	}
}

// randFor picks the randomness for a direct decryption: the caller's
// source when it supplied one, else the engine's.
func (e *Engine) randFor(req *request) io.Reader {
	if req.rnd != nil {
		return req.rnd
	}
	return e.cfg.Rand
}

// decrypt submits one request and waits for its result, falling back
// to direct decryption when the queue stays full past SubmitTimeout
// or the engine is shut down.
func (e *Engine) decrypt(idx int, rnd io.Reader, ct []byte, ref func() probe.SpanRef) ([]byte, error) {
	req := &request{idx: idx, ct: ct, rnd: rnd, done: make(chan result, 1)}
	if ref != nil {
		// Captured on the submitting (handshake) goroutine, so the ref
		// names the step span that is waiting on this decryption.
		req.link = ref()
	}
	e.bus.EngineValue(MetricQueueDepth, int64(len(e.subq)))
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		e.direct.Add(1)
		return e.ks.Keys[idx].DecryptPKCS1(e.orRand(rnd), ct)
	}
	deadline := time.NewTimer(e.cfg.SubmitTimeout)
	defer deadline.Stop()
	select {
	case e.subq <- req:
		e.mu.RUnlock()
	case <-deadline.C:
		e.mu.RUnlock()
		e.direct.Add(1)
		return e.ks.Keys[idx].DecryptPKCS1(e.orRand(rnd), ct)
	}
	r := <-req.done
	return r.pt, r.err
}

func (e *Engine) orRand(rnd io.Reader) io.Reader {
	if rnd != nil {
		return rnd
	}
	return e.cfg.Rand
}

// handle is the per-key rsa.Decrypter the handshake layer plugs in.
type handle struct {
	e   *Engine
	idx int // −1: key outside the set, pure passthrough
	key *rsa.PrivateKey
	ref func() probe.SpanRef // current submitter span, for batch-span links
}

// DecryptPKCS1 implements rsa.Decrypter. In-set keys go through the
// batch queue; everything else — e.g. a conventional e=65537 key —
// falls through to per-request CRT decryption.
func (h *handle) DecryptPKCS1(rnd io.Reader, ct []byte) ([]byte, error) {
	if h.idx < 0 {
		return h.key.DecryptPKCS1(rnd, ct)
	}
	return h.e.decrypt(h.idx, rnd, ct, h.ref)
}

// Decrypter returns the batching rsa.Decrypter for set key i.
func (e *Engine) Decrypter(i int) rsa.Decrypter {
	return &handle{e: e, idx: i, key: e.ks.Keys[i]}
}

// DecrypterTraced is Decrypter plus span linkage: ref is called on the
// submitting goroutine at enqueue time and its result is attached to
// the batch span that ends up serving the request. Use one handle per
// connection, with ref closing over that connection's trace.
func (e *Engine) DecrypterTraced(i int, ref func() probe.SpanRef) rsa.Decrypter {
	return &handle{e: e, idx: i, key: e.ks.Keys[i], ref: ref}
}

// DecrypterFor wraps key: a member of the engine's set decrypts
// through the batch queue, any other key (small-exponent or not)
// decrypts directly — the transparent fallback for e=65537
// deployments.
func (e *Engine) DecrypterFor(key *rsa.PrivateKey) rsa.Decrypter {
	return &handle{e: e, idx: e.ks.Contains(key), key: key}
}
