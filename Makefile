# Reproduction targets for "Anatomy and Performance of SSL Processing"
# (ISPASS 2005). Everything is stdlib-only Go; no network needed.

GO ?= go
HISTDIR ?= bench_history

.PHONY: all build vet test race check clocklint blocklint pathlenlint failclasslint benchlint loadsmoke checkdrift bench repro results examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The default test path runs the telemetry suite under -race as well:
# telemetry is the one layer whose whole contract is concurrency.
test:
	$(GO) test ./...
	$(GO) test -race ./internal/telemetry/...

race:
	$(GO) test -race ./...

# CI gate: static checks plus the race detector on the packages that
# live connections emit through concurrently: the probe spine and its
# sink adapters (telemetry, the span tracer), the record layer and the
# macpipe sealing pipeline behind its flight path, the batch-RSA and
# accel engines, the handshake session cache, perf (whose model-GHz
# setting is shared mutable state), and the load generator + drift
# engine — then a real end-to-end smoke through sslload's in-process
# server.
check:
	$(GO) vet ./...
	$(MAKE) clocklint
	$(MAKE) blocklint
	$(MAKE) pathlenlint
	$(MAKE) failclasslint
	$(MAKE) benchlint
	$(GO) test -race ./internal/probe/... ./internal/telemetry/... ./internal/trace/... \
		./internal/ssl/... ./internal/record/... ./internal/macpipe/... ./internal/rsabatch/... \
		./internal/handshake/... ./internal/accel/... ./internal/perf/... \
		./internal/loadgen/... ./internal/baseline/... ./internal/pathlen/... \
		./internal/lifecycle/... ./internal/slo/... \
		./internal/history/... ./internal/debughttp/... ./cmd/ssltop/...
	$(MAKE) loadsmoke

# The spine owns every clock read on the handshake and record hot
# paths (one stamp per event, sinks never re-stamp). Direct time.Now
# calls there bypass the nil-bus fast path; the rare legitimate one
# (config defaults) carries a "lint:allow-clock" marker.
clocklint:
	@bad=$$(grep -n 'time\.Now()' internal/handshake/*.go internal/record/*.go \
		| grep -v _test.go | grep -v 'lint:allow-clock'; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "clocklint: direct clock reads on the probe-spine hot path (mark intentional ones with // lint:allow-clock):"; \
		echo "$$bad"; exit 1; \
	fi

# The handshake FSMs, the record Core and the connection state machine
# (ssl.NonBlockingConn, which ssl.Conn wraps and the epoll loop runs
# directly) are sans-IO: every byte they consume arrives through
# Core.Feed, and a short read surfaces as ErrWouldBlock — never as a
# blocking transport read. A direct io.ReadFull or .Read( call in
# those files would park the event loop on one connection's socket.
# The rare legitimate read (the config's randomness source) carries a
# "lint:allow-read" marker. A connection blocks in exactly one place,
# the Layer adapter (record/record.go), reached through the Conn
# wrapper (ssl/ssl.go); those two files are exempt.
blocklint:
	@bad=$$(grep -n 'io\.ReadFull\|\.Read(' internal/handshake/*.go internal/record/core.go \
		internal/ssl/nonblock.go internal/ssl/probes.go internal/ssl/telemetry.go internal/ssl/trace.go \
		| grep -v _test.go | grep -v 'lint:allow-read'; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "blocklint: blocking reads inside the sans-IO core (mark intentional non-transport ones with // lint:allow-read):"; \
		echo "$$bad"; exit 1; \
	fi

# Every probe.Step constant must carry a path-length row mapping in
# internal/pathlen/steps.go (the stepClasses table), mirroring
# clocklint's grep discipline: a new handshake step cannot ship
# without deciding which /debug/pathlength class its bytes charge to.
# TestStepClassesCoverProbeSteps enforces the same invariant
# in-language; this catches it before the test suite even runs.
pathlenlint:
	@steps=$$(sed -n 's/^\t\(Step[A-Za-z0-9]*\) Step = iota.*/\1/p; s/^\t\(Step[A-Za-z0-9]*\)$$/\1/p' internal/probe/probe.go | sort -u); \
	missing=""; \
	for s in $$steps; do \
		grep -q "probe\.$$s:" internal/pathlen/steps.go || missing="$$missing $$s"; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "pathlenlint: probe.Step constants with no stepClasses row in internal/pathlen/steps.go:$$missing"; \
		exit 1; \
	fi

# Every probe.FailClass constant must carry a name row in the
# failClassInfo table and a case in the internal/ssl mapping test
# (TestClassifyTable), so a new failure class cannot ship without a
# canonical tag and a pinned example of what maps onto it — the same
# grep discipline pathlenlint applies to handshake steps.
failclasslint:
	@classes=$$(sed -n 's/^\t\(Fail[A-Za-z0-9]*\) FailClass = iota.*/\1/p; s/^\t\(Fail[A-Za-z0-9]*\)$$/\1/p' internal/probe/failclass.go | sort -u); \
	missing=""; \
	for c in $$classes; do \
		grep -q "$$c:" internal/probe/failclass.go || missing="$$missing $$c(name)"; \
		grep -q "probe\.$$c" internal/ssl/failclass_test.go || missing="$$missing $$c(mapping-test)"; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "failclasslint: probe.FailClass constants missing a failClassInfo name or a mapping-test case:$$missing"; \
		exit 1; \
	fi

# Every committed docs/BENCH_*.json must be regenerated by `make
# bench`: the -out of exactly one benchjson command in its recipe. A
# recipe edit that drops or orphans a command line (make runs a stray
# "-count 3 ..." continuation as an error-ignored command and carries
# on) would otherwise leave a report silently stale.
benchlint:
	@recipes=$$($(MAKE) -s -n --no-print-directory bench \
		| sed -e ':a' -e '/\\$$/N; s/\\\n//; ta' | grep 'cmd/benchjson'); \
	bad=""; \
	for f in docs/BENCH_*.json; do \
		n=$$(printf '%s\n' "$$recipes" | grep -c -e "-out $$f "); \
		[ "$$n" = 1 ] || bad="$$bad $$f($$n)"; \
	done; \
	if [ -n "$$bad" ]; then \
		echo "benchlint: reports that are not the -out of exactly one benchjson command in 'make bench' (count in parentheses):$$bad"; \
		exit 1; \
	fi

# End-to-end smoke: sslload drives an in-process sslserver open-loop
# for 5s and gates its own report through the load-latency shape
# checks (non-zero exit on failures or shape drift).
loadsmoke:
	$(GO) run ./cmd/sslload -selftest -rate 200 -duration 5s -warmup 1s -resume 0.3 -seed 1

# Drift gate: re-validate every committed docs/BENCH_*.json against
# the paper's expectation shapes and, where docs/bench_history/ holds
# archived runs, against the most recent archive.
checkdrift:
	$(GO) run ./cmd/benchjson -checkdrift docs

# Run every benchmark with -benchmem and refresh the machine-readable
# results committed under docs/ (cmd/benchjson parses the go test
# output, including custom metrics like decrypts/s, and derives the
# /batch=N speedup curve). Before refreshing, the current committed
# reports are archived into docs/bench_history/ with a timestamp, so
# `make checkdrift` can compare the new numbers against the trend.
bench:
	mkdir -p docs/$(HISTDIR)
	for f in docs/BENCH_*.json; do \
		cp $$f docs/$(HISTDIR)/$$(basename $$f .json)-$$(date +%Y%m%d%H%M%S).json; \
	done
	$(GO) test -bench=. -benchmem -run=NONE ./...
	$(GO) run ./cmd/benchjson -quiet -pkg ./internal/rsabatch/ -bench BenchmarkBatchDecrypt \
		-count 3 -name rsa-batch-amortization -out docs/BENCH_rsa_batch.json \
		-note "Fiat batch RSA over a 1024-bit shared modulus: decrypts/s at batch width 1 (per-request CRT, the engine's singleton path) vs one full-size exponentiation amortized over 2/4/8 concurrent requests. Speedup is ops/s relative to batch=1."
	$(GO) run ./cmd/benchjson -quiet -pkg ./internal/record/ -bench 'BenchmarkRecord(Seal|Open)' \
		-count 3 -name record-seal-allocs -out docs/BENCH_record.json \
		-note "Record-layer seal/open with the pooled seal buffer and in-place MAC: steady state is one amortized allocation per sealed record (the sync.Pool interface box), down from a fresh MaxFragment buffer plus MAC scratch per record."
	$(GO) run ./cmd/benchjson -quiet -pkg ./internal/ssl/ -bench 'BenchmarkHandshakeTrace(Off|Sampled16|Always)' \
		-count 3 -name trace-overhead -out docs/BENCH_trace.json \
		-note "Span-tracing overhead on the full-handshake benchmark: Off is the nil-tracer baseline (one pointer test per hook), Sampled16 the documented 1-in-16 production setting, Always the worst case where every handshake records ~40 spans and folds into the live anatomy profiler."
	$(GO) run ./cmd/benchjson -quiet -pkg ./internal/ssl/ -bench 'BenchmarkHandshakeProbe(Off|Sampled16|All)' \
		-count 3 -name probe-overhead -out docs/BENCH_probe.json \
		-note "Probe-spine fan-out cost on the full-handshake benchmark: Off is the sink-free nil-bus path (one pointer test per hook, zero allocations), Sampled16 the production 1-in-16 trace sampling, All the worst case with every sink adapter attached — anatomy fold + telemetry counters + always-on span building riding one event stream."
	$(GO) run ./cmd/benchjson -quiet -pkg ./internal/lifecycle/ -bench BenchmarkConnTable \
		-count 3 -name lifecycle-conn-table -out docs/BENCH_lifecycle.json \
		-note "Conn-table hot path for the lifecycle observatory: register-close is the bare table round trip (pooled entry, lock-striped shard insert/delete), full-life adds handshake transitions with step and record events on the probe spine plus the SLO window fold, emit is one record-IO event folding into an established entry's counters. The shape gate holds every path at zero allocations per operation — attaching the observatory costs bookkeeping, not garbage."
	$(GO) run ./cmd/benchjson -quiet -pkg ./internal/history/ -bench BenchmarkHistorySample \
		-count 3 -name history-sampler -out docs/BENCH_history.json \
		-note "Time-series observatory tick: one SampleNow over every standard source (telemetry counters, runtime metrics via a reused sample buffer, the 10s SLO window fold, the conn-table walk, pathlen cipher/MAC totals, anatomy step shares) landing in the two-resolution rings. The shape gate holds the tick at zero allocations and under 1% of the 1s sampling interval, so /debug/history and /debug/watch can stay on in production."
	$(GO) run ./cmd/benchjson -quiet -pkg ./internal/ssl/ -bench 'Benchmark(NonBlock|GoroutinePerConn|IdleConns)' \
		-count 3 -name nonblock -out docs/BENCH_nonblock.json \
		-note "Sans-IO core economics: NonBlockHandshake steps the resumable FSM pair entirely in memory vs GoroutinePerConnHandshake's blocking wrappers over the pipe (same crypto, so the two must stay within 1.5x), IdleConns holds b.N established idle server conns and attributes the settled heap+stack bytes per connection — the event-loop flavor keeps only the NonBlockingConn core, the goroutine flavor also parks the per-conn serve goroutine in Read — and NonBlockReadSteady is the zero-allocation steady-state seal/feed/read round trip. The shape gate pins eventloop bytes/conn strictly below goroutine bytes/conn and the read path at 0 allocs/op."
	$(GO) run ./cmd/benchjson -quiet -pkg ./internal/ssl/ -bench 'Benchmark(Handshake|RecordThroughput)Telemetry(Off|On)' \
		-count 3 -name telemetry-overhead -out docs/BENCH_telemetry.json \
		-note "Telemetry off is a nil *telemetry.Registry: the emission hooks reduce to one pointer test each and allocs/op match the uninstrumented stack. On pays for the server-side anatomy recorder, flight-recorder events, and atomic counter/histogram updates — on a full RSA-1024 handshake over the in-memory pipe and on 4KB RC4-MD5 application records."
	$(GO) run ./cmd/benchjson -quiet -pkg ./internal/ssl/ -bench BenchmarkBulkPath \
		-count 3 -name bulk-path -out docs/BENCH_bulk.json \
		-note "Bulk-path cycles/byte per suite from the pathlen collector riding the server's probe spine: 16KB records written through the full record layer, cipher and MAC cost attributed per primitive (the live Tables 11/12), plus the syscall story — writes/record (1.0 contiguous seal, ~1/64 vectored) and MB/s + records/s for the -seq1m (1MiB writes, flight off) vs -vec (flight pipeline) pair. The shape gate holds RC4 cheaper than AES, MD5 cheaper than SHA-1, 3DES a multiple of DES, writes/record at or under 1, and vectored throughput at or above the same-size sequential baseline."

# Regenerate every table and figure of the paper (plus the ablations).
repro:
	$(GO) run ./cmd/sslanatomy -experiment all -iterations 5

# Refresh the committed raw results.
results:
	$(GO) run ./cmd/sslanatomy -experiment all -iterations 5 > docs/RESULTS.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/banking -sessions 10
	$(GO) run ./examples/filetransfer -size 1048576
	$(GO) run ./examples/bulktransfer -size 1048576
	$(GO) run ./examples/webserver

clean:
	$(GO) clean ./...
