# Reproduction targets for "Anatomy and Performance of SSL Processing"
# (ISPASS 2005). Everything is stdlib-only Go; no network needed.

GO ?= go

.PHONY: all build vet test race check clocklint blocklint seallint servelint kernellint cbclint depslint pathlenlint failclasslint doclint fuzzsmoke loadsmoke repro results examples clean

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
# sink adapters (telemetry, the span tracer), the record layer (whose
# connections share one window-buffer pool), the batch-RSA and accel
# engines, the handshake session cache, perf (whose model-GHz
# setting is shared mutable state), bn and rsa (a Mont's scratch pool
# and a key's lazily built contexts and arena pool are shared by every
# connection under that key), the serve loop, and the load generator
# + health checks — then every fuzz target for a few seconds and a real
# end-to-end smoke: sslload against the serve loop in-process.
check:
	$(GO) vet ./...
	$(MAKE) clocklint
	$(MAKE) blocklint
	$(MAKE) seallint
	$(MAKE) servelint
	$(MAKE) kernellint
	$(MAKE) cbclint
	$(MAKE) depslint
	$(MAKE) pathlenlint
	$(MAKE) failclasslint
	$(MAKE) doclint
	$(GO) test -race ./internal/probe/... ./internal/telemetry/... ./internal/trace/... \
		./internal/ssl/... ./internal/record/... ./internal/rsabatch/... \
		./internal/handshake/... ./internal/accel/... ./internal/perf/... \
		./internal/loadgen/... ./internal/baseline/... ./internal/pathlen/... \
		./internal/lifecycle/... ./internal/slo/... \
		./internal/history/... ./internal/debughttp/... ./cmd/ssltop/... \
		./internal/bn/... ./internal/rsa/... ./internal/server/...
	$(MAKE) fuzzsmoke
	$(MAKE) loadsmoke

# The spine owns every clock read on the handshake and record hot
# paths (one stamp per event, sinks never re-stamp): an event's At is
# the only time a sink's Emit path may use, so the packages a
# connection's record accumulates and folds through are held to the
# same rule. Direct time.Now calls there bypass the nil-bus fast path
# or put a clock read on every record; the legitimate ones (config
# defaults, constructors, the sampler that runs ahead of the bus,
# snapshot and render code) carry a "lint:allow-clock" marker.
clocklint:
	@bad=$$(grep -n 'time\.Now()\|time\.Since(' internal/handshake/*.go internal/record/*.go \
		internal/lifecycle/*.go internal/telemetry/*.go internal/trace/*.go internal/pathlen/*.go \
		| grep -v _test.go | grep -v 'lint:allow-clock'; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "clocklint: direct clock reads on the probe-spine hot path (mark intentional ones with // lint:allow-clock):"; \
		echo "$$bad"; exit 1; \
	fi

# The handshake FSMs, the record Core and the connection state machine
# (ssl.NonBlockingConn, which ssl.Conn wraps) are sans-IO: every byte
# they consume arrives through Core.Feed, and a short read surfaces as
# ErrWouldBlock — never as a blocking transport read. That is what lets
# the benchmark's in-memory ssl.* layer probes and the deterministic
# tests (golden wire equivalence, the allocation pins) drive both ends
# of a connection from one goroutine with no transport; a direct
# io.ReadFull or .Read( call in those files would hang them. The rare
# legitimate read (the config's randomness source) carries a
# "lint:allow-read" marker. A connection blocks in exactly one place:
# Layer.ReadRecord in record/record.go holds the one .Read( on a
# transport, and ssl.Conn (ssl/ssl.go) reaches it by running the same
# state machine over a Layer; those two files are exempt.
blocklint:
	@bad=$$(grep -n 'io\.ReadFull\|\.Read(' internal/handshake/*.go internal/record/core.go \
		internal/ssl/nonblock.go internal/ssl/probes.go \
		| grep -v _test.go | grep -v 'lint:allow-read'; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "blocklint: blocking reads inside the sans-IO core (mark intentional non-transport ones with // lint:allow-read):"; \
		echo "$$bad"; exit 1; \
	fi

# There is one record path: Core.seal holds the only cipher.Encrypt(
# call of the record layer and Core.open the only cipher.Decrypt(, for
# blocking and sans-IO connections alike. A second call site is a
# second seal or open coming back.
seallint:
	@for call in 'cipher\.Encrypt(' 'cipher\.Decrypt('; do \
		sites=$$(grep -n "$$call" internal/record/*.go | grep -v _test.go); \
		if [ $$(echo "$$sites" | grep -c .) -ne 1 ]; then \
			echo "seallint: want exactly one $$call call site in non-test internal/record/*.go, found:"; \
			echo "$$sites"; exit 1; \
		fi; \
	done

# There is one serve loop: internal/server holds the only accept loop
# (and the only per-connection config builder) that cmd/, internal/ and
# the web-server example run — ssl.Listener.Accept wraps one connection
# and loops over nothing. A second .Accept() call site is a copied
# serve loop coming back, and syscall.Epoll the readiness loop that was
# measured against this one and deleted (EXPERIMENTS.md "One serve
# loop").
servelint:
	@bad=$$(grep -rn --include='*.go' '\.Accept()\|syscall\.Epoll' cmd internal examples/webserver \
		| grep -v '_test\.go:' \
		| grep -v '^internal/server/server\.go:.*\.Accept()\|^internal/ssl/net\.go:.*\.Accept()'; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "servelint: an accept loop outside internal/server/server.go (or an epoll call anywhere):"; \
		echo "$$bad"; exit 1; \
	fi

# The production kernels are what every connection runs: the
# Montgomery kernel under every RSA and DH operation (from pooled
# scratch sized once per Mont — newScratch, in mont.go), the fused CBC
# loops of aes and des under every block-cipher record, and the SHA-1
# and MD5 block functions under every MAC and handshake hash. An
# allocation in one comes back as garbage per multiplication or per
# record; a profiler or probe hook, a closure or an interface-typed
# value as a branch, a clock read or an indirect call inside the word
# loops. Those belong to the counting kernel and the profiled forms
# beside them (bn's mulAddWords, the */anatomy.go files).
# (montkernel.go's two non-escaping selector closures predate the
# closure rule and are not held to it.)
SYMKERNELS = internal/aes/kernel.go internal/des/kernel.go internal/sha1x/block.go internal/md5x/block.go
kernellint:
	@bad=$$(grep -n 'profEnter(\|make(\|new(' internal/bn/montkernel.go $(SYMKERNELS); \
		grep -n 'func(\|perf\.\|probe\.\|interface' $(SYMKERNELS); exit 0); \
	if [ -n "$$bad" ]; then \
		echo "kernellint: allocation, closure, interface or profiler hook in a production kernel:"; \
		echo "$$bad"; exit 1; \
	fi

# cbc dispatches once per call: the chaining loop lives in the
# cipher's EncryptCBC/DecryptCBC (kernellint's files). A single-block
# Encrypt( or Decrypt( call in cbc's non-test code is the per-block
# interface dispatch and the byte-wise XOR loop coming back.
cbclint:
	@bad=$$(grep -n '\.Encrypt(\|\.Decrypt(' internal/cbc/*.go | grep -v _test.go; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "cbclint: cbc calls a single-block cipher entry point (the fused EncryptCBC/DecryptCBC is the only dispatch):"; \
		echo "$$bad"; exit 1; \
	fi

# The protocol layers know the observatory only as the probe spine:
# connections emit events, and whoever wires a server decides which
# observers listen. An import of a sink package from ssl, handshake or
# record would put the observatory back on the hot path (and link it
# into bench/'s client).
depslint:
	@bad=$$($(GO) list -deps ./internal/ssl ./internal/handshake ./internal/record \
		| grep -E '^sslperf/internal/(telemetry|trace|lifecycle|slo|history|debughttp|pathlen)$$'; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "depslint: the protocol layers import the observatory:"; \
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

# The prose must not point at things that are gone: every docs/, cmd/,
# internal/ or examples/ path the top-level documents and the verify
# skill mention has to exist (globs may match anything), every
# `make <target>` they show (in backticks or opening a code-block
# line) has to be a target of this file, and every /metrics or /debug/…
# path they name has to be one a HandleFunc mounts. The other way
# round, a mounted path has to earn its place: each appears in an
# EXPERIMENTS.md recipe. And README's sslserver flag table is the flag
# set of cmd/sslserver/main.go, both ways: no row for a flag that is
# gone, no flag without a row.
doclint:
	@docs="README.md EXPERIMENTS.md DESIGN.md .claude/skills/verify/SKILL.md"; \
	bad=$$(grep -onE '(docs|cmd|internal|examples)/[A-Za-z0-9_./*-]*' $$docs \
		| sed -E 's/[.,]+$$//' | while IFS=: read f l p; do \
			ls -d $$p >/dev/null 2>&1 || echo "  $$f:$$l: $$p does not exist"; \
		done; \
		grep -onE '(^|`)make +[a-z][a-z0-9_-]*' $$docs | sed -E 's/`?make +//' \
		| while IFS=: read f l t; do \
			grep -q "^$$t:" Makefile || echo "  $$f:$$l: make $$t is not a target"; \
		done; \
		mounted=$$(grep -rhoE --include='*.go' --exclude='*_test.go' 'HandleFunc\("/[a-z/]+' cmd internal \
			| sed -E 's/.*"//; s|/$$||' | sort -u); \
		grep -onE '(/debug/[a-z]+(/[a-z]+)?|/metrics)' README.md EXPERIMENTS.md .claude/skills/verify/SKILL.md \
		| sort -u | while IFS=: read f l p; do \
			echo "$$mounted" | grep -qx "$$p" || echo "  $$f:$$l: $$p is not a mounted path"; \
		done; \
		for p in $$mounted; do \
			grep -q "$$p" EXPERIMENTS.md || echo "  $$p is mounted but no EXPERIMENTS.md recipe uses it"; \
		done; \
		defined=$$(grep -oE 'flag\.[A-Za-z0-9]+\("[a-z-]+"' cmd/sslserver/main.go | sed -E 's/.*\("//; s/"//' | sort -u); \
		rows=$$(sed -n '/^| `sslserver` flag/,/^$$/p' README.md | grep -oE '`-[a-z-]+' | sed 's/`-//' | sort -u); \
		for f in $$rows; do \
			echo "$$defined" | grep -qx -- "$$f" || echo "  README.md: sslserver flag table lists -$$f, which cmd/sslserver/main.go does not define"; \
		done; \
		for f in $$defined; do \
			echo "$$rows" | grep -qx -- "$$f" || echo "  cmd/sslserver/main.go defines -$$f, which README.md's sslserver flag table lacks"; \
		done); \
	if [ -n "$$bad" ]; then echo "doclint: stale references:"; echo "$$bad"; exit 1; fi

# Run every fuzz target for five seconds each, not just its seed
# corpus (which go test ./... already replays). Targets are discovered,
# so a new Fuzz function is in the gate the moment it is written.
fuzzsmoke:
	@grep -rH --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz' . \
		| sed -E 's|^(.*)/[^/]*:func (Fuzz[A-Za-z0-9_]*).*|\1 \2|' \
		| while read pkg name; do \
			echo "fuzz $$pkg $$name"; \
			$(GO) test -run NONE -fuzz "^$$name\$$" -fuzztime 5s $$pkg || exit 1; \
		done

# End-to-end smoke: sslload drives the real serve loop (internal/server,
# in-process) open-loop for 5s and checks its own result (non-zero exit on failures, a
# disordered quantile, or a handshake outlasting its connection).
loadsmoke:
	$(GO) run ./cmd/sslload -selftest -rate 200 -duration 5s -warmup 1s -resume 0.3 -seed 1

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
