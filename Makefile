# Reproduction targets for "Anatomy and Performance of SSL Processing"
# (ISPASS 2005). Everything is stdlib-only Go; no network needed.

GO ?= go

.PHONY: all build vet test race check clocklint blocklint driverlint seallint writelint servelint kernellint cpuidlint gencheck cbclint depslint spinelint tracelint failclasslint fsmlint pairlint doclint fuzzsmoke loadsmoke repro results examples clean

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

# CI gate: static checks, the whole suite under the race detector,
# every fuzz target for a few seconds, a real end-to-end smoke:
# sslload against the serve loop in-process, and the five examples. On amd64, vet's asmdecl
# checks every .s against its Go declarations (cpufeat's CPUID routine
# among them); the cross-builds keep the fallbacks with no assembly
# (the *_other.go files of cpufeat, aes, sha1x, aessha1 and bn)
# compiling.
check:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/cpufeat/...
	GOARCH=arm64 $(GO) vet ./internal/aes/...
	GOARCH=arm64 $(GO) vet ./internal/sha1x/...
	GOARCH=arm64 $(GO) vet ./internal/aessha1/...
	GOARCH=arm64 $(GO) vet ./internal/bn/...
	GOARCH=386 $(GO) build ./...
	$(MAKE) clocklint
	$(MAKE) blocklint
	$(MAKE) driverlint
	$(MAKE) seallint
	$(MAKE) writelint
	$(MAKE) servelint
	$(MAKE) kernellint
	$(MAKE) cpuidlint
	$(MAKE) gencheck
	$(MAKE) cbclint
	$(MAKE) depslint
	$(MAKE) spinelint
	$(MAKE) tracelint
	$(MAKE) failclasslint
	$(MAKE) fsmlint
	$(MAKE) pairlint
	$(MAKE) doclint
	$(MAKE) race
	$(MAKE) fuzzsmoke
	$(MAKE) loadsmoke
	$(MAKE) examples

# The spine owns every clock read on the handshake and record hot
# paths (one stamp per event, sinks never re-stamp): an event's At is
# the only time a sink's Emit path may use, so the packages a
# connection's record accumulates and folds through are held to the
# same rule. Direct time.Now calls there bypass the nil-bus fast path
# or put a clock read on every record; the legitimate ones (config
# defaults, constructors, snapshot and render code) carry a
# "lint:allow-clock" marker.
clocklint:
	@bad=$$(grep -n 'time\.Now()\|time\.Since(' internal/handshake/*.go internal/record/*.go \
		internal/lifecycle/*.go internal/telemetry/*.go internal/pathlen/*.go \
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
# Layer.Fill in record/record.go holds the one .Read( on a transport,
# and ssl.Conn (ssl/ssl.go) calls it between calls into the same state
# machine; those two files are exempt. The offline
# experiments' BIO pair, webmodel.Pair (webmodel/pair.go), steps both
# ends of a connection on one goroutine and is held to the same rule.
blocklint:
	@bad=$$(grep -n 'io\.ReadFull\|\.Read(' internal/handshake/*.go internal/record/core.go \
		internal/ssl/nonblock.go internal/ssl/probes.go $(PAIRFILE) \
		| grep -v _test.go | grep -v 'lint:allow-read'; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "blocklint: blocking reads inside the sans-IO core (mark intentional non-transport ones with // lint:allow-read):"; \
		echo "$$bad"; exit 1; \
	fi

# There is one record driver: the handshake FSMs and NonBlockingConn
# drive a *record.Core and nothing else, and ssl.Conn is a loop around
# them that writes Outgoing (Layer.Flush) and, on ErrWouldBlock, reads
# the transport once (Layer.Fill). RecordConn or record.Layer in the
# handshake or nonblock.go, an FSM constructor taking anything but a
# *record.Core, a ReadRecord method on Layer, or a second transport
# .Read( in internal/record is a second, blocking route to the machine
# coming back: one whose steps and read spans are charged for the
# peer. The files named here must exist: a rename would otherwise
# switch the check off in silence.
DRIVERFILES = internal/record/record.go internal/ssl/nonblock.go internal/handshake/fsm.go
driverlint:
	@for f in $(DRIVERFILES); do \
		test -f $$f || { echo "driverlint: $$f does not exist (renamed? update the Makefile)"; exit 1; }; \
	done
	@bad=$$(grep -nw 'RecordConn\|record\.Layer' internal/handshake/*.go internal/ssl/nonblock.go | grep -v '_test\.go:'; \
		grep -n '^func New\(Client\|Server\)FSM(' internal/handshake/*.go | grep -v '_test\.go:' | grep -v '(conn \*record\.Core,'; \
		grep -n '^func ([A-Za-z_]* \*\?Layer) ReadRecord(' internal/record/*.go | grep -v '_test\.go:'; \
		[ $$(grep -l '^func New\(Client\|Server\)FSM(conn \*record\.Core,' internal/handshake/*.go | grep -vc '_test\.go') -eq 2 ] \
			|| echo "no NewClientFSM/NewServerFSM taking a *record.Core"; \
		sites=$$(grep -n '\.Read(' internal/record/*.go | grep -v '_test\.go:'); \
		[ $$(echo "$$sites" | grep -c .) -le 1 ] || echo "$$sites"; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "driverlint: a second route from a transport to the handshake machine:"; \
		echo "$$bad"; exit 1; \
	fi

# There is one record path: Core.seal holds the only cipher.Encrypt(
# call of the record layer and Core.open the only cipher.Decrypt(, for
# blocking and sans-IO connections alike. A second call site is a
# second seal or open coming back. There is one record seal, too:
# Core.seal holds the module's only .AppendComputeCBC( call (the
# stitched MAC and cipher pass), which fig6 times there; a second call
# site is a second copy of the fragment seal coming back.
SEALFILE = internal/record/core.go
seallint:
	@test -f $(SEALFILE) || { echo "seallint: $(SEALFILE) does not exist (renamed? update the Makefile)"; exit 1; }
	@sites=$$(find . -name '*.go' -not -name '*_test.go' -not -path './.bench_build/*' | sort \
		| xargs awk '/^func /{ f = $$0 } /\.AppendComputeCBC\(/{ print FILENAME ":" FNR ": in " f }'); \
	if [ $$(echo "$$sites" | grep -c .) -ne 1 ] || ! echo "$$sites" | grep -q '^\./$(SEALFILE):.*func (c \*Core) seal('; then \
		echo "seallint: want exactly one .AppendComputeCBC( call site in non-test Go, in $(SEALFILE)'s Core.seal, found:"; \
		echo "$$sites"; exit 1; \
	fi
	@for call in 'cipher\.Encrypt(' 'cipher\.Decrypt('; do \
		sites=$$(grep -n "$$call" internal/record/*.go | grep -v _test.go); \
		if [ $$(echo "$$sites" | grep -c .) -ne 1 ]; then \
			echo "seallint: want exactly one $$call call site in non-test internal/record/*.go, found:"; \
			echo "$$sites"; exit 1; \
		fi; \
	done

# There is one transport write: Layer.Flush, which ssl.Conn calls
# after every call into the machine (and per window of a bulk write),
# so whatever the machine queued leaves in order, in one write. A
# second .Write( call site is a record written around what is queued —
# out of order on the wire, or one write per record coming back.
writelint:
	@sites=$$(grep -n '\.Write(' internal/record/*.go | grep -v _test.go); \
	if [ $$(echo "$$sites" | grep -c .) -ne 1 ]; then \
		echo "writelint: want exactly one transport .Write( call site in non-test internal/record/*.go, found:"; \
		echo "$$sites"; exit 1; \
	fi

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
# loops of aes and des under every block-cipher record (and, for aes on
# an AES-NI CPU, the Go entry points to the round instructions), the SHA-1
# and MD5 block functions under every MAC and handshake hash (and, for
# SHA-1, the Go entry point to SHA1RNDS4 on a CPU that has it), and the
# Go side of the stitched AES-CBC + SHA-1 loop under every AES-SHA
# record sealed on a CPU with both. An
# allocation in one comes back as garbage per multiplication or per
# record; a profiler or probe hook, a closure or an interface-typed
# value as a branch, a clock read or an indirect call inside the word
# loops. Those belong to the counting kernel and the profiled forms
# beside them (bn's mulAddWords, the */anatomy.go files).
# (montkernel.go's two non-escaping selector closures predate the
# closure rule and are not held to it.) The generated assembly,
# mont8_amd64.s, has no CALL, no jump and no label, except one loop: a
# label right after PCALIGN and jumps back to it. Every file named here
# must exist: a rename would otherwise switch its check off in silence.
SYMKERNELS = internal/aes/kernel.go internal/aes/aesni_amd64.go internal/des/kernel.go internal/sha1x/block.go internal/sha1x/block_amd64.go internal/md5x/block.go internal/aessha1/aessha1.go internal/aessha1/stitch_amd64.go
kernellint:
	@for f in internal/bn/montkernel.go internal/bn/mont8_amd64.go internal/bn/mont8_amd64.s $(SYMKERNELS); do \
		test -f $$f || { echo "kernellint: $$f does not exist (renamed? update the Makefile's kernel list)"; exit 1; }; \
	done
	@bad=$$(grep -n 'profEnter(\|make(\|new(' internal/bn/montkernel.go internal/bn/mont8_amd64.go $(SYMKERNELS); \
		grep -n 'func(\|perf\.\|probe\.\|interface' internal/bn/mont8_amd64.go $(SYMKERNELS); \
		awk '{ sub(/\/\/.*/, "") } /^[ \t]*$$/ { next } \
			/^[A-Za-z_][A-Za-z0-9_]*:/ { l = $$0; sub(/:.*/, "", l); \
				if (prev ~ /PCALIGN/) loop[l] = 1; else print FILENAME ":" NR ": label " l " not after PCALIGN"; } \
			$$1 ~ /^J/ && !loop[$$2] { print FILENAME ":" NR ": " $$0 } \
			$$1 == "CALL" { print FILENAME ":" NR ": " $$0 } \
			{ prev = $$0 }' internal/bn/mont8_amd64.s; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "kernellint: allocation, closure, interface, profiler hook or (mont8_amd64.s) branch, call or loop in a production kernel:"; \
		echo "$$bad"; exit 1; \
	fi

# One CPU feature table: internal/cpufeat holds the only CPUID
# instruction, and every kernel reads its bool from cpufeat.X86 (at
# construction, or per call in aessha1), so a form can be masked for
# the tests and the isa experiment. A CPUID in any other .s is a private
# feature stub coming back, and a HardwareRounds identifier the
# per-package bools the table replaced. Every file named here must
# exist.
CPUIDFILE = internal/cpufeat/cpufeat_amd64.s
cpuidlint:
	@test -f $(CPUIDFILE) || { echo "cpuidlint: $(CPUIDFILE) does not exist (renamed? update the Makefile)"; exit 1; }
	@grep -q 'CPUID' $(CPUIDFILE) || { echo "cpuidlint: $(CPUIDFILE) holds no CPUID"; exit 1; }
	@bad=$$(grep -rnE --include='*.s' --exclude-dir=.bench_build '^[^/]*\bCPUID\b' . | grep -v '^\./internal/cpufeat/'; \
		grep -rn --include='*.go' --exclude-dir=.bench_build -w 'HardwareRounds' .; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "cpuidlint: a CPUID outside internal/cpufeat, or a HardwareRounds identifier (read cpufeat.X86):"; \
		echo "$$bad"; exit 1; \
	fi

# mont8_amd64.s is generated by gen_mont8.go (go generate
# ./internal/bn): regenerate it into a temporary file and fail on any
# difference, so the committed kernel is always what the generator
# emits.
gencheck:
	@tmp=$$(mktemp); trap 'rm -f '"$$tmp" EXIT; \
	$(GO) run internal/bn/gen_mont8.go > $$tmp || exit 1; \
	if ! diff -u internal/bn/mont8_amd64.s $$tmp; then \
		echo "gencheck: internal/bn/mont8_amd64.s is not what internal/bn/gen_mont8.go generates (go generate ./internal/bn)"; \
		exit 1; \
	fi

# CBC dispatches once per record: suite's blockCipher holds the
# cipher, its direction and its chaining value, and the chaining loop
# lives in the cipher's EncryptCBC/DecryptCBC (kernellint's files). A
# single-block Encrypt( or Decrypt( call in suite.go is the per-block
# interface dispatch and the byte-wise XOR loop coming back — and, for
# aes on an AES-NI CPU, where the single-block path is itself one-block
# CBC from a zero chaining value, one kernel entry (and one load of
# every round key) per block. The file must exist: a rename would
# otherwise switch the check off in silence.
CBCFILE = internal/suite/suite.go
cbclint:
	@test -f $(CBCFILE) || { echo "cbclint: $(CBCFILE) does not exist (renamed? update the Makefile)"; exit 1; }
	@grep -q '\.EncryptCBC(' $(CBCFILE) && grep -q '\.DecryptCBC(' $(CBCFILE) \
		|| { echo "cbclint: $(CBCFILE) calls no EncryptCBC/DecryptCBC (moved? update the Makefile)"; exit 1; }
	@bad=$$(grep -n '\.Encrypt(\|\.Decrypt(' $(CBCFILE); exit 0); \
	if [ -n "$$bad" ]; then \
		echo "cbclint: $(CBCFILE) calls a single-block cipher entry point (the fused EncryptCBC/DecryptCBC is the only dispatch):"; \
		echo "$$bad"; exit 1; \
	fi

# The protocol layers know the observatory only as the probe spine:
# connections emit events, and whoever wires a server decides which
# observers listen. An import of a sink package from ssl, handshake or
# record would put the observatory back on the hot path (and link it
# into bench/'s client).
depslint:
	@bad=$$($(GO) list -deps ./internal/ssl ./internal/handshake ./internal/record \
		| grep -E '^sslperf/internal/(telemetry|lifecycle|history|debughttp|pathlen)$$'; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "depslint: the protocol layers import the observatory:"; \
		echo "$$bad"; exit 1; \
	fi

# Config.Observer is the one seam onto a connection's event stream:
# ssl builds each connection's bus, once, from the one sink its
# observer answers with (internal/ssl/probes.go). A probe.NewBus( call anywhere
# else in non-test Go is a second way onto the bus — a side door that
# watches a connection no observer was offered. The one other bus is
# fig6's (internal/core/exp_accel.go): it watches a record.Core the
# experiment built for itself, which belongs to no connection, to read
# the two-pass seal's own MAC and cipher events.
spinelint:
	@bad=$$(grep -rn --include='*.go' 'probe\.NewBus(' . \
		| grep -v '_test\.go:' | grep -v '^\./internal/probe/' | grep -v '^\./internal/ssl/probes\.go:' \
		| grep -v '^\./internal/core/exp_accel\.go:'; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "spinelint: a probe bus built outside internal/ssl/probes.go (Config.Observer is the one seam):"; \
		echo "$$bad"; exit 1; \
	fi

# One table of the paper's primitives: internal/pathlen/primitives.go
# builds each primitive's model trace (Tables 11 and 12) from the
# counting kernels, and every experiment and command reads the traces
# there. A TraceEncryptBlock(, TraceHash(, TraceKeystream( or
# TraceRSADecrypt( call in non-test Go outside the primitive packages
# and that file is a second copy of a trace coming back. The file must
# exist.
PRIMTABLE = internal/pathlen/primitives.go
tracelint:
	@test -f $(PRIMTABLE) || { echo "tracelint: $(PRIMTABLE) does not exist (renamed? update the Makefile)"; exit 1; }
	@bad=$$(grep -rnE --include='*.go' --exclude-dir=.bench_build 'Trace(EncryptBlock|Hash|Keystream|RSADecrypt)\(' . \
		| grep -v '_test\.go:' | grep -v '^\./internal/\(aes\|des\|rc4\|md5x\|sha1x\|bn\)/' \
		| grep -v '^\./$(PRIMTABLE):'; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "tracelint: a primitive's model trace built outside $(PRIMTABLE) (read pathlen.Primitives):"; \
		echo "$$bad"; exit 1; \
	fi

# Every probe.FailClass constant must carry a name row in the
# failClassInfo table and a case in the internal/ssl mapping test
# (TestClassifyTable), so a new failure class cannot ship without a
# canonical tag and a pinned example of what maps onto it. A class is
# decided where its error is made (a *probe.FailError), so the
# classifier, internal/ssl/failclass.go, reads no error text: an
# .Error() call or a strings. function there is message sniffing
# coming back. Every file named here must exist: a rename would
# otherwise switch its check off in silence.
FAILCLASSFILES = internal/probe/failclass.go internal/ssl/failclass.go internal/ssl/failclass_test.go
failclasslint:
	@for f in $(FAILCLASSFILES); do \
		test -f $$f || { echo "failclasslint: $$f does not exist (renamed? update the Makefile)"; exit 1; }; \
	done
	@bad=$$(grep -n '\.Error()\|strings\.' internal/ssl/failclass.go; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "failclasslint: internal/ssl/failclass.go reads error text (decide the class where the error is made, as a *probe.FailError):"; \
		echo "$$bad"; exit 1; \
	fi
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

# The handshake is one plan table per role (serverPlans, clientPlans):
# each row names what it reads, and the driver in the file below does
# every read. An .expect( or .readCCS( call in any other non-test
# internal/handshake file is a handler reading for itself again, where
# neither the plans nor TestIllegalTransitions can see it. The file
# must exist and hold both calls: a rename would otherwise switch the
# check off in silence.
FSMFILE = internal/handshake/fsm.go
fsmlint:
	@test -f $(FSMFILE) || { echo "fsmlint: $(FSMFILE) does not exist (renamed? update the Makefile)"; exit 1; }
	@grep -q '\.expect(' $(FSMFILE) && grep -q '\.readCCS(' $(FSMFILE) \
		|| { echo "fsmlint: $(FSMFILE) calls no .expect(/.readCCS( (moved? update the Makefile)"; exit 1; }
	@bad=$$(grep -n '\.expect(\|\.readCCS(' internal/handshake/*.go | grep -v '_test\.go:' | grep -v '^$(FSMFILE):'; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "fsmlint: a handshake read outside the plan driver $(FSMFILE):"; \
		echo "$$bad"; exit 1; \
	fi

# The offline experiments run on one pair, webmodel.Pair: a client and
# a server sans-IO connection stepped in turn on the calling goroutine,
# as ssltest steps its BIO pair, timing the server's calls alone. An
# ssl.Pipe( call or a go statement in non-test internal/core or
# internal/webmodel is a second, blocking transaction coming back: a
# client goroutine whose waits the server's steps would be charged
# for. The pair's file must exist (blocklint reads it too): a rename
# would otherwise switch both checks off in silence.
PAIRFILE = internal/webmodel/pair.go
pairlint:
	@test -f $(PAIRFILE) || { echo "pairlint: $(PAIRFILE) does not exist (renamed? update the Makefile)"; exit 1; }
	@bad=$$(grep -nE 'ssl\.Pipe\(|^[[:space:]]*go[[:space:]]' internal/core/*.go internal/webmodel/*.go \
		| grep -v '_test\.go:'; exit 0); \
	if [ -n "$$bad" ]; then \
		echo "pairlint: a pipe or a goroutine in the offline experiments (drive a webmodel.Pair):"; \
		echo "$$bad"; exit 1; \
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

# Refresh the committed raw results. The first line names the run: its
# UTC date, the Go toolchain, the CPU model — its name, and its family,
# model and stepping, which tell apart two hosts a hypervisor gives one
# generic name — and how many CPUs it had.
results:
	{ printf '# %s · %s · %s (%s) · nproc %s\n' "$$(date -u '+%Y-%m-%d %H:%M UTC')" "$$($(GO) version)" \
		"$$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -1)" \
		"$$(awk -F': *' '/^cpu family/ { f = $$2 } /^model[[:space:]]*:/ { m = $$2 } /^stepping/ { s = $$2; exit } \
			END { printf "family %s, model %s, stepping %s", f, m, s }' /proc/cpuinfo 2>/dev/null)" "$$(nproc)"; \
	  $(GO) run ./cmd/sslanatomy -experiment all -iterations 5; } > docs/RESULTS.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/banking -sessions 10
	$(GO) run ./examples/filetransfer -size 1048576
	$(GO) run ./examples/bulktransfer -size 1048576
	$(GO) run ./examples/webserver

clean:
	$(GO) clean ./...
