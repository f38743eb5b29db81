# Developer entry points. `make check` is the pre-commit gate: it runs
# the tier-1 build/test pass plus formatting, vet, the repo's own
# determinism analyzers (cmd/simlint), and the race detector over the
# packages whose concurrency/determinism guarantees matter most (the
# engine, the experiment worker pool and the stats primitives).

GO ?= go

.PHONY: all build test check fmt vet lint race equiv bench sweep mcheck soak loc reach

all: check

build:
	$(GO) build ./...

# test also runs internal/noc's per-layer benchmark for one iteration
# per case, so the table (3 models x 2 sizes x 3 loads) cannot rot
# between the PRs that quote it.
test:
	$(GO) test ./...
	$(GO) test -run '^$$' -bench NoC -benchtime 1x ./internal/noc

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs the in-tree analyzers (internal/lint), all of them every
# time: wall-clock reads, global math/rand draws and map iteration in
# the internal/ packages, and hot-path allocations against the
# committed hotalloc.allow worklist.
lint:
	$(GO) run ./cmd/simlint

# race covers the goroutines that remain: the experiment worker pool
# (exp.ExecuteAll, the only concurrency beside the engine) and the
# engine/stats/fault packages it drives, and finishes with two
# end-to-end parallel sweeps under the detector: the figure grid and
# the stream-bench ablation, which goes through the same pool. GOMAXPROCS is forced up so the workers really
# interleave even on small CI hosts. The random-machine rig is skipped
# here: it runs on one goroutine and would take 40 s under the detector.
race:
	$(GO) test -race -skip TestRandomMachines ./internal/sim/... ./internal/stats/... \
		./internal/fault/... ./internal/exp/...
	GOMAXPROCS=4 $(GO) run -race ./cmd/sweep -quick -exp fig4 -sizes 2,4 -jobs 4 >/dev/null
	GOMAXPROCS=4 $(GO) run -race ./cmd/sweep -exp bestworst -jobs 4 >/dev/null

# equiv holds the scheduled run to the naive reference schedule at the
# sizes the unit matrices (n <= 4) stop short of: mcsim built once, then
# -json stdout with and without -noleap compared byte for byte on the
# four BENCHMARK.json pins, the mesh at n64 and under MESI with every
# link fault (the other two mesh rows are WTI and fault-free), a 2-way
# run (the core's
# line window skips LRU stamps; it sleeps in a spin only 347 times), a
# 4-way arch1 water that sleeps in spins 2,945 times over 387,509 cycles
# (a slept spin's counted hits stamp no line: the last period, executed,
# must leave every stamp where the naive core does), a fault plan
# carrying every directive, bankstall included, one with 200-cycle bank
# stalls (the row whose wakes lie 64 and more cycles
# ahead, past the engine's 64-bucket wheel), the runs
# that lean on the cores' run-ahead and spin sleeps: a spin-dominated
# arch1 water (14.7 M instructions in 2.7 Mcyc), arch1 ocean at n64
# (1.62 Mcyc; 96% of its instructions retire in spin sleeps) and WTU on
# the bus (the empty-write-buffer rule of DataCache.Hit, the bus's
# MinTransit), and two stream machines, whose CPUs sleep through their
# think time (the unit matrices stop at n = 2) — about 30 s.
# Water/WB/arch1/n64 stays out: even at -mols 1 -steps 1 its -noleap run
# takes 40 s. The EQUIV_TRACE_RUNS also compare the -obs-trace and
# -obs-csv files: arch1 machines at n16 with many overlapping directory
# transactions, whose trace lanes are placed as each span closes. The
# EQUIV_PINS, the four BENCHMARK.json pins, also compare -v's text with
# stderr's host-side engine: line left out: -json carries neither the
# per-bank counters nor the NoC's inject stalls, which are what a change
# to when a bank node ticks could move (these runs add about 17 s).
EQUIV_PINS := \
	"-bench ocean -protocol wti -cpus 4 -rows 32 -iters 32" \
	"-bench water -protocol wb -cpus 16 -mols 6 -steps 4" \
	"-bench ocean -protocol wti -cpus 64 -rows 4 -iters 2" \
	"-bench ocean -protocol wti -cpus 16 -noc mesh -rows 8 -iters 4"
EQUIV_RUNS := $(EQUIV_PINS) \
	"-noc mesh -cpus 64 -rows 4 -iters 2" \
	"-bench water -protocol wb -cpus 16 -noc mesh -mols 2 -steps 1 -fault drop=1e-3,delay=1e-3:8,dup=1e-3,seed=42" \
	"-bench water -protocol wb -cpus 8 -ways 2 -mols 4 -steps 2" \
	"-bench water -protocol wb -arch 1 -cpus 16 -ways 4 -mols 2 -steps 1" \
	"-cpus 8 -fault drop=1e-3,delay=1e-3:8,dup=1e-3,bankstall=0.005:12,seed=42" \
	"-cpus 8 -fault bankstall=0.01:200,seed=5" \
	"-bench water -protocol wb -arch 1 -cpus 32 -mols 2 -steps 1" \
	"-bench ocean -protocol wb -arch 1 -cpus 64 -rows 1 -iters 1" \
	"-bench ocean -protocol wtu -cpus 8 -noc bus" \
	"-bench hotspot -protocol moesi -cpus 16" \
	"-bench prodcons -protocol wtu -cpus 64"
EQUIV_TRACE_RUNS := \
	"-bench ocean -protocol wti -arch 1 -cpus 16 -rows 2 -iters 2" \
	"-bench water -protocol moesi -arch 1 -cpus 16 -mols 2 -steps 1"
equiv:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/mcsim" ./cmd/mcsim || exit 1; \
	for run in $(EQUIV_RUNS); do \
		echo "equiv: mcsim $$run"; \
		"$$d/mcsim" $$run -json >"$$d/scheduled.json" 2>"$$d/err" && \
		"$$d/mcsim" $$run -json -noleap >"$$d/naive.json" 2>>"$$d/err" && \
		cmp "$$d/scheduled.json" "$$d/naive.json" || \
			{ cat "$$d/err"; echo "equiv: scheduled and -noleap differ: mcsim $$run"; exit 1; }; \
	done; \
	for run in $(EQUIV_TRACE_RUNS); do \
		echo "equiv: mcsim $$run -obs-trace -obs-csv"; \
		for s in scheduled naive; do \
			leap=; [ $$s = naive ] && leap=-noleap; \
			"$$d/mcsim" $$run $$leap -json -obs-interval 500 -obs-trace "$$d/$$s.trace" \
				-obs-csv "$$d/$$s.csv" >"$$d/$$s.json" 2>>"$$d/err" || { cat "$$d/err"; exit 1; }; \
		done; \
		for f in json trace csv; do \
			cmp "$$d/scheduled.$$f" "$$d/naive.$$f" || \
				{ echo "equiv: scheduled and -noleap $$f differ: mcsim $$run"; exit 1; }; \
		done; \
	done; \
	for run in $(EQUIV_PINS); do \
		echo "equiv: mcsim $$run -v"; \
		for s in scheduled naive; do \
			leap=; [ $$s = naive ] && leap=-noleap; \
			"$$d/mcsim" $$run $$leap -v >"$$d/$$s.v" 2>"$$d/err" || { cat "$$d/err"; exit 1; }; \
			grep -v '^engine: ' "$$d/err" >>"$$d/$$s.v"; \
		done; \
		cmp "$$d/scheduled.v" "$$d/naive.v" || \
			{ echo "equiv: scheduled and -noleap -v differ: mcsim $$run"; exit 1; }; \
	done

check: fmt vet lint build test race equiv

# loc prints the size figure CHANGES.md quotes per PR — lines of non-test
# Go outside benchmark/ and the lint fixtures' testdata/ — and fails
# above LOC_CEILING, so "end the round with fewer lines" is a gate (CI
# runs it), not a printed number. The ceiling is the count at the last
# PR that moved it, rounded up to the next 50: lower it when a PR
# shrinks the tree; raising it is a reviewed decision.
LOC_CEILING := 13800
loc:
	@n=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' \
		-exec cat {} + | wc -l); echo $$n; \
	if [ $$n -gt $(LOC_CEILING) ]; then \
		echo "make loc: $$n non-test Go lines, ceiling $(LOC_CEILING)"; exit 1; \
	fi

# reach lists every statement of internal/coherence that no test of the
# tier-1 suite executes: one coverage profile over every package's tests,
# a block counted as reached when any package reached it, each unreached
# block printed with its source. It fails on any that is not a panic(
# nor inside Validate, ParseProtocol or a String method: a protocol
# branch is reached by a test that checks it, or it goes. It re-runs the
# model checker (about 50 s in all on 2 vCPUs), so CI runs it in the
# modelcheck job, not in check.
reach:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) test -count=1 -coverpkg=./internal/coherence -coverprofile="$$d/cover" ./... >"$$d/log" 2>&1 || \
		{ cat "$$d/log"; exit 1; }; \
	awk 'NR > 1 { if (!($$1 in n)) { key[++m] = $$1; n[$$1] = $$2 } if ($$3 > 0) hit[$$1] = 1 } \
		END { for (i = 1; i <= m; i++) if (!(key[i] in hit)) unreached(key[i]); \
			printf "make reach: internal/coherence has %d unreached block(s) exempt, %d not\n", ok, bad; exit (bad > 0) } \
		function unreached(k,   a, s, e, f, ln, line, fn, text, first) { \
			split(k, a, /[:,]/); f = a[1]; sub(/^repro\//, "", f); split(a[2], s, "."); split(a[3], e, "."); \
			for (ln = 1; (getline line < f) > 0 && ln <= e[1]; ln++) { \
				if (line ~ /^func /) fn = line; \
				if (ln < s[1]) continue; \
				if (ln == e[1]) line = substr(line, 1, e[2] - 1); \
				if (ln == s[1]) line = substr(line, s[2]); \
				gsub(/^[ \t{}]+|[ \t{}]+$$/, "", line); \
				if (line == "" || line ~ /^\/\//) continue; \
				if (first == "") first = line; \
				text = text sprintf("\n  %s:%d: %s", f, ln, line) } \
			close(f); sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn); \
			if (n[k] == 1 && first ~ /^panic\(/ || fn ~ /^(Validate|ParseProtocol|String)$$/) { ok++; printf "exempt (%s):%s\n", fn, text } \
			else { bad++; printf "UNREACHED (%s):%s\n", fn, text } }' "$$d/cover"

# soak runs the nightly tier: the full fault campaign grid on real
# workloads (see internal/fault/soak_full_test.go) and the long tail of
# the random-machine rig (internal/exp/rig_test.go). The quick tiers are
# part of the ordinary `make test`.
soak:
	$(GO) test -tags soak ./internal/fault/ -run TestSoakFull -v
	$(GO) test -tags soak ./internal/exp/ -run TestRandomMachines -v

# mcheck exhaustively model-checks the default small scope for every
# row of coherence.Protocols, driving the real cache/directory code.
mcheck:
	$(GO) run ./cmd/mcheck -protocol all

# bench runs the repository benchmark (benchmark/, declared in
# BENCHMARK.json): every workload, end-to-end and per-layer metrics,
# exit 1 on any failed op.
bench:
	$(GO) run ./benchmark

sweep:
	$(GO) run ./cmd/sweep -quick
