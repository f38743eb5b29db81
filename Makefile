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

# equiv runs every row of the pinned-run table (pins_test.go), the
# expensive ones too, and re-runs every mcsim row under -noleap, which
# must reproduce the same committed digest (testdata/digests.txt) —
# about 75 s on 2 vCPUs.
equiv:
	$(GO) test -tags equiv -count=1 -run TestPinnedRuns .

check: fmt vet lint build test race equiv

# loc prints the size figure CHANGES.md quotes per PR — lines of non-test
# Go outside benchmark/ and the lint fixtures' testdata/ — and fails
# above LOC_CEILING, so "end the round with fewer lines" is a gate (CI
# runs it), not a printed number. The ceiling is the count at the last
# PR that moved it, rounded up to the next 10: lower it when a PR
# shrinks the tree; raising it is a reviewed decision.
LOC_CEILING := 12920
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
