# Build/test entry points for the vSCC reproduction. `make check` is the
# tier-1 gate: gofmt + build + vet + lint + the fault-injection gate +
# race-enabled tests + a -benchtime=1x pass over every benchmark so
# bitrotted benchmark code fails fast.

GO ?= go

.PHONY: all fmt build vet lint test race bench bench-kernel bench-compare fault cover soak results loc check

all: check

# Fail listing any file gofmt would rewrite.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers, interprocedural over the module call graph
# — `go run ./cmd/vsccvet -rules` lists them; see DESIGN.md §7. CI runs
# the same suite with -json and archives the report.
lint:
	$(GO) run ./cmd/vsccvet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark: catches compile/runtime bitrot in
# benchmark-only code without paying for a real measurement.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The per-layer unit costs of the repository's benchmark (bench/README.md):
# kernel event shapes, PDES rounds, mem/scc/noc/pcie/host primitives,
# rcce/ircce/vscc messages, sched, taskrt, fault and trace. ≈ 95 s.
bench-kernel:
	$(GO) run ./bench -layers

# The repository's benchmark, every workload and layer driver (≈ 5 min),
# judged against bench/baseline.json with the bounds of BENCHMARK.json;
# fails on a `worse` row. CI's bench-regression job runs this target
# (non-blocking there: the baseline is from another box). With
# $GITHUB_STEP_SUMMARY set, the verdict table is also appended there.
bench-compare:
	$(GO) run ./bench -out new.json
	@verdict=$$($(GO) run ./bench -compare bench/baseline.json new.json); rc=$$?; \
	echo "$$verdict"; \
	if [ -n "$${GITHUB_STEP_SUMMARY:-}" ]; then \
		{ echo '### bench -compare bench/baseline.json new.json'; echo ''; \
		  echo '```'; echo "$$verdict"; echo '```'; } >>"$$GITHUB_STEP_SUMMARY"; \
	fi; exit $$rc

# Fault-injection gate: injector unit tests, the fault matrix, the
# recovery tests and the soak's 1x short schedule, all under the race
# detector, a short 16-point chaos campaign over both recovery
# harnesses, plus the coverage floors.
fault: cover
	$(GO) test -race -short ./internal/fault
	$(GO) test -race -short -run Fault ./internal/harness .
	$(GO) run ./cmd/chaos -seed 1 -n 16

# Coverage floors on the injector, the PCIe packet layer, the
# multi-tenant scheduler, the lint suite, the task runtime and the chaos
# engine (the packages carrying the fault/recovery, admission and
# analysis machinery). The sched profile merges the package tests with
# the root multi-tenant integration test. CI's fault job runs this
# target too, so the floors live here only.
COVERFLOOR = GO="$(GO)" ./scripts/coverfloor.sh
cover:
	@$(COVERFLOOR) ./internal/fault 80
	@$(COVERFLOOR) ./internal/pcie 80
	@$(COVERFLOOR) ./internal/sched 80 ./internal/sched .
	@$(COVERFLOOR) ./internal/lint 80
	@$(COVERFLOOR) ./internal/taskrt 80
	@COVERFLAGS=-short $(COVERFLOOR) ./internal/chaos 80

# Full 10k-transfer fault soak (the short 1x schedule runs in `fault`).
soak:
	$(GO) test -run FaultSoak -v ./internal/harness

# Regenerate results/*.txt from the tree: the four files the pingpong
# golden test checks in tier-1, then the Fig. 8 matrix (≈ 7 s) and the
# ablations (≈ 25 s), which are too slow for it. CI's nightly job runs
# this and fails on `git diff --exit-code results/`. fig7_npb_bt.txt is
# not regenerated (class C, ≈ 15 min): `go run ./cmd/npbbt`.
results:
	$(GO) test -count=1 -run '^TestGolden$$' ./cmd/pingpong -update
	$(GO) run ./cmd/npbbt -traffic 64 -iters 1 > results/fig8_traffic.txt
	$(GO) run ./cmd/ablate > results/ablations.txt

# Non-test Go lines per package, without bench/ and testdata/: the number
# the ROADMAP's line-count target and the simplicity PRs quote. With
# BASE=<revision> (make loc BASE=HEAD~1) each row is parent / change /
# delta. No gate.
loc:
	@./scripts/loc.sh $(BASE)

check: fmt build vet lint fault race bench
