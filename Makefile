GO ?= go

.PHONY: all build vet test race check fmt-check fuzz smoke bench loc

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The whole tree under the race detector (internal/core is most of the time;
# internal/server's TestSessionFaults injects connection faults into sessions).
race:
	$(GO) test -race -count=1 ./...

# Formatting gate: fail with the offending diff if any file is not gofmt'd.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; gofmt -d .; exit 1; fi

# End-to-end smoke over the three binaries it builds (ddprof, ddprofd, ddiff):
# a -race ddprof on a sample that spawns threads, -backend hybrid (retired)
# and shadow (a ddexp stores baseline) on ddprof and ddprofd, and the
# retired ddprofd -readbuf/-decode-depth/-track-accuracy/-epoch-interval/
# -snapshot-interval/-snapshot-samples/-session-series/-q refused with exit 2
# before any work, then the daemon up on a unix socket and
# one remote profiling session whose saved profile ddiff -binary finds
# identical to the local run's (both -backend perfect).
# Exercises what the in-process tests cannot: real binaries, sockets.
smoke:
	./scripts/smoke_ddprofd.sh

# The full gate: what CI and pre-commit should run.
check: build vet fmt-check test race smoke

# The benchmark of record: every ddbench workload, each repetition verified
# (bench/README.md). Compare two commits as alternating pairs from two
# checkouts — `scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED0
# PAIRS SECONDS` prints every run, medians, quartiles and wins; the Go
# micro-benchmarks are developer tools, run them with plain `go test -bench`.
bench:
	$(GO) run ./bench/ddbench all

# Non-test Go lines per top-level package (. is the ddprof facade) and in all:
# the number a simplicity PR reports, before and after. internal/exp, the
# experiment code (the paper's tables and figures, the §III-B store
# baselines), and the oracles (ORACLES: the reference tree-walking
# interpreter, the test-program generator and the stride detector, which
# tests and the benchmark's ledger hold production to) have their own lines
# and are not in internal's.
ORACLES = internal/interp internal/testgen internal/stride
loc:
	@n() { find "$$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l; }; \
	printf '%-12s %6d\n' . $$(n . -maxdepth 1) bench $$(n bench) cmd $$(n cmd) examples $$(n examples) \
		internal $$(n internal \( -path internal/exp $(foreach o,$(ORACLES),-o -path $(o)) \) -prune -o) \
		internal/exp $$(n internal/exp) oracles $$(n $(ORACLES)) total $$(n .)

# Short fuzz pass: 10 s of every Fuzz* in the tree, each package's found with
# `go test -list`, so a new fuzzer is fuzzed without being listed here.
# Plain `go test` already replays each fuzzer's f.Add seeds and the corpora
# committed under testdata/fuzz/. The trace corpora are generated: after a
# wire change, `go test ./internal/trace -run TestSeedCorpus -update`
# rewrites them.
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { f = f " " $$1 } /^ok/ { if (f != "") print $$2 f; f = "" }' | \
	while read pkg fuzzers; do for f in $$fuzzers; do \
		echo "== $$f ($$pkg)"; \
		$(GO) test -run='^$$' -fuzz="^$$f\$$" -fuzztime=10s $$pkg || exit 1; \
	done; done
