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
# baselines), has its own line and is not in internal's.
loc:
	@for d in . bench cmd examples internal internal/exp; do \
		opt=; [ $$d = . ] && opt='-maxdepth 1'; [ $$d = internal ] && opt='-path internal/exp -prune -o'; \
		printf '%-12s %6d\n' $$d $$(find $$d $$opt -name '*.go' ! -name '*_test.go' -print | xargs wc -l | tail -1 | awk '{print $$1}'); \
	done
	@printf '%-12s %6d\n' total $$(find . -name '*.go' ! -name '*_test.go' | xargs wc -l | tail -1 | awk '{print $$1}')

# Short fuzz pass over the hardened decoders (trace, framing, server), the
# slab trace encoder against its reference, the dependence-set fast-update
# API the instance cache relies on and the shard merge the pipelines' merge
# stage runs (FuzzSetMergeEquivalence guards production: core's merge is
# dep.MergeShards), the engine's two store arms against each other and its
# run kernel (ProcessRun, which folds adjacent duplicate reads) against one
# Process call per event, on point streams over a signature and over the
# perfect table, with and without the race check, the MT pipeline's
# batch seam against its per-event one, the
# closed store-spec set (sig.OpenStore: signature, signature:slots=N up to
# sig.MaxSlots, perfect) every -backend, -slots and session handshake goes
# through, a worker's sharded signature against the unsharded one it stands
# for, and the perfect table against the two Go maps it replaced.
# Plain `go test` already replays each fuzzer's f.Add seeds and the corpora
# committed under testdata/fuzz/ (the wire-facing decoders, minilang, vm, the
# sharded signature, the perfect table). The
# trace corpora are generated: after a wire change,
# `go test ./internal/trace -run TestSeedCorpus -update` rewrites them.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzEngineArms -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzMTBatchEquivalence -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzBackendSpec -fuzztime=10s ./internal/sig/
	$(GO) test -run=^$$ -fuzz=FuzzShardedSignature -fuzztime=10s ./internal/sig/
	$(GO) test -run=^$$ -fuzz=FuzzPerfectStore -fuzztime=10s ./internal/sig/
	$(GO) test -run=^$$ -fuzz=FuzzReplay -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzRangeFrame -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzFrames -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzNextBatch -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzWriterEquivalence -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzHandshake -fuzztime=10s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzFastUpdate -fuzztime=10s ./internal/dep/
	$(GO) test -run=^$$ -fuzz=FuzzSetMergeEquivalence -fuzztime=10s ./internal/dep/
	$(GO) test -run=^$$ -fuzz=FuzzVMEquivalence -fuzztime=10s ./internal/vm/
