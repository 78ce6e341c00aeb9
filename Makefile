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
# a -race ddprof on a sample that spawns threads, a retired -backend and the
# retired ddprofd -readbuf/-decode-depth/-track-accuracy refused with exit 2
# before any work, then the daemon up on a unix socket, one remote profiling
# session with a live -watch subscriber folding its (at least two) epoch-delta
# frames, and a live HTTP diff against the retained session.
# Exercises what the in-process tests cannot: real binaries, sockets, HTTP.
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
# the number a simplicity PR reports, before and after.
loc:
	@for d in . bench cmd examples internal; do \
		depth=; [ $$d = . ] && depth='-maxdepth 1'; \
		printf '%-9s %6d\n' $$d $$(find $$d $$depth -name '*.go' ! -name '*_test.go' | xargs wc -l | tail -1 | awk '{print $$1}'); \
	done
	@printf '%-9s %6d\n' total $$(find . -name '*.go' ! -name '*_test.go' | xargs wc -l | tail -1 | awk '{print $$1}')

# Short fuzz pass over the hardened decoders (trace, framing, server), the
# slab trace encoder against its reference, the dependence-set fast-update
# API the instance cache relies on and the shard merge the pipelines' merge
# stage runs (FuzzSetMergeEquivalence guards production: core's merge is
# dep.MergeShards), the engine's two store arms against each other on point
# streams, the MT pipeline's batch seam against its per-event one, the
# backend spec parser every -backend flag and session handshake goes through,
# and a worker's sharded signature against the unsharded one it stands for.
# Plain `go test` already replays each fuzzer's f.Add seeds and the corpora
# committed under testdata/fuzz/ (the wire-facing decoders, minilang, vm, the
# sharded signature). The
# trace corpora are generated: after a wire change,
# `go test ./internal/trace -run TestSeedCorpus -update` rewrites them.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzEngineArms -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzMTBatchEquivalence -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzBackendSpec -fuzztime=10s ./internal/sig/
	$(GO) test -run=^$$ -fuzz=FuzzShardedSignature -fuzztime=10s ./internal/sig/
	$(GO) test -run=^$$ -fuzz=FuzzReplay -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzRangeFrame -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzFrames -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzNextBatch -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzWriterEquivalence -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzDeltaFrame -fuzztime=10s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzHandshake -fuzztime=10s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzFastUpdate -fuzztime=10s ./internal/dep/
	$(GO) test -run=^$$ -fuzz=FuzzSetMergeEquivalence -fuzztime=10s ./internal/dep/
	$(GO) test -run=^$$ -fuzz=FuzzVMEquivalence -fuzztime=10s ./internal/vm/
