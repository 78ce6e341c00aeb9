GO ?= go

.PHONY: all build vet test race check fmt-check fuzz smoke bench bench-producer bench-merge bench-store bench-remote bench-queue bench-gate

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race pass over the concurrent subsystems. The full suite under -race is
# slow; the data races live in the pipelines, the queues, the daemon's
# session handling, both executors' spawned target threads and the event
# buffers they hand over, the facade's concurrent Profile calls (the root
# package), and the parallel tree merge over the dependence slabs, so that is
# where the detector earns its keep. internal/sig is on the list because its
# stores are handed between goroutines (worker start, address migration, the
# post-flush merge).
race:
	$(GO) test -race -count=1 . ./internal/core/ ./internal/dep/ ./internal/event/ ./internal/hashtab/ ./internal/interp/ ./internal/queue/ ./internal/server/ ./internal/shadow/ ./internal/sig/ ./internal/stride/ ./internal/trace/ ./internal/vm/

# Formatting gate: fail with the offending diff if any file is not gofmt'd.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; gofmt -d .; exit 1; fi

# End-to-end daemon smoke: daemon up on a unix socket, one remote profiling
# session with a live -watch subscriber folding its epoch-delta stream, and a
# live HTTP diff against the retained session. Exercises the whole wire path
# the in-process tests cannot: real binaries, real sockets, real HTTP.
smoke:
	./scripts/smoke_ddprofd.sh

# The full gate: what CI and pre-commit should run.
check: build vet fmt-check test race smoke

# Hot-path throughput gate: run BenchmarkHotPath and append the events/s
# numbers to BENCH_pipeline.json under BENCH_LABEL, so regressions are
# visible against every recorded run (the committed baseline included).
BENCH_LABEL ?= local
bench:
	$(GO) test -run=^$$ -bench=BenchmarkHotPath -benchtime=2s -count=3 . \
		| $(GO) run ./cmd/ddexp -bench-label $(BENCH_LABEL) benchjson

# Regression gate: fail if events/s drops more than 10% below the committed
# "hotpath" baseline run in BENCH_pipeline.json. -count=3 because the gate
# compares the best repeat per pipeline: the first iteration of a fresh
# process is routinely depressed by warm-up and frequency scaling. The
# baseline is machine-relative — a floor of attainable throughput on the
# machine that recorded it — so on new hardware re-record it first with
# `make bench BENCH_LABEL=hotpath`.
# Producer throughput: interpreter-vs-VM events/s across the three event-
# source families (raw production and no-op-sink delivery for each),
# recorded under the "producer" label. Re-record with this target after an
# intentional producer change, like `make bench BENCH_LABEL=hotpath` for
# the consumer side.
bench-producer:
	$(GO) test -run=^$$ -bench=BenchmarkProducer -benchtime=2s -count=3 . \
		| $(GO) run ./cmd/ddexp -bench-label producer benchjson

# Merge-stage throughput: serial fold vs parallel tree reduction across the
# workers × distinct-deps × overlap matrix, recorded under the "merge"
# label. Re-record with this target after an intentional merge change.
bench-merge:
	$(GO) test -run=^$$ '-bench=^BenchmarkMerge$$/' -benchtime=1s -count=3 . \
		| $(GO) run ./cmd/ddexp -bench-label merge benchjson

# Store-layer throughput: the same dense stream through a serial pipeline
# under every access-history backend, recorded under the "store" label.
# Re-record with this target after an intentional store/backend change.
bench-store:
	$(GO) test -run=^$$ '-bench=^BenchmarkStore$$/' -benchtime=2s -count=3 . \
		| $(GO) run ./cmd/ddexp -bench-label store benchjson

# Remote-ingest throughput: the daemon session path (loopback socket, framed
# DDT1, batched decode, bulk ingest) against the in-process twin, recorded
# under the "remote" label. Re-record with this target after an intentional
# ingest change. On a single-core machine the remote pairs carry the full
# client + socket + decode cost serialized onto one CPU; with spare cores the
# pipeline stages overlap and the remote/inproc gap shrinks.
bench-remote:
	$(GO) test -run=^$$ -bench=BenchmarkRemoteIngest -benchtime=2s -count=3 ./internal/server/ \
		| $(GO) run ./cmd/ddexp -bench-label remote benchjson

# MPSC ring cost per element by claim length (1 = Push, 512 = an executor
# batch landing in one ring), recorded under the "mpsc-claim" label.
bench-queue:
	$(GO) test -run=^$$ -bench=BenchmarkMPSCClaim -benchtime=2s -count=3 ./internal/queue/ \
		| $(GO) run ./cmd/ddexp -bench-label mpsc-claim benchjson

BENCH_BASELINE ?= hotpath
bench-gate:
	$(GO) test -run=^$$ -bench=BenchmarkHotPath -benchtime=2s -count=3 . \
		| $(GO) run ./cmd/ddexp -bench-compare $(BENCH_BASELINE) benchjson
	$(GO) test -run=^$$ '-bench=BenchmarkProducer/.*/vm' -benchtime=2s -count=3 . \
		| $(GO) run ./cmd/ddexp -bench-compare producer benchjson
	$(GO) test -run=^$$ '-bench=^BenchmarkMerge$$/.*/tree' -benchtime=1s -count=3 . \
		| $(GO) run ./cmd/ddexp -bench-compare merge benchjson
	$(GO) test -run=^$$ '-bench=^BenchmarkStore$$/' -benchtime=2s -count=3 . \
		| $(GO) run ./cmd/ddexp -bench-compare store benchjson
	$(GO) test -run=^$$ -bench=BenchmarkRemoteIngest -benchtime=2s -count=3 ./internal/server/ \
		| $(GO) run ./cmd/ddexp -bench-compare remote benchjson

# Short fuzz pass over the hardened decoders (trace, framing, server), the
# slab trace encoder against its reference, the dependence-set fast-update
# API the instance cache relies on, the engine's two store arms against each
# other on point streams, the MT pipeline's batch seam against its per-event
# one, and the backend spec parser every -backend flag and DDT1 handshake goes
# through.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzEngineArms -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzMTBatchEquivalence -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzBackendSpec -fuzztime=10s ./internal/sig/
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
