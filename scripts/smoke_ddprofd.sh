#!/bin/sh
# End-to-end smoke with real binaries: a race-detector build of ddprof on a
# sample that spawns threads, the -backend and retired ddprofd flag checks,
# then ddprofd booted over a unix socket: a workload profiled remotely must
# save the profile its local twin saves (ddiff), over the exact store
# and over a signature tight enough to collide, where -slots must name one
# signature whatever the mode or the daemon's worker count. Run by
# `make smoke` (and `make check`).
set -eu

cd "$(dirname "$0")/.."
dir=$(mktemp -d)
dpid=""
cleanup() {
	[ -n "$dpid" ] && kill "$dpid" 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT INT TERM

go build -o "$dir/ddprofd" ./cmd/ddprofd
go build -o "$dir/ddprof" ./cmd/ddprof
go build -o "$dir/ddiff" ./cmd/ddiff

# A target that spawns threads under the default -mode serial: ddprof must
# derive -mode mt (the serial engine takes one goroutine's events only), and
# the race detector must stay silent.
go build -race -o "$dir/ddprof-race" ./cmd/ddprof
"$dir/ddprof-race" -file examples/programs/pipeline.ml -summary \
	>"$dir/race.out" 2>"$dir/race.err" || {
	echo "ddprof smoke: -race run of pipeline.ml failed:"
	cat "$dir/race.err"
	exit 1
}
grep -q "forcing -mode mt" "$dir/race.err" || {
	echo "ddprof smoke: pipeline.ml did not run under -mode mt:"
	cat "$dir/race.err"
	exit 1
}

# A retired store and a §III-B baseline are refused by -backend validation
# before any work: exit 2, nothing on stdout, the three store forms named.
# (ddprofd's listeners are empty: one that took the spec would exit 2 too,
# but without naming the forms.)
refused() {
	what=$1
	shift
	code=0
	"$@" >"$dir/retired.out" 2>"$dir/retired.err" || code=$?
	if [ "$code" -ne 2 ] || [ -s "$dir/retired.out" ] ||
		! grep -q '(want signature, signature:slots=N (k/m/g suffixes) or perfect)' "$dir/retired.err"; then
		echo "smoke: $what: exit $code, want 2 naming the three store forms:"
		cat "$dir/retired.err"
		exit 1
	fi
}
for b in hybrid shadow; do
	refused "ddprof -backend $b" "$dir/ddprof" -workload kmeans -backend "$b"
	refused "ddprofd -backend $b" "$dir/ddprofd" -listen "" -unix "" -backend "$b"
done

# Retired daemon knobs are refused by the flag parser: exit 2, naming the flag.
# (Both listeners empty: a daemon that accepted the flag exits without serving.)
for f in readbuf decode-depth track-accuracy epoch-interval \
	snapshot-interval snapshot-samples session-series q; do
	code=0
	"$dir/ddprofd" -listen "" -unix "" "-$f" 1 >"$dir/$f.out" 2>&1 || code=$?
	if [ "$code" -ne 2 ] || ! grep -q -- "-$f" "$dir/$f.out"; then
		echo "ddprofd smoke: -$f 1: exit $code, want 2 naming the flag:"
		cat "$dir/$f.out"
		exit 1
	fi
done

sock="$dir/dd.sock"
port=$((20000 + $$ % 20000))
"$dir/ddprofd" -listen "" -unix "$sock" -http "127.0.0.1:$port" -slots 1024 \
	-log-level warn >"$dir/daemon.log" 2>&1 &
dpid=$!

i=0
while [ ! -S "$sock" ]; do
	if ! kill -0 "$dpid" 2>/dev/null; then
		# Sandboxes without socket support are a skip, not a failure.
		if grep -q "listen" "$dir/daemon.log"; then
			echo "ddprofd smoke: SKIPPED (cannot listen in this environment)"
			exit 0
		fi
		echo "ddprofd smoke: daemon died at startup:"
		cat "$dir/daemon.log"
		exit 1
	fi
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "ddprofd smoke: socket never appeared"; exit 1; }
	sleep 0.1
done

# same NAME A B: profiles A and B must be identical (ddiff; both are DDP1, so
# it merge-joins them as streams).
same() {
	"$dir/ddiff" "$2" "$3" >"$dir/$1.diff" && grep -q "profiles are identical" "$dir/$1.diff" || {
		echo "ddprofd smoke: $1: the profiles differ:"
		cat "$dir/$1.diff"
		exit 1
	}
}

# A remote session's profile against its local twin over the exact store,
# which no signature size touches.
"$dir/ddprof" -workload kmeans -scale 2 -backend perfect -remote "unix:$sock" \
	-format binary -o "$dir/remote.ddp" >"$dir/remote.out"
"$dir/ddprof" -workload kmeans -scale 2 -backend perfect \
	-format binary -o "$dir/local.ddp" >"$dir/local.out"
same "remote perfect vs local" "$dir/remote.ddp" "$dir/local.ddp"

# Over a 1024-slot signature, which rotate's addresses overflow: a four-worker
# session of the daemon's default store, a local four-worker parallel run and
# a local serial run all profile the one signature -slots names, so the
# daemon's worker count and the mode cannot make them differ.
"$dir/ddprof" -workload rotate -scale 0.2 -workers 4 -remote "unix:$sock" \
	-format binary -o "$dir/remote-sig.ddp" >"$dir/remote-sig.out"
"$dir/ddprof" -workload rotate -scale 0.2 -slots 1024 \
	-format binary -o "$dir/serial-sig.ddp" >"$dir/serial-sig.out"
"$dir/ddprof" -workload rotate -scale 0.2 -mode parallel -workers 4 -slots 1024 \
	-format binary -o "$dir/parallel-sig.ddp" >"$dir/parallel-sig.out"
same "remote signature vs local serial" "$dir/remote-sig.ddp" "$dir/serial-sig.ddp"
same "local parallel vs serial signature" "$dir/parallel-sig.ddp" "$dir/serial-sig.ddp"

echo "ddprofd smoke: OK"
