#!/bin/sh
# End-to-end smoke with real binaries: a race-detector build of ddprof on a
# sample that spawns threads, the -backend and retired ddprofd flag checks,
# then ddprofd booted over a unix socket: a workload profiled remotely must
# save the profile its local twin saves (ddiff -binary). Run by `make smoke`
# (and `make check`).
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

# A retired backend is refused by flag validation (exit 2, naming the four
# registered ones) before any work and without a daemon.
code=0
"$dir/ddprof" -workload kmeans -backend hybrid >"$dir/retired.out" 2>"$dir/retired.err" || code=$?
if [ "$code" -ne 2 ] || [ -s "$dir/retired.out" ] ||
	! grep -q '(registered: hashtab, perfect, shadow, signature)' "$dir/retired.err"; then
	echo "ddprof smoke: -backend hybrid: exit $code, want 2 naming the registered backends:"
	cat "$dir/retired.err"
	exit 1
fi

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
"$dir/ddprofd" -listen "" -unix "$sock" -http "127.0.0.1:$port" \
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

# A remote session's profile against its local twin. Both use the exact
# store, so the daemon's worker count cannot make them differ.
"$dir/ddprof" -workload kmeans -scale 2 -backend perfect -remote "unix:$sock" \
	-format binary -o "$dir/remote.ddp" >"$dir/remote.out"
"$dir/ddprof" -workload kmeans -scale 2 -backend perfect \
	-format binary -o "$dir/local.ddp" >"$dir/local.out"
"$dir/ddiff" -binary "$dir/remote.ddp" "$dir/local.ddp" >"$dir/profiles.diff" || {
	echo "ddprofd smoke: remote profile differs from the local one:"
	cat "$dir/profiles.diff"
	exit 1
}
grep -q "profiles are identical" "$dir/profiles.diff"

echo "ddprofd smoke: OK"
