#!/bin/sh
# End-to-end smoke with real binaries: a race-detector build of ddprof on a
# sample that spawns threads, the -backend and retired ddprofd flag checks,
# then the ddprofd live observatory — boot the daemon over a unix socket,
# profile a workload remotely while a -watch subscriber streams its epoch
# deltas, and hit the HTTP query API with a live diff. Run by `make smoke` (and `make check`).
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
for f in readbuf decode-depth track-accuracy; do
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
	-epoch-interval 2ms -q >"$dir/daemon.log" 2>&1 &
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

# Watch subscriber first: session 0 means "newest active, or the next one to
# arrive", so the watcher parks until the profiling session below begins.
"$dir/ddprof" -watch -remote "unix:$sock" -format binary -o "$dir/watched.ddp" \
	>"$dir/watch.out" 2>"$dir/watch.err" &
wpid=$!
sleep 0.3

# The profiled session the watcher observes.
"$dir/ddprof" -workload kmeans -scale 2 -remote "unix:$sock" -format binary \
	-o "$dir/direct.ddp" >"$dir/direct.out"

if ! wait "$wpid"; then
	echo "ddprofd smoke: watch failed:"
	cat "$dir/watch.err"
	exit 1
fi
frames=$(grep -c "^# epoch" "$dir/watch.err" || true)
[ "$frames" -ge 2 ] || {
	echo "ddprofd smoke: watcher saw $frames delta frames at -epoch-interval 2ms, want at least 2:"
	cat "$dir/watch.err"
	exit 1
}

# The folded delta stream must reconstruct the session's exact profile.
"$dir/ddiff" -binary "$dir/watched.ddp" "$dir/direct.ddp" >"$dir/fold.diff" || {
	echo "ddprofd smoke: folded watch profile differs from the session profile:"
	cat "$dir/fold.diff"
	exit 1
}

# Live HTTP diff: the session's own saved profile must be identical to the
# retained live session (watcher was session 1, the profile run session 2).
"$dir/ddiff" -http "http://127.0.0.1:$port/sessions/2" "$dir/direct.ddp" >"$dir/live.diff" || {
	echo "ddprofd smoke: live HTTP diff against session 2 not identical:"
	cat "$dir/live.diff"
	exit 1
}
grep -q "profiles are identical" "$dir/live.diff"

echo "ddprofd smoke: OK ($frames delta frames)"
