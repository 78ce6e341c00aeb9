#!/usr/bin/env bash
# Reports what the three per-record kernels execute besides their own
# instructions: the engine's run kernel, core.(*Engine).ProcessRun, and the
# DDT2 codec's, trace.(*Writer).run and trace.(*Reader).points.
#
#   scripts/kernel_calls.sh [-v]
#
# From the compiler's assembly listing (go build -gcflags=-S) it prints, per
# kernel, its frame size, each CALL target with how many call sites it has,
# and the stack-slot loads and stores (instructions with an n(SP) operand, LEA
# excluded; a store when that operand is the destination; the argument spills
# around the stack-growth call are not counted). -v also lists
# every CALL and stack-slot instruction with its source line, so a path's
# share can be counted from the lines it runs. The script only reports: it
# gates nothing. A kernel's calls to runtime.panicIndex/panicBounds* are
# bounds-check failures, runtime.morestack* its stack-growth prologue and
# runtime.gcWriteBarrier* a pointer store while the collector marks; none runs
# on the common path. An indirect call (an interface method) is listed by the
# register it goes through.
set -euo pipefail

verbose=0
case "${1:-}" in
-v) verbose=1 ;;
"") ;;
*)
	sed -n '2,19p' "$0" >&2
	exit 2
	;;
esac
cd "$(dirname "$0")/.."

asm=$(mktemp)
trap 'rm -f "$asm"' EXIT
go build -gcflags=-S ./internal/core ./internal/trace >"$asm" 2>&1 || {
	cat "$asm" >&2
	exit 1
}

for fn in 'ddprof/internal/core.(*Engine).ProcessRun' \
	'ddprof/internal/trace.(*Writer).run' \
	'ddprof/internal/trace.(*Reader).points'; do
	awk -v fn="$fn" -v verbose="$verbose" '
	# A function listing starts with "NAME STEXT ..." in the first column
	# and runs until the next line that does not start with a tab.
	/^[^\t]/ { in_fn = (index($0, fn " STEXT") == 1); if (in_fn) { found = 1; frame = $0; sub(/.* locals=/, "", frame); sub(/ .*/, "", frame) } ; next }
	!in_fn { next }
	{
		# "\t0xOFF NNNNN (file:line)\tOP\tOPERANDS"
		n = split($0, f, "\t")
		if (n < 4) next
		where = f[2]; sub(/^[^(]*\(/, "", where); sub(/\)$/, "", where); sub(/.*\//, "", where)
		op = f[3]; args = f[4]
		if (op == "CALL") {
			target = args; sub(/\(SB\)$/, "", target)
			if (target !~ /\./) target = "indirect, through " target
			calls[target]++
			if (verbose) print "  call  " where "\t" target
			next
		}
		if (op == "TEXT") { decl = where; next }
		if (op ~ /^LEA/ || args !~ /[0-9]\(SP\)/) next
		# The argument spills around morestack: unnamed slots on the
		# declaration line.
		if (where == decl && args ~ /(^|, )[0-9]+\(SP\)/) next
		nops = split(args, o, ", ")
		if (o[nops] ~ /\(SP\)$/) { stores++; kind = "store" } else { loads++; kind = "load" }
		if (verbose) print "  " kind " " where "\t" op " " args
	}
	END {
		if (!found) { print fn ": not in the listing" > "/dev/stderr"; exit 1 }
		short = fn; sub(/^ddprof\/internal\//, "", short)
		bytes = 0
		for (i = 3; i <= length(frame); i++) bytes = bytes * 16 + index("0123456789abcdef", substr(frame, i, 1)) - 1
		printf "%s: frame %d B, stack-slot loads %d, stores %d\n", short, bytes, loads, stores
		for (t in calls) printf "  %3d  %s\n", calls[t], t | "sort -k2"
		close("sort -k2")
	}' "$asm"
done
