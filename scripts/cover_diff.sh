#!/usr/bin/env bash
# cover_diff.sh PARENT.cov CHANGE.cov prints every statement block that the
# first `go test -coverprofile` profile covers and the second does not, and
# exits 1 if there is any. A block is its file:line.col,line.col span; one
# listed more than once (profiles of several packages concatenated) is
# covered if any listing covers it. Compare profiles of the same non-test
# source: an edited file moves its spans.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 PARENT.cov CHANGE.cov" >&2; exit 2; }
awk '
FNR == 1 { file++ }
/^mode:/ { next }
$NF > 0 && file == 1 { parent[$1] = $2 }
$NF > 0 && file == 2 { change[$1] = 1 }
END {
	for (b in parent) if (!(b in change)) { print b " (" parent[b] " statements)" | "sort"; lost++ }
	close("sort")
	exit lost > 0
}' "$1" "$2"
