#!/usr/bin/env bash
# Checks the reproduction record: runs `go run ./cmd/rtkbench -exp all -scale 1`
# and diffs its output against the raw-output block of REPRODUCTION.md, with
# the timings of both masked. Every count, size, Jaccard, ratio and answer in
# the tables is deterministic, so a difference means the record is stale.
# This script holds the one copy of the mask; run it from anywhere in the
# checkout:
#
#   bash .github/check-reproduction.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# mask turns every duration into T and squeezes runs of spaces, so the
# tables' alignment does not depend on how wide a time printed.
mask() { sed -E 's/[0-9.]+(ns|µs|ms|s)\b/T/g; s/[0-9]+m[0-9.]+s/T/g; s/ +/ /g'; }

record=$(mktemp)
run=$(mktemp)
trap 'rm -f "$record" "$run"' EXIT

# The raw block: the lines between the first fence after "## Raw output" and
# the fence that closes it.
awk '/^## Raw output/ { raw = 1; next }
     raw && /^```/    { if (inside) exit; inside = 1; next }
     inside' REPRODUCTION.md | mask >"$record"
if [ ! -s "$record" ]; then
	echo "REPRODUCTION.md has no raw-output block" >&2
	exit 1
fi
go run ./cmd/rtkbench -exp all -scale 1 | mask >"$run"
if ! diff -u "$record" "$run"; then
	echo "the tables differ from REPRODUCTION.md (timings masked): re-record REPRODUCTION.md and re-judge its verdicts" >&2
	exit 1
fi
echo "REPRODUCTION.md matches this commit's run ($(wc -l <"$run") lines, timings masked)"
