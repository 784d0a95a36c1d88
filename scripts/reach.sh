#!/bin/sh
# reach.sh measures which library functions no production entry point
# runs, and checks that each of them has a verdict.
#
# It builds every production main (cmd/kollaps, cmd/kollaps-bench,
# cmd/topogen, bench and each examples/*) with coverage over the whole
# module, runs them all, and rewrites REACH.txt at the repository root:
# one line per library function (outside cmd/, bench/ and examples/)
# that no run reached, followed by the verdict that REACH.txt already
# gave it. Tests are not production callers, so they are not run.
#
# A verdict is "caller: <the production caller and the input that
# reaches it>" or "keep: <a fact that says why it stays>". A function
# that has neither goes. An unreached function without a verdict is
# written with the verdict "?" and the script exits 1, so the list can
# only shrink.
#
# Usage: scripts/reach.sh   (from anywhere; about two minutes on 2 cores)
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin" "$work/cov"

mains="cmd/kollaps cmd/kollaps-bench cmd/topogen bench"
for e in examples/*/; do
	mains="$mains ${e%/}"
done
for m in $mains; do
	go build -cover -coverpkg=./... -o "$work/bin/$(basename "$m")" "./$m"
done

GOCOVERDIR=$work/cov
export GOCOVERDIR
bin=$work/bin
quiet() { "$@" >/dev/null; }

quiet "$bin/kollaps-bench" -exp all -quick
quiet "$bin/kollaps-bench" -exp paper -out "$work/paper.json"
for w in tcp_throttle scalefree_flap cbr_mesh64 churn_soak; do
	quiet "$bin/bench" -seed 1 -workload "$w" -seconds 1 -trace 1
done
for e in examples/*/; do
	quiet "$bin/$(basename "$e")"
done
quiet "$bin/topogen" -kind scalefree -elements 50
quiet "$bin/topogen" -kind dumbbell -clients 3 -servers 2
for topo in scripts/testdata/reach.yaml scripts/testdata/reach.xml; do
	for cmd in validate collapse plan; do
		quiet "$bin/kollaps" "$cmd" -hosts 2 "$topo"
	done
	for d in broadcast delta tree gossip; do
		quiet "$bin/kollaps" run -hosts 2 -for 10s -dissem "$d" "$topo"
	done
done
quiet "$bin/kollaps" run -hosts 2 -for 10s -trace "$work/trace.json" -probe 1 scripts/testdata/reach.yaml

# covdata prints "repro/internal/graph/graph.go:193:  *Graph.RemoveLink  0.0%".
# The key drops the module, the file and the line, which move with every
# edit: "internal/graph.(*Graph).RemoveLink".
go tool covdata func -i "$work/cov" |
	awk '$NF == "0.0%" && $1 ~ /^repro\// {
		file = $1; sub(/:[0-9]+:$/, "", file); sub(/^repro\//, "", file)
		if (file ~ /^(cmd|bench|examples)\//) next
		pkg = file; sub(/\/[^\/]*$/, "", pkg)
		name = $2
		if (name ~ /^\*/) { sub(/^\*/, "", name); sub(/\./, ").", name); name = "(*" name }
		print pkg "." name
	}' | LC_ALL=C sort -u >"$work/unreached"

# Carry each verdict over from the current REACH.txt.
touch REACH.txt
grep -v '^#' REACH.txt | grep . >"$work/verdicts" || true
{
	echo "# Library functions that no production entry point reaches, each with"
	echo "# its verdict (\"caller:\" or \"keep:\"). Written by scripts/reach.sh; edit"
	echo "# only the verdicts. A line whose function is reached again or deleted"
	echo "# drops out on the next run."
	awk -F '\t' 'FILENAME == ARGV[1] { v[$1] = $2; next } { print $1 "\t" (($1 in v) ? v[$1] : "?") }' \
		"$work/verdicts" "$work/unreached"
} >"$work/REACH.txt"
mv "$work/REACH.txt" REACH.txt

missing=$(awk -F '\t' '$2 !~ /^(caller|keep): ./ && !/^#/ { print $1 }' REACH.txt)
if [ -n "$missing" ]; then
	echo "reach: unreached functions without a verdict (give each a caller or a reason in REACH.txt, or delete it):" >&2
	echo "$missing" >&2
	exit 1
fi
echo "reach: $(grep -vc '^#' REACH.txt) unreached functions, each with a verdict"
