#!/usr/bin/env bash
# Paired A/B run of the repository benchmark: the checked-out tree (head)
# against a base revision, on one workload.
#
#   bash scripts/ab.sh --base HEAD~1 --workload train --pairs 6 --seconds 20
#
# Everything goes under ab/ in the build directory ($CARGO_TARGET_DIR
# when set, .bench_build otherwise, as for perfbench/run.sh). The base
# revision's files are unpacked there with git archive, so nothing is
# registered in the repository's .git. Each side's driver is built by that
# side's own perfbench/run.sh with a CARGO_TARGET_DIR of its own, with
# GOPROXY=off.
# Pair i runs both binaries with seed --seed+i, each from its own tree; the
# side that runs first alternates from pair to pair. The last stdout line
# of every run is kept as runs/SIDE.SEED.json.
#
# For every end-to-end metric of BENCHMARK.json (read, never written) the
# report gives both medians, head/base, each side's IQR (absolute and
# relative to its median) and how many pairs head won, with a verdict:
#   worse    head's median is worse than base's by more than the bound
#   better   every head run beat every base run, or head won at least 9 of
#            10 pairs, the medians differ by more than base's IQR and
#            neither IQR exceeds the bound times base's median
#   spread   a side's IQR exceeds the bound times base's median, so the
#            runs cannot tell the sides apart
#   same     none of these
# A worse or spread verdict, any run whose "correct" is false, or a larger
# failed share of operations on the head side ends the script with status 1.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

usage() {
	echo "usage: $0 --base REV --workload W [--pairs N] [--seconds S] [--seed N]" >&2
	exit 2
}
base="" workload="" pairs=4 seconds=20 seed=701
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case "$1" in
	--base) base="$2" ;;
	--workload) workload="$2" ;;
	--pairs) pairs="$2" ;;
	--seconds) seconds="$2" ;;
	--seed) seed="$2" ;;
	*) usage ;;
	esac
	shift 2
done
[ -n "$base" ] && [ -n "$workload" ] || usage
case "$pairs" in '' | *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage
rev="$(git rev-parse --verify "$base^{commit}")"

dir="${CARGO_TARGET_DIR:-.bench_build}/ab"
case "$dir" in /*) ;; *) dir="$root/$dir" ;; esac
unset CARGO_TARGET_DIR
export GOPROXY=off
rm -rf "$dir/base" "$dir/runs"
mkdir -p "$dir/base" "$dir/runs"
git archive "$rev" | tar -x -C "$dir/base"

# build SIDE TREE: build TREE's driver into $dir/SIDE-build through TREE's
# own run.sh. -h makes the freshly built driver print its usage and stop.
build() {
	rm -f "$dir/$1-build/perfbench"
	CARGO_TARGET_DIR="$dir/$1-build" bash "$2/perfbench/run.sh" -h > /dev/null 2>&1 || true
	[ -x "$dir/$1-build/perfbench" ] || {
		echo "ab: building the $1 driver failed; run CARGO_TARGET_DIR=$dir/$1-build bash $2/perfbench/run.sh -h" >&2
		exit 1
	}
}
echo "ab: building base ${rev:0:12} and head" >&2
build base "$dir/base"
build head "$root"

# runone SIDE TREE SEED: one run from TREE; its last stdout line goes to
# runs/SIDE.SEED.json.
runone() {
	local f="$dir/runs/$1.$3.json"
	(cd "$2" && "$dir/$1-build/perfbench" --workload "$workload" --seed "$3" --seconds "$seconds") |
		tail -n 1 > "$f"
	grep -q '"correct":true' "$f" || {
		echo "ab: $1 run at seed $3 is not correct: $(cat "$f")" >&2
		exit 1
	}
}
for ((i = 0; i < pairs; i++)); do
	s=$((seed + i))
	echo "ab: pair $((i + 1))/$pairs, seed $s" >&2
	if ((i % 2 == 0)); then
		runone base "$dir/base" "$s"
		runone head "$root" "$s"
	else
		runone head "$root" "$s"
		runone base "$dir/base" "$s"
	fi
done

# The report: one line per run ("side seed metric value" plus the failed
# share as the pseudo-metric "failed_share") after the bounds.
{
	awk '/"end_to_end"/ { in_e2e = 1; next }
		in_e2e && /^[[:space:]]*\]/ { in_e2e = 0 }
		in_e2e && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
		in_e2e && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
		in_e2e && /"bound"/ { gsub(/[",]/, "", $2); print "bound", name, better, $2 }' BENCHMARK.json
	for ((i = 0; i < pairs; i++)); do
		s=$((seed + i))
		for side in base head; do
			awk -v side="$side" -v seed="$s" '{
				line = $0
				while (match(line, /"[a-z0-9_.]+":\{"value":[-0-9.eE+]+/)) {
					m = substr(line, RSTART + 1, RLENGTH - 1)
					line = substr(line, RSTART + RLENGTH)
					split(m, kv, /":\{"value":/)
					print "run", side, seed, kv[1], kv[2]
				}
				att = $0; sub(/.*"attempted":/, "", att); sub(/,.*/, "", att)
				fl = $0; sub(/.*"failed":/, "", fl); sub(/,.*/, "", fl)
				print "run", side, seed, "failed_share", (att > 0 ? fl / att : 0)
			}' "$dir/runs/$side.$s.json"
		done
	done
} | awk -v workload="$workload" -v pairs="$pairs" '
function sortv(a, n,   i, j, t) {
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
}
# q: the p-quantile of the sorted a[1..n], linear between order statistics.
function q(a, n, p,   h, lo) {
	h = (n - 1) * p + 1
	lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
$1 == "bound" { nm++; name[nm] = $2; better[$2] = $3; bound[$2] = $4; next }
$1 == "run" { v[$2, $4, $3] = $5; if (!(($3) in seen)) { seen[$3] = 1; seeds[++ns] = $3 } }
END {
	printf "workload %s, %d pairs\n", workload, pairs
	printf "%-12s %12s %12s %7s %20s %20s %6s  %s\n", "metric", "base_med", "head_med", "ratio", "base_iqr (rel)", "head_iqr (rel)", "wins", "verdict"
	status = 0
	for (k = 1; k <= nm; k++) {
		m = name[k]
		wins = 0
		for (i = 1; i <= ns; i++) {
			b[i] = v["base", m, seeds[i]]; h[i] = v["head", m, seeds[i]]
			if ((better[m] == "lower" && h[i] < b[i]) || (better[m] == "higher" && h[i] > b[i])) wins++
		}
		sortv(b, ns); sortv(h, ns)
		bm = q(b, ns, 0.5); hm = q(h, ns, 0.5)
		biqr = q(b, ns, 0.75) - q(b, ns, 0.25); hiqr = q(h, ns, 0.75) - q(h, ns, 0.25)
		worse = (better[m] == "lower") ? hm - bm : bm - hm
		# apart: every head run beat every base run.
		apart = (better[m] == "lower") ? h[ns] < b[1] : h[1] > b[ns]
		if (bm != 0 && worse > bound[m] * (bm < 0 ? -bm : bm)) verdict = "worse"
		else if (apart) verdict = "better"
		else if (bm != 0 && (biqr > bound[m] * bm || hiqr > bound[m] * bm)) verdict = "spread"
		else if (wins >= 0.9 * ns && -worse > biqr) verdict = "better"
		else verdict = "same"
		if (verdict == "worse" || verdict == "spread") status = 1
		printf "%-12s %12.4g %12.4g %7.3f %11.4g (%5.1f%%) %11.4g (%5.1f%%) %3d/%-2d  %s\n", m, bm, hm,
			(bm != 0 ? hm / bm : 0), biqr, (bm != 0 ? 100 * biqr / bm : 0),
			hiqr, (hm != 0 ? 100 * hiqr / hm : 0), wins, ns, verdict
	}
	fb = 0; fh = 0
	for (i = 1; i <= ns; i++) { fb += v["base", "failed_share", seeds[i]]; fh += v["head", "failed_share", seeds[i]] }
	printf "failed share of operations: base %.4g, head %.4g\n", fb / ns, fh / ns
	if (fh > fb) status = 1
	exit status
}'
