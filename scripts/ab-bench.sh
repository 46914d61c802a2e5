#!/usr/bin/env bash
# A/B one benchmark workload between two checkouts of this repository.
#
#   scripts/ab-bench.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [run.sh args…]
#
# Builds each side's benchmark/ once, into that side's own
# benchmark/target, then runs PAIRS alternating pairs of
#   benchmark/run.sh --workload WORKLOAD --seed <pair number> [run.sh args…]
# (parent first on odd pairs, change first on even ones, so drift of the
# host lands on both sides). It prints every pair, each side's median and
# quartiles per metric, the pairs the change won, and whether the two
# sides' fingerprints agree. It reads benchmark/ and BENCHMARK.json and
# edits neither.
#
#   scripts/ab-bench.sh ../parent . baseline_5k 10 --seconds 8 --trace 0
#   scripts/ab-bench.sh . . baseline_5k 1 --smoke        # what CI runs
#
# Exit code 0: every run was `correct` with `failed` 0; 1: one was not, or
# a run died; 2: bad arguments.
set -euo pipefail

if [ "$#" -lt 4 ] || ! [ "$4" -ge 1 ] 2>/dev/null; then
    sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
names=(parent change)
dirs=("$(cd "$1" && pwd)" "$(cd "$2" && pwd)")
workload=$3
pairs=$4
shift 4

for dir in "${dirs[@]}"; do
    [ -f "$dir/benchmark/run.sh" ] || { echo "ab-bench: no benchmark/run.sh under $dir" >&2; exit 2; }
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# One run of side $1 (0 parent, 1 change) with seed $2; the runner's
# standard output lands in $tmp/<side>.<seed>.
run_side() {
    local dir=${dirs[$1]} out="$tmp/${names[$1]}.$2"
    if ! (cd "$dir" && CARGO_TARGET_DIR="$dir/benchmark/target" \
            bash benchmark/run.sh --workload "$workload" --seed "$2" "${@:3}") >"$out" 2>"$out.err"; then
        echo "ab-bench: ${names[$1]} run with seed $2 exited non-zero" >&2
        tail -n 5 "$out.err" >&2
        bad=1
    fi
    if ! tail -n 1 "$out" | grep -q '"correct": true.*"failed": 0[,}]'; then
        echo "ab-bench: ${names[$1]} run with seed $2 is not correct with 0 failed:" >&2
        tail -n 1 "$out" >&2
        bad=1
    fi
}

for side in 0 1; do
    echo "ab-bench: building ${names[$side]} (${dirs[$side]})" >&2
    CARGO_TARGET_DIR="${dirs[$side]}/benchmark/target" cargo build --release --offline \
        --manifest-path "${dirs[$side]}/benchmark/Cargo.toml" --bins 2>"$tmp/build.err" \
        || { tail -n 20 "$tmp/build.err" >&2; exit 1; }
    [ "${dirs[0]}" = "${dirs[1]}" ] && break
done

bad=0
for pair in $(seq 1 "$pairs"); do
    first=$(((pair + 1) % 2))
    run_side "$first" "$pair" "$@"
    run_side $((1 - first)) "$pair" "$@"
    # pair <n> <metric> <parent> <change>, and the fingerprints.
    awk -v pair="$pair" -v first="${names[$first]}" -v rows="$tmp/rows" '
        FNR == 1 { side++ }
        $1 == "metric" { v[side, $2] = $3; if (side == 1) order[++n] = $2 }
        $1 == "fingerprint" { fp[side] = $3 }
        END {
            printf "pair %d (seed %d, %s first):", pair, pair, first
            for (i = 1; i <= n; i++) {
                m = order[i]; p = v[1, m]; c = v[2, m]
                printf "  %s %.6g -> %.6g (%+.1f %%)", m, p, c, p ? 100 * (c - p) / p : 0
                print pair, m, p, c >> rows
            }
            printf "  fingerprint %s %s\n", fp[1], fp[1] == fp[2] ? "same" : "-> " fp[2]
            print pair, "fingerprint", fp[1], fp[2] >> rows
        }' "$tmp/parent.$pair" "$tmp/change.$pair"
done

# Which way is better comes from BENCHMARK.json; a metric it does not
# name counts as lower-is-better.
awk -v pairs="$pairs" '
    function quantile(a, n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function sorted(side, m, out,    i, j, t, n) {
        n = 0
        for (i = 1; i <= pairs; i++) out[++n] = val[side, m, i] + 0
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
        return n
    }
    FNR == NR {
        if (match($0, /"name": "[^"]+"/)) {
            name = substr($0, RSTART + 9, RLENGTH - 10)
            if ($0 ~ /"better": "higher"/) higher[name] = 1
        }
        next
    }
    $2 == "fingerprint" { if ($3 != $4) differ++; next }
    {
        if (!($2 in seen)) { seen[$2] = 1; order[++nm] = $2 }
        val[1, $2, $1] = $3; val[2, $2, $1] = $4
        if ($2 in higher ? $4 > $3 : $4 < $3) won[$2]++
    }
    END {
        for (k = 1; k <= nm; k++) {
            m = order[k]
            printf "%s (%s is better): change won %d/%d pairs\n", m, m in higher ? "higher" : "lower", won[m], pairs
            for (side = 1; side <= 2; side++) {
                n = sorted(side, m, s)
                med[side] = quantile(s, n, 0.5)
                printf "  %-6s median %.6g  quartiles %.6g - %.6g\n", side == 1 ? "parent" : "change", med[side], quantile(s, n, 0.25), quantile(s, n, 0.75)
            }
            if (med[1]) printf "  median change %+.1f %%\n", 100 * (med[2] - med[1]) / med[1]
        }
        if (differ) printf "fingerprints: DIFFER in %d/%d pairs\n", differ, pairs
        else printf "fingerprints: match in all %d pairs\n", pairs
    }' "${dirs[1]}/BENCHMARK.json" "$tmp/rows"

exit "$bad"
