#!/usr/bin/env bash
# Same science? Byte-compare what two checkouts of this repository compute.
#
#   scripts/science-diff.sh PARENT_DIR CHANGE_DIR
#
# Builds `repro` on each side, into that side's own target/, runs both
# from scratch directories and `cmp`s
#   - `repro all --tiny` standard output;
#   - `repro profile --metrics-out` and `repro report --timeseries-out`
#     (`--events 3 --seed 7`) on BASELINE n=500, DENSE-CORE n=500 and
#     BASELINE n=2000;
#   - `repro fig4 --tiny` standard output at `--jobs` 1, 2 and 8.
# This is the check for a change that moves op counts on purpose, when
# `scripts/ab-bench.sh` can only print "fingerprints: DIFFER": figures,
# metrics and time series carry no op count, so they must not move. For
# a metrics file that did move it names the keys that differ (the file
# has one key per line), for any other output the first differing byte.
# It writes nothing into either checkout but target/.
#
#   scripts/science-diff.sh ../parent .
#   scripts/science-diff.sh . .              # what CI runs
#
# Exit code 0: every output is identical; 1: one differs, or a build or a
# run failed; 2: bad arguments.
set -euo pipefail

if [ "$#" -ne 2 ] || ! [ -d "$1" ] || ! [ -d "$2" ]; then
    sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
names=(parent change)
dirs=("$(cd "$1" && pwd)" "$(cd "$2" && pwd)")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for side in 0 1; do
    echo "science-diff: building ${names[$side]} (${dirs[$side]})" >&2
    (cd "${dirs[$side]}" && CARGO_TARGET_DIR="${dirs[$side]}/target" \
        cargo build --release --offline -p bgpscale-experiments --bin repro) 2>"$tmp/build.err" \
        || { tail -n 20 "$tmp/build.err" >&2; exit 1; }
    mkdir "$tmp/${names[$side]}"
done

bad=0
# compare <output name> <repro args…>: runs both sides; the output is the
# file <output name> if the run wrote one, else its standard output.
# Exit code 1 is an answer (`all --tiny` fails scale-dependent claims), so
# it is compared, not refused.
compare() {
    local out=$1 side code keys codes=()
    shift
    for side in 0 1; do
        code=0
        (cd "$tmp/${names[$side]}" && "${dirs[$side]}/target/release/repro" "$@" \
            >"$out.stdout" 2>"$out.err") || code=$?
        if [ "$code" -gt 1 ]; then
            echo "science-diff: ${names[$side]}: repro $* exited $code" >&2
            tail -n 5 "$tmp/${names[$side]}/$out.err" >&2
            bad=1
            return
        fi
        codes+=("$code")
        [ -f "$tmp/${names[$side]}/$out" ] || mv "$tmp/${names[$side]}/$out.stdout" "$tmp/${names[$side]}/$out"
    done
    if [ "${codes[0]}" -ne "${codes[1]}" ]; then
        echo "DIFFER  $out: exit code ${codes[0]} -> ${codes[1]}"
        bad=1
    elif cmp -s "$tmp/parent/$out" "$tmp/change/$out"; then
        echo "same    $out ($(wc -c <"$tmp/change/$out") bytes, exit ${codes[0]})"
    else
        case $out in
        metrics-*.json)
            # One key per line: name every key whose line differs, so a
            # purposeful move can be held against the list it announced.
            keys=$(comm -3 <(sort "$tmp/parent/$out") <(sort "$tmp/change/$out") \
                | cut -d'"' -f2 | sort -u | paste -sd' ' -)
            echo "DIFFER  $out: keys $keys"
            ;;
        *)
            echo "DIFFER  $out: $(cmp "$tmp/parent/$out" "$tmp/change/$out" 2>&1 || true)"
            ;;
        esac
        bad=1
    fi
}

compare all-tiny.txt all --tiny
for cell in BASELINE:500 DENSE-CORE:500 BASELINE:2000; do
    scenario=${cell%:*} n=${cell#*:}
    at=(--tiny --scenario "$scenario" --sizes "$n" --events 3 --seed 7)
    compare "metrics-$scenario-$n.json" profile "${at[@]}" --metrics-out "metrics-$scenario-$n.json"
    compare "timeseries-$scenario-$n.json" report "${at[@]}" \
        --timeseries-out "timeseries-$scenario-$n.json"
done
for jobs in 1 2 8; do
    compare "fig4-tiny-jobs$jobs.txt" fig4 --tiny --jobs "$jobs"
done

[ "$bad" -eq 0 ] && echo "science-diff: identical" || echo "science-diff: NOT identical"
exit "$bad"
