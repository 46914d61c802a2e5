#!/usr/bin/env bash
# Seed one fault and check that a command catches it.
#
#   scripts/mutate.sh FILE SED_SCRIPT PATTERN COMMAND...
#
# Applies SED_SCRIPT to FILE in place, runs COMMAND, restores FILE with
# `git checkout`, and succeeds only if the mutation applied, COMMAND
# exited 101 (a failed test, a refused build, a clippy error) and its
# output names PATTERN. Run it from the root of a clean checkout; CI's
# mutation steps do:
#
#   scripts/mutate.sh crates/core/src/sim.rs \
#       's/ + self\.inbox\.discard(node\.index(), slot);$/;/' \
#       a_message_queued_at_a_link_failure_is_discarded \
#       cargo test -q -p bgpscale-core --lib a_message_queued_at_a_link_failure_is_discarded
#
# Exit code 0: the fault was caught; 1: it no longer applies, or COMMAND
# let it through; 2: bad arguments.
set -uo pipefail

if [ "$#" -lt 4 ] || ! [ -f "$1" ]; then
    sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
file=$1 script=$2 pattern=$3
shift 3
sed -i "$script" "$file"
if git diff --quiet -- "$file"; then
    echo "the mutation no longer applies to $file: $script" >&2
    exit 1
fi
out=$("$@" 2>&1)
code=$?
git checkout -- "$file"
if [ "$code" -ne 101 ] || ! grep -q -- "$pattern" <<<"$out"; then
    echo "$out" >&2
    echo "expected '$*' to fail (101) naming $pattern, got $code" >&2
    exit 1
fi
