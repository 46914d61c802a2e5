#!/usr/bin/env bash
# The one command of BENCHMARK.json: builds the runner from source and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is the result as JSON
#   benchmark/run.sh [--seed N]
#       every workload: five fresh untraced child runs and one traced run each
#   benchmark/run.sh --selfcheck     the whole set twice, held to its own bounds
#   benchmark/run.sh --smoke         the whole set at n <= 300, in seconds
#
# Run it from the root of the checkout. The build goes to $CARGO_TARGET_DIR,
# or to benchmark/target when that is not set; traces and the self-check go
# to benchmark/out. See benchmark/README.md.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Two binaries from one source: only the traced one installs the counting
# allocator, so untraced numbers never pay for it. cargo reports on stderr,
# which leaves standard output to the runner.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --bins >&2

bin="$CARGO_TARGET_DIR/release/bgpbench"
case " $* " in
    *" --trace 1 "*) bin="$CARGO_TARGET_DIR/release/bgpbench-traced" ;;
esac
exec "$bin" --out "$here/out" "$@"
