#!/usr/bin/env bash
# Build the benchmark and the xtsim-serve binary it drives, then run it.
#
#   benchmark/run.sh --workload pop-scale|full-mix|serve-warm \
#                    [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --smoke     # quick variants of all workloads, validated
#   benchmark/run.sh bless       # rewrite benchmark/expected/ from this commit
#
# Build output goes to stderr; the last line of stdout is the result JSON.
# Both builds share $CARGO_TARGET_DIR (default: the repository's target/).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p xtsim-serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/xtbench" "$@"
