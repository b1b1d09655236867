#!/usr/bin/env bash
# One command for the whole benchmark: builds the runner (release, offline)
# and runs it. All arguments go to the runner:
#
#   benchmark/run.sh                         every workload: untraced, then traced
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                            one run; its result JSON is the last line
#   benchmark/run.sh --smoke                 n / 8, one second of turns, < 30 s
#   benchmark/run.sh --compare A.json B.json
#
# Works from any directory; writes only under benchmark/out (and the cargo
# target directory). Exits non-zero if the build fails or any operation failed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR is relative to the caller's directory, for cargo
# and for the path of the binary alike.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

GOFMM_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
GOFMM_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export GOFMM_BENCH_RUSTC GOFMM_BENCH_COMMIT

exec "$target/release/gofmm-benchmark" --out "$here/out" "$@"
