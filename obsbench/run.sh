#!/usr/bin/env bash
# Build `dnsobs` (from the repository's workspace, with its profile) and
# `obsbench` (this package) in release mode, then run the benchmark.
#
#   obsbench/run.sh                      every workload, untraced then traced
#   obsbench/run.sh --repeat 5           ... five untraced runs each, with spreads
#   obsbench/run.sh --workload NAME --seed N --quick
#   obsbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                        one run, one JSON line (driver mode)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# One target directory for both builds, absolute so that cargo's own
# directory changes cannot move it.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p dns-observatory --bin dnsobs >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/obsbench" "$@"
