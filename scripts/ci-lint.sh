#!/usr/bin/env bash
# Workspace lint gate: formatting and clippy, both zero-tolerance.
#
# Usage: ./scripts/ci-lint.sh
# Exit codes: 0 clean, 1 violations.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "ci-lint: cargo fmt --check"
cargo fmt --all -- --check

echo "ci-lint: cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

# `feed` still lists crossbeam-channel, and `pubsub` and `core` list
# spsc, until an obsbench change rewrites its lock file; nothing may use
# them meanwhile.
echo "ci-lint: no code names crossbeam_channel or spsc:: outside crates/spsc and stubs"
if grep -rn --include='*.rs' -e 'crossbeam_channel' -e 'spsc::' . \
    --exclude-dir=target --exclude-dir=.git --exclude-dir=stubs \
    | grep -v '^\./crates/spsc/'; then
    echo "ci-lint: the lines above use a crate that is on its way out" >&2
    exit 1
fi

echo "ci-lint: OK"
