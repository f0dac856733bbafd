#!/bin/sh
# Tier-1 CI gate for ls3df-rs: formatting, clippy, rustdoc with warnings
# denied, the token-aware repo lint, `cargo test --workspace` under
# LS3DF_THREADS=1 and under the default pool (every crate's and shim's
# unit tests, the lint fixture corpus and the whole integration suite),
# the feature legs that suite
# cannot cover (zero-alloc, mem-budget, obs-report [obs], obs-dist), the
# repo benchmark's unit tests + --smoke gate (bench-harness), the
# model crystal's `accuracy` bin (must exit 0), schedule exploration (cargo xtask schedules), and the Miri unsafe-core gate
# (cargo xtask miri — skips loudly when Miri is not installed, e.g. in
# this offline container). Step list: crates/xtask/src/ci.rs.
#
# Everything runs through `cargo xtask ci` (crates/xtask), which itself
# retries each cargo step with --offline when the registry is
# unreachable. The outer invocation is offline-safe too: all workspace
# dependencies are path crates (see shims/README.md), so building xtask
# never needs the network — we try the offline flag first and fall back
# to a plain invocation for cargo versions that reject it up front.
set -eu
cd "$(dirname "$0")"

if cargo --offline xtask ci; then
    exit 0
else
    status=$?
    # Distinguish "gate failed" from "cargo rejected --offline".
    if cargo --offline --version >/dev/null 2>&1; then
        exit "$status"
    fi
    exec cargo xtask ci
fi
