#!/bin/sh
# Smoke test: every workload at SF 0.01 — one set-up with the oracle gate,
# one pass — in a few seconds. Exits non-zero if a cell fails or diverges
# from the oracle. Extra arguments are passed on (e.g. --traced).
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path sipbench/Cargo.toml -- --smoke "$@"
