#!/usr/bin/env bash
# Lint, test and smoke this package. Root CI does not see a standalone
# workspace, so run this after touching anything under benchmark/.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
cargo test --release --offline
cargo run --release --offline --quiet -- --all --quick
