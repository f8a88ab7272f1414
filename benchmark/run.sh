#!/usr/bin/env bash
# Build the benchmark (release) and run it from the repository root.
# Arguments are the benchmark's own: see `run.sh --help` or README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started in, which is this one.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
# One malloc arena: peak memory then reads what the program holds, not which
# arena glibc handed each shard thread (that alone moved it by a fifth).
export MALLOC_ARENA_MAX="${MALLOC_ARENA_MAX:-1}"
exec "$target/release/atos-benchmark" "$@"
