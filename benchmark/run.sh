#!/usr/bin/env bash
# Build the harness and run it with the arguments given (`test` as the first
# argument runs the harness's tests instead). The one entry point, because
# it decides which third-party crates the build uses (README.md,
# "Third-party crates"): the published ones when cargo has them on this
# machine, the stand-ins in standins/ when it has not. It never touches the
# network: `cargo fetch --manifest-path benchmark/Cargo.toml` on a machine
# with a registry is what makes the published crates available.
set -eu
here=$(dirname "$0")
flags=(--release --offline --quiet --manifest-path "$here/Cargo.toml")
# Resolving needs every dependency's source; it fails within milliseconds
# when the registry cache lacks one.
if ! cargo metadata --offline --format-version 1 --manifest-path "$here/Cargo.toml" >/dev/null 2>&1; then
    flags+=(--config "$here/standins/config.toml" --features standins)
fi
if [ "${1:-}" = test ]; then
    shift
    exec cargo test "${flags[@]}" "$@"
fi
exec cargo run "${flags[@]}" -- "$@"
