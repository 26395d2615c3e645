#!/usr/bin/env bash
# Local verification mirroring .github/workflows/ci.yml: format, lints,
# release build, tests (default dispatch + forced-scalar kernels), and
# every `repro <name> --check` gate.
#
#   scripts/verify.sh             needs the crates.io registry (or a vendor dir)
#   scripts/verify.sh --offline   no network: when the registry crates do not
#                                 resolve, builds against the stand-ins under
#                                 crates/vq-ledger/offline/ (the route
#                                 crates/vq-ledger/run.sh uses) and skips what
#                                 they cannot build — fmt, clippy, and every
#                                 test or bench target that needs proptest or
#                                 criterion (printed at the end)
set -euo pipefail
cd "$(dirname "$0")/.."

offline=0
[[ "${1:-}" == --offline ]] && offline=1

cargo_args=()
skipped=()
if [[ $offline == 1 ]]; then
    cargo_args=(--offline)
    if ! cargo metadata --format-version 1 --offline >/dev/null 2>&1; then
        echo "==> registry crates do not resolve offline: patching in crates/vq-ledger/offline/*"
        for dir in crates/vq-ledger/offline/*/; do
            name="$(basename "$dir")"
            # serde_derive is reached through serde's path dependency.
            [[ "$name" == serde_derive ]] && continue
            cargo_args+=(--config "patch.crates-io.$name.path=\"$dir\"")
        done
        # A lock file written against the stand-ins pins versions no
        # registry has; leave the checkout's lock state as it was found.
        lock_backup=""
        if [[ -f Cargo.lock ]]; then
            lock_backup="$(mktemp)"
            cp Cargo.lock "$lock_backup"
        fi
        trap 'if [[ -n "$lock_backup" ]]; then mv "$lock_backup" Cargo.lock; else rm -f Cargo.lock; fi' EXIT
        # The proptest and criterion stand-ins are empty: they let the
        # workspace resolve, not compile what uses them.
        for file in crates/*/tests/*.rs tests/*.rs; do
            grep -q '^use proptest' "$file" && skipped+=("${file%.rs}")
        done
        for file in crates/*/benches/*.rs; do
            skipped+=("${file%.rs}")
        done
    fi
else
    # Fail fast with a useful message when cargo cannot reach its registry
    # (common on air-gapped build hosts and misconfigured mirrors). Without
    # this preflight the first cargo invocation hangs for minutes and then
    # dies mid-lint with an opaque DNS/timeout error.
    echo "==> registry preflight (cargo metadata)"
    if ! timeout 60 cargo metadata --format-version 1 >/dev/null 2>/tmp/vq-verify-preflight.log; then
        echo "error: cargo cannot resolve the workspace dependency graph." >&2
        echo "       The crates.io registry (or the mirror configured in" >&2
        echo "       ~/.cargo/config.toml) is unreachable from this machine." >&2
        echo "       Run 'scripts/verify.sh --offline', or use a vendored build —" >&2
        echo "       see 'Offline / vendored builds' in README.md." >&2
        echo "       cargo said:" >&2
        sed 's/^/       | /' /tmp/vq-verify-preflight.log >&2 || true
        exit 1
    fi
fi

# cargo with the route's flags after the subcommand.
run_cargo() {
    local sub="$1"
    shift
    cargo "$sub" "${cargo_args[@]}" "$@"
}

repro() {
    echo "==> repro $*"
    run_cargo run --release -p vq-bench --bin repro -- "$@"
}

if [[ ${#skipped[@]} == 0 ]]; then
    echo "==> cargo fmt --all --check"
    cargo fmt --all --check

    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    run_cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> cargo build --release"
run_cargo build --release

if [[ ${#skipped[@]} == 0 ]]; then
    echo "==> cargo test -q"
    run_cargo test -q
    echo "==> VQ_FORCE_SCALAR=1 cargo test -q -p vq-core -p vq-index"
    VQ_FORCE_SCALAR=1 run_cargo test -q -p vq-core -p vq-index
else
    # Unit tests and doctests of every crate, then each integration test
    # file the stand-ins can compile, in the crate that owns it.
    echo "==> cargo test -q --workspace --lib --bins"
    run_cargo test -q --workspace --lib --bins
    echo "==> VQ_FORCE_SCALAR=1 cargo test -q -p vq-core -p vq-index --lib"
    VQ_FORCE_SCALAR=1 run_cargo test -q -p vq-core -p vq-index --lib
    echo "==> cargo test -q --workspace --doc"
    run_cargo test -q --workspace --doc
    for file in crates/*/tests/*.rs tests/*.rs; do
        [[ " ${skipped[*]} " == *" ${file%.rs} "* ]] && continue
        package="$(basename "$(dirname "$(dirname "$file")")")"
        [[ "$file" == tests/* ]] && package=vq
        echo "==> cargo test -q -p $package --test $(basename "$file" .rs)"
        run_cargo test -q -p "$package" --test "$(basename "$file" .rs)"
    done
    echo "==> bash crates/vq-ledger/run.sh test"
    bash crates/vq-ledger/run.sh test
fi

# The same gates as the CI `repro-smoke` matrix.
repro fig2 --check --scale 0.05
repro fig4 --check --scale 0.05
repro live --check
repro chaos --check --scale 0.5
repro chaos --check --scale 0.5 --transport tcp
repro heal --check --json --scale 0.5
repro heal --check --json --scale 0.5 --transport tcp
repro protocol --check
repro quantized --check
repro paradox --check
repro trace --check --json --scale 0.5
repro trace --check --json --scale 0.5 --transport tcp

if [[ ${#skipped[@]} -gt 0 ]]; then
    echo "skipped (no fmt/clippy; proptest and criterion are empty stand-ins offline):"
    printf '  %s\n' "${skipped[@]}"
fi
echo "OK"
