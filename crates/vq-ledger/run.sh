#!/usr/bin/env bash
# The one command: build the ledger where it runs, then run it.
#
#   bash crates/vq-ledger/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash crates/vq-ledger/run.sh set --out <file> | traced --out <dir> | compare <a> <b>
#   bash crates/vq-ledger/run.sh test            # the crate's tests, same build route
#
# Run from the repository root. Two build routes, named in every result's
# fingerprint as `build_route`:
#
#   cargo           the registry crates resolve offline (a filled registry
#                   cache or a vendor directory): a plain cargo build.
#   offline-stubs   they do not (this sandbox has no registry): the same
#                   cargo build of the same, unmodified vq sources, with
#                   crates.io patched to the stand-ins under offline/.
#
# Nothing here reaches for the network: an unreachable registry costs
# cargo ten seconds per attempt, which a benchmark run cannot spare.
set -euo pipefail

here="crates/vq-ledger"
if [[ ! -f Cargo.toml || ! -f "$here/Cargo.toml" ]]; then
    echo "run.sh: run from the repository root (no Cargo.toml or $here/Cargo.toml here)" >&2
    exit 2
fi

cargo_args=(--offline)
if cargo metadata --format-version 1 --offline >/dev/null 2>&1; then
    route="cargo"
else
    # Sequential / lock-based stand-ins change what some numbers mean;
    # the route says which are in play.
    route="offline-stubs(rayon=scoped-threads,crossbeam=mutex+condvar,parking_lot=std-locks,serde+serde_json+rand+rand_distr+bytes=stand-ins)"
    for dir in "$here"/offline/*/; do
        name="$(basename "$dir")"
        # serde_derive is reached through serde's path dependency.
        [[ "$name" == serde_derive ]] && continue
        cargo_args+=(--config "patch.crates-io.$name.path=\"$dir\"")
    done
fi

# A lock file written against the stand-ins would pin versions no registry
# has; leave the checkout's lock state as it was found.
lock_backup=""
if [[ "$route" != cargo ]]; then
    if [[ -f Cargo.lock ]]; then
        mkdir -p "${CARGO_TARGET_DIR:-target}"
        lock_backup="${CARGO_TARGET_DIR:-target}/Cargo.lock.as-found"
        cp Cargo.lock "$lock_backup"
    fi
    restore_lock() {
        if [[ -n "$lock_backup" ]]; then
            mv "$lock_backup" Cargo.lock
        else
            rm -f Cargo.lock
        fi
    }
    trap restore_lock EXIT
fi

if [[ "${1:-}" == test ]]; then
    shift
    VQ_LEDGER_BUILD_ROUTE="$route" cargo test --release -p vq-ledger "${cargo_args[@]}" "$@"
    exit
fi

# Cargo replays every cached warning on every invocation; keep the log,
# show it only when the build fails.
log="${CARGO_TARGET_DIR:-target}/vq-ledger-build.log"
mkdir -p "$(dirname "$log")"
if ! cargo build --release -p vq-ledger "${cargo_args[@]}" >"$log" 2>&1; then
    cat "$log" >&2
    exit 1
fi
if [[ "$route" != cargo ]]; then
    restore_lock
    trap - EXIT
fi

binary="${CARGO_TARGET_DIR:-target}/release/ledger"
VQ_LEDGER_BUILD_ROUTE="$route" exec "$binary" "$@"
