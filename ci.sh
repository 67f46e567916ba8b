#!/usr/bin/env bash
# CI gate for the rankedenum workspace. Run from the repo root.
#
# Mirrors the tier-1 verification (`cargo build --release && cargo test -q`)
# and adds formatting, lints and bench compilation so regressions in any of
# them fail fast.

set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --workspace --release
run cargo test -q --workspace
# The acceptance benchmark (stackbench/, a package outside the workspace)
# imports the crates by path: its smoke test makes a signature change it
# depends on fail here rather than in the acceptance run.
run cargo test -q --offline --manifest-path stackbench/Cargo.toml
# RE_TRANSPORT selects the wire protocol every TcpClient negotiates on its
# first frame: the server suites run under both, so JSON-lines and binary
# framing stay byte-equivalent end to end.
run env RE_TRANSPORT=json cargo test -q -p re_server --test server_integration
run env RE_TRANSPORT=binary cargo test -q -p re_server --test server_integration
# Both front-ends (reactor, thread-per-connection), every scenario.
run env RE_TRANSPORT=json cargo test -q -p re_server --test reactor_integration
run env RE_TRANSPORT=binary cargo test -q -p re_server --test reactor_integration
run cargo test -q -p re_server --test transport_equivalence
# Fault injection against the live server; disconnect handling runs in the
# reactor's per-connection state machines: both protocols. (The suite builds
# its own serial and pooled servers, as `parallel_determinism`,
# `frontier_differential` and `wcoj_differential` build their own contexts:
# the workspace test step above already ran every thread-count leg.)
run env RE_TRANSPORT=json cargo test -q -p re_server --test chaos
run env RE_TRANSPORT=binary cargo test -q -p re_server --test chaos
# End to end at smoke scale; both examples exit non-zero on a failed check.
run env RE_SCALE=0.05 cargo run -q --release --example server_quickstart
run env RE_SCALE=0.05 cargo run -q --release --example explain_analyze
run cargo bench --workspace --no-run
# Nothing above may rewrite a tracked file.
run git diff --exit-code

echo
echo "ci.sh: all checks passed"
