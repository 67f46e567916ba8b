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
# Broken, ambiguous or private intra-doc links fail here, so deleting a
# public item cannot leave a dangling link behind.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
run cargo build --workspace --release
run cargo test -q --workspace
# The acceptance benchmark (stackbench/, a package outside the workspace)
# imports the crates by path: its smoke test makes a signature change it
# depends on fail here rather than in the acceptance run.
run cargo test -q --offline --manifest-path stackbench/Cargo.toml
# The workspace test step above already ran every protocol and thread-count
# leg: `server_integration`, `reactor_integration` and `chaos` loop over
# both wire protocols themselves, as `chaos`, `parallel_determinism`,
# `frontier_differential` and `wcoj_differential` (generic join against
# the definition-level oracles) build their own serial and pooled legs.
# What stays is the byte-level equivalence of the two framings on its own
# line.
run cargo test -q -p re_server --test transport_equivalence
# End to end at smoke scale; both examples exit non-zero on a failed check.
run env RE_SCALE=0.05 cargo run -q --release --example server_quickstart
run env RE_SCALE=0.05 cargo run -q --release --example explain_analyze
run cargo bench --workspace --no-run
# `micro_core`'s two probes only print, so run them: `frontier_pop_push`
# drives the heap with the enumerators' own comparator and asserts the tie
# share it is named for, `frontier_build` reads the build's trace spans.
# All five lines must come out (about half a minute).
micro_core_probes() {
    local out
    out=$(cargo bench -q -p re_bench --bench micro_core) || return 1
    grep -E '^micro_core/frontier_(pop_push|build)/' <<<"$out"
    test "$(grep -c '^micro_core/frontier_pop_push/' <<<"$out")" = 2 &&
        test "$(grep -c '^micro_core/frontier_build/' <<<"$out")" = 3
}
run micro_core_probes
# Exactly one test is ignored (ROADMAP item 1's pin): a failing test
# cannot be silenced in passing.
run test "$(git grep -cE '^\s*#\[ignore' -- '*.rs' ':!vendor' | awk -F: '{n += $NF} END {print n + 0}')" = 1
# Neither retired twin grows back before its frozen name is deleted, nor
# do the parallel star kernels.
run test -z "$(git grep -nE 'Cascade|ThreadPerConn|serve_threaded|serve_connection|materialize_bags_with|new_ctx_with_kernel|connectivity_order|par_hash_join|par_project_distinct' -- crates src tests examples)"
# ROADMAP 8(d) ratchet: `.unwrap()` / `.expect(` lines above the first
# `#[cfg(test)]` of each file the network reaches may only go down. Lower
# the bound when one goes.
unwrap_ratchet() {
    local f n total=0
    for f in crates/server/src/*.rs crates/net/src/*.rs; do
        n=$(awk '/^#\[cfg\(test\)\]/{exit} /\.unwrap\(\)|\.expect\(/{c++} END{print c+0}' "$f")
        total=$((total + n))
    done
    echo "unwrap/expect lines outside tests: $total (bound 20)"
    test "$total" -le 20
}
run unwrap_ratchet
# Nothing above may rewrite a tracked file.
run git diff --exit-code

echo
echo "ci.sh: all checks passed"
