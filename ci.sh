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
# ROADMAP 16(c): the suites whose outcome depends on how the reactor, the
# workers and the test's own threads interleave run five more times each
# (about 7 s a round on two cores). Six runs instead of one: a race that
# fails one run in ten fails CI about half the time, not one time in ten.
scheduling_reruns() {
    local t i out
    for t in reactor_integration chaos shared_sessions server_integration; do
        for i in 1 2 3 4 5; do
            if ! out=$(cargo test -q -p re_server --test "$t" 2>&1); then
                echo "$out"
                echo "$t failed on rerun $i"
                return 1
            fi
        done
    done
}
run scheduling_reruns
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
# `micro_core`'s probes only print, so run them: `frontier_pop_push` and
# `frontier_replace_top` drive the heap with the enumerators' own
# comparator and assert the tie share they are named for, `frontier_build`
# reads the build's trace spans, `bag_build` times the 6-cycle's bags
# narrowed to their interfaces against full width, so the cost of the
# walk's de-duplication shows, and `ghd_race` builds the 6-cycle as a
# cyclic OPEN does, its decomposition racing the single bag, names the
# winner, and times the same plan's warm OPEN, which builds the recorded
# winner alone. All nine lines must come out, the race's with its warm
# OPEN field (about half a minute).
micro_core_probes() {
    local out
    out=$(cargo bench -q -p re_bench --bench micro_core) || return 1
    grep -E '^micro_core/(frontier_(pop_push|replace_top|build)|bag_build|ghd_race)/' <<<"$out"
    test "$(grep -c '^micro_core/frontier_pop_push/' <<<"$out")" = 2 &&
        test "$(grep -c '^micro_core/frontier_replace_top/' <<<"$out")" = 2 &&
        test "$(grep -c '^micro_core/frontier_build/' <<<"$out")" = 3 &&
        test "$(grep -c '^micro_core/bag_build/' <<<"$out")" = 1 &&
        test "$(grep -c '^micro_core/ghd_race/DBLP6cycle:.*; warm OPEN [0-9.]* ms ([0-9]* intersections' <<<"$out")" = 1
}
run micro_core_probes
# No test is ignored: a failing test cannot be silenced in passing.
run test "$(git grep -cE '^\s*#\[ignore' -- '*.rs' ':!vendor' | awk -F: '{n += $NF} END {print n + 0}')" = 0
# Neither retired twin grows back before its frozen name is deleted, nor
# do the parallel star kernels, nor the root's second copy of the advance
# or the star's hand-written merge cursor, nor lexi's own definition of the
# LEX order and the planner rule that worked around it, nor the two
# rankings that only restated SUM and PRODUCT, nor the hand-kept frontier
# byte ledger that sizes computed from capacities replaced, nor a second
# way to open a branch plan.
run test -z "$(git grep -nE 'Cascade|ThreadPerConn|serve_threaded|serve_connection|materialize_bags_with|new_ctx_with_kernel|connectivity_order|par_hash_join|par_project_distinct|last_emitted|heavy_cursor|lexi_serves|lex_attr_order|AvgRanking|SumProductRanking|frontier_alloc\(|frontier_release|frontier_live_bytes|open_shared<' -- crates src tests examples)"
# ROADMAP 8(c): every `unsafe` in `re_net` states what it relies on in a
# `// SAFETY:` comment directly above it.
net_unsafe_has_safety() {
    awk '
        /^[ \t]*\/\// { if ($0 ~ /SAFETY:/) safety = 1; next }
        /(^|[^A-Za-z_])unsafe([^A-Za-z_]|$)/ && !safety {
            print FILENAME ":" FNR ": unsafe without a SAFETY comment"; bad = 1
        }
        { safety = 0 }
        END { exit bad }
    ' crates/net/src/*.rs
}
run net_unsafe_has_safety
# The reactor's connection machine does no I/O: it names no socket,
# poller, wake pipe, job queue, server, failpoint or atomic, so everything
# it decides is reachable from its model test without a thread or a fd.
machine_is_sans_io() {
    ! grep -nE 'TcpStream|Poller|WakePipe|WorkQueue|RankedQueryServer|re_fault|Atomic[A-Za-z0-9_]*' \
        crates/server/src/reactor/conn.rs
}
run machine_is_sans_io
# ROADMAP 8(d) ratchet: `.unwrap()` / `.expect(` code lines (comments and
# doc examples excluded) above the first `#[cfg(test)]` of each file the
# network reaches may only go down. Lower the bound when one goes.
unwrap_ratchet() {
    local f n total=0
    for f in crates/server/src/*.rs crates/server/src/reactor/*.rs crates/net/src/*.rs; do
        n=$(awk '/^#\[cfg\(test\)\]/{exit} /^[ \t]*\/\//{next} /\.unwrap\(\)|\.expect\(/{c++} END{print c+0}' "$f")
        total=$((total + n))
    done
    echo "unwrap/expect lines outside tests: $total (bound 0)"
    test "$total" -le 0
}
run unwrap_ratchet
# Nothing above may rewrite a tracked file.
run git diff --exit-code

echo
echo "ci.sh: all checks passed"
