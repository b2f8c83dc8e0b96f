#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
set -eux

cargo fmt --check
cargo build --workspace --release
# The workspace run includes every root tests/*.rs suite (the root package
# is a workspace member), among them:
# Chaos suite: seeded fault schedules (fixed seeds inside the tests) —
# semantic preservation, determinism, and degradation/recovery under outage,
# including a per-shard outage confined to the sick shard.
# Sharding suite: deterministic placement, reproducible per-shard ledgers,
# and the one-shard default's pinned cost figures (fault plans included).
# Failover suite: a 200-seed crash/restart sweep under replicas(2) asserts
# zero lost acknowledged writebacks, replicas(1) asserts bitwise pay-for-use
# identity, and the R=1 loss case (the one-node default included) stays
# honestly accounted.
# Soundness gate (lint_gate, random_programs): tfm-lint must report zero
# uncovered heap accesses on every workload/example/config, and the static
# lint must agree with the dynamic guard sanitizer over the randomized
# corpus — including the 200-seed interprocedural sweep that runs every
# on/off combination of {interproc, call_aware_kills, guard_motion} against
# a LocalMem oracle, the 200-seed loop-nest sweep that runs stream_motion
# off and on against a LocalMem oracle (motion never pays more locality
# guards), and the 200-seed overwrite sweep over write-only fill loops that
# runs overwrite_streams off and on against the same oracle (on never
# fetches more bytes).
# Tracing suite: causal decomposition of guard latency under chaos,
# byte-identical trace exports across same-seed runs, and the pay-for-use
# report identity.
# Concurrency suite: one wire transfer per in-flight object, a 200-seed
# cores(1) bitwise-identity + cores(N) determinism sweep, and overlapping
# demand-fetch spans in the multi-core trace.
cargo test -q --workspace

# Bench gates (each asserts its own invariants and aborts on violation):
#   guard_elision       — elision is deterministic, preserves results, never
#                         increases cycles (TFM_SCALE=8 for a quick pass).
#   guard_motion        — interproc custody + guard motion: deterministic,
#                         result-preserving, never slower, and *strictly*
#                         faster than elide-only on the serving loop.
#                         Emits BENCH_guard_motion.json.
#   fault_overhead      — the no-fault fast path is bit-identical.
#   trace_overhead      — tracing off is bit-identical; on, bounded.
#                         Emits BENCH_trace_overhead.json.
#   shard_scaling       — one-shard figures pinned, then the shard sweep.
#   failover_overhead   — replicas(1) bit-identical; crash row loses zero
#                         acknowledged writebacks. Emits BENCH_failover.json.
#   concurrency_scaling — cores(1) bit-identical; 8 cores >= 4x throughput.
#                         Emits BENCH_concurrency.json.
#   interp_speed        — both engines bit-identical on serving, then the
#                         bytecode engine must clear >= 1.5x the tree-walker's
#                         wall clock. Emits BENCH_interp.json.
for bench in guard_elision guard_motion fault_overhead trace_overhead \
    shard_scaling failover_overhead concurrency_scaling interp_speed; do
    case "$bench" in
    guard_elision | guard_motion) TFM_SCALE=8 cargo bench -q -p tfm-bench --bench "$bench" ;;
    *) cargo bench -q -p tfm-bench --bench "$bench" ;;
    esac
done

# Benchmark self-check: the perfbench package (its own workspace) repeats
# bit-identically, its exact open-loop replay matches execute_open_loop,
# and its metric names match BENCHMARK.json.
cargo test -q --manifest-path perfbench/Cargo.toml

cargo clippy --workspace --all-targets -- -D warnings
