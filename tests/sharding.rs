//! Sharding suite: routing invariants of the multi-node remote backend.
//!
//! Two properties make sharded runs trustworthy:
//!
//! 1. **Placement determinism** — shard assignment is a pure function of
//!    `(key, shard_count, policy)`: the same object set lands on the same
//!    shards run after run, so per-shard ledgers are reproducible.
//! 2. **One-node figures** — the default backend is one shard, the paper's
//!    one node behind one wire; a whole workload run on it, spelled either
//!    way, costs the pinned cycles, counters and transfer ledger.

use trackfm_suite::net::{
    build_backend, BackendSpec, FaultPlan, LinkParams, PlacementPolicy, TransferStats,
};
use trackfm_suite::runtime::RuntimeStats;
use trackfm_suite::sim::ExecStats;
use trackfm_suite::workloads::runner::{execute, RunConfig};
use trackfm_suite::workloads::stream::{self, StreamParams};

fn spec() -> trackfm_suite::workloads::spec::WorkloadSpec {
    stream::sum(&StreamParams { elems: 64 << 10 })
}

/// The same object set maps to the same shards across independently built
/// backends, for both placement policies and several shard counts.
#[test]
fn placement_is_reproducible_across_backend_instances() {
    for policy in [PlacementPolicy::Hash, PlacementPolicy::Interleave] {
        for shards in [2u32, 3, 4, 8] {
            let spec = BackendSpec::sharded(shards).with_placement(policy);
            let a = build_backend(LinkParams::tcp_25g(), spec, FaultPlan::none());
            let b = build_backend(LinkParams::tcp_25g(), spec, FaultPlan::none());
            for key in (0..4096u64).chain((0..64).map(|k| k << 40)) {
                let home = a.shard_of(key);
                assert!(home < shards as usize, "route must stay in range");
                assert_eq!(
                    home,
                    b.shard_of(key),
                    "{policy:?}/{shards}: key {key} moved between instances"
                );
            }
        }
    }
}

/// Identical runs produce identical per-shard ledgers: placement plus the
/// deterministic simulation pin every shard counter, not just aggregates.
#[test]
fn repeated_runs_agree_on_every_shard_ledger() {
    let spec = spec();
    let cfg = RunConfig::trackfm(0.25).with_shards(4);
    let a = execute(&spec, &cfg);
    let b = execute(&spec, &cfg);
    assert_eq!(a.result.shards.len(), 4);
    assert_eq!(a.result.shards, b.result.shards);
    assert_eq!(a.result.stats, b.result.stats);
    // Every shard took a share of a uniformly striding stream.
    for (i, snap) in a.result.shards.iter().enumerate() {
        assert!(snap.stats.fetches > 0, "shard {i} idle on a uniform stream");
    }
    // Shard ledgers sum to the aggregate.
    let total: u64 = a.result.shards.iter().map(|s| s.stats.bytes_fetched).sum();
    assert_eq!(a.result.transfers.unwrap().bytes_fetched, total);
}

/// The pinned one-node figures of `spec()` at `RunConfig::trackfm(0.25)` on
/// a flawless link.
fn one_node_figures() -> (ExecStats, RuntimeStats, TransferStats) {
    let exec = ExecStats {
        cycles: 1_209_790,
        instructions: 786_446,
        loads: 65_536,
        boundary_checks: 65_472,
        locality_guards: 64,
        stall_cycles: 63_399,
        ..ExecStats::default()
    };
    let runtime = RuntimeStats {
        remote_fetches: 1,
        prefetch_issued: 63,
        prefetch_hits: 62,
        prefetch_late: 1,
        evictions: 64,
        writebacks: 12,
        peak_resident_bytes: 64 << 10,
        ..RuntimeStats::default()
    };
    let transfers = TransferStats {
        fetches: 64,
        bytes_fetched: 256 << 10,
        writebacks: 12,
        bytes_written_back: 48 << 10,
        ..TransferStats::default()
    };
    (exec, runtime, transfers)
}

/// A full workload run on the one-shard default costs the pinned figures:
/// same cycles, same runtime counters, same transfer ledger.
#[test]
fn one_shard_run_costs_exactly_what_single_node_does() {
    let out = execute(&spec(), &RunConfig::trackfm(0.25));
    let (exec, runtime, transfers) = one_node_figures();
    assert_eq!(out.result.ret, 2_147_450_880);
    assert_eq!(out.result.stats, exec);
    assert_eq!(out.result.runtime, Some(runtime));
    assert_eq!(out.result.transfers, Some(transfers));
    // One shard publishes no per-shard sections.
    assert!(out.result.shards.is_empty());
}

/// The pinned figures hold under an active fault plan too: shard 0 keeps
/// the plan's seed verbatim, so the one-shard backend replays the one-node
/// fault schedule.
#[test]
fn one_shard_identity_survives_fault_injection() {
    let plan = FaultPlan::drops(0xC0FFEE, 50_000).with_stalls(20_000, 9_000);
    let (exec, runtime, transfers) = one_node_figures();
    let exec = ExecStats {
        cycles: 1_272_927,
        stall_cycles: 126_536,
        ..exec
    };
    let runtime = RuntimeStats {
        prefetch_hits: 61,
        prefetch_late: 2,
        link_faults: 4,
        retries: 1,
        prefetch_canceled: 3,
        ..runtime
    };
    let transfers = TransferStats {
        faults: 4,
        fault_wasted_bytes: 16 << 10,
        delayed: 1,
        delay_cycles: 9_000,
        ..transfers
    };
    let out = execute(&spec(), &RunConfig::trackfm(0.25).with_faults(plan));
    assert_eq!(out.result.stats, exec);
    assert_eq!(out.result.runtime, Some(runtime));
    assert_eq!(out.result.transfers, Some(transfers));
}
