//! Engine bit-identity across the workload matrix.
//!
//! The bytecode engine's whole contract is that switching engines changes
//! *nothing* the simulation measures: results, simulated cycles, every
//! counter, every trap, every rendered report — under every system, and
//! under the hard configurations (fault injection, sharding, replication
//! with a mid-run crash, multi-core open-loop dispatch, span tracing).
//! These tests run the same workload+config on both engines and compare
//! the rendered [`RunReport`]s byte for byte, modulo the engine's own
//! telemetry lines (which exist precisely to make the engine choice
//! visible).

use trackfm_suite::net::{BackendSpec, FaultPlan};
use trackfm_suite::sim::ExecEngine;
use trackfm_suite::workloads::openloop::{
    execute_open_loop_with_report, open_loop, OpenLoopParams,
};
use trackfm_suite::workloads::runner::{execute_with_report, RunConfig};
use trackfm_suite::workloads::stream::{self, StreamParams};

/// Strips the bytecode engine's self-identification from a rendered report:
/// the `engine=bytecode` meta entry and the `[  engine]` section line. What
/// remains must be byte-identical to the tree-walk rendering.
fn normalize(rendered: &str) -> String {
    rendered
        .lines()
        .filter(|l| !l.trim_start().starts_with("[  engine]"))
        .map(|l| l.replace(" engine=bytecode", ""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs `cfg` on both engines and asserts byte-identical reports and
/// identical result payloads.
fn assert_config_identical(
    ctx: &str,
    spec: &trackfm_suite::workloads::WorkloadSpec,
    cfg: RunConfig,
) {
    let (tw_out, tw_rep) = execute_with_report(spec, &cfg);
    let (bc_out, bc_rep) = execute_with_report(spec, &cfg.with_engine(ExecEngine::Bytecode));
    assert_eq!(
        tw_out.result.ret, bc_out.result.ret,
        "{ctx}: results differ"
    );
    assert_eq!(
        tw_out.result.stats, bc_out.result.stats,
        "{ctx}: exec stats differ"
    );
    assert_eq!(
        tw_out.result.runtime, bc_out.result.runtime,
        "{ctx}: runtime stats differ"
    );
    assert_eq!(
        tw_out.result.pager, bc_out.result.pager,
        "{ctx}: pager stats differ"
    );
    assert_eq!(
        tw_out.result.transfers, bc_out.result.transfers,
        "{ctx}: transfer ledgers differ"
    );
    assert_eq!(
        tw_out.result.shards, bc_out.result.shards,
        "{ctx}: shard snapshots differ"
    );
    // The bytecode run must identify itself…
    assert!(
        bc_out.result.engine.lowered_fns > 0,
        "{ctx}: lowering counter"
    );
    assert!(
        bc_rep.render().contains("engine=bytecode"),
        "{ctx}: report must surface the engine"
    );
    assert!(
        bc_rep.render().contains("[  engine]"),
        "{ctx}: report must carry the engine section"
    );
    // …and the tree-walk run must look exactly like it always did.
    assert!(
        !tw_rep.render().contains("engine"),
        "{ctx}: tree-walk leaks"
    );
    // Everything else: byte-identical.
    assert_eq!(
        normalize(&tw_rep.render()),
        normalize(&bc_rep.render()),
        "{ctx}: rendered reports differ beyond the engine lines"
    );
}

/// Every system and the hard configurations, on one workload: fault
/// injection, sharding, replication with a scripted crash, span tracing.
#[test]
fn reports_are_byte_identical_across_systems_and_configs() {
    let spec = stream::sum(&StreamParams { elems: 32 << 10 });
    let configs: Vec<(&str, RunConfig)> = vec![
        ("local", RunConfig::local()),
        ("fastswap", RunConfig::fastswap(0.25)),
        ("trackfm", RunConfig::trackfm(0.25)),
        ("aifm", RunConfig::aifm(0.25)),
        ("hybrid", RunConfig::hybrid(0.25)),
        (
            "faults",
            RunConfig::trackfm(0.25).with_faults(FaultPlan::drops(0xC0FFEE, 50_000)),
        ),
        ("sharded", RunConfig::trackfm(0.25).with_shards(4)),
        (
            "replicated-crash",
            RunConfig::trackfm(0.25)
                .with_backend(BackendSpec::sharded(4).with_replicas(2).with_fault_shard(1))
                .with_faults(FaultPlan::none().with_cold_crash(100_000, 400_000)),
        ),
        ("tracing", RunConfig::trackfm(0.25).with_tracing()),
    ];
    for (name, cfg) in configs {
        assert_config_identical(name, &spec, cfg);
    }
}

/// The multi-core open-loop scheduler (async issue/complete fetch pipeline,
/// completion horizons, per-core clocks) on both engines: checksums,
/// makespans, core clocks, latency distributions, and rendered reports all
/// match, at one core and at four. At 64-byte objects `get`'s value loop
/// compiles to a span guard, whose two-operand form the bytecode engine
/// lowers through the generic intrinsic path.
#[test]
fn open_loop_multicore_is_engine_invariant() {
    let ol = open_loop(&OpenLoopParams {
        keys: 2_000,
        requests: 2_000,
        skew: 1.05,
        seed: 11,
        mean_gap_cycles: 500,
    });
    for cores in [1, 4] {
        for cfg in [
            RunConfig::local().with_cores(cores),
            RunConfig::trackfm(0.25).with_cores(cores),
            RunConfig::trackfm(0.25).with_cores(cores).with_tracing(),
            RunConfig::trackfm(0.25)
                .with_object_size(64)
                .with_cores(cores)
                .with_tracing(),
        ] {
            let ctx = format!(
                "cores={cores} system={} object_size={}",
                cfg.system.name(),
                cfg.object_size
            );
            let (tw, tw_rep) = execute_open_loop_with_report(&ol, &cfg);
            let (bc, bc_rep) =
                execute_open_loop_with_report(&ol, &cfg.with_engine(ExecEngine::Bytecode));
            assert_eq!(tw.checksum, bc.checksum, "{ctx}: checksums differ");
            assert_eq!(tw.makespan, bc.makespan, "{ctx}: makespans differ");
            assert_eq!(tw.core_clocks, bc.core_clocks, "{ctx}: core clocks differ");
            assert_eq!(
                tw.latency.count(),
                bc.latency.count(),
                "{ctx}: latency counts differ"
            );
            assert_eq!(
                tw.outcome.result.stats, bc.outcome.result.stats,
                "{ctx}: exec stats differ"
            );
            assert_eq!(
                normalize(&tw_rep.render()),
                normalize(&bc_rep.render()),
                "{ctx}: rendered reports differ beyond the engine lines"
            );
        }
    }
}
