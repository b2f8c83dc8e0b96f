//! The benchmark's self-check: its runs repeat exactly, its traced run
//! changes nothing, each workload shows the contrast it was chosen for,
//! and `BENCHMARK.json` names exactly the metrics the runs print.

use std::sync::OnceLock;
use tfm_perfbench::bench::{self, Outcome, Value};
use tfm_perfbench::measure::{self, Compiled, Mode};
use tfm_perfbench::openloop;
use tfm_perfbench::workload::Workload;
use tfm_sim::{Machine, TrackFmMem};
use tfm_telemetry::Json;
use tfm_workloads::{execute_open_loop, open_loop, runner, OpenLoopParams, RunConfig};

const SEED: u64 = 7;

/// One traced run per workload, shared by the tests that read it.
fn traced(w: Workload) -> &'static Outcome {
    static RUNS: [OnceLock<Outcome>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let i = Workload::ALL.iter().position(|&x| x == w).unwrap();
    RUNS[i].get_or_init(|| bench::run(w, SEED, 1, true))
}

fn int(o: &Outcome, name: &str) -> u64 {
    match o.metric(name) {
        Some(Value::Int(v)) => v,
        other => panic!("{name}: expected a count, got {other:?}"),
    }
}

/// Metrics that come from the simulation or the compiler's output, not
/// from a host clock.
fn simulated(o: &Outcome) -> Vec<(String, Value)> {
    o.metrics
        .iter()
        .filter(|m| !matches!(m.unit, "s" | "ns") && m.name != "trace.overhead_ratio")
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn traced_runs_are_correct_and_conserve_cycles() {
    for w in Workload::ALL {
        let o = traced(w);
        assert!(o.correct, "{}: {:?}", w.name(), o.problems);
        assert_eq!(o.failed, 0);
        assert!(o.attempted > 0);
    }
}

#[test]
fn two_runs_give_bit_identical_simulated_metrics() {
    for w in Workload::ALL {
        let again = bench::run(w, SEED, 1, true);
        assert_eq!(simulated(traced(w)), simulated(&again), "{}", w.name());
    }
}

#[test]
fn each_workload_shows_the_contrast_it_was_chosen_for() {
    let analytics = traced(Workload::Analytics);
    let triad = traced(Workload::StreamTriad);
    let kv = traced(Workload::KvOpenloop);
    assert!(int(analytics, "compile.guards_elided") > 0);
    assert!(
        int(analytics, "rt.remote_fetches") * 100 < int(kv, "rt.remote_fetches"),
        "analytics should barely touch the runtime slow path"
    );
    assert_eq!(int(triad, "memsys.guard.calls"), 0);
    assert!(int(triad, "rt.writebacks") > 0);
    assert!(int(kv, "sched.queue_wait_p99_cycles") > 0);
}

#[test]
fn exact_driver_matches_the_library_open_loop_runner() {
    let ol = open_loop(&OpenLoopParams {
        keys: 5_000,
        requests: 20_000,
        seed: SEED,
        mean_gap_cycles: 300,
        ..OpenLoopParams::default()
    });
    let cfg = RunConfig::trackfm(0.1).with_object_size(64).with_cores(4);
    let want = execute_open_loop(&ol, &cfg);

    let compiled = Compiled::new(Workload::KvOpenloop, ol.spec.module.clone());
    let mem = TrackFmMem::new(runner::far_config(&ol.spec, &cfg), cfg.cost);
    let mut machine = Machine::new(
        &compiled.module,
        mem,
        cfg.cost,
        ol.spec.heap_size(cfg.object_size),
    );
    let args = runner::setup(&ol.spec, &mut machine, false);
    let got = openloop::drive(&mut machine, &args, &ol.requests, cfg.cores);

    assert_eq!(got.makespan, want.makespan);
    assert_eq!(got.checksum, want.checksum);
    let (g, w) = (got.result.unwrap(), want.outcome.result);
    assert_eq!(g.stats, w.stats);
    assert_eq!(g.runtime, w.runtime);
    assert_eq!(g.transfers, w.transfers);
    assert!(got
        .times
        .iter()
        .all(|t| t.arrival <= t.start && t.start <= t.end && t.end <= t.retire));
    let oracle = openloop::KvOracle::new(&ol);
    assert_eq!(oracle.failures(&ol.requests, &got.rets), 0);
}

#[test]
fn oracle_catches_a_wrong_return() {
    let ol = open_loop(&OpenLoopParams {
        keys: 100,
        requests: 10,
        ..OpenLoopParams::default()
    });
    let oracle = openloop::KvOracle::new(&ol);
    let mut rets: Vec<Option<u64>> = ol
        .requests
        .iter()
        .map(|r| Some(oracle.get(r.key)))
        .collect();
    assert_eq!(oracle.failures(&ol.requests, &rets), 0);
    rets[3] = rets[3].map(|v| v ^ 1);
    rets[5] = None;
    assert_eq!(oracle.failures(&ol.requests, &rets), 2);
}

#[test]
fn uncharged_replay_runs_the_same_instructions() {
    let w = Workload::Analytics;
    let compiled = Compiled::new(w, w.generate_at(SEED, 0).spec().module.clone());
    let plain = measure::rep(w, SEED, 0, &compiled, Mode::Plain);
    let replay = measure::rep(w, SEED, 0, &compiled, Mode::Uncharged);
    assert_eq!(plain.sample.failed + replay.sample.failed, 0);
    assert_eq!(plain.sim.stats.instructions, replay.sim.stats.instructions);
    assert_eq!(plain.sim.rets, replay.sim.rets);
    assert!(replay.sim.stats.cycles < plain.sim.stats.cycles);
}

#[test]
fn quantiles_use_the_nearest_rank() {
    let v: Vec<u64> = (1..=200).collect();
    assert_eq!(bench::quantile(&v, 500), 100);
    assert_eq!(bench::quantile(&v, 990), 198);
    assert_eq!(bench::quantile(&v, 1000), 200);
    assert_eq!(bench::quantile(&[5], 990), 5);
}

#[test]
fn benchmark_json_names_the_metrics_the_runs_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let printed = |o: &Outcome| -> Vec<(String, String)> {
        o.metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    };
    let names: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(
        names,
        Workload::ALL.map(|w| w.name().to_string()),
        "workloads"
    );
    for w in Workload::ALL {
        assert_eq!(printed(traced(w)), listed("per_layer"), "{}", w.name());
    }
    let e2e = bench::run(Workload::Analytics, SEED, 1, false);
    assert!(e2e.correct, "{:?}", e2e.problems);
    assert_eq!(printed(&e2e), listed("end_to_end"));
}
