//! Interprocedural custody + loop-invariant guard motion: what the new
//! transforms buy over redundant-guard elimination alone (the prior
//! baseline, which had no summaries and no motion).
//!
//! For each workload, compile and run under two configurations:
//!
//!   * **elide-only** — `interproc`, `call_aware_kills`, and
//!     `guard_motion` all off; same-block elision on (the old pipeline);
//!   * **full** — everything on (today's defaults).
//!
//! The gate asserts:
//!
//!   1. **Determinism** — compiling twice yields identical
//!      [`MotionOutcome`]s (counts *and* per-site attribution);
//!   2. **Soundness dividend** — results are unchanged (the runner checks
//!      the checksum) and simulated cycles never increase;
//!   3. **Strict win** — on the serving loop, whose invariant-slot guard
//!      is only hoistable interprocedurally, `full` must *strictly* beat
//!      `elide-only`.
//!
//! A final row serves the kv-openloop `get` stream (4 simulated cores,
//! 64-byte objects, 10% local) under both configurations and reports guard
//! calls per request and the exact median request latency: span-guard
//! motion must strictly cut both (one span guard replaces eight per-word
//! guards on each 64-byte value).
//!
//! Emits `BENCH_guard_motion.json` for CI trend tracking.
//!
//! ```sh
//! cargo bench -q -p tfm-bench --bench guard_motion
//! ```

use tfm_bench::{print_table, scale};
use tfm_telemetry::Json;
use tfm_workloads::runner::{execute, RunConfig};
use tfm_workloads::{
    execute_open_loop, memcached, open_loop, serving, stream, OpenLoopParams, WorkloadSpec,
};
use trackfm::{CompilerOptions, TrackFmCompiler};

fn elide_only(mut opts: CompilerOptions) -> CompilerOptions {
    opts.interproc = false;
    opts.call_aware_kills = false;
    opts.guard_motion = false;
    opts
}

fn workloads() -> Vec<(&'static str, WorkloadSpec, RunConfig, bool)> {
    let s = scale();
    vec![
        (
            "serving",
            serving::serving(&serving::ServingParams {
                ops: (1 << 16) / s,
                buckets: 256,
                seed: 42,
            }),
            RunConfig::trackfm(0.25).with_object_size(64),
            true, // the strict-win workload
        ),
        (
            "quickstart(stream-sum)",
            stream::sum(&stream::StreamParams {
                elems: (1 << 20) / s,
            }),
            RunConfig::trackfm(0.25),
            false,
        ),
        (
            "kv_store(memcached)",
            memcached::memcached(&memcached::MemcachedParams {
                keys: 20_000 / s,
                gets: 60_000 / s,
                skew: 1.05,
                seed: 99,
            }),
            RunConfig::trackfm(0.10).with_object_size(64),
            false,
        ),
    ]
}

/// Serves the kv-openloop requests under `cfg` and returns `(guard calls
/// per request, exact p50 request latency, hoisted guards)`.
fn kv_openloop(cfg: &RunConfig) -> (f64, u64, usize) {
    let s = scale() as u64;
    let ol = open_loop(&OpenLoopParams {
        keys: (100_000 / s) as usize,
        requests: (200_000 / s) as usize,
        seed: 1,
        mean_gap_cycles: 440,
        ..OpenLoopParams::default()
    });
    let run = execute_open_loop(&ol, cfg);
    let stats = &run.outcome.result.stats;
    let guards = stats.total_guards() + stats.custody_exits;
    let mut latencies = run.latencies;
    latencies.sort_unstable();
    let hoisted = run.outcome.report.expect("trackfm compiles").motion.hoisted;
    (
        guards as f64 / ol.requests.len() as f64,
        latencies[latencies.len() / 2],
        hoisted,
    )
}

fn main() {
    println!("guard_motion: interprocedural custody + guard motion gate");
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut strict_win = false;

    for (name, spec, base, must_win) in workloads() {
        // Determinism: identical motion outcome (counts and per-site
        // attribution) on every compile of the same module.
        let r1 = TrackFmCompiler::new(base.compiler).compile(&mut spec.module.clone(), None);
        let r2 = TrackFmCompiler::new(base.compiler).compile(&mut spec.module.clone(), None);
        assert_eq!(
            r1.motion, r2.motion,
            "{name}: motion outcome must be deterministic"
        );
        assert_eq!(r1.elision, r2.elision);

        // Execute under both configurations; the runner asserts the
        // checksum, so a semantic deviation aborts loudly.
        let mut off_cfg = base;
        off_cfg.compiler = elide_only(off_cfg.compiler);
        let off = execute(&spec, &off_cfg);
        let on = execute(&spec, &base);

        let off_rep = off.report.as_ref().unwrap();
        let on_rep = on.report.as_ref().unwrap();
        assert_eq!(off_rep.motion, Default::default());

        let (c_off, c_on) = (off.result.stats.cycles, on.result.stats.cycles);
        assert!(
            c_on <= c_off,
            "{name}: interproc+motion increased cycles ({c_off} -> {c_on})"
        );
        if must_win {
            assert!(
                c_on < c_off,
                "{name}: interproc+motion must strictly beat elide-only \
                 ({c_off} -> {c_on})"
            );
            assert!(on_rep.motion.hoisted >= 1, "{name}: nothing was hoisted");
            strict_win = true;
        }

        let surviving_off = off_rep.total_guards() - off_rep.elision.eliminated;
        // Every upgrade and every guard folded into a span guard is one
        // fold into its survivor.
        let folded: u32 = on_rep.motion.folds.iter().map(|s| s.absorbed).sum();
        let surviving_on = on_rep.total_guards() - on_rep.elision.eliminated - folded as usize;
        rows.push(vec![
            name.to_string(),
            surviving_off.to_string(),
            surviving_on.to_string(),
            on_rep.motion.hoisted.to_string(),
            on_rep.motion.upgraded.to_string(),
            c_off.to_string(),
            c_on.to_string(),
            format!("{:.2}%", 100.0 * (c_off - c_on) as f64 / c_off as f64),
        ]);
        json_rows.push(Json::Obj(vec![
            ("workload".into(), Json::str(name)),
            ("guards_elide_only".into(), Json::Int(surviving_off as u64)),
            ("guards_full".into(), Json::Int(surviving_on as u64)),
            ("hoisted".into(), Json::Int(on_rep.motion.hoisted as u64)),
            ("upgraded".into(), Json::Int(on_rep.motion.upgraded as u64)),
            ("cycles_elide_only".into(), Json::Int(c_off)),
            ("cycles_full".into(), Json::Int(c_on)),
        ]));
    }

    // kv-openloop: span-guard motion on `get`'s value loop.
    let kv_on = RunConfig::trackfm(0.1).with_object_size(64).with_cores(4);
    let mut kv_off = kv_on;
    kv_off.compiler = elide_only(kv_off.compiler);
    let (calls_off, p50_off, _) = kv_openloop(&kv_off);
    let (calls_on, p50_on, hoisted) = kv_openloop(&kv_on);
    assert!(
        hoisted >= 1,
        "kv-openloop: the value loop's guard must leave as a span"
    );
    assert!(
        calls_on < calls_off,
        "kv-openloop: span motion must cut guard calls ({calls_off:.2} -> {calls_on:.2})"
    );
    assert!(
        p50_on < p50_off,
        "kv-openloop: span motion must cut the median latency ({p50_off} -> {p50_on})"
    );
    print_table(
        "guard_motion: kv-openloop (4 cores, 64 B objects, 10% local)",
        &["config", "guard calls/request", "p50 cycles"],
        &[
            vec![
                "elide-only".to_string(),
                format!("{calls_off:.2}"),
                p50_off.to_string(),
            ],
            vec![
                "full".to_string(),
                format!("{calls_on:.2}"),
                p50_on.to_string(),
            ],
        ],
    );
    json_rows.push(Json::Obj(vec![
        ("workload".into(), Json::str("kv-openloop")),
        ("hoisted".into(), Json::Int(hoisted as u64)),
        (
            "guard_calls_per_request_elide_only".into(),
            Json::Num(calls_off),
        ),
        ("guard_calls_per_request_full".into(), Json::Num(calls_on)),
        ("req_p50_cycles_elide_only".into(), Json::Int(p50_off)),
        ("req_p50_cycles_full".into(), Json::Int(p50_on)),
    ]));

    print_table(
        "guard_motion (cycles at the row's budget; guards = static sites)",
        &[
            "workload",
            "guards(old)",
            "guards(new)",
            "hoisted",
            "upgraded",
            "cycles(old)",
            "cycles(new)",
            "saved",
        ],
        &rows,
    );
    println!("\n  gate: motion outcomes deterministic; results unchanged;");
    println!("  cycles(full) <= cycles(elide-only) everywhere, strictly less on serving;");
    println!("  kv-openloop guard calls and p50 strictly lower with span motion.");

    assert!(strict_win, "the strict-win workload must run");
    let doc = Json::Obj(vec![
        ("bench".into(), Json::str("guard_motion")),
        ("strict_win_on_serving".into(), Json::Bool(strict_win)),
        ("rows".into(), Json::Arr(json_rows)),
    ]);
    std::fs::write("BENCH_guard_motion.json", doc.to_string_pretty())
        .expect("write BENCH_guard_motion.json");
    println!("  wrote BENCH_guard_motion.json");
}
