//! Far-memory analytics: the taxi-trip pipeline under different compilation
//! strategies, demonstrating why selective loop chunking matters
//! (the Fig. 14/15 story in one binary).
//!
//! ```sh
//! cargo run --release --example analytics_pipeline
//! ```

use trackfm_suite::compiler::ChunkingMode;
use trackfm_suite::workloads::analytics::{analytics, AnalyticsParams};
use trackfm_suite::workloads::runner::{collect_profile, execute, execute_with_profile, RunConfig};

fn main() {
    let spec = analytics(&AnalyticsParams {
        rows: 100_000,
        groups: 8_000,
    });
    println!(
        "workload: {} ({} MiB of columns)\n",
        spec.name,
        spec.working_set() >> 20
    );

    // Stage 1: profile the unmodified program (the NOELLE profiling stage).
    let profile = collect_profile(&spec);
    println!("profiling run complete — loop trip counts feed the chunking cost model");

    // Stage 2: compile + run four ways at a 25% budget.
    let frac = 0.25;
    let local = execute(&spec, &RunConfig::local());
    let base = local.result.stats.cycles as f64;

    // The paper's compiler on every compiled arm: chunk-stream motion (on
    // by default) would let the all-loops arm resume the per-group streams.
    let mut no_chunk = RunConfig::trackfm(frac);
    no_chunk.compiler.chunking = ChunkingMode::Off;
    no_chunk.compiler.stream_motion = false;
    let mut all = RunConfig::trackfm(frac);
    all.compiler.chunking = ChunkingMode::AllLoops;
    all.compiler.stream_motion = false;
    let mut model = RunConfig::trackfm(frac); // CostModel is the default
    model.compiler.stream_motion = false;

    let r_none = execute(&spec, &no_chunk);
    let r_all = execute(&spec, &all);
    let r_model = execute_with_profile(&spec, &model, Some(&profile));
    let r_fsw = execute(&spec, &RunConfig::fastswap(frac));
    let mut aifm = RunConfig::aifm(frac);
    aifm.compiler.stream_motion = false;
    let r_aifm = execute_with_profile(&spec, &aifm, Some(&profile));

    println!(
        "\n{:<34} {:>14} {:>12}",
        "configuration", "slowdown", "vs model"
    );
    let model_cycles = r_model.result.stats.cycles as f64;
    for (name, cycles) in [
        ("local-only baseline", base),
        ("Fastswap (kernel paging)", r_fsw.result.stats.cycles as f64),
        ("TrackFM, no chunking", r_none.result.stats.cycles as f64),
        ("TrackFM, chunk ALL loops", r_all.result.stats.cycles as f64),
        ("TrackFM, cost-model + profile", model_cycles),
        ("AIFM (hand-integrated)", r_aifm.result.stats.cycles as f64),
    ] {
        println!(
            "{:<34} {:>13.2}x {:>11.2}x",
            name,
            cycles / base,
            cycles / model_cycles
        );
    }

    let rep = r_model.report.as_ref().unwrap();
    println!(
        "\ncost model: {} streams chunked, {} rejected as low-benefit \
         (short per-group aggregation loops)",
        rep.chunking.streams, rep.chunking.skipped_low_benefit
    );
    println!(
        "TrackFM within {:.0}% of AIFM — with zero source changes. (paper: within 10%)",
        (r_model.result.stats.cycles as f64 / r_aifm.result.stats.cycles as f64 - 1.0) * 100.0
    );
}
