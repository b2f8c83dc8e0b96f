//! Fig. 8: selective (profile + cost-model) loop chunking on k-means vs.
//! chunking all loops, normalized to no chunking (claim C2/E2).
//!
//! Paper: indiscriminate chunking averages a 4× slowdown; the cost model
//! recovers a mean 2.5× speedup over that. The mechanism is the 8-iteration
//! inner distance loops that can never amortize a locality-invariant guard.

use tfm_bench::{f2, fractions, print_table, scale};
use tfm_workloads::kmeans::{kmeans, KmeansParams};
use tfm_workloads::runner::{collect_profile, execute, execute_with_profile, RunConfig};
use trackfm::ChunkingMode;

fn main() {
    let p = KmeansParams {
        points: 30_000 / scale(),
        ..KmeansParams::default()
    };
    let spec = kmeans(&p);
    let profile = collect_profile(&spec);

    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for f in fractions() {
        // The paper's compiler: no chunk-stream motion on any arm.
        let mut base = RunConfig::trackfm(f);
        base.compiler.chunking = ChunkingMode::Off;
        base.compiler.stream_motion = false;
        let mut all = RunConfig::trackfm(f);
        all.compiler.chunking = ChunkingMode::AllLoops;
        all.compiler.stream_motion = false;
        let mut model = RunConfig::trackfm(f);
        model.compiler.chunking = ChunkingMode::CostModel;
        model.compiler.stream_motion = false;

        let rb = execute(&spec, &base);
        let ra = execute(&spec, &all);
        let rm = execute_with_profile(&spec, &model, Some(&profile));

        let s_all = rb.result.stats.cycles as f64 / ra.result.stats.cycles as f64;
        let s_model = rb.result.stats.cycles as f64 / rm.result.stats.cycles as f64;
        ratios.push(s_model / s_all);
        rows.push(vec![
            f2(f),
            f2(s_all),
            f2(s_model),
            ra.result.stats.locality_guards.to_string(),
            rm.result.stats.locality_guards.to_string(),
        ]);
    }
    print_table(
        "Fig. 8: k-means speedup vs. no-chunking baseline",
        &[
            "local frac",
            "all loops",
            "high-density only",
            "loc guards (all)",
            "loc guards (model)",
        ],
        &rows,
    );
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("  model-filtered vs. indiscriminate advantage: {avg:.1}x mean (paper: ~4x slowdown undone, ~2.5x mean gain)");
}
