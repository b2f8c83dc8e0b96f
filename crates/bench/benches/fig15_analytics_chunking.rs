//! Fig. 15: applying loop chunking to the analytics application's
//! low-density aggregation loops reduces performance; the cost-model filter
//! restores it (claim C9/E9).
//!
//! The paper's three arms run the paper's compiler (`stream_motion` off).
//! An extra column chunks all loops *with* chunk-stream motion: the short
//! per-group streams resume across groups instead of paying a locality
//! guard per entry, the other remedy for the same loops.

use tfm_bench::{f2, print_table, scale};
use tfm_workloads::analytics::{analytics, AnalyticsParams};
use tfm_workloads::runner::{collect_profile, execute, execute_with_profile, RunConfig};
use trackfm::ChunkingMode;

fn main() {
    let p = AnalyticsParams {
        rows: 200_000 / scale(),
        groups: 16_000 / scale(),
    };
    let spec = analytics(&p);
    let profile = collect_profile(&spec);
    let local = execute(&spec, &RunConfig::local());
    let base = local.result.stats.cycles as f64;

    let mut rows = Vec::new();
    for f in [0.1, 0.25, 0.5, 0.75, 1.0] {
        let mut off = RunConfig::trackfm(f);
        off.compiler.chunking = ChunkingMode::Off;
        off.compiler.stream_motion = false;
        let mut all = RunConfig::trackfm(f);
        all.compiler.chunking = ChunkingMode::AllLoops;
        all.compiler.stream_motion = false;
        let mut model = RunConfig::trackfm(f);
        model.compiler.chunking = ChunkingMode::CostModel;
        model.compiler.stream_motion = false;
        let mut all_motion = RunConfig::trackfm(f);
        all_motion.compiler.chunking = ChunkingMode::AllLoops;

        let r_off = execute(&spec, &off);
        let r_all = execute(&spec, &all);
        let r_model = execute_with_profile(&spec, &model, Some(&profile));
        let r_motion = execute(&spec, &all_motion);
        rows.push(vec![
            f2(f),
            f2(r_off.result.stats.cycles as f64 / base),
            f2(r_all.result.stats.cycles as f64 / base),
            f2(r_model.result.stats.cycles as f64 / base),
            f2(r_motion.result.stats.cycles as f64 / base),
            r_model
                .report
                .as_ref()
                .map(|r| r.chunking.skipped_low_benefit)
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    print_table(
        "Fig. 15: analytics slowdown vs. local-only, by chunking policy",
        &[
            "local frac",
            "baseline (no chunk)",
            "all loops",
            "high-density only",
            "all loops + stream motion",
            "streams filtered",
        ],
        &rows,
    );
    println!("  paper: 'all loops' is clearly worse; the filtered variant tracks (or beats) the baseline.");
    println!("  stream motion (not in the paper) keeps the per-group streams open across groups.");
}
