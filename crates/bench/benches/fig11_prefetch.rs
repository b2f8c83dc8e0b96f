//! Fig. 11: speedup of prefetching coupled with loop chunking vs. chunking
//! alone on STREAM Sum/Copy (claim C5/E5). The impact is largest at the
//! left (network-bound) side and fades as local memory grows. Both arms run
//! the paper's chunk streams (overwrite streams off), so Copy's destination
//! stream prefetches too.

use tfm_bench::{f2, fractions, print_table, scale};
use tfm_workloads::runner::{execute, RunConfig};
use tfm_workloads::stream::{copy, sum, StreamParams};

fn main() {
    let p = StreamParams {
        elems: (2 << 20) / scale(),
    };
    for (label, spec) in [("Sum", sum(&p)), ("Copy", copy(&p))] {
        let mut rows = Vec::new();
        for f in fractions() {
            let paper = RunConfig::trackfm(f).with_overwrite_streams(false);
            let with_pf = execute(&spec, &paper.with_prefetch(true));
            let without = execute(&spec, &paper.with_prefetch(false));
            let speedup = without.result.stats.cycles as f64 / with_pf.result.stats.cycles as f64;
            let rt = with_pf.result.runtime.unwrap();
            rows.push(vec![
                f2(f),
                f2(speedup),
                rt.prefetch_hits.to_string(),
                rt.prefetch_late.to_string(),
                without
                    .result
                    .runtime
                    .map(|r| r.remote_fetches)
                    .unwrap_or(0)
                    .to_string(),
            ]);
        }
        print_table(
            &format!("Fig. 11 ({label}): prefetch+chunking speedup over chunking alone"),
            &[
                "local frac",
                "speedup",
                "prefetch hits",
                "prefetch late",
                "demand fetches (no pf)",
            ],
            &rows,
        );
    }
    println!("  paper: up to ~5x at low local memory, fading right as guard costs dominate.");
}
