//! Fig. 12: TrackFM (chunking + prefetching) speedup over Fastswap on
//! STREAM Sum/Copy (claim C6/E6). Paper: ~2.7× for Sum, ~2.9× for Copy —
//! Fastswap is limited by page-fault costs and its inability to see the
//! access pattern ahead of time.
//!
//! The paper's arm runs the paper's chunk streams (overwrite streams off).
//! The "TrackFM + overwrite" column turns them on: Copy's destination
//! stream then claims each object it overwrites instead of fetching it — a
//! write fault on a page cannot skip its fetch. Sum has no write stream, so
//! both columns agree.

use tfm_bench::{f2, fractions, print_table, scale};
use tfm_workloads::runner::{execute, RunConfig};
use tfm_workloads::stream::{copy, sum, StreamParams};

fn main() {
    let p = StreamParams {
        elems: (2 << 20) / scale(),
    };
    for (label, spec) in [("Sum", sum(&p)), ("Copy", copy(&p))] {
        let mut rows = Vec::new();
        let mut speedups = Vec::new();
        let mut overwrite_speedups = Vec::new();
        for f in fractions() {
            let tfm = execute(&spec, &RunConfig::trackfm(f).with_overwrite_streams(false));
            let ovw = execute(&spec, &RunConfig::trackfm(f));
            let fsw = execute(&spec, &RunConfig::fastswap(f));
            let speedup = fsw.result.stats.cycles as f64 / tfm.result.stats.cycles as f64;
            let ovw_speedup = fsw.result.stats.cycles as f64 / ovw.result.stats.cycles as f64;
            speedups.push(speedup);
            overwrite_speedups.push(ovw_speedup);
            rows.push(vec![
                f2(f),
                f2(speedup),
                f2(ovw_speedup),
                fsw.result
                    .pager
                    .map(|p| p.major_faults)
                    .unwrap_or(0)
                    .to_string(),
                tfm.result
                    .runtime
                    .map(|r| r.remote_fetches + r.prefetch_issued)
                    .unwrap_or(0)
                    .to_string(),
            ]);
        }
        print_table(
            &format!("Fig. 12 ({label}): TrackFM speedup over Fastswap"),
            &[
                "local frac",
                "speedup",
                "TrackFM + overwrite",
                "fsw major faults",
                "tfm fetches",
            ],
            &rows,
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "  mean speedup: {:.2}x, {:.2}x with overwrite streams (paper: ~2.7x Sum, ~2.9x Copy)",
            mean(&speedups),
            mean(&overwrite_speedups)
        );
    }
}
