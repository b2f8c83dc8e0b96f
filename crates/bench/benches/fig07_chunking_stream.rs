//! Fig. 7: loop-chunking speedup on STREAM Sum and Copy as the local-memory
//! fraction sweeps (claim C1/E1: chunking eliminates fast-path guards;
//! speedup grows with the number of memory accesses per loop and leans
//! toward the right-hand, guard-bound side).
//!
//! Both arms run the paper's chunk streams (overwrite streams off).

use tfm_bench::{f2, fractions, print_table, scale};
use tfm_workloads::runner::{execute, RunConfig};
use tfm_workloads::stream::{copy, sum, StreamParams};
use trackfm::ChunkingMode;

fn main() {
    let p = StreamParams {
        elems: (2 << 20) / scale(),
    };
    for (label, spec) in [("Sum", sum(&p)), ("Copy", copy(&p))] {
        let mut rows = Vec::new();
        for f in fractions() {
            // Prefetch off on both arms: Fig. 7 isolates guard elimination
            // (Fig. 11 adds prefetching).
            let paper = RunConfig::trackfm(f)
                .with_prefetch(false)
                .with_overwrite_streams(false);
            let mut naive = paper;
            naive.compiler.chunking = ChunkingMode::Off;
            let chunked = paper;

            let rn = execute(&spec, &naive);
            let rc = execute(&spec, &chunked);
            let speedup = rn.result.stats.cycles as f64 / rc.result.stats.cycles as f64;
            rows.push(vec![
                f2(f),
                f2(speedup),
                rn.result.stats.guards_fast.to_string(),
                rc.result.stats.guards_fast.to_string(),
                rc.result.stats.boundary_checks.to_string(),
            ]);
        }
        print_table(
            &format!("Fig. 7 ({label}): chunking speedup vs. local memory [% of working set]"),
            &[
                "local frac",
                "speedup",
                "fast guards (naive)",
                "fast guards (chunked)",
                "boundary checks",
            ],
            &rows,
        );
    }
    println!(
        "  paper: speedups ~1.5-2.0, higher for Copy (more accesses/loop), rising to the right."
    );
}
