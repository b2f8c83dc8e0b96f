//! Fig. 10: impact of the AIFM object size on STREAM Copy (claim C4/E4:
//! high spatial locality benefits from larger objects).
//!
//! Reported as far-memory bandwidth (MB/s of application data processed),
//! STREAM's native metric. Runs the paper's chunk streams (overwrite streams
//! off), which fetch the destination array too.

use tfm_bench::{f2, print_table, scale, CLOCK_HZ};
use tfm_workloads::runner::{execute, RunConfig};
use tfm_workloads::stream::{copy, StreamParams};

const SIZES: [u64; 5] = [4096, 2048, 1024, 512, 256];

fn paper(local_fraction: f64) -> RunConfig {
    RunConfig::trackfm(local_fraction).with_overwrite_streams(false)
}

fn main() {
    let p = StreamParams {
        elems: (2 << 20) / scale(),
    };
    let spec = copy(&p);
    // STREAM "copy" moves 2 × 4 bytes per element.
    let app_bytes = (p.elems * 8) as f64;

    let mut rows = Vec::new();
    for f in [0.1, 0.25, 0.5, 0.75, 1.0] {
        let mut row = vec![f2(f)];
        for os in SIZES {
            let out = execute(&spec, &paper(f).with_object_size(os));
            let mbs = app_bytes / out.result.seconds(CLOCK_HZ) / 1e6;
            row.push(format!("{mbs:.0}"));
        }
        rows.push(row);
    }
    print_table(
        "Fig. 10a: STREAM copy bandwidth (MB/s) vs. local memory, per object size",
        &["local frac", "4KB", "2KB", "1KB", "512B", "256B"],
        &rows,
    );

    let mut rows = Vec::new();
    for os in SIZES {
        let out = execute(&spec, &paper(0.25).with_object_size(os));
        let mbs = app_bytes / out.result.seconds(CLOCK_HZ) / 1e6;
        rows.push(vec![
            format!("{os}B"),
            format!("{mbs:.0}"),
            out.result
                .runtime
                .map(|r| r.remote_fetches + r.prefetch_issued)
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    print_table(
        "Fig. 10b: STREAM copy bandwidth at 25% local memory",
        &["object size", "MB/s", "fetches"],
        &rows,
    );
    println!("  paper: 4KB objects win — perfect spatial locality amortizes per-message latency over more bytes.");
}
