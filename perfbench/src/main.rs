//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints metadata and one line per metric, then the
//! result as a single JSON object on the last line. Exits non-zero on a
//! usage error.

use std::process::ExitCode;
use tfm_perfbench::bench::{self, Outcome, Value, LADDER_GAPS, SLO_P99_CYCLES};
use tfm_perfbench::workload::Workload;
use tfm_sim::ExecEngine;
use tfm_telemetry::Json;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=3600).contains(&seconds) {
        return Err(format!("--seconds takes 1 to 3600, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The result as one JSON object, metrics in report order.
fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let value = match m.value {
                Value::Int(v) => Json::Int(v),
                Value::Float(v) => Json::Num(v),
            };
            let entry = vec![("value".into(), value), ("unit".into(), Json::str(m.unit))];
            (m.name.clone(), Json::Obj(entry))
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(o.correct)),
        ("attempted".into(), Json::Int(o.attempted)),
        ("failed".into(), Json::Int(o.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string_compact()
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let cfg = w.config();
    let engine = match cfg.engine {
        ExecEngine::TreeWalk => "tree-walk",
        ExecEngine::Bytecode => "bytecode",
    };
    println!("workload: {} ({})", w.name(), w.why());
    println!(
        "config: system {} local_fraction {} object_size {} cores {} prefetch {} engine {engine}",
        cfg.system.name(),
        cfg.local_fraction,
        cfg.object_size,
        cfg.cores,
        cfg.prefetch
    );
    println!(
        "params: {}{}",
        w.params(args.seed),
        if w.seeded() {
            ""
        } else {
            " (unseeded generator: every seed gives the same inputs)"
        }
    );
    if w == Workload::KvOpenloop {
        println!(
            "slo: req_p99_cycles <= {SLO_P99_CYCLES}; ladder mean gaps {LADDER_GAPS:?} cycles"
        );
    }
    println!(
        "host: nproc {} cpu {} seed {} seconds {} trace {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let o = bench::run(w, args.seed, args.seconds, args.trace);
    for n in &o.notes {
        println!("{n}");
    }
    for p in &o.problems {
        println!("check failed: {p}");
    }
    println!(
        "fail_ratio: {} ({} failed of {} attempted)",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    for m in &o.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&o));
    ExitCode::SUCCESS
}
