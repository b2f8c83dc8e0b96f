//! One benchmark run: the measured phases of a workload within a time
//! budget, the checks on their outputs, and the metrics drawn from them.

use crate::measure::{ns_since, rep, Compiled, Mode, Rep, Sample, Sim};
use crate::openloop::Times;
use crate::traced::{self, Op, Tally};
use crate::workload::{Inputs, Workload, KV_NOMINAL_GAP};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};
use tfm_ir::Module;
use tfm_workloads::{execute, execute_open_loop};
use trackfm::TrackFmCompiler;

/// Offered loads of the `max_rate_at_slo` ladder, as mean arrival gaps in
/// cycles, lightest first. Around the knee (2400–2700 req/Mcycle) rungs
/// are 1–3% apart, so one rung more or less is a small change.
pub const LADDER_GAPS: [u64; 20] = [
    1000, 800, 600, 500, 460, 440, 420, 410, 400, 395, 390, 385, 380, 370, 360, 340, 320, 300, 280,
    250,
];

/// The kv-openloop latency limit on `req_p99_cycles`.
pub const SLO_P99_CYCLES: u64 = 36_000;

/// Fewest measured phases a run takes, whatever its time budget.
const MIN_REPS: usize = 3;

/// Fewest compiles `compile_s` is taken over.
const MIN_COMPILES: usize = 50;

/// A metric's value: counts stay integers, everything else is a float.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Value {
    Int(u64),
    Float(f64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
        }
    }
}

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: Value,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every output matched its oracle and every consistency check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that trapped or returned a wrong result.
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or per-layer ones (traced).
    pub metrics: Vec<Metric>,
    /// How the host-time samples behind each metric were spread.
    pub notes: Vec<String>,
    /// Checks that failed, in words.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<Value> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The value at quantile `per_mille`/1000 of `sorted` (nearest rank).
pub fn quantile(sorted: &[u64], per_mille: u64) -> u64 {
    let n = sorted.len() as u64;
    let rank = (per_mille * n).div_ceil(1000).clamp(1, n);
    sorted[rank as usize - 1]
}

fn sorted(times: &[Times], f: fn(&Times) -> u64) -> Vec<u64> {
    let mut v: Vec<u64> = times.iter().map(f).collect();
    v.sort_unstable();
    v
}

/// Collects metrics, notes and failed checks.
struct Sheet {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    problems: Vec<String>,
}

impl Sheet {
    /// Records host-time samples (nanoseconds) as the fastest of them, in
    /// seconds, and notes their median and quartiles. The host's speed
    /// drifts between regimes that last longer than a run, which moves a
    /// run's median far more than its fastest sample.
    fn host(&mut self, name: impl Into<String>, ns: impl IntoIterator<Item = u64>) {
        let v: Vec<u64> = ns.into_iter().collect();
        let best = *v.iter().min().expect("at least one host-time sample");
        let name = name.into();
        self.note_host(&name, best, v);
        self.float(name, best as f64 / 1e9, "s");
    }

    /// Notes a host-time figure `best_ns` and how the samples `ns` behind
    /// it were spread.
    fn note_host(&mut self, name: &str, best_ns: u64, mut ns: Vec<u64>) {
        ns.sort_unstable();
        let s = |i: usize| ns[i] as f64 / 1e9;
        let n = ns.len();
        self.notes.push(format!(
            "{name}: {} s; {n} samples, fastest {} s, median {} s, quartiles {} to {} s",
            best_ns as f64 / 1e9,
            s(0),
            s(n / 2),
            s(n / 4),
            s(n * 3 / 4)
        ));
    }

    /// Records the measured phase's host time: see
    /// [`Series::best_sliced_run_ns`].
    fn host_run(&mut self, series: &Series) {
        let best = series.best_sliced_run_ns();
        self.note_host("host_run_s", best, series.ns(|s| s.run_ns).collect());
        self.float("host_run_s", best as f64 / 1e9, "s");
    }

    fn int(&mut self, name: impl Into<String>, v: u64, unit: &'static str) {
        self.push(name, Value::Int(v), unit);
    }
    fn float(&mut self, name: impl Into<String>, v: f64, unit: &'static str) {
        self.push(name, Value::Float(v), unit);
    }
    fn push(&mut self, name: impl Into<String>, value: Value, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Host-time samples of `TrackFmCompiler::compile`, taken between the
/// measured phases so they see the same host conditions.
struct Compiles {
    total_ns: Vec<u64>,
    pass_ns: BTreeMap<&'static str, Vec<u64>>,
}

impl Compiles {
    /// Compiles a fresh clone of `module` (cloned outside the timed region)
    /// until `budget` has passed, at least once.
    fn sample_for(&mut self, w: Workload, module: &Module, budget: Duration) {
        let compiler = TrackFmCompiler::new(w.config().compiler);
        let t0 = Instant::now();
        loop {
            let mut m = module.clone();
            let t = Instant::now();
            let report = compiler.compile(&mut m, None);
            self.total_ns.push(ns_since(t));
            for &(pass, ns) in &report.pass_nanos {
                self.pass_ns.entry(pass).or_default().push(ns as u64);
            }
            if t0.elapsed() >= budget {
                break;
            }
        }
    }
}

/// One kv-openloop run at a ladder rung: its exact p99 latency, and
/// whether the backlog grew (the median latency over the final tenth of
/// requests exceeds the latency limit).
struct Rung {
    gap: u64,
    p99: u64,
    backlog_grows: bool,
    attempted: u64,
    failed: u64,
}

impl Rung {
    fn meets_slo(&self) -> bool {
        self.p99 <= SLO_P99_CYCLES && !self.backlog_grows
    }
    fn rate(&self) -> f64 {
        1e6 / self.gap as f64
    }
}

fn rung(seed: u64, gap: u64, compiled: &Compiled) -> Rung {
    let r = rep(Workload::KvOpenloop, seed, gap, compiled, Mode::Plain);
    let times = &r.sim.times;
    let tail = &times[times.len() - times.len() / 10..];
    Rung {
        gap,
        p99: quantile(&sorted(times, Times::latency), 990),
        backlog_grows: quantile(&sorted(tail, Times::latency), 500) > SLO_P99_CYCLES,
        attempted: r.sample.attempted,
        failed: r.sample.failed,
    }
}

/// Binary-searches [`LADDER_GAPS`] for the heaviest rung that meets the
/// latency limit, taking the rungs that meet it to be a prefix of the
/// ladder. Returns every rung it ran, lightest first.
fn ladder(seed: u64, compiled: &Compiled) -> Vec<Rung> {
    let (mut lo, mut hi) = (0, LADDER_GAPS.len());
    let mut ran = Vec::new();
    while lo < hi {
        let mid = (lo + hi) / 2;
        let r = rung(seed, LADDER_GAPS[mid], compiled);
        if r.meets_slo() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
        ran.push(r);
    }
    ran.sort_by_key(|r| std::cmp::Reverse(r.gap));
    ran
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs workload `w` for about `seconds` of measured phases. With `trace`
/// off it reports the end-to-end metrics; with it on, the per-layer ones
/// from a traced run.
pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let source = w.generate_at(seed, KV_NOMINAL_GAP).spec().module.clone();
    let compiled = Compiled::new(w, source);
    let mut sheet = Sheet {
        metrics: Vec::new(),
        notes: Vec::new(),
        problems: Vec::new(),
    };
    let mut compiles = Compiles {
        total_ns: Vec::new(),
        pass_ns: BTreeMap::new(),
    };
    let (attempted, failed) = if trace {
        let modes = [Mode::Plain, Mode::Traced];
        let series = reps_until(
            w,
            seed,
            &compiled,
            &modes,
            deadline,
            &mut compiles,
            &mut sheet,
        );
        traced_run(w, seed, &compiled, &series, &compiles, &mut sheet)
    } else {
        let rungs = match w {
            Workload::KvOpenloop => ladder(seed, &compiled),
            Workload::Analytics | Workload::StreamTriad => Vec::new(),
        };
        let series = reps_until(
            w,
            seed,
            &compiled,
            &[Mode::Plain],
            deadline,
            &mut compiles,
            &mut sheet,
        );
        end_to_end(w, &compiled, &series[0], &rungs, &compiles, &mut sheet)
    };
    sheet.check(failed == 0, || {
        format!("{failed} of {attempted} operations failed")
    });
    Outcome {
        correct: sheet.problems.is_empty(),
        attempted,
        failed,
        metrics: sheet.metrics,
        notes: sheet.notes,
        problems: sheet.problems,
    }
}

/// The measured phases of one [`Mode`]: every phase's host sample, and
/// the first phase's simulation (the later ones must repeat it exactly and
/// are dropped once checked).
struct Series {
    first: Rep,
    samples: Vec<Sample>,
}

impl Series {
    fn ns<'a>(&'a self, f: impl Fn(&Sample) -> u64 + 'a) -> impl Iterator<Item = u64> + 'a {
        self.samples.iter().map(f)
    }

    fn best_ns(&self, f: impl Fn(&Sample) -> u64) -> u64 {
        self.ns(f).min().expect("a series has at least one phase")
    }

    /// The measured phase's host time as the sum, over its slices, of each
    /// slice's fastest time across phases. A slice is far shorter than the
    /// host's slow spells, so this finds the uncontended cost of a long
    /// open-loop run where a whole run rarely escapes them.
    fn best_sliced_run_ns(&self) -> u64 {
        let slices = self.samples[0].slices_ns.len();
        (0..slices)
            .map(|k| {
                self.samples
                    .iter()
                    .map(|s| s.slices_ns[k])
                    .min()
                    .expect("a series has at least one phase")
            })
            .sum()
    }

    fn totals(&self) -> (u64, u64) {
        self.samples
            .iter()
            .fold((0, 0), |(a, f), s| (a + s.attempted, f + s.failed))
    }

    fn tallies(&self) -> impl Iterator<Item = Tally> + '_ {
        self.samples
            .iter()
            .map(|s| s.tally.expect("traced phases carry a tally"))
    }
}

/// Runs rounds of measured phases on fresh machines, one phase per mode
/// per round, until `deadline` (at least [`MIN_REPS`] rounds), with a
/// tenth of each round's time spent sampling compile time. Checks that
/// every phase repeats the first one's simulation exactly.
fn reps_until(
    w: Workload,
    seed: u64,
    compiled: &Compiled,
    modes: &[Mode],
    deadline: Instant,
    compiles: &mut Compiles,
    sheet: &mut Sheet,
) -> Vec<Series> {
    let mut series: Vec<Series> = Vec::with_capacity(modes.len());
    let mut same = true;
    loop {
        let t = Instant::now();
        for (i, &mode) in modes.iter().enumerate() {
            let r = rep(w, seed, KV_NOMINAL_GAP, compiled, mode);
            match series.get_mut(i) {
                Some(s) => {
                    same &= r.sim == s.first.sim;
                    s.samples.push(r.sample);
                }
                None => series.push(Series {
                    samples: vec![r.sample.clone()],
                    first: r,
                }),
            }
        }
        compiles.sample_for(w, &compiled.source, t.elapsed() / 10);
        if series[0].samples.len() >= MIN_REPS && Instant::now() >= deadline {
            break;
        }
    }
    while compiles.total_ns.len() < MIN_COMPILES {
        compiles.sample_for(w, &compiled.source, Duration::ZERO);
    }
    same &= series.iter().all(|s| s.first.sim == series[0].first.sim);
    sheet.check(same, || {
        "repeated or traced phases disagree on simulated results".into()
    });
    series
}

fn end_to_end(
    w: Workload,
    compiled: &Compiled,
    series: &Series,
    rungs: &[Rung],
    compiles: &Compiles,
    sheet: &mut Sheet,
) -> (u64, u64) {
    for r in rungs {
        eprintln!(
            "ladder: rate {:.4} req/Mcycle  p99 {} cycles  backlog grows: {}",
            r.rate(),
            r.p99,
            r.backlog_grows
        );
    }
    let sim = &series.first.sim;
    let lat = sorted(&sim.times, Times::latency);

    sheet.int("sim_cycles", sim.stats.cycles, "cycles");
    sheet.int("req_p50_cycles", quantile(&lat, 500), "cycles");
    sheet.int("req_p99_cycles", quantile(&lat, 990), "cycles");
    let rate = match w {
        // A closed loop's one client completes a query every `sim_cycles`.
        Workload::Analytics | Workload::StreamTriad => 1e6 / sim.stats.cycles as f64,
        Workload::KvOpenloop => rungs
            .iter()
            .filter(|r| r.meets_slo())
            .map(Rung::rate)
            .fold(0.0, f64::max),
    };
    sheet.check(rate > 0.0, || {
        "no ladder rung meets the latency limit".into()
    });
    sheet.float("max_rate_at_slo", rate, "req/Mcycle");
    // Host run and compile times swing with this host's speed regimes
    // more than any bound allows, so the traced run reports them as
    // metrics and the untraced run only notes them.
    sheet.note_host(
        "host_run_s",
        series.best_sliced_run_ns(),
        series.ns(|s| s.run_ns).collect(),
    );
    let compile_best = *compiles.total_ns.iter().min().expect("compiles ran");
    sheet.note_host("compile_s", compile_best, compiles.total_ns.clone());
    sheet.host("setup_s", series.ns(|s| s.gen_ns + s.fill_ns));
    sheet.float(
        "code_size_ratio",
        compiled.report.code_size_ratio(),
        "ratio",
    );
    let rss = peak_rss_mib();
    sheet.check(rss.is_some(), || "peak resident memory unreadable".into());
    sheet.float("peak_rss_mib", rss.unwrap_or(0.0), "MiB");

    let (mut attempted, mut failed) = series.totals();
    for r in rungs {
        attempted += r.attempted;
        failed += r.failed;
    }
    (attempted, failed)
}

fn traced_run(
    w: Workload,
    seed: u64,
    compiled: &Compiled,
    series: &[Series],
    compiles: &Compiles,
    sheet: &mut Sheet,
) -> (u64, u64) {
    let timer_ns = traced::calibrate_timer_ns();
    let (plain, traced) = (&series[0], &series[1]);
    let replay = rep(w, seed, KV_NOMINAL_GAP, compiled, Mode::Uncharged);
    let sim = &traced.first.sim;
    let tally: Tally = traced
        .first
        .sample
        .tally
        .expect("traced phases carry a tally");

    // End to end on the host, from the untraced phases.
    sheet.host_run(plain);
    sheet.host("compile_s", compiles.total_ns.iter().copied());

    // Compiler.
    let report = &compiled.report;
    for (pass, ns) in &compiles.pass_ns {
        sheet.host(format!("compile.pass_s.{pass}"), ns.iter().copied());
    }
    sheet.int(
        "compile.guards_inserted",
        report.total_guards() as u64,
        "count",
    );
    sheet.int(
        "compile.guards_elided",
        (report.elision.eliminated + report.motion.upgraded) as u64,
        "count",
    );
    sheet.int(
        "compile.guards_hoisted",
        report.motion.hoisted as u64,
        "count",
    );
    sheet.int(
        "compile.loops_chunked",
        report.chunking.chunked_loops as u64,
        "count",
    );

    // Interpreter. The uncharged replay executes the same instructions with
    // the memory layer charging nothing, so its busy cycles are the
    // machine's own; together with the cycles the traced memory layer
    // returned they must make up the traced run's busy cycles exactly.
    let insts = sim.stats.instructions;
    let compute = replay.sim.busy_cycles();
    let mem_cycles = traced::tally_cycles(&tally);
    sheet.check(
        replay.sim.stats.instructions == insts && replay.sim.rets == sim.rets,
        || "the uncharged replay executed a different program path".into(),
    );
    sheet.check(compute + mem_cycles == sim.busy_cycles(), || {
        format!(
            "cycle split does not conserve: compute {compute} + memory layer {mem_cycles} != busy {}",
            sim.busy_cycles()
        )
    });
    let timer = |calls: u64| (calls as f64 * timer_ns) as u64;
    let interp_ns: Vec<u64> = traced
        .samples
        .iter()
        .zip(traced.tallies())
        .map(|(s, t)| {
            s.run_ns
                .saturating_sub(traced::tally_host_ns(&t) + timer(traced::tally_calls(&t)))
        })
        .collect();
    let best_interp_ns = interp_ns.iter().copied().min().unwrap_or(0);
    sheet.int("sim.insts_retired", insts, "count");
    sheet.int("sim.compute_cycles", compute, "cycles");
    sheet.host("sim.interp_host_s", interp_ns);
    sheet.float(
        "sim.interp_ns_per_inst",
        best_interp_ns as f64 / insts.max(1) as f64,
        "ns",
    );

    // Scheduler.
    let queue = sorted(&sim.times, Times::queue_wait);
    let busy = sim.busy_cycles();
    let cores = u64::from(w.config().cores.max(1));
    sheet.int(
        "sched.queue_wait_p50_cycles",
        quantile(&queue, 500),
        "cycles",
    );
    sheet.int(
        "sched.queue_wait_p99_cycles",
        quantile(&queue, 990),
        "cycles",
    );
    sheet.int(
        "sched.service_p99_cycles",
        quantile(&sorted(&sim.times, Times::service), 990),
        "cycles",
    );
    sheet.int(
        "sched.completion_wait_p99_cycles",
        quantile(&sorted(&sim.times, Times::completion_wait), 990),
        "cycles",
    );
    sheet.float(
        "sched.core_util",
        busy as f64 / (cores * sim.stats.cycles.max(1)) as f64,
        "ratio",
    );

    // Memory layer, per entry point.
    for op in Op::ALL {
        let t = tally[op as usize];
        let host = traced.tallies().map(|t| {
            let t = t[op as usize];
            t.host_ns.saturating_sub(timer(t.calls))
        });
        sheet.int(format!("memsys.{}.calls", op.name()), t.calls, "count");
        sheet.host(format!("memsys.{}.host_s", op.name()), host);
        sheet.int(format!("memsys.{}.cycles", op.name()), t.cycles, "cycles");
    }

    // Object runtime and link.
    let rt = sim.runtime.unwrap_or_default();
    let net = sim.transfers.unwrap_or_default();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    sheet.int("rt.remote_fetches", rt.remote_fetches, "count");
    sheet.int("rt.evictions", rt.evictions, "count");
    sheet.int("rt.writebacks", rt.writebacks, "count");
    sheet.int("rt.fetch_joins", rt.fetch_joins, "count");
    sheet.int("rt.stall_cycles", sim.stats.stall_cycles, "cycles");
    sheet.float(
        "rt.prefetch_hit_ratio",
        ratio(rt.prefetch_hits, rt.prefetch_issued),
        "ratio",
    );
    sheet.float(
        "rt.guard_fast_ratio",
        ratio(sim.stats.guards_fast, sim.stats.total_guards()),
        "ratio",
    );
    sheet.int("net.fetches", net.fetches, "count");
    sheet.int("net.bytes_fetched", net.bytes_fetched, "B");
    sheet.int("net.bytes_written_back", net.bytes_written_back, "B");
    sheet.float(
        "net.bytes_per_request",
        ratio(net.total_bytes(), sim.times.len() as u64),
        "B",
    );

    // Set-up, and what tracing costs.
    sheet.host("setup.gen_s", plain.ns(|s| s.gen_ns));
    sheet.host("setup.fill_s", plain.ns(|s| s.fill_ns));
    sheet.float(
        "trace.overhead_ratio",
        traced.best_ns(|s| s.run_ns) as f64 / plain.best_ns(|s| s.run_ns) as f64,
        "ratio",
    );
    sheet.float("trace.timer_ns", timer_ns, "ns");

    library_cross_check(w, seed, sim, sheet);

    let (a, f) = (plain.totals(), traced.totals());
    (
        a.0 + f.0 + replay.sample.attempted,
        a.1 + f.1 + replay.sample.failed,
    )
}

/// Runs the workload once through the library's own runner and checks that
/// the benchmark's driver simulated exactly the same thing. The runner
/// panics on a trap or a wrong result; that is recorded as a failed check.
fn library_cross_check(w: Workload, seed: u64, sim: &Sim, sheet: &mut Sheet) {
    let cfg = w.config();
    let library = std::panic::catch_unwind(|| match w.generate_at(seed, KV_NOMINAL_GAP) {
        Inputs::Closed(spec) => {
            let r = execute(&spec, &cfg).result;
            (r.ret, r.stats, r.runtime, r.transfers)
        }
        Inputs::Open(ol) => {
            let run = execute_open_loop(&ol, &cfg);
            let r = run.outcome.result;
            (run.checksum, r.stats, r.runtime, r.transfers)
        }
    });
    let Ok((ret, stats, runtime, transfers)) = library else {
        sheet.check(false, || "the library runner failed".into());
        return;
    };
    // A closed loop returns one value; an open loop's runner sums them.
    let ours = sim
        .rets
        .iter()
        .flatten()
        .fold(0u64, |s, r| s.wrapping_add(*r));
    sheet.check(
        ret == ours && stats == sim.stats && runtime == sim.runtime && transfers == sim.transfers,
        || format!("{}: the library runner simulated something else", w.name()),
    );
}
