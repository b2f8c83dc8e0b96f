//! One measured phase on a fresh machine, timed on the host and checked
//! against the workload's oracle.

use crate::openloop::{self, KvOracle, Times};
use crate::traced::{Tally, Traced};
use crate::workload::{Inputs, Workload};
use std::time::Instant;
use tfm_ir::Module;
use tfm_net::TransferStats;
use tfm_runtime::RuntimeStats;
use tfm_sim::{ExecStats, Machine, MemorySystem, TrackFmMem};
use tfm_workloads::runner;
use trackfm::{CompileReport, TrackFmCompiler};

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The workload's program before and after `TrackFmCompiler::compile`.
pub struct Compiled {
    /// The untransformed module.
    pub source: Module,
    /// The transformed module.
    pub module: Module,
    /// What the compiler did.
    pub report: CompileReport,
}

impl Compiled {
    /// Compiles `source` with the workload's compiler options.
    pub fn new(w: Workload, source: Module) -> Self {
        let mut module = source.clone();
        let report = TrackFmCompiler::new(w.config().compiler).compile(&mut module, None);
        Compiled {
            source,
            module,
            report,
        }
    }
}

/// Everything a run simulated. Two runs of the same inputs must agree on
/// all of it, bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Sim {
    /// Interpreter counters; `cycles` is the makespan for open loops.
    pub stats: ExecStats,
    /// Far-memory runtime counters.
    pub runtime: Option<RuntimeStats>,
    /// Link ledger.
    pub transfers: Option<TransferStats>,
    /// Per-request timelines. A closed loop is one request that arrives at
    /// cycle 0 and retires when `main` returns.
    pub times: Vec<Times>,
    /// Per-request return values (`None` for a trap).
    pub rets: Vec<Option<u64>>,
}

impl Sim {
    /// Cycles the cores spent serving requests: for a closed loop the whole
    /// run, for an open loop the sum of per-request service times (the
    /// makespan also holds idle gaps, and cores overlap).
    pub fn busy_cycles(&self) -> u64 {
        self.times.iter().map(Times::service).sum()
    }
}

/// How the memory system is wrapped for a run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The bare memory system: end-to-end numbers.
    Plain,
    /// Wrapped in [`Traced`]: per-entry-point calls, host time and cycles.
    Traced,
    /// Wrapped in [`Traced::uncharged`]: the machine's own cycles only.
    Uncharged,
}

/// Host timings and outcome counts of one measured phase.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Host time generating the inputs.
    pub gen_ns: u64,
    /// Host time building the machine and filling its inputs
    /// (`Machine::new` + `runner::setup`).
    pub fill_ns: u64,
    /// Host time of the measured phase.
    pub run_ns: u64,
    /// Host time of each consecutive slice of the measured phase: one slice
    /// for a closed loop, [`openloop::SLICE`] requests each for an open one.
    /// Every phase of the same inputs does the same work slice by slice.
    pub slices_ns: Vec<u64>,
    /// Operations attempted: one per `main` run or served request.
    pub attempted: u64,
    /// Operations that trapped or returned a wrong result.
    pub failed: u64,
    /// The memory-layer tally ([`Mode::Traced`] and [`Mode::Uncharged`]).
    pub tally: Option<Tally>,
}

/// One fresh machine, set up, run and checked.
pub struct Rep {
    /// What it cost on the host, and how many operations failed.
    pub sample: Sample,
    /// What was simulated.
    pub sim: Sim,
}

/// Generates the inputs for `seed` (at mean arrival gap `gap` for the open
/// loop), then sets up and runs a fresh machine.
pub fn rep(w: Workload, seed: u64, gap: u64, compiled: &Compiled, mode: Mode) -> Rep {
    let t = Instant::now();
    let inputs = w.generate_at(seed, gap);
    let gen_ns = ns_since(t);
    let mut rep = match mode {
        Mode::Plain => run_on(w, &inputs, compiled, |m| m, |_| None),
        Mode::Traced => run_on(w, &inputs, compiled, Traced::new, |m| Some(*m.tally())),
        Mode::Uncharged => run_on(w, &inputs, compiled, Traced::uncharged, |m| {
            Some(*m.tally())
        }),
    };
    rep.sample.gen_ns = gen_ns;
    rep
}

fn run_on<M: MemorySystem>(
    w: Workload,
    inputs: &Inputs,
    compiled: &Compiled,
    wrap: impl FnOnce(TrackFmMem) -> M,
    tally: impl FnOnce(&M) -> Option<Tally>,
) -> Rep {
    let cfg = w.config();
    let spec = inputs.spec();
    let t = Instant::now();
    let mem = wrap(TrackFmMem::new(runner::far_config(spec, &cfg), cfg.cost));
    let mut machine = Machine::new(
        &compiled.module,
        mem,
        cfg.cost,
        spec.heap_size(cfg.object_size),
    );
    machine.set_engine(cfg.engine);
    let args = runner::setup(spec, &mut machine, false);
    let fill_ns = ns_since(t);

    let t = Instant::now();
    let (result, times, rets, slices_ns) = match inputs {
        Inputs::Closed(_) => {
            let r = machine.run("main", &args).ok();
            let end = machine.clock();
            let times = vec![Times {
                arrival: 0,
                start: 0,
                end,
                retire: end,
            }];
            let ret = r.as_ref().map(|r| r.ret);
            (r, times, vec![ret], Vec::new())
        }
        Inputs::Open(ol) => {
            let run = openloop::drive(&mut machine, &args, &ol.requests, cfg.cores);
            (run.result, run.times, run.rets, run.slice_ns)
        }
    };
    let run_ns = ns_since(t);
    let slices_ns = if slices_ns.is_empty() {
        vec![run_ns]
    } else {
        slices_ns
    };

    let failed = match inputs {
        Inputs::Closed(spec) => u64::from(rets[0].is_none() || rets[0] != spec.expected),
        Inputs::Open(ol) => KvOracle::new(ol).failures(&ol.requests, &rets),
    };
    Rep {
        sample: Sample {
            gen_ns: 0,
            fill_ns,
            run_ns,
            slices_ns,
            attempted: rets.len() as u64,
            failed,
            tally: tally(&machine.mem),
        },
        sim: Sim {
            stats: result.as_ref().map(|r| r.stats).unwrap_or_default(),
            runtime: result.as_ref().and_then(|r| r.runtime),
            transfers: result.as_ref().and_then(|r| r.transfers),
            times,
            rets,
        },
    }
}
