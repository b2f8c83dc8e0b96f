//! The benchmark's workloads: what each runs, on which configuration, and
//! why it was chosen.

use tfm_workloads::analytics::{analytics, AnalyticsParams};
use tfm_workloads::stream::{triad, StreamParams};
use tfm_workloads::{open_loop, OpenLoopParams, OpenLoopSpec, RunConfig, WorkloadSpec};

/// One benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    Analytics,
    StreamTriad,
    KvOpenloop,
}

/// Offered load of the kv-openloop nominal run: mean gap between arrivals,
/// in cycles. At 400 cycles the p99 sits on the knee of the latency curve
/// and jumps between seeds; at 440 it is one fetch round trip plus a little
/// queueing on every seed.
pub const KV_NOMINAL_GAP: u64 = 440;

/// Generated inputs of one workload.
pub enum Inputs {
    /// A closed loop: one client runs `main` once and waits for it.
    Closed(WorkloadSpec),
    /// An open loop: requests arrive on a seeded schedule.
    Open(OpenLoopSpec),
}

impl Inputs {
    /// The program and its store inputs.
    pub fn spec(&self) -> &WorkloadSpec {
        match self {
            Inputs::Closed(s) => s,
            Inputs::Open(ol) => &ol.spec,
        }
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Analytics,
        Workload::StreamTriad,
        Workload::KvOpenloop,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Analytics => "analytics",
            Workload::StreamTriad => "stream-triad",
            Workload::KvOpenloop => "kv-openloop",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark: the layers it loads.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Analytics => {
                "closed loop; compiler and interpreter do the work (guard elision, chunking, \
                 fast guards) while the runtime slow path and link stay nearly idle"
            }
            Workload::StreamTriad => {
                "closed loop; the runtime through chunk streams, the prefetcher and dirty \
                 writebacks, with no guards at all"
            }
            Workload::KvOpenloop => {
                "open loop on 4 simulated cores; demand misses, fetch joins, link queueing and \
                 the scheduler do the work while the compiler sees one tiny function"
            }
        }
    }

    /// The run configuration: `RunConfig` defaults plus the workload's
    /// local-memory share (and, for kv-openloop, object size and cores).
    /// The execution engine is left at its default on purpose.
    pub fn config(self) -> RunConfig {
        match self {
            Workload::Analytics => RunConfig::trackfm(0.5),
            Workload::StreamTriad => RunConfig::trackfm(0.25),
            Workload::KvOpenloop => RunConfig::trackfm(0.1).with_object_size(64).with_cores(4),
        }
    }

    /// Whether the workload's generator takes the seed. The analytics and
    /// STREAM generators are deterministic and unseeded, so their inputs are
    /// the same for every seed.
    pub fn seeded(self) -> bool {
        self == Workload::KvOpenloop
    }

    /// The kv-openloop generator parameters for a seed and offered load.
    pub fn kv_params(seed: u64, mean_gap_cycles: u64) -> OpenLoopParams {
        OpenLoopParams {
            keys: 100_000,
            requests: 200_000,
            seed,
            mean_gap_cycles,
            ..OpenLoopParams::default()
        }
    }

    /// Generates the workload's inputs for `seed`; kv-openloop's requests
    /// arrive `mean_gap_cycles` apart on average (the closed loops ignore
    /// both arguments).
    pub fn generate_at(self, seed: u64, mean_gap_cycles: u64) -> Inputs {
        match self {
            Workload::Analytics => Inputs::Closed(analytics(&AnalyticsParams::default())),
            Workload::StreamTriad => Inputs::Closed(triad(&StreamParams::default())),
            Workload::KvOpenloop => {
                Inputs::Open(open_loop(&Self::kv_params(seed, mean_gap_cycles)))
            }
        }
    }

    /// The generator parameters, for the run's metadata line.
    pub fn params(self, seed: u64) -> String {
        match self {
            Workload::Analytics => format!("{:?}", AnalyticsParams::default()),
            Workload::StreamTriad => format!("{:?}", StreamParams::default()),
            Workload::KvOpenloop => format!("{:?}", Self::kv_params(seed, KV_NOMINAL_GAP)),
        }
    }
}
