//! Open-loop serving with exact per-request timestamps.
//!
//! The same dispatch as `tfm_workloads::execute_open_loop` — one shared
//! machine, a [`CoreSet`] of simulated cores, requests served in arrival
//! order on the earliest-free core, split issue/complete fetches when there
//! is more than one core — but it records each request's arrival, start,
//! end and retire cycles instead of folding latency into a log₂ histogram,
//! so percentiles are exact. A trapped request is counted as failed and the
//! run goes on.

use std::collections::HashMap;
use std::time::Instant;
use tfm_sim::{CoreSet, Machine, MemorySystem, RunResult};
use tfm_workloads::memcached::VALUE_BYTES;
use tfm_workloads::{ArgSpec, InputData, OpenLoopSpec, Request};

/// Requests per host-timed slice of a run (see [`OpenLoopRun::slice_ns`]).
pub const SLICE: usize = 10_000;

/// One request's timeline, in simulated cycles.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Times {
    /// When it was due.
    pub arrival: u64,
    /// When a core began serving it.
    pub start: u64,
    /// When its core was free again (misses charge only the issue point).
    pub end: u64,
    /// When its last fetch landed: the request is complete.
    pub retire: u64,
}

impl Times {
    /// Time spent waiting for a core.
    pub fn queue_wait(&self) -> u64 {
        self.start - self.arrival
    }
    /// Time a core spent serving it.
    pub fn service(&self) -> u64 {
        self.end - self.start
    }
    /// Time between the core moving on and the data landing.
    pub fn completion_wait(&self) -> u64 {
        self.retire - self.end
    }
    /// End-to-end latency, queueing included.
    pub fn latency(&self) -> u64 {
        self.retire - self.arrival
    }
}

/// The outcome of one open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopRun {
    /// Per-request timelines, in arrival order.
    pub times: Vec<Times>,
    /// Per-request `get` return, `None` where the request trapped.
    pub rets: Vec<Option<u64>>,
    /// Cumulative machine result of the last successful request, with
    /// `stats.cycles` set to the makespan (as `execute_open_loop` reports).
    pub result: Option<RunResult>,
    /// The latest core clock.
    pub makespan: u64,
    /// Wrapping sum of the successful requests' returns.
    pub checksum: u64,
    /// Host nanoseconds of each consecutive slice of [`SLICE`] requests.
    pub slice_ns: Vec<u64>,
}

/// Serves `requests` on `cores` simulated cores. `args` are the `get`
/// arguments that precede the key (from `tfm_workloads::runner::setup`).
pub fn drive<M: MemorySystem>(
    machine: &mut Machine<'_, M>,
    args: &[u64],
    requests: &[Request],
    cores: u32,
) -> OpenLoopRun {
    let mut set = CoreSet::new(cores);
    let multi = set.len() > 1;
    if multi {
        machine.mem.set_async_fetch(true);
    }
    let mut times = Vec::with_capacity(requests.len());
    let mut rets = Vec::with_capacity(requests.len());
    let mut result = None;
    let mut checksum = 0u64;
    let mut call = Vec::with_capacity(args.len() + 1);
    let mut slice_ns = Vec::with_capacity(requests.len().div_ceil(SLICE));
    let mut slice_start = Instant::now();
    for (i, req) in requests.iter().enumerate() {
        let core = set.pick();
        let start = set.begin(core, req.arrival);
        machine.set_clock(start);
        if multi {
            machine.set_core(core);
        }
        call.clear();
        call.extend_from_slice(args);
        call.push(req.key);
        let r = machine.run("get", &call);
        let end = machine.clock();
        set.finish(core, end);
        let retire = end.max(machine.mem.take_completion_horizon());
        times.push(Times {
            arrival: req.arrival,
            start,
            end,
            retire,
        });
        match r {
            Ok(r) => {
                checksum = checksum.wrapping_add(r.ret);
                rets.push(Some(r.ret));
                result = Some(r);
            }
            Err(_) => rets.push(None),
        }
        if (i + 1) % SLICE == 0 || i + 1 == requests.len() {
            slice_ns.push(slice_start.elapsed().as_nanos() as u64);
            slice_start = Instant::now();
        }
    }
    let makespan = set.makespan();
    if let Some(r) = &mut result {
        r.stats.cycles = makespan;
    }
    OpenLoopRun {
        times,
        rets,
        result,
        makespan,
        checksum,
        slice_ns,
    }
}

/// The host oracle for `get`: each key's value, folded as the program
/// folds it (xor of the value's words), read straight from the generated
/// `index` and `slab` inputs. It shares no code with the compiler or the
/// simulator.
pub struct KvOracle {
    values: HashMap<u64, u64>,
}

impl KvOracle {
    /// Builds the oracle from the workload's inputs: the index holds
    /// `(key, slab slot + 1)` pairs, zero keys mark empty slots.
    ///
    /// # Panics
    /// Panics if the inputs are not the open-loop store's two `u64` arrays.
    pub fn new(ol: &OpenLoopSpec) -> Self {
        let (InputData::U64(index), InputData::U64(slab)) =
            (&ol.spec.inputs[0], &ol.spec.inputs[1])
        else {
            panic!("open-loop store inputs are two u64 arrays");
        };
        assert_eq!(
            ol.spec.args,
            [ArgSpec::Input(0), ol.spec.args[1], ArgSpec::Input(1)],
            "get(index, mask, slab, key)"
        );
        let words = VALUE_BYTES / 8;
        let values = index
            .chunks_exact(2)
            .filter(|e| e[0] != 0)
            .map(|e| {
                let base = (e[1] - 1) as usize * words;
                (e[0], slab[base..base + words].iter().fold(0, |x, w| x ^ w))
            })
            .collect();
        KvOracle { values }
    }

    /// What `get(key)` must return (0 for an absent key).
    pub fn get(&self, key: u64) -> u64 {
        self.values.get(&key).copied().unwrap_or(0)
    }

    /// Requests whose return disagrees with the oracle, traps included.
    pub fn failures(&self, requests: &[Request], rets: &[Option<u64>]) -> u64 {
        requests
            .iter()
            .zip(rets)
            .filter(|(q, r)| **r != Some(self.get(q.key)))
            .count() as u64
    }
}
