//! The traced run's memory-system adapter.
//!
//! [`Traced`] wraps any [`MemorySystem`] and forwards every trait method to
//! it unchanged, so the simulated run is bit-identical to an untraced one.
//! Around each costed entry point it records the call count, the host
//! nanoseconds spent inside the call and the simulated cycles the call
//! returned. Those returned cycles are exactly what the machine adds to its
//! clock on top of its own per-operation costs, so the tally splits the
//! simulated cycles between the interpreter and the memory layer with no
//! remainder.

use std::hint::black_box;
use std::time::Instant;
use tfm_sim::{ExecStats, MemSummary, MemorySystem, Trap};
use tfm_telemetry::Telemetry;

/// The memory-system entry points the tally distinguishes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Guard,
    ChunkBegin,
    ChunkDeref,
    ChunkEnd,
    DataAccess,
    PrefetchHint,
    AccessRange,
}

impl Op {
    /// Every entry point, in report order.
    pub const ALL: [Op; 7] = [
        Op::Guard,
        Op::ChunkBegin,
        Op::ChunkDeref,
        Op::ChunkEnd,
        Op::DataAccess,
        Op::PrefetchHint,
        Op::AccessRange,
    ];

    /// The metric-name component (`memsys.<name>.calls`).
    pub fn name(self) -> &'static str {
        match self {
            Op::Guard => "guard",
            Op::ChunkBegin => "chunk_begin",
            Op::ChunkDeref => "chunk_deref",
            Op::ChunkEnd => "chunk_end",
            Op::DataAccess => "data_access",
            Op::PrefetchHint => "prefetch_hint",
            Op::AccessRange => "access_range",
        }
    }
}

/// Accumulated cost of one entry point.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpTally {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside the calls, timer cost included.
    pub host_ns: u64,
    /// Simulated cycles the calls returned to the machine.
    pub cycles: u64,
}

/// Per-entry-point tallies, indexed like [`Op::ALL`].
pub type Tally = [OpTally; 7];

/// Total simulated cycles the memory layer returned.
pub fn tally_cycles(t: &Tally) -> u64 {
    t.iter().map(|o| o.cycles).sum()
}

/// Total host nanoseconds measured inside the memory layer.
pub fn tally_host_ns(t: &Tally) -> u64 {
    t.iter().map(|o| o.host_ns).sum()
}

/// Total calls into the costed entry points.
pub fn tally_calls(t: &Tally) -> u64 {
    t.iter().map(|o| o.calls).sum()
}

/// Host nanoseconds one timed interval adds around an empty body: the
/// median over many back-to-back `Instant::now()` / `elapsed()` pairs.
/// Each traced call pays two clock reads; about one of them falls inside
/// the measured interval, and this is that share.
pub fn calibrate_timer_ns() -> f64 {
    const BATCH: u32 = 2_000;
    let mut per_pair: Vec<f64> = (0..51)
        .map(|_| {
            let mut sum = 0u128;
            for _ in 0..BATCH {
                let t = Instant::now();
                sum += black_box(t.elapsed()).as_nanos();
            }
            sum as f64 / f64::from(BATCH)
        })
        .collect();
    per_pair.sort_by(f64::total_cmp);
    per_pair[per_pair.len() / 2]
}

/// A [`MemorySystem`] that forwards every call and tallies the costed ones.
pub struct Traced<M> {
    /// The wrapped memory system.
    pub inner: M,
    tally: Tally,
    /// Whether the machine is charged the cycles the wrapped system returns.
    charge: bool,
}

impl<M> Traced<M> {
    /// Wraps `inner` with zeroed tallies.
    pub fn new(inner: M) -> Self {
        Traced {
            inner,
            tally: Tally::default(),
            charge: true,
        }
    }

    /// Wraps `inner` but hands the machine 0 cycles for every call, so the
    /// machine's clock advances by its own operation costs only. Pointers,
    /// handles and traps still come from `inner`, so the program executes
    /// the same instructions as it does under [`Traced::new`].
    pub fn uncharged(inner: M) -> Self {
        Traced {
            charge: false,
            ..Self::new(inner)
        }
    }

    /// The tallies since the last [`MemorySystem::reset_stats`] (which the
    /// machine issues when set-up ends, so they cover the measured phase).
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Records one call and returns the cycles to charge the machine.
    #[inline]
    fn note(&mut self, op: Op, since: Instant, cycles: u64) -> u64 {
        let t = &mut self.tally[op as usize];
        t.host_ns += since.elapsed().as_nanos() as u64;
        t.calls += 1;
        t.cycles += cycles;
        if self.charge {
            cycles
        } else {
            0
        }
    }
}

impl<M: MemorySystem> MemorySystem for Traced<M> {
    fn alloc(&mut self, size: u64, now: u64) -> Result<u64, Trap> {
        self.inner.alloc(size, now)
    }

    fn alloc_local(&mut self, size: u64, now: u64) -> Result<u64, Trap> {
        self.inner.alloc_local(size, now)
    }

    fn free(&mut self, ptr: u64, now: u64) -> Result<(), Trap> {
        self.inner.free(ptr, now)
    }

    fn alloc_size(&self, ptr: u64) -> Option<u64> {
        self.inner.alloc_size(ptr)
    }

    fn data_access(
        &mut self,
        addr: u64,
        size: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        let t = Instant::now();
        let c = self.inner.data_access(addr, size, write, now, stats)?;
        Ok(self.note(Op::DataAccess, t, c))
    }

    fn guard(
        &mut self,
        ptr: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        let t = Instant::now();
        let (c, p) = self.inner.guard(ptr, write, now, stats)?;
        Ok((self.note(Op::Guard, t, c), p))
    }

    fn chunk_begin(&mut self, ptr: u64, flags: i64, now: u64) -> (u64, u64) {
        let t = Instant::now();
        let (c, h) = self.inner.chunk_begin(ptr, flags, now);
        (self.note(Op::ChunkBegin, t, c), h)
    }

    fn chunk_deref(
        &mut self,
        handle: u64,
        ptr: u64,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        let t = Instant::now();
        let (c, p) = self.inner.chunk_deref(handle, ptr, now, stats)?;
        Ok((self.note(Op::ChunkDeref, t, c), p))
    }

    fn chunk_end(&mut self, handle: u64, now: u64) -> Result<u64, Trap> {
        let t = Instant::now();
        let c = self.inner.chunk_end(handle, now)?;
        Ok(self.note(Op::ChunkEnd, t, c))
    }

    fn prefetch_hint(&mut self, ptr: u64, now: u64) {
        let t = Instant::now();
        self.inner.prefetch_hint(ptr, now);
        self.note(Op::PrefetchHint, t, 0);
    }

    fn canonical(&self, addr: u64) -> u64 {
        self.inner.canonical(addr)
    }

    fn access_range(
        &mut self,
        addr: u64,
        len: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        let t = Instant::now();
        let c = self.inner.access_range(addr, len, write, now, stats)?;
        Ok(self.note(Op::AccessRange, t, c))
    }

    fn evacuate_all(&mut self, now: u64) {
        self.inner.evacuate_all(now);
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.tally = Tally::default();
    }

    fn summary(&self) -> MemSummary {
        self.inner.summary()
    }

    fn set_telemetry(&mut self, tel: Telemetry) {
        self.inner.set_telemetry(tel);
    }

    fn set_core(&mut self, core: u32) {
        self.inner.set_core(core);
    }

    fn set_async_fetch(&mut self, on: bool) {
        self.inner.set_async_fetch(on);
    }

    fn take_completion_horizon(&mut self) -> u64 {
        self.inner.take_completion_horizon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A memory system whose defaulted trait methods are overridden and
    /// observable, to catch an adapter that lets a default body run instead
    /// of forwarding.
    #[derive(Default)]
    struct Probe {
        local_allocs: u64,
        core: u32,
        async_fetch: bool,
        horizon: u64,
    }

    impl MemorySystem for Probe {
        fn alloc(&mut self, _: u64, _: u64) -> Result<u64, Trap> {
            Ok(0)
        }
        fn alloc_local(&mut self, _: u64, _: u64) -> Result<u64, Trap> {
            self.local_allocs += 1;
            Ok(0)
        }
        fn free(&mut self, _: u64, _: u64) -> Result<(), Trap> {
            Ok(())
        }
        fn alloc_size(&self, _: u64) -> Option<u64> {
            None
        }
        fn data_access(
            &mut self,
            _: u64,
            _: u64,
            _: bool,
            _: u64,
            _: &mut ExecStats,
        ) -> Result<u64, Trap> {
            Ok(7)
        }
        fn guard(
            &mut self,
            p: u64,
            _: bool,
            _: u64,
            _: &mut ExecStats,
        ) -> Result<(u64, u64), Trap> {
            Ok((3, p))
        }
        fn chunk_begin(&mut self, _: u64, _: i64, _: u64) -> (u64, u64) {
            (5, 1)
        }
        fn chunk_deref(
            &mut self,
            _: u64,
            p: u64,
            _: u64,
            _: &mut ExecStats,
        ) -> Result<(u64, u64), Trap> {
            Ok((2, p))
        }
        fn chunk_end(&mut self, _: u64, _: u64) -> Result<u64, Trap> {
            Ok(1)
        }
        fn prefetch_hint(&mut self, _: u64, _: u64) {}
        fn canonical(&self, addr: u64) -> u64 {
            addr
        }
        fn access_range(
            &mut self,
            _: u64,
            _: u64,
            _: bool,
            _: u64,
            _: &mut ExecStats,
        ) -> Result<u64, Trap> {
            Ok(11)
        }
        fn evacuate_all(&mut self, _: u64) {}
        fn reset_stats(&mut self) {}
        fn summary(&self) -> MemSummary {
            MemSummary::default()
        }
        fn set_core(&mut self, core: u32) {
            self.core = core;
        }
        fn set_async_fetch(&mut self, on: bool) {
            self.async_fetch = on;
        }
        fn take_completion_horizon(&mut self) -> u64 {
            std::mem::take(&mut self.horizon)
        }
    }

    #[test]
    fn defaulted_methods_reach_the_wrapped_system() {
        let mut t = Traced::new(Probe {
            horizon: 99,
            ..Probe::default()
        });
        t.alloc_local(64, 0).unwrap();
        t.set_core(3);
        t.set_async_fetch(true);
        assert_eq!(t.take_completion_horizon(), 99);
        assert_eq!(t.take_completion_horizon(), 0);
        assert_eq!(t.inner.local_allocs, 1);
        assert_eq!(t.inner.core, 3);
        assert!(t.inner.async_fetch);
    }

    #[test]
    fn tally_counts_calls_and_returned_cycles_per_entry_point() {
        let mut t = Traced::new(Probe::default());
        let mut s = ExecStats::default();
        t.data_access(0, 8, false, 0, &mut s).unwrap();
        t.data_access(0, 8, true, 0, &mut s).unwrap();
        t.guard(1, false, 0, &mut s).unwrap();
        t.chunk_begin(0, 0, 0);
        t.chunk_deref(1, 0, 0, &mut s).unwrap();
        t.chunk_end(1, 0).unwrap();
        t.prefetch_hint(0, 0);
        t.access_range(0, 64, true, 0, &mut s).unwrap();
        let calls: Vec<u64> = t.tally().iter().map(|o| o.calls).collect();
        assert_eq!(calls, [1, 1, 1, 1, 2, 1, 1]);
        assert_eq!(t.tally()[Op::DataAccess as usize].cycles, 14);
        assert_eq!(tally_cycles(t.tally()), 14 + 3 + 5 + 2 + 1 + 11);
        t.reset_stats();
        assert_eq!(tally_calls(t.tally()), 0);
    }

    #[test]
    fn uncharged_calls_tally_cycles_but_charge_none() {
        let mut t = Traced::uncharged(Probe::default());
        let mut s = ExecStats::default();
        assert_eq!(t.guard(5, true, 0, &mut s).unwrap(), (0, 5));
        assert_eq!(t.chunk_begin(0, 0, 0), (0, 1));
        assert_eq!(t.tally()[Op::Guard as usize].cycles, 3);
        assert_eq!(tally_cycles(t.tally()), 3 + 5);
    }
}
