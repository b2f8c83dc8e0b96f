//! Memory systems: the four execution back-ends of the evaluation.
//!
//! | back-end | paper system | program form | access cost |
//! |---|---|---|---|
//! | [`LocalMem`] | "all local" baseline | any | plain loads/stores |
//! | [`FastswapMem`] | Fastswap (kernel paging) | *untransformed* | page faults at 4 KB granularity |
//! | [`TrackFmMem`] | TrackFM | *transformed* | compiler guards + object runtime |
//! | [`TrackFmMem::new_aifm`] | AIFM (library) | *transformed*¹ | smart-pointer derefs + object runtime |
//!
//! ¹ The AIFM baseline executes the same transformed program but charges the
//! costs a hand-modified application would pay: no custody checks (the
//! developer knows which pointers are remoteable) and cheaper dereferences,
//! per the substitution table in DESIGN.md.

use crate::stats::ExecStats;
use crate::trap::Trap;
use tfm_fastswap::{Pager, PagerConfig, PagerStats};
use tfm_ir::{CHUNK_FLAG_OVERWRITE, CHUNK_FLAG_PREFETCH, CHUNK_FLAG_WRITE};
use tfm_net::{ShardSnapshot, TransferStats};
use tfm_runtime::{FarMemory, FarMemoryConfig, ObjId, RegionAllocator, RuntimeStats, TfmPtr};
use tfm_telemetry::Telemetry;
use trackfm::CostModel;

/// Base address of the canonical heap mapping.
pub const HEAP_BASE: u64 = 0x2000_0000_0000;
/// Base address of global data.
pub const GLOBAL_BASE: u64 = 0x6000_0000_0000;
/// Base address of the stack.
pub const STACK_BASE: u64 = 0x7000_0000_0000;

/// End-of-run counters from the memory system.
#[derive(Clone, Debug, Default)]
pub struct MemSummary {
    /// Far-memory runtime counters, if any.
    pub runtime: Option<RuntimeStats>,
    /// Pager counters, if any.
    pub pager: Option<PagerStats>,
    /// Network ledger, if any (aggregated over shards).
    pub transfers: Option<TransferStats>,
    /// Per-shard ledgers and health, populated only for multi-node
    /// backends (one-shard summaries stay byte-identical to the
    /// pre-sharding format).
    pub shards: Vec<ShardSnapshot>,
}

/// A memory system the interpreter executes against.
///
/// All methods take `now` (the current simulated cycle) and return the extra
/// cycles the access/operation costs; the interpreter advances its clock by
/// the sum of operation cost and these extras.
pub trait MemorySystem {
    /// Allocates heap memory, returning the application-visible pointer.
    ///
    /// # Errors
    /// [`Trap::AllocFailure`] when the heap is exhausted.
    fn alloc(&mut self, size: u64, now: u64) -> Result<u64, Trap>;

    /// Allocates *always-local* heap memory (libc `malloc` left untouched
    /// by the pruning pass, §5): returns a canonical pointer whose objects
    /// are never evacuated. Defaults to [`MemorySystem::alloc`] for systems
    /// without a remote/local distinction.
    ///
    /// # Errors
    /// [`Trap::AllocFailure`] when the heap is exhausted.
    fn alloc_local(&mut self, size: u64, now: u64) -> Result<u64, Trap> {
        self.alloc(size, now)
    }

    /// Frees an allocation.
    ///
    /// # Errors
    /// [`Trap::OutOfBounds`] for pointers this system never returned.
    fn free(&mut self, ptr: u64, now: u64) -> Result<(), Trap>;

    /// Rounded size of a live allocation (for `realloc`).
    fn alloc_size(&self, ptr: u64) -> Option<u64>;

    /// Charges residency costs for a data access at `addr`.
    ///
    /// # Errors
    /// [`Trap::NonCanonicalAccess`] for unguarded TrackFM pointers.
    fn data_access(
        &mut self,
        addr: u64,
        size: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap>;

    /// Executes a guard (Fig. 4): returns `(cycles, localized pointer)`.
    ///
    /// # Errors
    /// Out-of-range TrackFM pointers trap.
    fn guard(
        &mut self,
        ptr: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap>;

    /// Opens a chunk stream; returns `(cycles, handle)`.
    fn chunk_begin(&mut self, ptr: u64, flags: i64, now: u64) -> (u64, u64);

    /// Chunk dereference (boundary check or locality-invariant guard);
    /// returns `(cycles, localized pointer)`.
    ///
    /// # Errors
    /// [`Trap::BadChunkHandle`] on invalid handles.
    fn chunk_deref(
        &mut self,
        handle: u64,
        ptr: u64,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap>;

    /// Closes a chunk stream (unpins its current object).
    ///
    /// # Errors
    /// [`Trap::BadChunkHandle`] on invalid handles.
    fn chunk_end(&mut self, handle: u64, now: u64) -> Result<u64, Trap>;

    /// Asynchronous localization hint.
    fn prefetch_hint(&mut self, ptr: u64, now: u64);

    /// Translates an application address to its canonical form for raw data
    /// resolution (strips the TrackFM tag).
    fn canonical(&self, addr: u64) -> u64;

    /// Charges residency for a byte range (memcpy/memset support).
    ///
    /// # Errors
    /// Propagates residency traps.
    fn access_range(
        &mut self,
        addr: u64,
        len: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap>;

    /// Pages/evacuates everything out (cold-start between setup and run).
    fn evacuate_all(&mut self, now: u64);

    /// Clears counters and link state.
    fn reset_stats(&mut self);

    /// End-of-run counters.
    fn summary(&self) -> MemSummary;

    /// Attaches a telemetry sink. Systems with nothing to report (e.g.
    /// [`LocalMem`]) keep the default no-op.
    fn set_telemetry(&mut self, _tel: Telemetry) {}

    /// Tells the system which simulated worker core is about to execute
    /// (multi-core scheduler only; threads into per-core retry jitter).
    /// Systems without core-dependent behavior keep the default no-op.
    fn set_core(&mut self, _core: u32) {}

    /// Switches demand misses to the split issue/complete protocol
    /// (multi-core scheduler only). Off — the default everywhere — keeps
    /// the synchronous single-core path bit-identical to before the split.
    fn set_async_fetch(&mut self, _on: bool) {}

    /// Drains the completion horizon: the latest delivery cycle of any
    /// miss issued asynchronously since the last call (0 if none, and
    /// always 0 on the synchronous path). The scheduler folds it into
    /// per-request latency — a core moves on at the issue point, but the
    /// request only completes when its data lands.
    fn take_completion_horizon(&mut self) -> u64 {
        0
    }
}

// ======================================================================
// LocalMem
// ======================================================================

/// All memory is local: the "local-only" baseline every figure normalizes
/// against. Also executes *transformed* programs (guards become identity)
/// so the semantic-preservation tests can compare before/after IR.
#[derive(Clone, Debug)]
pub struct LocalMem {
    alloc: RegionAllocator,
}

impl LocalMem {
    /// Creates a local memory system over `heap_size` bytes.
    pub fn new(heap_size: u64) -> Self {
        LocalMem {
            alloc: RegionAllocator::new(heap_size, 4096),
        }
    }
}

impl MemorySystem for LocalMem {
    fn alloc(&mut self, size: u64, _now: u64) -> Result<u64, Trap> {
        let p = self.alloc.alloc(size).map_err(|_| Trap::AllocFailure)?;
        Ok(HEAP_BASE + p.offset())
    }

    fn free(&mut self, ptr: u64, _now: u64) -> Result<(), Trap> {
        if ptr < HEAP_BASE {
            return Err(Trap::OutOfBounds { addr: ptr, size: 0 });
        }
        self.alloc.free(TfmPtr::from_offset(ptr - HEAP_BASE));
        Ok(())
    }

    fn alloc_size(&self, ptr: u64) -> Option<u64> {
        ptr.checked_sub(HEAP_BASE)
            .and_then(|off| self.alloc.size_of(TfmPtr::from_offset(off)))
    }

    fn data_access(
        &mut self,
        _addr: u64,
        _size: u64,
        _write: bool,
        _now: u64,
        _stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        Ok(0)
    }

    fn guard(
        &mut self,
        ptr: u64,
        _write: bool,
        _now: u64,
        _stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        Ok((0, ptr))
    }

    fn chunk_begin(&mut self, _ptr: u64, _flags: i64, _now: u64) -> (u64, u64) {
        (0, 0)
    }

    fn chunk_deref(
        &mut self,
        _handle: u64,
        ptr: u64,
        _now: u64,
        _stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        Ok((0, ptr))
    }

    fn chunk_end(&mut self, _handle: u64, _now: u64) -> Result<u64, Trap> {
        Ok(0)
    }

    fn prefetch_hint(&mut self, _ptr: u64, _now: u64) {}

    fn canonical(&self, addr: u64) -> u64 {
        addr
    }

    fn access_range(
        &mut self,
        _addr: u64,
        _len: u64,
        _write: bool,
        _now: u64,
        _stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        Ok(0)
    }

    fn evacuate_all(&mut self, _now: u64) {}

    fn reset_stats(&mut self) {}

    fn summary(&self) -> MemSummary {
        MemSummary::default()
    }
}

// ======================================================================
// FastswapMem
// ======================================================================

/// The kernel-paging baseline: untransformed programs, page-granularity
/// faults.
#[derive(Clone)]
pub struct FastswapMem {
    alloc: RegionAllocator,
    pager: Pager,
}

impl FastswapMem {
    /// Creates a Fastswap memory system.
    pub fn new(heap_size: u64, pager_cfg: PagerConfig) -> Self {
        FastswapMem {
            alloc: RegionAllocator::new(heap_size, 4096),
            pager: Pager::new(pager_cfg),
        }
    }

    /// The pager (for assertions in tests).
    pub fn pager(&self) -> &Pager {
        &self.pager
    }
}

impl MemorySystem for FastswapMem {
    fn alloc(&mut self, size: u64, _now: u64) -> Result<u64, Trap> {
        let p = self.alloc.alloc(size).map_err(|_| Trap::AllocFailure)?;
        Ok(HEAP_BASE + p.offset())
    }

    fn free(&mut self, ptr: u64, _now: u64) -> Result<(), Trap> {
        if ptr < HEAP_BASE {
            return Err(Trap::OutOfBounds { addr: ptr, size: 0 });
        }
        self.alloc.free(TfmPtr::from_offset(ptr - HEAP_BASE));
        Ok(())
    }

    fn alloc_size(&self, ptr: u64) -> Option<u64> {
        ptr.checked_sub(HEAP_BASE)
            .and_then(|off| self.alloc.size_of(TfmPtr::from_offset(off)))
    }

    fn data_access(
        &mut self,
        addr: u64,
        size: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        if (HEAP_BASE..GLOBAL_BASE).contains(&addr) {
            let cycles = self.pager.access(addr, size, write, now);
            stats.stall_cycles += cycles;
            Ok(cycles)
        } else {
            Ok(0)
        }
    }

    fn guard(
        &mut self,
        ptr: u64,
        _write: bool,
        _now: u64,
        _stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        Ok((0, ptr))
    }

    fn chunk_begin(&mut self, _ptr: u64, _flags: i64, _now: u64) -> (u64, u64) {
        (0, 0)
    }

    fn chunk_deref(
        &mut self,
        _handle: u64,
        ptr: u64,
        _now: u64,
        _stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        Ok((0, ptr))
    }

    fn chunk_end(&mut self, _handle: u64, _now: u64) -> Result<u64, Trap> {
        Ok(0)
    }

    fn prefetch_hint(&mut self, _ptr: u64, _now: u64) {}

    fn canonical(&self, addr: u64) -> u64 {
        addr
    }

    fn access_range(
        &mut self,
        addr: u64,
        len: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        self.data_access(addr, len, write, now, stats)
    }

    fn evacuate_all(&mut self, now: u64) {
        self.pager.evacuate_all(now);
    }

    fn reset_stats(&mut self) {
        self.pager.reset_stats();
    }

    fn summary(&self) -> MemSummary {
        MemSummary {
            runtime: None,
            pager: Some(self.pager.stats()),
            transfers: Some(self.pager.transfer_stats()),
            shards: if self.pager.shard_count() > 1 {
                self.pager.shard_snapshots()
            } else {
                Vec::new()
            },
        }
    }

    fn set_telemetry(&mut self, tel: Telemetry) {
        self.pager.set_telemetry(tel);
    }

    fn set_async_fetch(&mut self, on: bool) {
        self.pager.set_async_fetch(on);
    }

    fn take_completion_horizon(&mut self) -> u64 {
        self.pager.take_completion_horizon()
    }
}

// ======================================================================
// TrackFmMem (and its AIFM flavor)
// ======================================================================

#[derive(Clone, Debug)]
struct ChunkStream {
    /// Pinned window: the current object and the previous one. Stencil
    /// loops touch `i-1, i, i+1` through one stream; a single-slot window
    /// would ping-pong locality guards at every object boundary.
    cur: Option<ObjId>,
    prev: Option<ObjId>,
    write: bool,
    prefetch: bool,
    /// Overwrite stream (`CHUNK_FLAG_OVERWRITE`, TrackFM flavour only): it
    /// claims each object it enters at the first byte instead of fetching
    /// it. Only `cur` can then be `PARTIAL`.
    overwrite: bool,
    /// Overwrite streams: the heap offset of the last deref, and its
    /// distance from the deref before (0 while the claimed object has seen
    /// only one). The stream's stride is its store width, so `last + step`
    /// is where the bytes it has written end.
    last: u64,
    step: u64,
    last_dir: i64,
    active: bool,
}

impl ChunkStream {
    /// Records an overwrite stream's deref at heap offset `off`.
    #[inline]
    fn advance(&mut self, off: u64) {
        self.step = off.wrapping_sub(self.last);
        self.last = off;
    }

    /// True when the stream's writes end exactly at heap offset `end`: the
    /// claimed object ending there holds no byte it did not write.
    #[inline]
    fn wrote_through(&self, end: u64) -> bool {
        self.step != 0 && self.last.wrapping_add(self.step) == end
    }
}

/// The TrackFM memory system: compiler guards backed by the AIFM-like
/// object runtime.
#[derive(Clone, Debug)]
pub struct TrackFmMem {
    fm: FarMemory,
    cost: CostModel,
    streams: Vec<ChunkStream>,
    free_streams: Vec<usize>,
    /// Offsets of always-local allocations (pruned sites), whose objects
    /// hold a permanent pin.
    local_allocs: std::collections::HashSet<u64>,
    /// AIFM flavor: developer-integrated costs (no custody check, cheap
    /// smart-pointer deref).
    aifm: bool,
}

impl TrackFmMem {
    /// Creates a TrackFM memory system.
    pub fn new(cfg: FarMemoryConfig, cost: CostModel) -> Self {
        TrackFmMem {
            fm: FarMemory::new(cfg),
            cost,
            streams: Vec::new(),
            free_streams: Vec::new(),
            local_allocs: Default::default(),
            aifm: false,
        }
    }

    /// Creates the AIFM-flavored system (library-based baseline).
    pub fn new_aifm(cfg: FarMemoryConfig, cost: CostModel) -> Self {
        let mut s = Self::new(cfg, cost);
        s.aifm = true;
        s
    }

    /// The underlying runtime (for assertions in tests).
    pub fn far_memory(&self) -> &FarMemory {
        &self.fm
    }

    #[inline]
    fn canonical_of(&self, ptr: u64) -> u64 {
        HEAP_BASE + (ptr & tfm_runtime::OFFSET_MASK)
    }

    #[inline]
    fn obj_of_ptr(&self, ptr: u64) -> Result<ObjId, Trap> {
        let off = ptr & tfm_runtime::OFFSET_MASK;
        if off >= self.fm.config().heap_size {
            return Err(Trap::OutOfBounds { addr: ptr, size: 0 });
        }
        Ok(self.fm.obj_of_offset(off))
    }

    /// Overwrite stream `idx` leaves its current object `cur` (a crossing
    /// or `chunk_end`). If the stream claimed `cur`, it completes it when
    /// its writes reached `cur`'s last byte and otherwise merges in the
    /// remote copy, a demand fetch charged to the leaving call. Returns the
    /// stall.
    fn leave_claim(&mut self, idx: usize, cur: ObjId, now: u64) -> u64 {
        if !self.fm.table().is_partial(cur) {
            return 0;
        }
        let end = (cur.0 + 1) << self.fm.log2_object_size();
        if self.streams[idx].wrote_through(end) {
            self.fm.complete_claim(cur);
            0
        } else {
            self.fm.localize(cur, true, now)
        }
    }

    fn issue_stream_prefetch(&mut self, from: ObjId, dir: i64, now: u64) {
        let depth = self.fm.prefetch_depth() as i64;
        let max_obj = self.fm.config().num_objects() as i64;
        for k in 1..=depth {
            let target = from.0 as i64 + k * dir;
            if target < 0 || target >= max_obj {
                break;
            }
            self.fm.prefetch(ObjId(target as u64), now);
        }
    }
}

impl MemorySystem for TrackFmMem {
    fn alloc(&mut self, size: u64, now: u64) -> Result<u64, Trap> {
        self.fm
            .allocate(size, now)
            .map(|p| p.raw())
            .map_err(|_| Trap::AllocFailure)
    }

    fn alloc_local(&mut self, size: u64, now: u64) -> Result<u64, Trap> {
        let p = self
            .fm
            .allocate(size, now)
            .map_err(|_| Trap::AllocFailure)?;
        // Pin every covered object: pruned allocations never leave local
        // memory (they still count against the budget, as real DRAM would).
        let rounded = self.fm.allocator().size_of(p).unwrap_or(size);
        let first = self.fm.obj_of_offset(p.offset()).0;
        let last = self.fm.obj_of_offset(p.offset() + rounded - 1).0;
        for o in first..=last {
            self.fm.pin(ObjId(o));
        }
        self.local_allocs.insert(p.offset());
        Ok(HEAP_BASE + p.offset())
    }

    fn free(&mut self, ptr: u64, now: u64) -> Result<(), Trap> {
        // TrackFM's free performs its own custody check: pruned allocations
        // arrive as canonical pointers.
        let offset = if TfmPtr::is_tfm(ptr) {
            TfmPtr(ptr).offset()
        } else if ptr >= HEAP_BASE && ptr < HEAP_BASE + self.fm.config().heap_size {
            ptr - HEAP_BASE
        } else {
            return Err(Trap::OutOfBounds { addr: ptr, size: 0 });
        };
        if self.local_allocs.remove(&offset) {
            let rounded = self
                .fm
                .allocator()
                .size_of(TfmPtr::from_offset(offset))
                .unwrap_or(1);
            let first = self.fm.obj_of_offset(offset).0;
            let last = self.fm.obj_of_offset(offset + rounded - 1).0;
            for o in first..=last {
                self.fm.unpin(ObjId(o));
            }
        }
        self.fm.free(TfmPtr::from_offset(offset), now);
        Ok(())
    }

    fn alloc_size(&self, ptr: u64) -> Option<u64> {
        let offset = if TfmPtr::is_tfm(ptr) {
            TfmPtr(ptr).offset()
        } else if ptr >= HEAP_BASE && ptr < HEAP_BASE + self.fm.config().heap_size {
            ptr - HEAP_BASE
        } else {
            return None;
        };
        self.fm.allocator().size_of(TfmPtr::from_offset(offset))
    }

    fn data_access(
        &mut self,
        addr: u64,
        _size: u64,
        _write: bool,
        _now: u64,
        _stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        if TfmPtr::is_tfm(addr) {
            // An unguarded access to a TrackFM pointer is the §3.1 general
            // protection fault: the compiler missed a guard.
            return Err(Trap::NonCanonicalAccess { addr });
        }
        Ok(0)
    }

    fn guard(
        &mut self,
        ptr: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        if !TfmPtr::is_tfm(ptr) {
            // Custody check exits early: not a TrackFM pointer.
            if self.aifm {
                return Ok((0, ptr)); // the developer never wraps these
            }
            stats.custody_exits += 1;
            return Ok((self.cost.custody_check, ptr));
        }
        let obj = self.obj_of_ptr(ptr)?;
        if self.fm.table().is_safe(obj) {
            // Fast path.
            let cycles = if self.aifm {
                self.cost.aifm_deref
            } else if write {
                self.cost.custody_check + self.cost.guard_fast_write
            } else {
                self.cost.custody_check + self.cost.guard_fast_read
            };
            stats.guards_fast += 1;
            self.fm.fast_touch(obj, write);
            return Ok((cycles, self.canonical_of(ptr)));
        }
        // Slow path: runtime call, possibly a remote fetch, then a
        // collection point (§3.3).
        let base = if self.aifm {
            self.cost.aifm_slow
        } else if write {
            self.cost.custody_check + self.cost.guard_slow_write
        } else {
            self.cost.custody_check + self.cost.guard_slow_read
        };
        let stall = self.fm.localize(obj, write, now + base);
        if stall > 0 {
            stats.guards_slow_remote += 1;
            stats.stall_cycles += stall;
        } else {
            stats.guards_slow_local += 1;
        }
        self.fm.collection_point(now + base + stall);
        Ok((base + stall, self.canonical_of(ptr)))
    }

    fn chunk_begin(&mut self, _ptr: u64, flags: i64, _now: u64) -> (u64, u64) {
        let stream = ChunkStream {
            cur: None,
            prev: None,
            write: flags & CHUNK_FLAG_WRITE != 0,
            prefetch: flags & CHUNK_FLAG_PREFETCH != 0,
            overwrite: flags & CHUNK_FLAG_OVERWRITE != 0 && !self.aifm,
            last: 0,
            step: 0,
            last_dir: 1,
            active: true,
        };
        let idx = match self.free_streams.pop() {
            Some(i) => {
                self.streams[i] = stream;
                i
            }
            None => {
                self.streams.push(stream);
                self.streams.len() - 1
            }
        };
        (self.cost.alu, idx as u64)
    }

    fn chunk_deref(
        &mut self,
        handle: u64,
        ptr: u64,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        let idx = handle as usize;
        if idx >= self.streams.len() || !self.streams[idx].active {
            return Err(Trap::BadChunkHandle { handle });
        }
        if !TfmPtr::is_tfm(ptr) {
            // Chunked stream over a non-managed pointer (e.g. a stack
            // array): boundary check only.
            stats.boundary_checks += 1;
            return Ok((self.cost.boundary_check, ptr));
        }
        let obj = self.obj_of_ptr(ptr)?;
        let (cur, prev, write, prefetch, overwrite) = {
            let s = &self.streams[idx];
            (s.cur, s.prev, s.write, s.prefetch, s.overwrite)
        };
        let off = ptr & tfm_runtime::OFFSET_MASK;
        if cur == Some(obj) || prev == Some(obj) {
            // In-window: the cheap conditional of Fig. 5.
            if overwrite {
                self.streams[idx].advance(off);
            }
            let c = if self.aifm {
                self.cost.boundary_check.min(self.cost.aifm_deref)
            } else {
                self.cost.boundary_check
            };
            stats.boundary_checks += 1;
            self.fm.fast_touch(obj, write);
            return Ok((c, self.canonical_of(ptr)));
        }
        // Object crossing: locality-invariant guard. The window slides:
        // the oldest pin is released, the new object pinned.
        let base = if self.aifm {
            self.cost.aifm_slow
        } else {
            self.cost.locality_guard
        };
        if let Some(old) = prev {
            self.fm.unpin(old);
        }
        let mut stall = 0;
        if let Some(cur) = cur {
            let dir = if obj.0 >= cur.0 { 1 } else { -1 };
            self.streams[idx].last_dir = dir;
            if overwrite {
                stall += self.leave_claim(idx, cur, now + base);
            }
        }
        let claimed = overwrite
            && off & (self.fm.object_size() - 1) == 0
            && self.fm.claim(obj, now + base + stall);
        if !claimed {
            stall += self.fm.localize(obj, write, now + base + stall);
        }
        if overwrite {
            let s = &mut self.streams[idx];
            s.advance(off);
            if claimed {
                s.step = 0;
            }
        }
        if stall > 0 {
            stats.stall_cycles += stall;
        }
        self.fm.pin(obj);
        self.fm.collection_point(now + base + stall);
        if prefetch {
            let dir = self.streams[idx].last_dir;
            self.issue_stream_prefetch(obj, dir, now + base + stall);
        }
        self.streams[idx].prev = cur;
        self.streams[idx].cur = Some(obj);
        stats.locality_guards += 1;
        Ok((base + stall, self.canonical_of(ptr)))
    }

    fn chunk_end(&mut self, handle: u64, now: u64) -> Result<u64, Trap> {
        let idx = handle as usize;
        if idx >= self.streams.len() || !self.streams[idx].active {
            return Err(Trap::BadChunkHandle { handle });
        }
        let mut cycles = self.cost.alu;
        if let Some(obj) = self.streams[idx].cur.take() {
            if self.streams[idx].overwrite {
                cycles += self.leave_claim(idx, obj, now + cycles);
            }
            self.fm.unpin(obj);
        }
        if let Some(obj) = self.streams[idx].prev.take() {
            self.fm.unpin(obj);
        }
        self.streams[idx].active = false;
        self.free_streams.push(idx);
        Ok(cycles)
    }

    fn prefetch_hint(&mut self, ptr: u64, now: u64) {
        if TfmPtr::is_tfm(ptr) {
            if let Ok(obj) = self.obj_of_ptr(ptr) {
                self.fm.prefetch(obj, now);
            }
        }
    }

    fn canonical(&self, addr: u64) -> u64 {
        if TfmPtr::is_tfm(addr) {
            self.canonical_of(addr)
        } else {
            addr
        }
    }

    fn access_range(
        &mut self,
        addr: u64,
        len: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        if !TfmPtr::is_tfm(addr) {
            return Ok(0);
        }
        // Runtime-internal memcpy path: localize each covered object via the
        // slow path (pre-transformed library code, §2).
        let obj_size = self.fm.object_size();
        let start = addr & tfm_runtime::OFFSET_MASK;
        let end = start + len.max(1) - 1;
        if end >= self.fm.config().heap_size {
            return Err(Trap::OutOfBounds { addr, size: len });
        }
        let mut cycles = 0;
        for o in (start / obj_size)..=(end / obj_size) {
            let obj = ObjId(o);
            if self.fm.table().is_safe(obj) {
                self.fm.fast_touch(obj, write);
                cycles += self.cost.guard_fast_read;
                stats.guards_fast += 1;
            } else {
                let base = self.cost.guard_slow_read;
                let stall = self.fm.localize(obj, write, now + cycles + base);
                if stall > 0 {
                    stats.guards_slow_remote += 1;
                    stats.stall_cycles += stall;
                } else {
                    stats.guards_slow_local += 1;
                }
                cycles += base + stall;
            }
        }
        Ok(cycles)
    }

    fn evacuate_all(&mut self, now: u64) {
        self.fm.evacuate_all(now);
    }

    fn reset_stats(&mut self) {
        self.fm.reset_stats();
    }

    fn summary(&self) -> MemSummary {
        MemSummary {
            runtime: Some(*self.fm.stats()),
            pager: None,
            transfers: Some(self.fm.transfer_stats()),
            shards: if self.fm.shard_count() > 1 {
                self.fm.shard_snapshots()
            } else {
                Vec::new()
            },
        }
    }

    fn set_telemetry(&mut self, tel: Telemetry) {
        self.fm.set_telemetry(tel);
    }

    fn set_core(&mut self, core: u32) {
        self.fm.set_core(core);
    }

    fn set_async_fetch(&mut self, on: bool) {
        self.fm.set_async_fetch(on);
    }

    fn take_completion_horizon(&mut self) -> u64 {
        self.fm.take_completion_horizon()
    }
}

// ======================================================================
// HybridMem — the §5 "hybrid approach (compiler and kernel)" exploration.
// ======================================================================

/// A compiler+kernel hybrid: chunk streams (compiler-planned, sub-page,
/// prefetched) run on the object runtime exactly as TrackFM's do, but
/// *unchunked* heap accesses carry **no guards at all** — they execute raw,
/// and a miss vectors into a kernel-style fault handler (fixed kernel cost
/// plus the object fetch). §5 of the paper: "we were surprised how well
/// kernel-based approaches perform when there is sufficient temporal
/// locality [...] This suggests that a hybrid approach (compiler and
/// kernel) holds promise."
///
/// Programs must be compiled with `CompilerOptions { guards: false, .. }`;
/// running a hybrid binary on [`TrackFmMem`] would trap on the raw accesses.
///
/// Trade-offs vs. TrackFM: resident irregular accesses cost *zero* extra
/// cycles (no custody check, no fast-path guard), but every miss pays the
/// kernel fault cost (~1.3 K cycles) on top of the fetch instead of the
/// ~150-cycle slow-path guard. Misses are counted in
/// [`crate::ExecStats::guards_slow_remote`]/`_local` (they are the
/// fault-path events of this system).
#[derive(Clone, Debug)]
pub struct HybridMem {
    inner: TrackFmMem,
    kernel_fault_cycles: u64,
}

impl HybridMem {
    /// Creates a hybrid memory system (kernel fault cost from the paper's
    /// Table 2: 1.3 K cycles).
    pub fn new(cfg: FarMemoryConfig, cost: CostModel) -> Self {
        HybridMem {
            inner: TrackFmMem::new(cfg, cost),
            kernel_fault_cycles: 1_300,
        }
    }

    /// The underlying runtime (for assertions in tests).
    pub fn far_memory(&self) -> &FarMemory {
        self.inner.far_memory()
    }
}

impl MemorySystem for HybridMem {
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
        _size: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        if !TfmPtr::is_tfm(addr) {
            return Ok(0);
        }
        // Raw access to managed memory: mapped pages are free; a miss takes
        // a kernel-style fault that localizes the object.
        let obj = self.inner.obj_of_ptr(addr)?;
        if self.inner.fm.table().is_safe(obj) {
            self.inner.fm.fast_touch(obj, write);
            return Ok(0);
        }
        let base = self.kernel_fault_cycles;
        let stall = self.inner.fm.localize(obj, write, now + base);
        if stall > 0 {
            stats.guards_slow_remote += 1;
            stats.stall_cycles += stall;
        } else {
            stats.guards_slow_local += 1;
        }
        self.inner.fm.collection_point(now + base + stall);
        Ok(base + stall)
    }

    fn guard(
        &mut self,
        ptr: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        self.inner.guard(ptr, write, now, stats)
    }

    fn chunk_begin(&mut self, ptr: u64, flags: i64, now: u64) -> (u64, u64) {
        self.inner.chunk_begin(ptr, flags, now)
    }

    fn chunk_deref(
        &mut self,
        handle: u64,
        ptr: u64,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        self.inner.chunk_deref(handle, ptr, now, stats)
    }

    fn chunk_end(&mut self, handle: u64, now: u64) -> Result<u64, Trap> {
        self.inner.chunk_end(handle, now)
    }

    fn prefetch_hint(&mut self, ptr: u64, now: u64) {
        self.inner.prefetch_hint(ptr, now);
    }

    fn canonical(&self, addr: u64) -> u64 {
        // Raw accesses are legal in hybrid mode: translate managed pointers.
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
        self.inner.access_range(addr, len, write, now, stats)
    }

    fn evacuate_all(&mut self, now: u64) {
        self.inner.evacuate_all(now);
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
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
    use tfm_net::LinkParams;

    fn tfm_cfg(budget_objs: u64) -> FarMemoryConfig {
        FarMemoryConfig {
            heap_size: 1 << 20,
            object_size: 4096,
            local_budget: budget_objs * 4096,
            link: LinkParams::tcp_25g(),
            ..FarMemoryConfig::small()
        }
    }

    #[test]
    fn guard_paths_charge_per_table1() {
        let cost = CostModel::default();
        let mut m = TrackFmMem::new(tfm_cfg(8), cost);
        let mut st = ExecStats::default();
        let ptr = m.alloc(4096, 0).unwrap();
        assert!(TfmPtr::is_tfm(ptr));

        // Fresh object: fast path read = custody + 21.
        let (c, out) = m.guard(ptr, false, 0, &mut st).unwrap();
        assert_eq!(c, cost.custody_check + cost.guard_fast_read);
        assert_eq!(out, HEAP_BASE + (ptr & tfm_runtime::OFFSET_MASK));
        assert_eq!(st.guards_fast, 1);

        // Fast write.
        let (c, _) = m.guard(ptr, true, 0, &mut st).unwrap();
        assert_eq!(c, cost.custody_check + cost.guard_fast_write);

        // Non-TrackFM pointer: custody check only, pointer unchanged.
        let (c, out) = m.guard(STACK_BASE + 64, false, 0, &mut st).unwrap();
        assert_eq!(c, cost.custody_check);
        assert_eq!(out, STACK_BASE + 64);
        assert_eq!(st.custody_exits, 1);

        // Evacuate, then slow remote path.
        m.evacuate_all(0);
        let (c, _) = m.guard(ptr, false, 0, &mut st).unwrap();
        assert!(c > 30_000, "remote slow path = {c}");
        assert_eq!(st.guards_slow_remote, 1);
    }

    #[test]
    fn unguarded_tfm_access_is_gp_fault() {
        let mut m = TrackFmMem::new(tfm_cfg(8), CostModel::default());
        let mut st = ExecStats::default();
        let ptr = m.alloc(64, 0).unwrap();
        let err = m.data_access(ptr, 8, false, 0, &mut st).unwrap_err();
        assert!(matches!(err, Trap::NonCanonicalAccess { .. }));
        // Canonical addresses are fine.
        assert!(m.data_access(HEAP_BASE, 8, false, 0, &mut st).is_ok());
    }

    #[test]
    fn chunk_stream_boundary_vs_locality() {
        let cost = CostModel::default();
        let mut m = TrackFmMem::new(tfm_cfg(8), cost);
        let mut st = ExecStats::default();
        let ptr = m.alloc(8192, 0).unwrap();
        m.evacuate_all(0);
        m.reset_stats();

        let (_, h) = m.chunk_begin(ptr, CHUNK_FLAG_WRITE, 0);
        // First deref: crossing (None → obj0) = locality guard + fetch.
        let (c1, _) = m.chunk_deref(h, ptr, 0, &mut st).unwrap();
        assert!(c1 >= cost.locality_guard);
        assert_eq!(st.locality_guards, 1);
        // Subsequent derefs within obj0: 3-cycle boundary checks.
        for i in 1..512u64 {
            let (c, _) = m.chunk_deref(h, ptr + i * 8, 1_000_000, &mut st).unwrap();
            assert_eq!(c, cost.boundary_check);
        }
        assert_eq!(st.boundary_checks, 511);
        // Crossing into obj1: locality guard again.
        let (c2, _) = m.chunk_deref(h, ptr + 4096, 2_000_000, &mut st).unwrap();
        assert!(c2 >= cost.locality_guard);
        assert_eq!(st.locality_guards, 2);
        assert!(m.chunk_end(h, 0).is_ok());
        // Closed stream rejects further use.
        assert!(matches!(
            m.chunk_deref(h, ptr, 0, &mut st),
            Err(Trap::BadChunkHandle { .. })
        ));
    }

    #[test]
    fn chunk_crossing_pins_current_object() {
        let mut m = TrackFmMem::new(tfm_cfg(1), CostModel::default());
        let mut st = ExecStats::default();
        let ptr = m.alloc(8192, 0).unwrap();
        m.evacuate_all(0);
        let (_, h) = m.chunk_begin(ptr, 0, 0);
        let (_, _) = m.chunk_deref(h, ptr, 0, &mut st).unwrap();
        let obj0 = m.far_memory().obj_of_offset(ptr & tfm_runtime::OFFSET_MASK);
        assert_eq!(m.far_memory().table().pins(obj0), 1);
        // Budget is 1 object; a guard on another allocation cannot evict the
        // pinned one.
        let other = m.alloc(4096, 0).unwrap();
        let _ = m.guard(other, false, 1_000_000, &mut st).unwrap();
        assert!(m.far_memory().table().is_present(obj0));
        m.chunk_end(h, 0).unwrap();
        assert_eq!(m.far_memory().table().pins(obj0), 0);
    }

    #[test]
    fn stream_prefetch_runs_ahead() {
        let mut m = TrackFmMem::new(tfm_cfg(64), CostModel::default());
        let mut st = ExecStats::default();
        let ptr = m.alloc(64 * 4096, 0).unwrap();
        m.evacuate_all(0);
        m.reset_stats();
        let (_, h) = m.chunk_begin(ptr, CHUNK_FLAG_PREFETCH, 0);
        let _ = m.chunk_deref(h, ptr, 0, &mut st).unwrap();
        let s = m.summary().runtime.unwrap();
        assert!(s.prefetch_issued >= 8, "prefetch depth should be issued");
        // Crossing into the prefetched object much later: a hit, no demand
        // fetch.
        let (_c, _) = m.chunk_deref(h, ptr + 4096, 10_000_000, &mut st).unwrap();
        let s = m.summary().runtime.unwrap();
        assert_eq!(
            s.remote_fetches, 1,
            "only the first object was a demand fetch"
        );
        assert!(s.prefetch_hits >= 1);
    }

    #[test]
    fn aifm_flavor_is_cheaper_on_fast_path() {
        let cost = CostModel::default();
        let mut tfm = TrackFmMem::new(tfm_cfg(8), cost);
        let mut aifm = TrackFmMem::new_aifm(tfm_cfg(8), cost);
        let mut st = ExecStats::default();
        let p1 = tfm.alloc(4096, 0).unwrap();
        let p2 = aifm.alloc(4096, 0).unwrap();
        let (c_tfm, _) = tfm.guard(p1, false, 0, &mut st).unwrap();
        let (c_aifm, _) = aifm.guard(p2, false, 0, &mut st).unwrap();
        assert!(
            c_aifm < c_tfm,
            "AIFM deref {c_aifm} must beat guard {c_tfm}"
        );
    }

    #[test]
    fn access_range_walks_objects() {
        let mut m = TrackFmMem::new(tfm_cfg(16), CostModel::default());
        let mut st = ExecStats::default();
        let ptr = m.alloc(3 * 4096, 0).unwrap();
        m.evacuate_all(0);
        m.reset_stats();
        let c = m.access_range(ptr, 3 * 4096, false, 0, &mut st).unwrap();
        assert!(c > 90_000, "three remote fetches: {c}");
        assert_eq!(m.summary().runtime.unwrap().remote_fetches, 3);
    }

    #[test]
    fn fastswap_mem_routes_heap_through_pager() {
        let mut m = FastswapMem::new(1 << 20, PagerConfig::default());
        let mut st = ExecStats::default();
        let p = m.alloc(8192, 0).unwrap();
        let c = m.data_access(p, 8, true, 0, &mut st).unwrap();
        assert!(c > 0, "first touch faults");
        assert_eq!(m.data_access(p, 8, false, c, &mut st).unwrap(), 0);
        // Stack accesses never fault.
        assert_eq!(m.data_access(STACK_BASE, 8, true, 0, &mut st).unwrap(), 0);
        assert_eq!(m.summary().pager.unwrap().minor_faults, 1);
    }

    #[test]
    fn local_mem_is_free_and_identity() {
        let mut m = LocalMem::new(1 << 20);
        let mut st = ExecStats::default();
        let p = m.alloc(128, 0).unwrap();
        assert!(p >= HEAP_BASE);
        assert_eq!(m.data_access(p, 8, true, 0, &mut st).unwrap(), 0);
        let (c, out) = m.guard(p, true, 0, &mut st).unwrap();
        assert_eq!((c, out), (0, p));
        assert_eq!(m.alloc_size(p), Some(128));
        m.free(p, 0).unwrap();
        assert!(m.summary().transfers.is_none());
    }

    const OVERWRITE: i64 = CHUNK_FLAG_WRITE | CHUNK_FLAG_OVERWRITE;

    /// A TrackFM (or AIFM) system holding one evacuated 4-object buffer;
    /// returns it and the buffer's pointer (object-aligned).
    fn cold_buffer(aifm: bool) -> (TrackFmMem, u64) {
        let cfg = tfm_cfg(16);
        let mut m = if aifm {
            TrackFmMem::new_aifm(cfg, CostModel::default())
        } else {
            TrackFmMem::new(cfg, CostModel::default())
        };
        let ptr = m.alloc(4 * 4096, 0).unwrap();
        assert_eq!(ptr & tfm_runtime::OFFSET_MASK & 4095, 0);
        m.evacuate_all(0);
        m.reset_stats();
        (m, ptr)
    }

    impl TrackFmMem {
        fn obj(&self, ptr: u64) -> ObjId {
            self.obj_of_ptr(ptr).unwrap()
        }
        fn rt(&self) -> RuntimeStats {
            *self.fm.stats()
        }
    }

    #[test]
    fn overwrite_stream_claims_at_the_first_byte() {
        let (mut m, ptr) = cold_buffer(false);
        let mut st = ExecStats::default();
        let (_, h) = m.chunk_begin(ptr, OVERWRITE, 0);
        let (c, _) = m.chunk_deref(h, ptr, 0, &mut st).unwrap();
        assert_eq!(c, CostModel::default().locality_guard, "no stall");
        let o = m.obj(ptr);
        let t = m.far_memory().table();
        assert!(t.is_partial(o) && t.pins(o) == 1);
        assert_eq!(m.rt().overwrite_claims, 1);
        assert_eq!(m.summary().transfers.unwrap().bytes_fetched, 0);
    }

    #[test]
    fn overwrite_claim_is_refused_mid_object_present_or_inflight() {
        let mut st = ExecStats::default();
        // Mid-object: the bytes before the entry point are never written.
        let (mut m, ptr) = cold_buffer(false);
        let (_, h) = m.chunk_begin(ptr, OVERWRITE, 0);
        m.chunk_deref(h, ptr + 8, 0, &mut st).unwrap();
        assert_eq!((m.rt().overwrite_claims, m.rt().remote_fetches), (0, 1));
        // Present: nothing to save.
        let (mut m, ptr) = cold_buffer(false);
        m.guard(ptr, false, 0, &mut st).unwrap();
        let (_, h) = m.chunk_begin(ptr, OVERWRITE, 0);
        m.chunk_deref(h, ptr, 1_000_000, &mut st).unwrap();
        assert_eq!((m.rt().overwrite_claims, m.rt().remote_fetches), (0, 1));
        // In flight: the transfer is already paid for.
        let (mut m, ptr) = cold_buffer(false);
        m.prefetch_hint(ptr, 0);
        let (_, h) = m.chunk_begin(ptr, OVERWRITE, 0);
        m.chunk_deref(h, ptr, 1_000_000, &mut st).unwrap();
        let rt = m.rt();
        assert_eq!((rt.overwrite_claims, rt.prefetch_hits), (0, 1));
        assert!(!m.far_memory().table().is_partial(m.obj(ptr)));
    }

    #[test]
    fn a_guard_or_a_second_stream_on_a_claimed_object_pays_one_merge() {
        let mut st = ExecStats::default();
        for second_stream in [false, true] {
            let (mut m, ptr) = cold_buffer(false);
            let (_, h) = m.chunk_begin(ptr, OVERWRITE, 0);
            m.chunk_deref(h, ptr, 0, &mut st).unwrap();
            // Someone reads a[i+1] before the stream has written it.
            let c = if second_stream {
                let (_, r) = m.chunk_begin(ptr, 0, 0);
                let c = m.chunk_deref(r, ptr + 8, 10, &mut st).unwrap().0;
                m.chunk_deref(r, ptr + 16, 10 + c, &mut st).unwrap();
                m.chunk_end(r, 10 + c).unwrap();
                c
            } else {
                let c = m.guard(ptr + 8, false, 10, &mut st).unwrap().0;
                m.guard(ptr + 16, false, 10 + c, &mut st).unwrap();
                c
            };
            assert!(c > 30_000, "the merge is a full fetch: {c}");
            let rt = m.rt();
            assert_eq!((rt.partial_merges, rt.remote_fetches), (1, 1));
            assert!(m.far_memory().table().is_safe(m.obj(ptr)));
            // The stream's own exit now finds nothing left to merge.
            assert_eq!(m.chunk_end(h, 1_000_000).unwrap(), CostModel::default().alu);
            assert_eq!(m.rt().partial_merges, 1);
        }
    }

    #[test]
    fn forward_crossing_completes_the_object_without_a_fetch() {
        let (mut m, ptr) = cold_buffer(false);
        let mut st = ExecStats::default();
        let (_, h) = m.chunk_begin(ptr, OVERWRITE, 0);
        for i in 0..2 * 512 {
            m.chunk_deref(h, ptr + i * 8, 0, &mut st).unwrap();
        }
        let (o0, o1) = (m.obj(ptr), m.obj(ptr + 4096));
        let t = m.far_memory().table();
        assert!(t.is_safe(o0) && t.is_dirty(o0), "o0 written whole");
        assert!(t.is_partial(o1), "o1 still being written");
        assert_eq!(m.rt().overwrite_claims, 2);
        assert_eq!(m.summary().transfers.unwrap().bytes_fetched, 0);
        assert_eq!(st.stall_cycles, 0);
        // The last element of o1 is written: crossing into o2 completes
        // o1, and the stream's exit merges the part-written o2.
        m.chunk_deref(h, ptr + 2 * 4096, 0, &mut st).unwrap();
        assert!(m.far_memory().table().is_safe(o1));
        let c = m.chunk_end(h, 0).unwrap();
        assert!(
            c > 30_000,
            "a part-written tail is merged at chunk_end: {c}"
        );
        let rt = m.rt();
        assert_eq!((rt.overwrite_claims, rt.partial_merges), (3, 1));
        let o2 = m.obj(ptr + 2 * 4096);
        let t = m.far_memory().table();
        assert!(t.is_safe(o2) && t.pins(o2) == 0);
    }

    #[test]
    fn a_stream_that_wrote_its_last_object_whole_ends_without_a_merge() {
        // A loop ending exactly at an object boundary (any power-of-two
        // array): the last claimed object is complete, not part-written.
        let (mut m, ptr) = cold_buffer(false);
        let mut st = ExecStats::default();
        let (_, h) = m.chunk_begin(ptr, OVERWRITE, 0);
        for i in 0..512 {
            m.chunk_deref(h, ptr + i * 8, 0, &mut st).unwrap();
        }
        assert_eq!(m.chunk_end(h, 0).unwrap(), CostModel::default().alu);
        let rt = m.rt();
        assert_eq!((rt.overwrite_claims, rt.partial_merges), (1, 0));
        assert_eq!(m.summary().transfers.unwrap().bytes_fetched, 0);
        let o = m.obj(ptr);
        assert!(m.far_memory().table().is_safe(o));
        assert_eq!(m.far_memory().table().pins(o), 0);
    }

    #[test]
    fn any_other_crossing_merges_the_object_left() {
        let (mut m, ptr) = cold_buffer(false);
        let mut st = ExecStats::default();
        let (_, h) = m.chunk_begin(ptr, OVERWRITE, 0);
        m.chunk_deref(h, ptr, 0, &mut st).unwrap();
        // Skips o1 to o2's first byte: o0 was left part-written.
        let (c, _) = m.chunk_deref(h, ptr + 2 * 4096, 0, &mut st).unwrap();
        assert!(c > 30_000 && st.stall_cycles > 30_000, "merge charged: {c}");
        let rt = m.rt();
        assert_eq!((rt.overwrite_claims, rt.partial_merges), (2, 1));
        assert!(m.far_memory().table().is_safe(m.obj(ptr)));
        assert!(m.far_memory().table().is_partial(m.obj(ptr + 2 * 4096)));
        m.chunk_end(h, 1_000_000).unwrap();
    }

    #[test]
    fn aifm_flavor_ignores_the_overwrite_bit() {
        let run = |flags: i64| {
            let (mut m, ptr) = cold_buffer(true);
            let mut st = ExecStats::default();
            let (_, h) = m.chunk_begin(ptr, flags, 0);
            let mut now = 0;
            for i in 0..2 * 512 {
                now += m.chunk_deref(h, ptr + i * 8, now, &mut st).unwrap().0;
            }
            now += m.chunk_end(h, now).unwrap();
            (now, m.rt(), st.stall_cycles)
        };
        let (now, rt, stall) = run(OVERWRITE);
        assert_eq!((now, rt, stall), run(CHUNK_FLAG_WRITE));
        assert_eq!((rt.overwrite_claims, rt.remote_fetches), (0, 2));
    }

    #[test]
    fn stream_handles_are_reused() {
        let mut m = TrackFmMem::new(tfm_cfg(8), CostModel::default());
        let (_, h1) = m.chunk_begin(HEAP_BASE, 0, 0);
        m.chunk_end(h1, 0).unwrap();
        let (_, h2) = m.chunk_begin(HEAP_BASE, 0, 0);
        assert_eq!(h1, h2, "freed handle should be recycled");
    }
}
