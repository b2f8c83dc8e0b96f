//! Loop chunking analysis + transform (§3.4, Fig. 5).
//!
//! For loops with a recognized induction variable and strided heap accesses,
//! the transform replaces per-element fast-path guards with:
//!
//! * a `tfm.chunk.begin` in the loop preheader (sets up the stream, carries
//!   write-intent and prefetch flags);
//! * a `tfm.chunk.deref` at each access — a 3-cycle object-boundary check
//!   while the access stays inside the pinned object, and a
//!   locality-invariant guard (runtime call that pins the next object,
//!   unpins the previous one, runs a collection point, and optionally
//!   prefetches ahead) when the boundary is crossed;
//! * a `tfm.chunk.end` on every loop-exit edge (releasing the pin).
//!
//! Whether to apply the transform is governed by the paper's cost model
//! (Eq. 1–3): indiscriminate chunking of low-density or short-trip loops is
//! a slowdown (Figs. 8/15), so [`ChunkingMode::CostModel`] consults the
//! static object density and, when available, the execution profile.
//!
//! **Chunk-stream motion** (beyond the paper, [`ChunkingOptions::stream_motion`])
//! then attacks the other half of the low-density problem: a short inner
//! loop entered once per outer iteration pays a fresh locality guard on
//! every entry, even when it resumes in the object the previous entry was
//! reading. When the stream's base and flags are invariant in the enclosing
//! loop, the inner loop runs on every outer iteration, and the enclosing
//! loop does only straight-line work around it (no other loop, no
//! alloc/free or other killing intrinsic, calls only to loop-free leaf
//! helpers; other streams opening and closing are fine), the
//! `tfm.chunk.begin` moves to the enclosing loop's preheader and its
//! `tfm.chunk.end`s to the enclosing loop's exit edges. The stream's
//! 2-object pinned window then survives across outer iterations, so an
//! entry that starts inside it pays the boundary check, not a locality
//! guard. Streams climb one loop level per round, as guards do in
//! [`crate::passes::guard_motion`], and keep their `Value` ids.
//!
//! **Overwrite streams** (beyond the paper, [`ChunkingOptions::overwrite`])
//! mark a stream that will overwrite every byte of each object it enters at
//! the first byte: its only access is one store, the store's width equals
//! the stride, the IV steps by +1 and indexes the store (plus a constant),
//! and the store's block dominates every latch, so each iteration writes
//! the element right after the previous one. Such a stream carries
//! `CHUNK_FLAG_OVERWRITE` and drops `CHUNK_FLAG_PREFETCH` — fetching ahead
//! an object it will overwrite only wastes the link — and the runtime
//! claims those objects instead of fetching them (DESIGN.md §6m). The
//! contiguity holds within one loop entry only, so motion leaves overwrite
//! streams in their own loop.

use crate::cost::CostModel;
use crate::passes::guard_motion::HoistedSite;
use std::collections::{BTreeMap, HashSet};
use tfm_analysis::dom::DomTree;
use tfm_analysis::induction::{basic_ivs, strided_accesses, LoopAccess};
use tfm_analysis::loops::{ensure_preheader, split_edge, LoopForest, NaturalLoop};
use tfm_analysis::profile::Profile;
use tfm_ir::{
    BinOp, Block, CastOp, FuncId, Function, InstData, InstKind, Intrinsic, Module, Type, Value,
    CHUNK_FLAG_OVERWRITE, CHUNK_FLAG_PREFETCH, CHUNK_FLAG_WRITE,
};

/// When to apply the chunking transform.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ChunkingMode {
    /// Never chunk (the "baseline"/naive arm of Figs. 8/15).
    Off,
    /// Chunk every chunkable loop indiscriminately (the "all loops" arm).
    AllLoops,
    /// Chunk only loops the Eq. 3 cost model (optionally profile-guided)
    /// approves (the "high-density loops only" arm).
    CostModel,
}

/// Options for the chunking pass.
#[derive(Copy, Clone, Debug)]
pub struct ChunkingOptions {
    /// Application mode.
    pub mode: ChunkingMode,
    /// The AIFM object size the compiler selected (needed for density).
    pub object_size: u64,
    /// Whether chunk streams should request stride prefetching.
    pub prefetch: bool,
    /// Hoist inner-loop streams into enclosing loops' preheaders when legal
    /// (chunk-stream motion; off reproduces the paper's placement).
    pub stream_motion: bool,
    /// Mark dense forward write-only streams `CHUNK_FLAG_OVERWRITE` (off
    /// reproduces the paper's streams, which fetch every object).
    pub overwrite: bool,
}

/// What the pass did (feeds the compile report and Figs. 8/15).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChunkingOutcome {
    /// Chunk streams created (`tfm.chunk.begin` count).
    pub streams: usize,
    /// Accesses rewritten to `tfm.chunk.deref`.
    pub chunked_accesses: usize,
    /// Loops with at least one stream.
    pub chunked_loops: usize,
    /// Candidate streams rejected by the cost model.
    pub skipped_low_benefit: usize,
    /// Streams moved out of their loop by chunk-stream motion (each counted
    /// once, however many levels it climbed).
    pub streams_hoisted: usize,
    /// Per-stream motion attribution: the `tfm.chunk.begin` value and the
    /// loop levels it climbed.
    pub hoisted: Vec<HoistedSite>,
    /// Streams marked `CHUNK_FLAG_OVERWRITE`.
    pub overwrite_streams: usize,
}

impl ChunkingOutcome {
    /// Accumulates another function's outcome into this one.
    pub fn merge(&mut self, other: ChunkingOutcome) {
        self.streams += other.streams;
        self.chunked_accesses += other.chunked_accesses;
        self.chunked_loops += other.chunked_loops;
        self.skipped_low_benefit += other.skipped_low_benefit;
        self.streams_hoisted += other.streams_hoisted;
        self.hoisted.extend(other.hoisted);
        self.overwrite_streams += other.overwrite_streams;
    }
}

/// Runs chunking on one function, then (with
/// [`ChunkingOptions::stream_motion`]) chunk-stream motion.
pub fn run(
    module: &mut Module,
    func: FuncId,
    cost: &CostModel,
    opts: &ChunkingOptions,
    profile: Option<&Profile>,
) -> ChunkingOutcome {
    let mut outcome = ChunkingOutcome::default();
    if opts.mode == ChunkingMode::Off {
        return outcome;
    }
    let mut processed_headers: HashSet<Block> = HashSet::new();
    let mut handled_accesses: HashSet<Value> = HashSet::new();

    // Snapshot profile-derived trip counts on the pristine CFG: later
    // preheader insertion and exit-edge splitting perturb the very edges
    // `loop_entries` counts. Headers are stable across those mutations.
    let mut trips_by_header: std::collections::HashMap<Block, f64> = Default::default();
    if let Some(p) = profile {
        let f = module.function(func);
        let dt = DomTree::compute(f);
        for lp in &LoopForest::compute(f, &dt).loops {
            if let Some(t) = p.avg_trip_count(f, lp) {
                trips_by_header.insert(lp.header, t);
            }
        }
    }

    // Transforming a loop mutates the CFG (preheaders, split exit edges), so
    // we recompute the loop forest after each transformed loop and always
    // pick the innermost unprocessed loop next (inner streams must claim
    // their accesses before enclosing loops see them).
    loop {
        let f = module.function(func);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let Some(lp) = forest
            .loops
            .iter()
            .filter(|l| !processed_headers.contains(&l.header))
            .max_by_key(|l| l.depth)
        else {
            break;
        };
        let lp = lp.clone();
        processed_headers.insert(lp.header);
        let trips = if profile.is_some() {
            trips_by_header.get(&lp.header).copied()
        } else {
            None
        };
        let o = run_on_loop(module, func, &lp, cost, opts, trips, &mut handled_accesses);
        outcome.merge(o);
    }
    if opts.stream_motion && outcome.streams > 0 {
        let f = module.function(func);
        let leaves: HashSet<FuncId> = f
            .live_insts()
            .into_iter()
            .filter_map(|v| match f.kind(v) {
                InstKind::Call { func, .. } => Some(*func),
                _ => None,
            })
            .filter(|&callee| is_straight_line_leaf(module.function(callee)))
            .collect();
        outcome.hoisted = hoist_streams(module.function_mut(func), func, &leaves);
        outcome.streams_hoisted = outcome.hoisted.len();
    }
    outcome
}

fn run_on_loop(
    module: &mut Module,
    func: FuncId,
    lp: &NaturalLoop,
    cost: &CostModel,
    opts: &ChunkingOptions,
    avg_trips: Option<f64>,
    handled: &mut HashSet<Value>,
) -> ChunkingOutcome {
    let mut outcome = ChunkingOutcome::default();
    let f = module.function(func);
    let ivs = basic_ivs(f, lp);
    if ivs.is_empty() {
        return outcome;
    }
    let accesses: Vec<LoopAccess> = strided_accesses(f, lp, &ivs)
        .into_iter()
        .filter(|a| !handled.contains(&a.inst) && a.stride != 0)
        .collect();
    if accesses.is_empty() {
        return outcome;
    }

    // Group accesses into streams by (base pointer, IV).
    let mut groups: Vec<(Value, Value, Vec<LoopAccess>)> = Vec::new();
    for a in accesses {
        match groups
            .iter_mut()
            .find(|(b, phi, _)| *b == a.base && *phi == a.iv.phi)
        {
            Some((_, _, list)) => list.push(a),
            None => groups.push((a.base, a.iv.phi, vec![a])),
        }
    }

    let mut approved: Vec<(Value, Vec<LoopAccess>, bool)> = Vec::new();
    let mut dt = None;
    for (base, _phi, list) in groups {
        let elem = list.iter().map(|a| a.element_size()).max().unwrap_or(1);
        let density = opts.object_size as f64 / elem as f64;
        let take = match opts.mode {
            ChunkingMode::Off => false,
            ChunkingMode::AllLoops => true,
            ChunkingMode::CostModel => cost.should_chunk(density, avg_trips),
        };
        if take {
            let overwrite = match list.as_slice() {
                [a] if opts.overwrite && a.is_store => {
                    let dt = dt.get_or_insert_with(|| DomTree::compute(f));
                    let at = f.inst(a.inst).block;
                    is_dense_forward(f, dt, lp, a.gep, u64::from(a.access_size), at)
                }
                _ => false,
            };
            approved.push((base, list, overwrite));
        } else {
            outcome.skipped_low_benefit += 1;
        }
    }
    if approved.is_empty() {
        return outcome;
    }

    // Transform. All streams of this loop share the preheader and the exit
    // edge splits.
    let f = module.function_mut(func);
    let preheader = ensure_preheader(f, lp);
    let ph_term = f.terminator(preheader).expect("preheader terminated");
    let mut handles = Vec::new();
    for (base, list, overwrite) in &approved {
        let write = list.iter().any(|a| a.is_store);
        let mut flags = 0;
        if write {
            flags |= CHUNK_FLAG_WRITE;
        }
        if *overwrite {
            flags |= CHUNK_FLAG_OVERWRITE;
            outcome.overwrite_streams += 1;
        } else if opts.prefetch {
            flags |= CHUNK_FLAG_PREFETCH;
        }
        let flags_c = f.insert_before(
            ph_term,
            InstData {
                kind: InstKind::ConstInt(flags),
                ty: Some(Type::I64),
                block: preheader,
            },
        );
        let handle = f.insert_before(
            ph_term,
            InstData {
                kind: InstKind::IntrinsicCall {
                    intr: Intrinsic::ChunkBegin,
                    args: vec![*base, flags_c],
                },
                ty: Some(Type::I64),
                block: preheader,
            },
        );
        handles.push(handle);
        for a in list {
            let ptr_operand = match f.kind(a.inst) {
                InstKind::Load { ptr } => *ptr,
                InstKind::Store { ptr, .. } => *ptr,
                _ => continue,
            };
            let deref = f.insert_before(
                a.inst,
                InstData {
                    kind: InstKind::IntrinsicCall {
                        intr: Intrinsic::ChunkDeref,
                        args: vec![handle, ptr_operand],
                    },
                    ty: Some(Type::Ptr),
                    block: f.inst(a.inst).block,
                },
            );
            match &mut f.inst_mut(a.inst).kind {
                InstKind::Load { ptr } => *ptr = deref,
                InstKind::Store { ptr, .. } => *ptr = deref,
                _ => unreachable!(),
            }
            handled.insert(a.inst);
            outcome.chunked_accesses += 1;
        }
        outcome.streams += 1;
    }
    outcome.chunked_loops += 1;

    // Release pins on every exit edge.
    for (from, to) in lp.exit_edges(f) {
        let mid = split_edge(f, from, to);
        let mid_term = f.terminator(mid).expect("split block terminated");
        for &h in &handles {
            f.insert_before(
                mid_term,
                InstData {
                    kind: InstKind::IntrinsicCall {
                        intr: Intrinsic::ChunkEnd,
                        args: vec![h],
                    },
                    ty: None,
                    block: mid,
                },
            );
        }
    }
    outcome
}

/// The overwrite rule, shared with `tfm-lint`: true when a `width`-byte
/// store through `gep`, in block `at` of `lp`, writes the element right
/// after the one the previous iteration wrote. `gep`'s scale is `width`;
/// its index is a +1 basic IV of `lp` itself, widened or offset by a
/// constant (a narrowing or a `c − iv` index could wrap or run backward);
/// and `at` dominates every latch, so no iteration skips its element.
pub(crate) fn is_dense_forward(
    f: &Function,
    dt: &DomTree,
    lp: &NaturalLoop,
    gep: Value,
    width: u64,
    at: Block,
) -> bool {
    let InstKind::Gep { index, scale, .. } = *f.kind(gep) else {
        return false;
    };
    u64::from(scale) == width
        && lp.latches.iter().all(|&l| dt.dominates(at, l))
        && basic_ivs(f, lp)
            .iter()
            .any(|iv| iv.step == 1 && indexes_iv_forward(f, index, iv.phi))
}

/// True when `idx` is `phi` itself, or `phi` widened (`sext`/`zext`) or
/// offset by a constant (`phi ± c`, `c + phi`), up to four steps deep.
fn indexes_iv_forward(f: &Function, mut idx: Value, phi: Value) -> bool {
    for _ in 0..4 {
        if idx == phi {
            return true;
        }
        idx = match f.kind(idx) {
            InstKind::Cast(CastOp::Sext | CastOp::Zext, x) => *x,
            InstKind::Binary(BinOp::Add | BinOp::Sub, x, c)
                if matches!(f.kind(*c), InstKind::ConstInt(_)) =>
            {
                *x
            }
            InstKind::Binary(BinOp::Add, c, x) if matches!(f.kind(*c), InstKind::ConstInt(_)) => *x,
            _ => return false,
        };
    }
    false
}

/// True for a function a loop may call while a hoisted stream holds its
/// window: no loop, no call, no intrinsic — a bounded amount of work that
/// can neither free nor evacuate a pinned object.
fn is_straight_line_leaf(f: &Function) -> bool {
    f.live_insts().into_iter().all(|v| {
        !matches!(
            f.kind(v),
            InstKind::Call { .. } | InstKind::IntrinsicCall { .. }
        )
    }) && LoopForest::compute(f, &DomTree::compute(f))
        .loops
        .is_empty()
}

/// Chunk-stream motion over one function: rounds of [`hoist_stream`], each
/// moving every eligible stream one loop level outward, until none moves.
/// The CFG analyses are recomputed only after a move changed the CFG.
fn hoist_streams(f: &mut Function, func: FuncId, leaves: &HashSet<FuncId>) -> Vec<HoistedSite> {
    let mut levels: BTreeMap<Value, u32> = BTreeMap::new();
    loop {
        let begins: Vec<Value> = f
            .live_insts()
            .into_iter()
            .filter(|&v| {
                matches!(
                    f.kind(v),
                    InstKind::IntrinsicCall {
                        intr: Intrinsic::ChunkBegin,
                        ..
                    }
                )
            })
            .collect();
        let mut moved = false;
        let mut analyses = None;
        for h in begins {
            let (dt, forest) = analyses.get_or_insert_with(|| {
                let dt = DomTree::compute(f);
                let forest = LoopForest::compute(f, &dt);
                (dt, forest)
            });
            if hoist_stream(f, dt, forest, h, leaves) {
                *levels.entry(h).or_insert(0) += 1;
                moved = true;
                analyses = None;
            }
        }
        if !moved {
            break;
        }
    }
    levels
        .into_iter()
        .map(|(v, levels)| HoistedSite {
            func: func.0,
            value: v.index() as u32,
            levels,
            span: 0,
        })
        .collect()
}

/// Moves stream `h` from the preheader of its loop L into the preheader of
/// L's parent P, re-homing its `tfm.chunk.end`s from L's exits to P's.
/// Returns false (changing nothing) unless:
///
/// * `h` is not an overwrite stream (a claimed object is only fully written
///   within one loop entry);
/// * `h` sits in L's preheader, and its base is defined outside P (its
///   flags too, or they are a constant that can move with it);
/// * L's preheader dominates every latch of P, so L runs on each iteration;
/// * P does only straight-line work around L, so the held window costs two
///   pinned objects for a bounded stretch of code: no loop in P outside L;
///   no intrinsic but guards and chunk streams (nothing frees or evacuates
///   a pinned object); calls only to straight-line leaves (`leaves`); no
///   return from inside (which would leak the pins);
/// * `h` is only dereferenced inside L and only ended on L's exit edges.
///
/// `dt` and `forest` must describe `f` as it is; a move rewrites the CFG
/// (split and dropped exit blocks, perhaps a new preheader) and so
/// invalidates them.
fn hoist_stream(
    f: &mut Function,
    dt: &DomTree,
    forest: &LoopForest,
    h: Value,
    leaves: &HashSet<FuncId>,
) -> bool {
    let ph = f.inst(h).block;
    let Some(inner) = forest.loops.iter().find(|l| l.preheader(f) == Some(ph)) else {
        return false;
    };
    let Some(outer) = inner.parent.map(|p| &forest.loops[p]) else {
        return false;
    };
    let InstKind::IntrinsicCall { args, .. } = f.kind(h) else {
        unreachable!("stream handles are chunk.begin calls")
    };
    let (base, flags) = (args[0], args[1]);
    let flags_inside = outer.contains(f.inst(flags).block);
    if !matches!(f.kind(flags), InstKind::ConstInt(c) if c & CHUNK_FLAG_OVERWRITE == 0)
        || outer.contains(f.inst(base).block)
        || (flags_inside && !matches!(f.kind(flags), InstKind::ConstInt(_)))
        || !outer.latches.iter().all(|&l| dt.dominates(ph, l))
        || !only_straight_line_work(f, forest, outer, inner, leaves)
    {
        return false;
    }
    let mut ends = Vec::new();
    for v in f.live_insts() {
        let mut uses_h = false;
        f.kind(v).for_each_operand(|o| uses_h |= o == h);
        if !uses_h {
            continue;
        }
        let b = f.inst(v).block;
        match f.kind(v) {
            InstKind::IntrinsicCall {
                intr: Intrinsic::ChunkDeref,
                ..
            } if inner.contains(b) => {}
            InstKind::IntrinsicCall {
                intr: Intrinsic::ChunkEnd,
                ..
            } if !inner.contains(b) && f.preds(b).iter().all(|p| inner.contains(*p)) => {
                ends.push(v)
            }
            _ => return false,
        }
    }

    let headers: HashSet<Block> = forest.loops.iter().map(|l| l.header).collect();
    let pre = ensure_preheader(f, outer);
    let term = f.terminator(pre).expect("preheader terminated");
    if flags_inside {
        f.move_inst_before(flags, term);
    }
    f.move_inst_before(h, term);
    let mut dropped = Vec::new();
    for e in ends {
        let b = f.inst(e).block;
        f.remove_inst(e);
        if drop_forwarding_block(f, b, &headers) {
            dropped.push(b);
        }
    }
    for (from, to) in outer.exit_edges(f) {
        let exit = if is_stream_exit_block(f, from, to) {
            to
        } else {
            split_edge(f, from, to)
        };
        let t = f.terminator(exit).expect("exit block terminated");
        f.insert_before(
            t,
            InstData {
                kind: InstKind::IntrinsicCall {
                    intr: Intrinsic::ChunkEnd,
                    args: vec![h],
                },
                ty: None,
                block: exit,
            },
        );
    }
    // Last, as removal renumbers the blocks after each dropped one.
    dropped.sort_unstable();
    for b in dropped.into_iter().rev() {
        f.remove_block(b);
    }
    true
}

/// True when `outer` does nothing around `inner` but straight-line work:
/// no loop outside `inner`, no intrinsic but guards and chunk streams, calls
/// only to `leaves`, and no return.
fn only_straight_line_work(
    f: &Function,
    forest: &LoopForest,
    outer: &NaturalLoop,
    inner: &NaturalLoop,
    leaves: &HashSet<FuncId>,
) -> bool {
    let no_other_loop = forest
        .loops
        .iter()
        .all(|l| l.header == outer.header || !outer.contains(l.header) || inner.contains(l.header));
    no_other_loop
        && outer.blocks.iter().all(|&b| {
            f.block_insts(b).iter().all(|&v| match f.kind(v) {
                InstKind::IntrinsicCall { intr, .. } => matches!(
                    intr,
                    Intrinsic::GuardRead
                        | Intrinsic::GuardWrite
                        | Intrinsic::ChunkBegin
                        | Intrinsic::ChunkDeref
                        | Intrinsic::ChunkEnd
                ),
                InstKind::Call { func, .. } => leaves.contains(func),
                InstKind::Ret(_) => false,
                _ => true,
            })
        })
}

/// True when `to` is an exit-edge block chunking already split off for
/// `from → to`: reached only from `from`, holding nothing but
/// `tfm.chunk.end`s before its branch. Another stream's end can join them.
fn is_stream_exit_block(f: &Function, from: Block, to: Block) -> bool {
    let Some((&last, rest)) = f.block_insts(to).split_last() else {
        return false;
    };
    f.preds(to) == [from]
        && matches!(f.kind(last), InstKind::Br(_))
        && !rest.is_empty()
        && rest.iter().all(|&v| {
            matches!(
                f.kind(v),
                InstKind::IntrinsicCall {
                    intr: Intrinsic::ChunkEnd,
                    ..
                }
            )
        })
}

/// Empties `b` when moving its last `tfm.chunk.end` left a bare `br to` on
/// a split edge `from → b → to`: `from` branches to `to` directly again,
/// and the caller deletes `b`. A block that is the only way into a loop
/// header stays (it is that loop's preheader, which guard motion hoists
/// into). Returns whether `b` was emptied.
fn drop_forwarding_block(f: &mut Function, b: Block, headers: &HashSet<Block>) -> bool {
    let &[t] = f.block_insts(b) else {
        return false;
    };
    let InstKind::Br(to) = *f.kind(t) else {
        return false;
    };
    let &[from] = f.preds(b).as_slice() else {
        return false;
    };
    if headers.contains(&to) || f.succs(from).contains(&to) {
        return false;
    }
    let ft = f.terminator(from).expect("predecessor terminated");
    let mut kind = f.kind(ft).clone();
    kind.for_each_successor_mut(|s| {
        if *s == b {
            *s = to;
        }
    });
    f.inst_mut(ft).kind = kind;
    f.redirect_phi_pred(to, b, from);
    f.remove_inst(t);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{BinOp, FunctionBuilder, Signature};

    fn stream_sum_module(elems: i64, elem_bytes: u32) -> (Module, FuncId) {
        let mut m = Module::new("t");
        let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let arr = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, elems);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(arr, i, elem_bytes, 0);
                let x = b.load(Type::I64, addr);
                let _ = b.binop(BinOp::Add, x, x);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        (m, id)
    }

    fn count_intr(m: &Module, id: FuncId, intr: Intrinsic) -> usize {
        m.function(id)
            .live_insts()
            .into_iter()
            .filter(|&v| {
                matches!(m.function(id).kind(v), InstKind::IntrinsicCall { intr: i, .. } if *i == intr)
            })
            .count()
    }

    fn opts(mode: ChunkingMode) -> ChunkingOptions {
        ChunkingOptions {
            mode,
            object_size: 4096,
            prefetch: true,
            stream_motion: false,
            overwrite: false,
        }
    }

    #[test]
    fn chunks_dense_stream_and_stays_valid() {
        let (mut m, id) = stream_sum_module(1000, 8); // density 512 > 75
        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::CostModel),
            None,
        );
        assert_eq!(out.streams, 1);
        assert_eq!(out.chunked_accesses, 1);
        assert_eq!(out.chunked_loops, 1);
        assert_eq!(out.skipped_low_benefit, 0);
        m.verify().unwrap();
        assert_eq!(count_intr(&m, id, Intrinsic::ChunkBegin), 1);
        assert_eq!(count_intr(&m, id, Intrinsic::ChunkDeref), 1);
        assert_eq!(count_intr(&m, id, Intrinsic::ChunkEnd), 1);
    }

    #[test]
    fn cost_model_rejects_sparse_stream() {
        // 4096-byte elements in 4096-byte objects: density 1 → never chunk.
        let (mut m, id) = stream_sum_module(1000, 4096);
        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::CostModel),
            None,
        );
        assert_eq!(out.streams, 0);
        assert_eq!(out.skipped_low_benefit, 1);
        assert_eq!(count_intr(&m, id, Intrinsic::ChunkDeref), 0);
    }

    #[test]
    fn all_loops_mode_chunks_indiscriminately() {
        let (mut m, id) = stream_sum_module(1000, 4096);
        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::AllLoops),
            None,
        );
        assert_eq!(out.streams, 1);
        m.verify().unwrap();
    }

    #[test]
    fn off_mode_does_nothing() {
        let (mut m, id) = stream_sum_module(1000, 8);
        let before = m.total_live_insts();
        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::Off),
            None,
        );
        assert_eq!(out, ChunkingOutcome::default());
        assert_eq!(m.total_live_insts(), before);
    }

    #[test]
    fn copy_loop_gets_two_streams_with_write_intent() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "main",
            Signature::new(vec![Type::Ptr, Type::Ptr], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let dst = b.param(0);
            let src = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 1 << 16);
            b.counted_loop(zero, n, 1, |b, i| {
                let saddr = b.gep(src, i, 8, 0);
                let daddr = b.gep(dst, i, 8, 0);
                let x = b.load(Type::I64, saddr);
                b.store(daddr, x);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::CostModel),
            None,
        );
        assert_eq!(out.streams, 2);
        assert_eq!(out.chunked_accesses, 2);
        m.verify().unwrap();
        // One stream must carry the write flag, one must not.
        let f = m.function(id);
        let mut flags_seen = Vec::new();
        for v in f.live_insts() {
            if let InstKind::IntrinsicCall {
                intr: Intrinsic::ChunkBegin,
                args,
            } = f.kind(v)
            {
                if let InstKind::ConstInt(c) = f.kind(args[1]) {
                    flags_seen.push(*c & CHUNK_FLAG_WRITE);
                }
            }
        }
        flags_seen.sort();
        assert_eq!(flags_seen, vec![0, CHUNK_FLAG_WRITE]);
    }

    #[test]
    fn profile_guided_rejects_short_inner_loops() {
        // Nested loops: outer long, inner short (8 iterations). With a
        // profile, only the outer access is chunked — the k-means scenario.
        let mut m = Module::new("t");
        let id = m.declare_function(
            "main",
            Signature::new(vec![Type::Ptr, Type::Ptr], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let big = b.param(0);
            let small = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 100_000);
            let d = b.iconst(Type::I64, 8);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(big, i, 8, 0);
                let _ = b.load(Type::I64, addr);
                let z2 = b.iconst(Type::I64, 0);
                b.counted_loop(z2, d, 1, |b, j| {
                    let a2 = b.gep(small, j, 8, 0);
                    let _ = b.load(Type::I64, a2);
                });
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();

        // Build a synthetic profile: outer loop runs 100K iterations, inner
        // runs 8 per entry.
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let mut prof = Profile::new();
        for lp in &forest.loops {
            let pre = lp.preheader(f).unwrap();
            let (entries, iters) = if lp.depth == 1 {
                (1, 100_000)
            } else {
                (100_000, 8)
            };
            for _ in 0..entries {
                prof.count_edge(&f.name, pre, lp.header);
            }
            for _ in 0..(iters * entries) {
                prof.count_block(&f.name, lp.header);
            }
        }

        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::CostModel),
            Some(&prof),
        );
        assert_eq!(out.streams, 1, "only the outer stream should be chunked");
        assert_eq!(out.skipped_low_benefit, 1);
        m.verify().unwrap();
    }

    #[test]
    fn nested_loops_all_mode_chunks_both() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "main",
            Signature::new(vec![Type::Ptr, Type::Ptr], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let a1 = b.param(0);
            let a2 = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 64);
            b.counted_loop(zero, n, 1, |b, i| {
                let p = b.gep(a1, i, 8, 0);
                let _ = b.load(Type::I64, p);
                let z2 = b.iconst(Type::I64, 0);
                b.counted_loop(z2, n, 1, |b, j| {
                    let q = b.gep(a2, j, 8, 0);
                    let x = b.load(Type::I64, q);
                    b.store(q, x);
                });
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::AllLoops),
            None,
        );
        assert_eq!(out.chunked_loops, 2);
        assert_eq!(out.streams, 2);
        assert_eq!(out.chunked_accesses, 3);
        m.verify().unwrap();
    }

    /// The shapes of the chunk-stream-motion tests: analytics Q4 and the
    /// variants that must keep the stream where the paper puts it.
    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum Nest {
        /// `for g { s = offs[g]; e = offs[g+1]; for r in s..e { rows[r] } }`.
        Q4,
        /// The inner base is `&rows[g]`: it varies with the outer IV.
        VariantBase,
        /// The outer body frees memory.
        OuterFree,
        /// The outer body calls a straight-line arithmetic helper.
        OuterLeafCall,
        /// The outer body calls a helper that allocates.
        OuterKillerCall,
        /// The outer body calls a helper that loops (over `junk`).
        OuterLoopingCall,
        /// The outer body runs a second inner loop (over `junk`).
        SiblingLoop,
        /// The inner loop only runs when a parameter is non-zero.
        ConditionalInner,
        /// Q4 wrapped in one more loop.
        ThreeDeep,
    }

    /// Builds `main(offs, rows, c, junk)` in the given shape, plus the three
    /// helpers the call variants use. Returns the module, `main` and the
    /// inner stream's base pointer.
    fn nest_module(shape: Nest) -> (Module, FuncId, Value) {
        let mut m = Module::new("nest");
        let pure = m.declare_function("pure", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(pure));
            let x = b.param(0);
            let y = b.binop(BinOp::Add, x, x);
            b.ret(Some(y));
        }
        let killer = m.declare_function("killer", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(killer));
            let x = b.param(0);
            let q = b.malloc_const(16);
            b.store(q, x);
            b.intrinsic(Intrinsic::Free, vec![q]);
            b.ret(Some(x));
        }
        let scan = m.declare_function("scan", Signature::new(vec![Type::Ptr], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(scan));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 512);
            b.counted_loop(zero, n, 1, |b, i| {
                let a = b.gep(p, i, 8, 0);
                let _ = b.load(Type::I64, a);
            });
            b.ret(None);
        }
        let id = m.declare_function(
            "main",
            Signature::new(
                vec![Type::Ptr, Type::Ptr, Type::I64, Type::Ptr],
                Some(Type::I64),
            ),
        );
        let rows;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let (offs, c, junk) = (b.param(0), b.param(2), b.param(3));
            rows = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            let body = |b: &mut FunctionBuilder<'_>, g: Value| {
                let oa = b.gep(offs, g, 8, 0);
                let ob = b.gep(offs, g, 8, 8);
                let start = b.load(Type::I64, oa);
                let end = b.load(Type::I64, ob);
                let base = match shape {
                    Nest::VariantBase => b.gep(rows, g, 8, 0),
                    _ => rows,
                };
                match shape {
                    Nest::OuterFree => {
                        b.intrinsic(Intrinsic::Free, vec![junk]);
                    }
                    Nest::OuterLeafCall => {
                        b.call(pure, vec![g], Some(Type::I64));
                    }
                    Nest::OuterKillerCall => {
                        b.call(killer, vec![g], Some(Type::I64));
                    }
                    Nest::OuterLoopingCall => {
                        b.call(scan, vec![junk], None);
                    }
                    Nest::SiblingLoop => {
                        let z = b.iconst(Type::I64, 0);
                        let n = b.iconst(Type::I64, 512);
                        b.counted_loop(z, n, 1, |b, i| {
                            let a = b.gep(junk, i, 8, 0);
                            let _ = b.load(Type::I64, a);
                        });
                    }
                    _ => {}
                }
                let join = b.create_block();
                if shape == Nest::ConditionalInner {
                    let then_bb = b.create_block();
                    b.cond_br(c, then_bb, join);
                    b.switch_to_block(then_bb);
                }
                b.counted_loop(start, end, 1, |b, r| {
                    let a = b.gep(base, r, 8, 0);
                    let _ = b.load(Type::I64, a);
                });
                b.br(join);
                b.switch_to_block(join);
            };
            let n = b.iconst(Type::I64, 64);
            if shape == Nest::ThreeDeep {
                let four = b.iconst(Type::I64, 4);
                b.counted_loop(zero, four, 1, |b, _| {
                    let z = b.iconst(Type::I64, 0);
                    b.counted_loop(z, n, 1, body);
                });
            } else {
                b.counted_loop(zero, n, 1, body);
            }
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        (m, id, rows)
    }

    /// Chunks `main` of `m` (cost-model mode, no profile), with or without
    /// stream motion.
    fn chunk_nest(m: &mut Module, id: FuncId, motion: bool) -> ChunkingOutcome {
        let o = ChunkingOptions {
            stream_motion: motion,
            ..opts(ChunkingMode::CostModel)
        };
        let out = run(m, id, &CostModel::default(), &o, None);
        m.verify().unwrap();
        out
    }

    fn stream_insts(f: &Function) -> Vec<(Value, Intrinsic, Vec<Value>)> {
        f.live_insts()
            .into_iter()
            .filter_map(|v| match f.kind(v) {
                InstKind::IntrinsicCall { intr, args }
                    if matches!(intr, Intrinsic::ChunkBegin | Intrinsic::ChunkEnd) =>
                {
                    Some((v, *intr, args.clone()))
                }
                _ => None,
            })
            .collect()
    }

    /// The `tfm.chunk.begin` of the stream over `base`.
    fn begin_of(f: &Function, base: Value) -> Value {
        let begins: Vec<Value> = stream_insts(f)
            .into_iter()
            .filter(|(_, intr, args)| *intr == Intrinsic::ChunkBegin && args[0] == base)
            .map(|(v, _, _)| v)
            .collect();
        assert_eq!(begins.len(), 1, "exactly one stream over the base");
        begins[0]
    }

    #[test]
    fn q4_stream_moves_to_the_outer_preheader() {
        let (mut m, id, rows) = nest_module(Nest::Q4);
        let out = chunk_nest(&mut m, id, true);
        assert_eq!(out.streams, 2, "offs in the outer loop, rows in the inner");
        let f = m.function(id);
        let h = begin_of(f, rows);
        assert_eq!(out.streams_hoisted, 1);
        assert_eq!(
            out.hoisted,
            vec![HoistedSite {
                func: id.0,
                value: h.index() as u32,
                levels: 1,
                span: 0,
            }]
        );
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let outer = forest.loops.iter().find(|l| l.depth == 1).unwrap();
        assert_eq!(f.inst(h).block, outer.preheader(f).unwrap());
        // No stream opens or closes inside the outer loop any more: both
        // begins sit in its preheader, and each stream ends exactly once on
        // the outer loop's one exit edge, in the block they share.
        let exits = outer.exit_edges(f);
        assert_eq!(exits.len(), 1);
        let (from, exit) = exits[0];
        assert_eq!(f.preds(exit), vec![from]);
        for (v, intr, args) in stream_insts(f) {
            let b = f.inst(v).block;
            match intr {
                Intrinsic::ChunkBegin => assert_eq!(b, f.inst(h).block),
                _ => assert_eq!(b, exit, "end of {} off the outer exit", args[0]),
            }
        }
        let ends = |v: Value| {
            stream_insts(f)
                .iter()
                .filter(|(_, intr, args)| *intr == Intrinsic::ChunkEnd && args[0] == v)
                .count()
        };
        assert_eq!(ends(h), 1);
        assert_eq!(ends(begin_of(f, f.param(0))), 1);
        // The inner loop's exit block, emptied by the move, is gone.
        let (mut paper, _, _) = nest_module(Nest::Q4);
        chunk_nest(&mut paper, id, false);
        assert_eq!(f.num_blocks() + 1, paper.function(id).num_blocks());
    }

    #[test]
    fn streams_that_must_stay_are_not_hoisted() {
        for shape in [
            Nest::VariantBase,
            Nest::OuterFree,
            Nest::OuterKillerCall,
            Nest::OuterLoopingCall,
            Nest::SiblingLoop,
            Nest::ConditionalInner,
        ] {
            let (m, id, _) = nest_module(shape);
            let (mut on, mut off) = (m.clone(), m);
            let out = chunk_nest(&mut on, id, true);
            assert!(out.streams >= 2, "{shape:?}");
            assert_eq!(out.streams_hoisted, 0, "{shape:?}");
            chunk_nest(&mut off, id, false);
            assert_eq!(on.to_string(), off.to_string(), "{shape:?}");
        }
    }

    #[test]
    fn calls_to_straight_line_leaves_do_not_block_motion() {
        let (mut m, id, _) = nest_module(Nest::OuterLeafCall);
        assert_eq!(chunk_nest(&mut m, id, true).streams_hoisted, 1);
    }

    #[test]
    fn stream_climbs_two_levels_out_of_a_three_deep_nest() {
        let (mut m, id, rows) = nest_module(Nest::ThreeDeep);
        let out = chunk_nest(&mut m, id, true);
        let f = m.function(id);
        let h = begin_of(f, rows);
        let site = out.hoisted.iter().find(|s| s.value == h.index() as u32);
        assert_eq!(site.map(|s| s.levels), Some(2), "{:?}", out.hoisted);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let top = forest.loops.iter().find(|l| l.depth == 1).unwrap();
        assert_eq!(f.inst(h).block, top.preheader(f).unwrap());
        let ends: Vec<Block> = stream_insts(f)
            .into_iter()
            .filter(|(_, _, args)| args[0] == h)
            .map(|(v, _, _)| f.inst(v).block)
            .collect();
        assert_eq!(ends.len(), top.exit_edges(f).len(), "one end per exit");
        for b in ends {
            assert!(!top.contains(b), "end of {h} inside the nest");
            assert!(f.preds(b).iter().all(|p| top.contains(*p)));
        }
    }

    /// The write-only loop shapes the overwrite rule must tell apart.
    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    enum Fill {
        /// `a[i] = i` over `i64`s: dense, forward, every iteration.
        Dense,
        /// `a[i + 1] = i`: still dense.
        Offset,
        /// `a[i] = i` storing an `i32` into 8-byte slots: gaps.
        Narrow,
        /// `i += 2`, 4-byte scale, 8-byte store: stride 8, but step 2.
        Step2,
        /// `if i & c { a[i] = i }`: not every iteration writes.
        Conditional,
        /// `a[i] = a[i] + 1`: the stream reads too.
        ReadModifyWrite,
        /// `a[1000 - i] = i`: runs backward.
        Reverse,
    }

    fn fill_module(shape: Fill) -> (Module, FuncId) {
        let mut m = Module::new("fill");
        let id = m.declare_function(
            "main",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let (a, c) = (b.param(0), b.param(1));
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 1000);
            let step = if shape == Fill::Step2 { 2 } else { 1 };
            b.counted_loop(zero, n, step, |b, i| {
                let addr = match shape {
                    Fill::Offset => {
                        let one = b.iconst(Type::I64, 1);
                        let j = b.binop(BinOp::Add, i, one);
                        b.gep(a, j, 8, 0)
                    }
                    Fill::Reverse => {
                        let j = b.binop(BinOp::Sub, n, i);
                        b.gep(a, j, 8, 0)
                    }
                    Fill::Step2 => b.gep(a, i, 4, 0),
                    _ => b.gep(a, i, 8, 0),
                };
                match shape {
                    Fill::Narrow => {
                        let x = b.cast(tfm_ir::CastOp::Trunc, i, Type::I32);
                        b.store(addr, x);
                    }
                    Fill::Conditional => {
                        let bit = b.binop(BinOp::And, i, c);
                        let (then_bb, join) = (b.create_block(), b.create_block());
                        b.cond_br(bit, then_bb, join);
                        b.switch_to_block(then_bb);
                        b.store(addr, i);
                        b.br(join);
                        b.switch_to_block(join);
                    }
                    Fill::ReadModifyWrite => {
                        let x = b.load(Type::I64, addr);
                        let y = b.binop(BinOp::Add, x, c);
                        b.store(addr, y);
                    }
                    _ => b.store(addr, i),
                }
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        (m, id)
    }

    /// The flags of every `tfm.chunk.begin` in `main`.
    fn begin_flags(m: &Module, id: FuncId) -> Vec<i64> {
        let f = m.function(id);
        stream_insts(f)
            .into_iter()
            .filter(|(_, intr, _)| *intr == Intrinsic::ChunkBegin)
            .map(|(_, _, args)| match f.kind(args[1]) {
                InstKind::ConstInt(c) => *c,
                k => panic!("non-constant flags {k:?}"),
            })
            .collect()
    }

    #[test]
    fn only_dense_forward_write_only_streams_are_overwrite() {
        for (shape, want) in [
            (Fill::Dense, true),
            (Fill::Offset, true),
            (Fill::Narrow, false),
            (Fill::Step2, false),
            (Fill::Conditional, false),
            (Fill::ReadModifyWrite, false),
            (Fill::Reverse, false),
        ] {
            for overwrite in [false, true] {
                let (mut m, id) = fill_module(shape);
                let o = ChunkingOptions {
                    overwrite,
                    ..opts(ChunkingMode::AllLoops)
                };
                let out = run(&mut m, id, &CostModel::default(), &o, None);
                m.verify().unwrap();
                assert_eq!(out.streams, 1, "{shape:?}");
                let flags = if want && overwrite {
                    // Prefetching an object the stream overwrites is waste.
                    CHUNK_FLAG_WRITE | CHUNK_FLAG_OVERWRITE
                } else {
                    CHUNK_FLAG_WRITE | CHUNK_FLAG_PREFETCH
                };
                assert_eq!(begin_flags(&m, id), vec![flags], "{shape:?} {overwrite}");
                assert_eq!(out.overwrite_streams, usize::from(want && overwrite));
            }
        }
    }

    #[test]
    fn overwrite_streams_stay_in_their_loop() {
        // for g { for r in offs[g]..offs[g+1] { rows[r] = r } }: motion
        // would hoist the rows stream, but a claimed object is only known
        // to be written whole within one entry of the inner loop.
        let build = || {
            let mut m = Module::new("nest");
            let id = m.declare_function(
                "main",
                Signature::new(vec![Type::Ptr, Type::Ptr], Some(Type::I64)),
            );
            {
                let mut b = FunctionBuilder::new(m.function_mut(id));
                let (offs, rows) = (b.param(0), b.param(1));
                let zero = b.iconst(Type::I64, 0);
                let n = b.iconst(Type::I64, 64);
                b.counted_loop(zero, n, 1, |b, g| {
                    let oa = b.gep(offs, g, 8, 0);
                    let ob = b.gep(offs, g, 8, 8);
                    let start = b.load(Type::I64, oa);
                    let end = b.load(Type::I64, ob);
                    b.counted_loop(start, end, 1, |b, r| {
                        let a = b.gep(rows, r, 8, 0);
                        b.store(a, r);
                    });
                });
                b.ret(Some(zero));
            }
            m.verify().unwrap();
            (m, id)
        };
        for (overwrite, hoisted) in [(false, 1), (true, 0)] {
            let (mut m, id) = build();
            let o = ChunkingOptions {
                stream_motion: true,
                overwrite,
                ..opts(ChunkingMode::CostModel)
            };
            let out = run(&mut m, id, &CostModel::default(), &o, None);
            m.verify().unwrap();
            assert_eq!(out.streams, 2);
            assert_eq!(out.overwrite_streams, usize::from(overwrite));
            assert_eq!(out.streams_hoisted, hoisted, "overwrite={overwrite}");
        }
    }

    #[test]
    fn motion_off_keeps_every_stream_in_its_own_loop() {
        for shape in [Nest::Q4, Nest::OuterLeafCall, Nest::ThreeDeep] {
            let (mut m, id, rows) = nest_module(shape);
            let out = chunk_nest(&mut m, id, false);
            assert_eq!(out.streams_hoisted, 0);
            assert!(out.hoisted.is_empty());
            // The rows stream opens in the preheader of the innermost loop,
            // where the paper's transform puts it.
            let f = m.function(id);
            let h = begin_of(f, rows);
            let dt = DomTree::compute(f);
            let forest = LoopForest::compute(f, &dt);
            let deepest = forest.loops.iter().max_by_key(|l| l.depth).unwrap();
            assert_eq!(f.inst(h).block, deepest.preheader(f).unwrap(), "{shape:?}");
        }
    }
}
