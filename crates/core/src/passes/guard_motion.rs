//! Loop-invariant guard motion.
//!
//! Redundant-guard elimination (the PR-4 pass) only folds guards that are
//! *covered* by an earlier guard on the same pointer. This pass attacks the
//! complementary pattern: a guard executed on **every iteration** of a loop
//! whose pointer never changes. The custody it acquires is identical each
//! time, so the guard is hoisted into the loop preheader and paid once per
//! loop entry instead of once per iteration — the classic loop-invariant
//! code motion, applied to TrackFM guards, with safety conditions specific
//! to custody semantics:
//!
//! 1. **The loop body must be custody-transparent**: no allocation, free,
//!    or other killing intrinsic, and every call provably transparent (via
//!    [`ModuleSummaries`] when supplied — with no summaries any call blocks
//!    hoisting). Otherwise custody acquired in the preheader would lapse
//!    mid-loop and the rewritten accesses would race evacuation.
//! 2. **The guarded pointer must be loop-invariant**, either defined
//!    outside the loop or a pure computation (`gep` / `cast` / arithmetic /
//!    constants) whose leaves are — the chain is moved into the preheader
//!    ahead of the guard.
//! 3. **The guard's block must dominate every latch** (it runs on every
//!    iteration) and the loop must have a **provable trip count ≥ 1**, so
//!    the hoisted guard never executes more often than the original did —
//!    simulated cycles can only shrink.
//!
//! **Span guards.** A guard whose pointer is *affine* in the loop —
//! `gep(base, iv, s, o)` with `base` loop-invariant and `iv` a basic IV of
//! a loop that runs an exact constant `T ≥ 2` times — touches the bytes
//! `[lo, lo + len)` over the whole loop, with `len = (T−1)·|s·step| +
//! access size`. When `len ≤ MAX_SPAN_BYTES` (64, the smallest legal object
//! size) the guard moves to the preheader as one span guard
//! `tfm.guard.read|write(lo, len)` and the body's `gep` is rebased on its
//! canonical result. The lowering guards `lo` and, only when the span's
//! last byte lies in another 64-byte granule, that byte too: under any
//! runtime object size a span touches at most two objects, so it pays
//! today's per-object guard cost once per loop entry instead of once per
//! iteration. Every guard on the same `gep` (a read-modify-write pair)
//! folds into the one span guard, as a write guard when any of them
//! writes. Legality is the same three rules, with an exact trip count
//! (see [`exact_trip_count`]) in place of "≥ 1".
//!
//! A second, related rewrite handles read-modify-write pairs split across
//! blocks (`guard.read` in one block, `guard.write` of the same pointer in
//! a later block): when the write's block postdominates the read's, sits in
//! exactly the same loops, and dominates the shared loop's latches, the two
//! execute the same number of times — so the read guard is upgraded to a
//! write guard in place and the duplicate deleted, extending the
//! elimination pass's same-block RMW fold across control flow.
//!
//! The pass moves instructions without renumbering them, so guard `Value`
//! ids — and therefore telemetry `SiteKey`s — survive hoisting.

use crate::passes::guard_elim::ElidedSite;
use std::collections::{HashMap, HashSet};
use tfm_analysis::defuse::Uses;
use tfm_analysis::dom::{DomTree, PostDomTree};
use tfm_analysis::guard_check::{same_pointer, AvailableGuards, CoverSrc, GuardKind};
use tfm_analysis::induction::{basic_ivs, exact_trip_count, iv_range, static_trip_count, BasicIv};
use tfm_analysis::loops::{LoopForest, NaturalLoop};
use tfm_analysis::summaries::ModuleSummaries;
use tfm_ir::{Block, Function, InstData, InstKind, Intrinsic, Module, Type, Value, MAX_SPAN_BYTES};

/// One guard moved out of (possibly several nested) loops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HoistedSite {
    /// Function index of the hoisted guard.
    pub func: u32,
    /// Value index of the hoisted guard (stable across the move).
    pub value: u32,
    /// How many loop levels it was hoisted out of.
    pub levels: u32,
    /// Bytes the guard spans once it left an affine loop as a span guard;
    /// 0 for a loop-invariant guard (and for chunk streams).
    pub span: u64,
}

/// What guard motion did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MotionOutcome {
    /// Guards hoisted into a preheader (each counted once, however many
    /// levels it climbed).
    pub hoisted: usize,
    /// Cross-block read→write upgrades (the duplicate write guard deleted,
    /// the surviving read guard strengthened in place).
    pub upgraded: usize,
    /// Per-guard hoist attribution.
    pub sites: Vec<HoistedSite>,
    /// Per-survivor attribution of the cross-block upgrades and of the
    /// guards of one affine pointer folded into its span guard (the read of
    /// a read-modify-write pair, say).
    pub folds: Vec<ElidedSite>,
}

/// Follows the replacement chain to the guard that finally survived.
fn chase(repl: &HashMap<Value, Value>, mut v: Value) -> Value {
    while let Some(&n) = repl.get(&v) {
        v = n;
    }
    v
}

/// True when executing the loop body can never clobber custody: no killing
/// intrinsic, and every call custody-transparent per the summaries (no
/// summaries ⇒ any call blocks hoisting).
fn body_custody_transparent(
    f: &Function,
    lp: &NaturalLoop,
    summaries: Option<&ModuleSummaries>,
) -> bool {
    for &b in &lp.blocks {
        for &v in f.block_insts(b) {
            match f.kind(v) {
                InstKind::IntrinsicCall { intr, .. } => match intr {
                    Intrinsic::GuardRead | Intrinsic::GuardWrite | Intrinsic::ChunkDeref => {}
                    _ => return false,
                },
                InstKind::Call { func, .. }
                    if !summaries.is_some_and(|s| s.summary(*func).custody_transparent()) =>
                {
                    return false;
                }
                _ => {}
            }
        }
    }
    true
}

/// If every value in `vals` is loop-invariant (or a pure computation over
/// loop-invariant leaves), returns the in-loop instructions to move into
/// the preheader, in def-before-use order (empty when all are already
/// defined outside).
fn hoistable_chain(f: &Function, lp: &NaturalLoop, vals: &[Value]) -> Option<Vec<Value>> {
    let mut chain = Vec::new();
    vals.iter()
        .all(|&v| collect_chain(f, lp, v, &mut chain, 0))
        .then_some(chain)
}

fn collect_chain(
    f: &Function,
    lp: &NaturalLoop,
    v: Value,
    chain: &mut Vec<Value>,
    depth: usize,
) -> bool {
    if !lp.contains(f.inst(v).block) {
        return true; // invariant leaf
    }
    if chain.contains(&v) {
        return true; // already scheduled (shared subexpression)
    }
    if depth > 64 {
        return false;
    }
    let ok = match f.kind(v) {
        InstKind::ConstInt(_) => true,
        InstKind::Gep { base, index, .. } => {
            let (base, index) = (*base, *index);
            collect_chain(f, lp, base, chain, depth + 1)
                && collect_chain(f, lp, index, chain, depth + 1)
        }
        InstKind::Cast(_, a) => {
            let a = *a;
            collect_chain(f, lp, a, chain, depth + 1)
        }
        InstKind::Binary(_, a, b) => {
            let (a, b) = (*a, *b);
            collect_chain(f, lp, a, chain, depth + 1) && collect_chain(f, lp, b, chain, depth + 1)
        }
        _ => false, // phis, loads, calls: variant or impure
    };
    if ok {
        chain.push(v);
    }
    ok
}

/// The cross-block RMW fold over one function. CFG shape is untouched
/// (instructions are only rewritten/deleted), so the dominator structures
/// stay valid throughout.
fn fold_cross_block_rmw(
    module: &mut Module,
    fid: tfm_ir::FuncId,
    summaries: Option<&ModuleSummaries>,
    outcome: &mut MotionOutcome,
    absorbed: &mut HashMap<(u32, u32), u32>,
) {
    let fx = summaries.map(|s| s.effects_for(fid, module.function(fid)));
    let ag = AvailableGuards::compute_with(module.function(fid), fx);
    let f = module.function(fid);
    let dt = DomTree::compute(f);
    let pdt = PostDomTree::compute(f);
    let forest = LoopForest::compute(f, &dt);
    let f = module.function_mut(fid);
    let mut repl: HashMap<Value, Value> = HashMap::new();
    let blocks: Vec<Block> = f.blocks().collect();
    for b in blocks {
        let Some(mut map) = ag.block_in(b).cloned() else {
            continue; // unreachable
        };
        for v in f.block_insts(b).to_vec() {
            let InstKind::IntrinsicCall {
                intr: Intrinsic::GuardWrite,
                args,
            } = f.kind(v)
            else {
                ag.apply(f, &mut map, v);
                continue;
            };
            let ptr = args[0];
            let foldable = map
                .get(&ptr)
                .copied()
                .and_then(|cover| match cover.src {
                    CoverSrc::Guard(src) => Some((chase(&repl, src), cover.kind)),
                    CoverSrc::Merged => None,
                })
                .filter(|&(g, kind)| {
                    kind == GuardKind::Read
                        && g != v
                        && same_pointer(f, g, ptr)
                        && f.guard_span(g) == f.guard_span(v)
                        && matches!(
                            f.kind(g),
                            InstKind::IntrinsicCall {
                                intr: Intrinsic::GuardRead,
                                ..
                            }
                        )
                })
                .filter(|&(g, _)| {
                    let b1 = f.inst(g).block;
                    // Same execution count: the write's block postdominates
                    // the read's, both sit in exactly the same loops, and
                    // the write's block dominates the shared innermost
                    // loop's latches (each completed iteration runs both).
                    b1 != b
                        && pdt.postdominates(b, b1)
                        && forest.loops.iter().all(|l| l.contains(b1) == l.contains(b))
                        && forest
                            .innermost_containing(b)
                            .is_none_or(|l| l.latches.iter().all(|&lt| dt.dominates(b, lt)))
                });
            match foldable {
                Some((g, _)) => {
                    if let InstKind::IntrinsicCall { intr, .. } = &mut f.inst_mut(g).kind {
                        *intr = Intrinsic::GuardWrite;
                    }
                    f.replace_all_uses(v, g);
                    f.remove_inst(v);
                    repl.insert(v, g);
                    outcome.upgraded += 1;
                    *absorbed.entry((fid.0, g.index() as u32)).or_insert(0) += 1;
                    // Skip the transfer: `ptr` stays covered by the
                    // (now-write) survivor.
                }
                None => ag.apply(f, &mut map, v),
            }
        }
    }
}

/// Per-loop facts one hoisting round needs.
struct LoopFacts {
    /// Where hoisted guards go; `None` when nothing may leave the loop
    /// (no preheader, a custody-clobbering body, or a trip count that may
    /// be zero).
    preheader: Option<Block>,
    /// The loop's basic IVs.
    ivs: Vec<BasicIv>,
    /// The exact trip count, when known (span guards need it).
    trips: Option<u64>,
}

/// How one guard leaves its loop this round.
enum Move {
    /// A loop-invariant guard: its operand chains move with it.
    Invariant { guard: Value, chain: Vec<Value> },
    /// An affine guard turned into a span guard.
    Span(SpanPlan),
}

/// A span guard to emit in a loop's preheader.
struct SpanPlan {
    /// The guard that moves (its value id, and so its site, survives).
    guard: Value,
    /// Other guards on the same pointer, folded into `guard`.
    merged: Vec<Value>,
    /// The body's `gep(base, iv, scale, disp)`, rebased on the span guard.
    gep: Value,
    /// In-loop instructions computing `base`, moved to the preheader.
    chain: Vec<Value>,
    /// `lo - base` in bytes.
    lo_off: i64,
    /// When `lo != base`: `lo = gep(base, index, scale, disp)` with the
    /// IV's constant init as `index`, so no new index constant is needed.
    lo_gep: Option<(Value, i64)>,
    /// The span length in bytes.
    len: u64,
    /// Whether any folded guard writes.
    write: bool,
}

/// The widest access made through guard `g`'s result, when every user is a
/// load or store through it (anything else — a `gep`, a call, a phi, a
/// stored pointer — leaves the guard's footprint unbounded).
fn footprint(f: &Function, uses: &Uses, g: Value) -> Option<u64> {
    let mut size = 0;
    for &u in uses.users(g) {
        let ty = match f.kind(u) {
            InstKind::Load { ptr } if *ptr == g => f.ty(u),
            InstKind::Store { ptr, val } if *ptr == g && *val != g => f.ty(*val),
            _ => return None,
        };
        size = size.max(u64::from(ty?.size()));
    }
    (size > 0).then_some(size)
}

/// Plans a span guard for the plain guard `g` of loop `lp`, when its
/// pointer is `gep(base, iv, s, o)` for a basic IV of a loop running an
/// exact `T ≥ 2` times and the bytes all iterations touch fit in
/// [`MAX_SPAN_BYTES`]. Every user of the `gep` must be a guard of the same
/// loop that runs on every iteration (they fold into one span guard).
fn plan_span(
    f: &Function,
    lp: &NaturalLoop,
    facts: &LoopFacts,
    uses: &Uses,
    runs_every_iteration: &dyn Fn(Value) -> bool,
    g: Value,
) -> Option<SpanPlan> {
    let trips = facts.trips.filter(|&t| t >= 2)?;
    let InstKind::IntrinsicCall { args, .. } = f.kind(g) else {
        return None;
    };
    let gep = *args.first()?;
    let InstKind::Gep {
        base,
        index,
        scale,
        disp,
    } = *f.kind(gep)
    else {
        return None;
    };
    let gb = f.inst(gep).block;
    if !lp.contains(gb) || gb == lp.header {
        return None; // the header also runs once with the exit value
    }
    let iv = facts.ivs.iter().find(|iv| iv.phi == index)?;
    let (first, last) = iv_range(f, iv, trips)?;
    let chain = hoistable_chain(f, lp, &[base])?;
    let mut members = Vec::new();
    let mut size = 0;
    let mut write = false;
    for &u in uses.users(gep) {
        let InstKind::IntrinsicCall { intr, args } = f.kind(u) else {
            return None;
        };
        if !intr.is_guard() || args.len() != 1 || !runs_every_iteration(u) {
            return None;
        }
        size = size.max(footprint(f, uses, u)?);
        write |= *intr == Intrinsic::GuardWrite;
        members.push(u);
    }
    let offset = |i: i64| i128::from(i) * i128::from(scale) + i128::from(disp);
    let (a, b) = (offset(first), offset(last));
    let len = (a - b).abs() + i128::from(size);
    if len > i128::from(MAX_SPAN_BYTES) {
        return None;
    }
    let lo_off = i64::try_from(a.min(b)).ok()?;
    let lo_gep = match lo_off {
        0 => None,
        _ => Some((
            iv.init,
            i64::try_from(i128::from(lo_off) - i128::from(first) * i128::from(scale)).ok()?,
        )),
    };
    members.sort();
    members.dedup();
    let guard = members.remove(0);
    Some(SpanPlan {
        guard,
        merged: members,
        gep,
        chain,
        lo_off,
        lo_gep,
        len: len as u64,
        write,
    })
}

/// Emits a planned span guard: `lo` and the length constant go to the end
/// of `ph`, the guard moves after them with operands `(lo, len)`, every
/// access through a folded guard now goes through the rebased `gep`.
fn emit_span(f: &mut Function, ph: Block, plan: SpanPlan) {
    let term = f.terminator(ph).expect("preheader must be terminated");
    for &c in &plan.chain {
        if f.inst(c).block != ph {
            f.move_inst_before(c, term);
        }
    }
    let InstKind::Gep {
        base,
        index,
        scale,
        disp,
    } = *f.kind(plan.gep)
    else {
        unreachable!("span plans are made from geps");
    };
    let lo = match plan.lo_gep {
        None => base,
        Some((init, lo_disp)) => f.insert_before(
            term,
            InstData {
                kind: InstKind::Gep {
                    base,
                    index: init,
                    scale,
                    disp: lo_disp,
                },
                ty: Some(Type::Ptr),
                block: ph,
            },
        ),
    };
    let len = f.insert_before(
        term,
        InstData {
            kind: InstKind::ConstInt(plan.len as i64),
            ty: Some(Type::I64),
            block: ph,
        },
    );
    for &m in std::iter::once(&plan.guard).chain(&plan.merged) {
        f.replace_all_uses(m, plan.gep);
    }
    for &m in &plan.merged {
        f.remove_inst(m);
    }
    f.inst_mut(plan.guard).kind = InstKind::IntrinsicCall {
        intr: if plan.write {
            Intrinsic::GuardWrite
        } else {
            Intrinsic::GuardRead
        },
        args: vec![lo, len],
    };
    f.move_inst_before(plan.guard, term);
    f.inst_mut(plan.gep).kind = InstKind::Gep {
        base: plan.guard,
        index,
        scale,
        disp: disp - plan.lo_off,
    };
}

/// What one hoisting round did.
#[derive(Default)]
struct Round {
    /// Guards that left a loop (each climbed one level).
    moved: Vec<Value>,
    /// Span guards emitted, with their length.
    spans: Vec<(Value, u64)>,
    /// The surviving span guard of each guard folded into one.
    merged: Vec<Value>,
}

/// One round of hoisting over one function: moves every eligible guard one
/// loop level outward, turning affine guards of short exact-trip loops
/// into span guards. The CFG is never changed — instructions only migrate
/// between existing blocks — so analyses are recomputed once per round,
/// not per move.
fn hoist_one_level(
    module: &mut Module,
    fid: tfm_ir::FuncId,
    summaries: Option<&ModuleSummaries>,
) -> Round {
    let f = module.function(fid);
    let dt = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dt);
    if forest.loops.is_empty() {
        return Round::default();
    }
    // Per-loop eligibility, resolved once.
    let facts: Vec<LoopFacts> = forest
        .loops
        .iter()
        .map(|lp| {
            let ivs = basic_ivs(f, lp);
            // Trip count ≥ 1 keeps the hoisted guard from running on a
            // zero-trip entry the original never saw.
            let preheader = lp
                .preheader(f)
                .filter(|_| body_custody_transparent(f, lp, summaries))
                .filter(|_| static_trip_count(f, lp, &ivs).is_some_and(|t| t >= 1));
            let trips = exact_trip_count(f, lp, &ivs);
            LoopFacts {
                preheader,
                ivs,
                trips,
            }
        })
        .collect();
    let innermost = |b: Block| {
        forest
            .loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains(b))
            .min_by_key(|(_, l)| l.blocks.len())
            .map(|(i, _)| i)
    };
    let uses = Uses::compute(f);
    let mut moves: Vec<(Move, Block)> = Vec::new();
    let mut planned: HashSet<Value> = HashSet::new();
    for v in f.live_insts() {
        let InstKind::IntrinsicCall { intr, args } = f.kind(v) else {
            continue;
        };
        if !intr.is_guard() || planned.contains(&v) {
            continue;
        }
        let b = f.inst(v).block;
        let Some(idx) = innermost(b) else {
            continue;
        };
        let (lp, lf) = (&forest.loops[idx], &facts[idx]);
        let Some(ph) = lf.preheader else {
            continue;
        };
        // Runs exactly once per iteration of `lp`: in `lp` itself (not a
        // nested loop), past the header, on the way to every latch.
        let runs_every_iteration = |g: Value| {
            let gb = f.inst(g).block;
            innermost(gb) == Some(idx)
                && gb != lp.header
                && lp.latches.iter().all(|&l| dt.dominates(gb, l))
        };
        if !lp.latches.iter().all(|&l| dt.dominates(b, l)) {
            continue;
        }
        if let Some(chain) = hoistable_chain(f, lp, args) {
            moves.push((Move::Invariant { guard: v, chain }, ph));
        } else if args.len() == 1 {
            if let Some(plan) = plan_span(f, lp, lf, &uses, &runs_every_iteration, v) {
                planned.insert(plan.guard);
                planned.extend(&plan.merged);
                moves.push((Move::Span(plan), ph));
            }
        }
    }
    let f = module.function_mut(fid);
    let mut round = Round::default();
    for (mv, ph) in moves {
        match mv {
            Move::Invariant { guard, chain } => {
                let term = f.terminator(ph).expect("preheader must be terminated");
                for c in chain {
                    // A shared subexpression may already have migrated
                    // with an earlier candidate this round.
                    if f.inst(c).block != ph {
                        f.move_inst_before(c, term);
                    }
                }
                f.move_inst_before(guard, term);
                round.moved.push(guard);
            }
            Move::Span(plan) => {
                round.moved.push(plan.guard);
                round.spans.push((plan.guard, plan.len));
                round.merged.extend(plan.merged.iter().map(|_| plan.guard));
                emit_span(f, ph, plan);
            }
        }
    }
    round
}

/// Runs guard motion over every function: first the cross-block RMW fold,
/// then iterated one-level hoisting until no guard can climb further.
pub fn run(module: &mut Module, summaries: Option<&ModuleSummaries>) -> MotionOutcome {
    let mut outcome = MotionOutcome::default();
    let mut absorbed: HashMap<(u32, u32), u32> = HashMap::new();
    let mut levels: HashMap<(u32, u32), u32> = HashMap::new();
    let mut spans: HashMap<(u32, u32), u64> = HashMap::new();
    for fid in module.function_ids().collect::<Vec<_>>() {
        fold_cross_block_rmw(module, fid, summaries, &mut outcome, &mut absorbed);
        loop {
            let round = hoist_one_level(module, fid, summaries);
            if round.moved.is_empty() {
                break;
            }
            for g in round.moved {
                *levels.entry((fid.0, g.index() as u32)).or_insert(0) += 1;
            }
            for (g, len) in round.spans {
                spans.insert((fid.0, g.index() as u32), len);
            }
            for survivor in round.merged {
                *absorbed
                    .entry((fid.0, survivor.index() as u32))
                    .or_insert(0) += 1;
            }
        }
    }
    outcome.hoisted = levels.len();
    outcome.sites = levels
        .into_iter()
        .map(|((func, value), levels)| HoistedSite {
            func,
            value,
            levels,
            span: spans.get(&(func, value)).copied().unwrap_or(0),
        })
        .collect();
    outcome.sites.sort_by_key(|s| (s.func, s.value));
    outcome.folds = absorbed
        .into_iter()
        .map(|((func, survivor), n)| ElidedSite {
            func,
            survivor,
            absorbed: n,
        })
        .collect();
    outcome.folds.sort_by_key(|s| (s.func, s.survivor));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{BinOp, FunctionBuilder, Signature, Type};

    fn guard_blocks(m: &Module) -> Vec<(Value, usize)> {
        let mut out = Vec::new();
        for (_, f) in m.functions() {
            for v in f.live_insts() {
                if let InstKind::IntrinsicCall {
                    intr: Intrinsic::GuardRead | Intrinsic::GuardWrite,
                    ..
                } = f.kind(v)
                {
                    out.push((v, f.inst(v).block.index()));
                }
            }
        }
        out
    }

    /// `for i in 0..n { *p += load(p) }` with an invariant guard: hoists.
    #[test]
    fn invariant_guard_is_hoisted_to_the_preheader() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let g;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 100);
            let mut guard = None;
            b.counted_loop(zero, n, 1, |b, _i| {
                let gv = b.intrinsic(Intrinsic::GuardRead, vec![p]);
                let x = b.load(Type::I64, gv);
                let _ = b.binop(BinOp::Add, x, x);
                guard = Some(gv);
            });
            g = guard.unwrap();
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let ph = forest.loops[0].preheader(f).unwrap();

        let out = run(&mut m, None);
        assert_eq!(out.hoisted, 1);
        assert_eq!(
            out.sites,
            vec![HoistedSite {
                func: id.0,
                value: g.index() as u32,
                levels: 1,
                span: 0,
            }]
        );
        assert_eq!(m.function(id).inst(g).block, ph);
        m.verify().unwrap();
    }

    /// The guarded pointer is a `gep base, iconst` computed in the body:
    /// the pure chain moves with the guard.
    #[test]
    fn pure_operand_chain_is_hoisted_with_the_guard() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 8);
            b.counted_loop(zero, n, 1, |b, _i| {
                let k = b.iconst(Type::I64, 3);
                let addr = b.gep(p, k, 8, 0);
                let gv = b.intrinsic(Intrinsic::GuardRead, vec![addr]);
                let _ = b.load(Type::I64, gv);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let out = run(&mut m, None);
        assert_eq!(out.hoisted, 1);
        m.verify().unwrap();
        // Guard (and its chain) left the loop body: nothing guard-ish
        // remains in any loop block.
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        for (v, blk) in guard_blocks(&m) {
            assert!(
                !forest.loops[0].contains(tfm_ir::Block::from_index(blk)),
                "guard {v} still in loop"
            );
        }
    }

    /// An IV-dependent pointer is variant: no hoist.
    #[test]
    fn variant_pointer_is_not_hoisted() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 100);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(p, i, 8, 0);
                let gv = b.intrinsic(Intrinsic::GuardRead, vec![addr]);
                let _ = b.load(Type::I64, gv);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let out = run(&mut m, None);
        assert_eq!(out, MotionOutcome::default());
    }

    /// A call in the body kills custody: no hoist without summaries, hoist
    /// once summaries prove the callee transparent.
    #[test]
    fn calls_block_hoisting_unless_provably_transparent() {
        let build = || {
            let mut m = Module::new("t");
            let h = m.declare_function("h", Signature::new(vec![Type::I64], Some(Type::I64)));
            {
                let mut b = FunctionBuilder::new(m.function_mut(h));
                let x = b.param(0);
                let y = b.binop(BinOp::Add, x, x);
                b.ret(Some(y));
            }
            let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
            {
                let mut b = FunctionBuilder::new(m.function_mut(id));
                let p = b.param(0);
                let zero = b.iconst(Type::I64, 0);
                let n = b.iconst(Type::I64, 100);
                b.counted_loop(zero, n, 1, |b, i| {
                    let _ = b.call(h, vec![i], Some(Type::I64));
                    let gv = b.intrinsic(Intrinsic::GuardRead, vec![p]);
                    let _ = b.load(Type::I64, gv);
                });
                b.ret(Some(zero));
            }
            m.verify().unwrap();
            m
        };
        let mut m = build();
        assert_eq!(run(&mut m, None), MotionOutcome::default());

        let mut m = build();
        let sums = ModuleSummaries::compute(&m, &["main"]);
        let out = run(&mut m, Some(&sums));
        assert_eq!(out.hoisted, 1);
        m.verify().unwrap();
    }

    /// A while-shaped loop with an unknown bound may run zero times: the
    /// guard must stay inside.
    #[test]
    fn unknown_trip_count_blocks_hoisting() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let n = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            b.counted_loop(zero, n, 1, |b, _i| {
                let gv = b.intrinsic(Intrinsic::GuardRead, vec![p]);
                let _ = b.load(Type::I64, gv);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        assert_eq!(run(&mut m, None), MotionOutcome::default());
    }

    /// A conditionally executed guard must not be hoisted (it may run far
    /// fewer times than the trip count).
    #[test]
    fn conditional_guard_is_not_hoisted() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let c = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 100);
            b.counted_loop(zero, n, 1, |b, _i| {
                let then_bb = b.create_block();
                let join_bb = b.create_block();
                b.cond_br(c, then_bb, join_bb);
                b.switch_to_block(then_bb);
                let gv = b.intrinsic(Intrinsic::GuardRead, vec![p]);
                let _ = b.load(Type::I64, gv);
                b.br(join_bb);
                b.switch_to_block(join_bb);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        assert_eq!(run(&mut m, None), MotionOutcome::default());
    }

    /// Nested const-trip loops: the guard climbs both levels.
    #[test]
    fn guard_climbs_out_of_nested_loops() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let g;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 10);
            let mut guard = None;
            b.counted_loop(zero, n, 1, |b, _i| {
                let z2 = b.iconst(Type::I64, 0);
                let m2 = b.iconst(Type::I64, 10);
                b.counted_loop(z2, m2, 1, |b, _j| {
                    let gv = b.intrinsic(Intrinsic::GuardRead, vec![p]);
                    let _ = b.load(Type::I64, gv);
                    guard = Some(gv);
                });
            });
            g = guard.unwrap();
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let out = run(&mut m, None);
        assert_eq!(out.hoisted, 1);
        assert_eq!(out.sites[0].levels, 2);
        m.verify().unwrap();
        // The guard now sits outside every loop.
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let gb = f.inst(g).block;
        assert!(forest.loops.iter().all(|l| !l.contains(gb)));
    }

    /// Cross-block RMW: read guard in the header path, write guard of the
    /// same pointer in a block that postdominates it → upgraded in place.
    #[test]
    fn cross_block_rmw_upgrades_the_read_guard() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let (g1, g2);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let next = b.create_block();
            g1 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, g1);
            b.br(next);
            b.switch_to_block(next);
            let one = b.iconst(Type::I64, 1);
            let x2 = b.binop(BinOp::Add, x, one);
            g2 = b.intrinsic(Intrinsic::GuardWrite, vec![p]);
            b.store(g2, x2);
            b.ret(Some(x2));
        }
        m.verify().unwrap();
        let out = run(&mut m, None);
        assert_eq!(out.upgraded, 1);
        assert_eq!(
            out.folds,
            vec![ElidedSite {
                func: id.0,
                survivor: g1.index() as u32,
                absorbed: 1
            }]
        );
        let f = m.function(id);
        assert!(matches!(
            f.kind(g1),
            InstKind::IntrinsicCall {
                intr: Intrinsic::GuardWrite,
                ..
            }
        ));
        m.verify().unwrap();
    }

    /// The write is on a conditional path: upgrading would dirty-mark the
    /// fall-through path, and the counts differ — no fold.
    #[test]
    fn conditional_write_does_not_upgrade_across_blocks() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let c = b.param(1);
            let wr = b.create_block();
            let done = b.create_block();
            let g1 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, g1);
            b.cond_br(c, wr, done);
            b.switch_to_block(wr);
            let g2 = b.intrinsic(Intrinsic::GuardWrite, vec![p]);
            b.store(g2, x);
            b.br(done);
            b.switch_to_block(done);
            b.ret(Some(x));
        }
        m.verify().unwrap();
        let out = run(&mut m, None);
        assert_eq!(out.upgraded, 0);
    }

    /// `for i in 0..trips { access(p[i * scale + disp]) }`: a load (and,
    /// with `rmw`, a store back) of `ty` through `gep(p, i, scale, disp)`.
    fn affine_loop(trips: i64, scale: u32, disp: i64, ty: Type, rmw: bool) -> (Module, Value) {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let mut gep = None;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, trips);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(p, i, scale, disp);
                let g = b.intrinsic(Intrinsic::GuardRead, vec![addr]);
                let x = b.load(ty, g);
                if rmw {
                    let y = b.binop(BinOp::Add, x, x);
                    let w = b.intrinsic(Intrinsic::GuardWrite, vec![addr]);
                    b.store(w, y);
                }
                gep = Some(addr);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        (m, gep.unwrap())
    }

    /// The span guards of `m`: `(guard, lo operand, len)`.
    fn spans(m: &Module) -> Vec<(Value, Value, u64)> {
        let f = m.function(tfm_ir::FuncId::from_index(0));
        f.live_insts()
            .into_iter()
            .filter_map(|v| {
                let len = f.guard_span(v)?;
                let InstKind::IntrinsicCall { args, .. } = f.kind(v) else {
                    unreachable!()
                };
                Some((v, args[0], len))
            })
            .collect()
    }

    #[test]
    fn affine_guard_of_a_short_loop_becomes_one_span_guard() {
        // The kv `get` shape: eight words of one 64-byte value.
        let (mut m, gep) = affine_loop(8, 8, 0, Type::I64, false);
        let out = run(&mut m, None);
        m.verify().unwrap();
        assert_eq!(out.hoisted, 1);
        assert_eq!(out.sites[0].span, 64);
        assert_eq!(out.sites[0].levels, 1);
        let f = m.function(tfm_ir::FuncId::from_index(0));
        let [(g, lo, 64)] = spans(&m)[..] else {
            panic!("{m}")
        };
        // lo is the base itself (offset 0): no new address computation.
        assert_eq!(lo, f.param(0));
        let forest = LoopForest::compute(f, &DomTree::compute(f));
        assert!(!forest.loops[0].contains(f.inst(g).block));
        // The body's gep now addresses off the span guard's result.
        assert!(matches!(f.kind(gep), InstKind::Gep { base, disp: 0, .. } if *base == g));
        assert!(crate::passes::lint::lint_module(&m).is_empty());
    }

    #[test]
    fn span_starts_at_the_lowest_byte_touched() {
        // i32 words 3..=6 of p: bytes 12..28, so lo = p + 12, len = 16.
        let (mut m, gep) = affine_loop(4, 4, 12, Type::I32, false);
        assert_eq!(run(&mut m, None).hoisted, 1);
        m.verify().unwrap();
        let f = m.function(tfm_ir::FuncId::from_index(0));
        let [(g, lo, 16)] = spans(&m)[..] else {
            panic!("{m}")
        };
        assert!(
            matches!(f.kind(lo), InstKind::Gep { base, scale: 4, disp: 12, .. } if *base == f.param(0))
        );
        assert!(matches!(f.kind(gep), InstKind::Gep { base, disp: 0, .. } if *base == g));
        assert!(crate::passes::lint::lint_module(&m).is_empty());
    }

    #[test]
    fn read_modify_write_pair_folds_into_one_write_span_guard() {
        let (mut m, _) = affine_loop(4, 8, 0, Type::I64, true);
        let out = run(&mut m, None);
        m.verify().unwrap();
        assert_eq!((out.hoisted, out.upgraded), (1, 0));
        assert_eq!(out.folds.len(), 1);
        assert_eq!(out.folds[0].absorbed, 1);
        let f = m.function(tfm_ir::FuncId::from_index(0));
        let [(g, _, 32)] = spans(&m)[..] else {
            panic!("{m}")
        };
        assert!(matches!(
            f.kind(g),
            InstKind::IntrinsicCall {
                intr: Intrinsic::GuardWrite,
                ..
            }
        ));
        assert_eq!(guard_blocks(&m).len(), 1, "one guard left: {m}");
        assert!(crate::passes::lint::lint_module(&m).is_empty());
    }

    #[test]
    fn spans_past_64_bytes_or_one_trip_stay_in_the_loop() {
        // 16 words = 128 bytes: more than the smallest object.
        let (mut m, _) = affine_loop(16, 8, 0, Type::I64, false);
        assert_eq!(run(&mut m, None), MotionOutcome::default());
        // A single trip gains nothing from a span.
        let (mut m, _) = affine_loop(1, 8, 0, Type::I64, false);
        assert_eq!(run(&mut m, None), MotionOutcome::default());
        // 8 words of stride 16: 120 bytes apart, too wide.
        let (mut m, _) = affine_loop(8, 16, 0, Type::I64, false);
        assert_eq!(run(&mut m, None), MotionOutcome::default());
    }

    #[test]
    fn gep_with_a_non_guard_user_is_not_spanned() {
        // The affine address also escapes to a call argument: rebasing it
        // would change what the callee sees.
        let mut m = Module::new("t");
        let h = m.declare_function("h", Signature::new(vec![Type::Ptr], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(h));
            b.ret(None);
        }
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 4);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(p, i, 8, 0);
                let g = b.intrinsic(Intrinsic::GuardRead, vec![addr]);
                let _ = b.load(Type::I64, g);
                b.call(h, vec![addr], None);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let sums = ModuleSummaries::compute(&m, &["f"]);
        assert_eq!(run(&mut m, Some(&sums)).hoisted, 0);
    }
}
