//! `tfm-lint` — the guard-coverage soundness lint.
//!
//! TrackFM's correctness invariant (PAPER.md §3.1, Fig. 4): every load/store
//! that may touch the far-memory heap must go through a guard (or a
//! chunk-boundary dereference) on the same pointer, with no intervening
//! operation that could invalidate custody. The pass pipeline establishes
//! this invariant; this lint *proves* it on the pipeline's output by
//! combining two analyses:
//!
//! * [`points_to::PointsTo`] classifies every accessed pointer. Stack,
//!   global, and pruned-local-heap accesses need no guard. `Heap` and
//!   `Unknown` pointers must never be dereferenced directly.
//! * [`AvailableGuards`] proves, for each `Localized` pointer, that custody
//!   is still live at the access: the pointer is covered on **all** paths
//!   and no kill (call, allocation) intervened.
//!
//! Stores are checked more strictly than loads: the covering custody must
//! carry write intent (a `tfm.guard.write`, or a chunk stream whose
//! `tfm.chunk.begin` flags include the write bit), otherwise dirty tracking
//! is lost and writebacks silently dropped.
//!
//! An overwrite stream (`tfm.chunk.begin` flags with `CHUNK_FLAG_OVERWRITE`)
//! lets the runtime skip fetching the objects it enters, so it must keep
//! the contract that makes that sound: exactly one `tfm.chunk.deref`, used
//! only as a store address (a load would read bytes never fetched), over a
//! dense forward index — `gep base, iv(+c), width` with a +1 IV of a loop
//! whose latches the store dominates (a skipped iteration would leave a
//! gap the runtime counts as written).
//!
//! Accesses covered by a span guard `tfm.guard.read|write(lo, len)` must
//! also provably stay inside `[lo, lo + len)`: the access pointer must be
//! the guard's result (or `lo`) plus `gep`s whose indices are constants or
//! basic IVs of exact-trip loops, and the IV ranges × scales + offsets +
//! access size must fit the span. Custody past the span's end is not held
//! — the object after it may never have been localized.
//!
//! The lint is wired into the pipeline as a final (optional) verify stage
//! and into CI across every workload, example, and seeded random program.
//! Modules are linted *post*-pipeline, where any surviving `malloc`/`calloc`
//! is a pruned local allocation (see `passes::libc::run_pruned`).

use crate::passes::chunking::is_dense_forward;
use std::collections::{HashMap, HashSet};
use std::fmt;
use tfm_analysis::dom::DomTree;
use tfm_analysis::guard_check::{AvailableGuards, CoverSrc, GuardKind};
use tfm_analysis::induction::{basic_ivs, exact_trip_count, iv_range};
use tfm_analysis::loops::LoopForest;
use tfm_analysis::points_to::{MemClass, PointsTo};
use tfm_analysis::summaries::ModuleSummaries;
use tfm_ir::{
    FuncId, Function, InstKind, Intrinsic, Module, Value, CHUNK_FLAG_OVERWRITE, CHUNK_FLAG_WRITE,
};

/// One uncovered (or wrongly covered) may-heap access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintError {
    /// Function containing the access.
    pub function: String,
    /// Block index of the access.
    pub block: usize,
    /// Value index of the offending instruction.
    pub inst: usize,
    /// Site label in the telemetry `{function}:v{value}:{load|store}`
    /// scheme, so lint reports cross-reference guard-site attribution.
    pub site: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tfm-lint: [{}] err_in `{}` err_at bb{} %{}: {}",
            self.site, self.function, self.block, self.inst, self.message
        )
    }
}

/// True if the chunk stream feeding `cd` (a `tfm.chunk.deref`) was opened
/// with write intent.
fn chunk_has_write_intent(f: &Function, cd: Value) -> Option<bool> {
    let InstKind::IntrinsicCall {
        intr: Intrinsic::ChunkDeref,
        args,
    } = f.kind(cd)
    else {
        return None;
    };
    let InstKind::IntrinsicCall {
        intr: Intrinsic::ChunkBegin,
        args: bargs,
    } = f.kind(args[0])
    else {
        return None;
    };
    let InstKind::ConstInt(flags) = f.kind(bargs[1]) else {
        return None;
    };
    Some(*flags & CHUNK_FLAG_WRITE != 0)
}

/// Post-pipeline, surviving plain malloc/calloc are pruned local allocs.
fn pruned_local_sites(f: &Function) -> HashSet<Value> {
    f.live_insts()
        .into_iter()
        .filter(|&v| {
            matches!(
                f.kind(v),
                InstKind::IntrinsicCall {
                    intr: Intrinsic::Malloc | Intrinsic::Calloc,
                    ..
                }
            )
        })
        .collect()
}

/// The values index `idx` can take in a `gep` computed in block `at`: a
/// constant, or a basic IV of an exact-trip loop holding `at` past its
/// header (the header also runs once with the exit value).
fn index_range(
    f: &Function,
    forest: &LoopForest,
    at: tfm_ir::Block,
    idx: Value,
) -> Option<(i64, i64)> {
    if let InstKind::ConstInt(c) = f.kind(idx) {
        return Some((*c, *c));
    }
    let lp = forest
        .loops
        .iter()
        .find(|l| l.header == f.inst(idx).block)?;
    if !lp.contains(at) || at == lp.header {
        return None;
    }
    let ivs = basic_ivs(f, lp);
    let iv = ivs.iter().find(|iv| iv.phi == idx)?;
    iv_range(f, iv, exact_trip_count(f, lp, &ivs)?)
}

/// Lowest and highest byte offset of `ptr` from the start of span guard
/// `g`'s custody, when `ptr` is `g`'s result or pointer operand plus a
/// chain of `gep`s with bounded indices.
fn span_offsets(f: &Function, forest: &LoopForest, g: Value, ptr: Value) -> Option<(i128, i128)> {
    let InstKind::IntrinsicCall { args, .. } = f.kind(g) else {
        return None;
    };
    if ptr == g || ptr == args[0] {
        return Some((0, 0));
    }
    let InstKind::Gep {
        base,
        index,
        scale,
        disp,
    } = *f.kind(ptr)
    else {
        return None;
    };
    let (lo, hi) = span_offsets(f, forest, g, base)?;
    let (a, b) = index_range(f, forest, f.inst(ptr).block, index)?;
    let (a, b) = (
        i128::from(a) * i128::from(scale),
        i128::from(b) * i128::from(scale),
    );
    let disp = i128::from(disp);
    Some((lo + a.min(b) + disp, hi + a.max(b) + disp))
}

/// Checks that an access of `size` bytes through `ptr`, covered by span
/// guard `g` of `len` bytes, stays inside the span.
fn span_violation(
    f: &Function,
    forest: &LoopForest,
    g: Value,
    len: u64,
    ptr: Value,
    size: u64,
) -> Option<String> {
    match span_offsets(f, forest, g, ptr) {
        Some((lo, hi)) if lo >= 0 && hi + i128::from(size) <= i128::from(len) => None,
        Some((lo, hi)) => Some(format!(
            "bytes {lo}..{} of the access through %{} fall outside the {len}-byte span \
             of guard %{}",
            hi + i128::from(size),
            ptr.index(),
            g.index()
        )),
        None => Some(format!(
            "cannot bound the access through %{} within the {len}-byte span of guard %{}",
            ptr.index(),
            g.index()
        )),
    }
}

/// The intrinsic kind and arguments of `v`, if it is an intrinsic call.
fn intrinsic_of(f: &Function, v: Value) -> Option<(Intrinsic, &[Value])> {
    match f.kind(v) {
        InstKind::IntrinsicCall { intr, args } => Some((*intr, args.as_slice())),
        _ => None,
    }
}

/// Why the store through overwrite-stream deref `cd` is not dense forward,
/// if it is not: `cd` must address `gep base, idx, width` over the stream's
/// base, passing the chunking pass's overwrite rule in some loop.
fn overwrite_density_violation(
    f: &Function,
    dt: &DomTree,
    forest: &LoopForest,
    base: Value,
    cd: Value,
    width: u64,
) -> Option<String> {
    let gep = intrinsic_of(f, cd)?.1[1];
    match *f.kind(gep) {
        InstKind::Gep { base: b, scale, .. } if b == base && u64::from(scale) == width => {}
        _ => {
            return Some(format!(
                "its address is not `gep %{}, idx, {width}` (stride must equal the \
                 {width}-byte store width)",
                base.index()
            ))
        }
    }
    let at = f.inst(cd).block;
    let dense = forest
        .loops
        .iter()
        .any(|l| l.contains(at) && is_dense_forward(f, dt, l, gep, width, at));
    (!dense).then(|| {
        "its index is not a +1 induction variable of a loop whose every iteration \
         runs the store"
            .into()
    })
}

/// Checks every overwrite stream of `f` against the contract in the module
/// docs, reporting at the offending access.
fn lint_overwrite_streams(name: &str, f: &Function, errors: &mut Vec<LintError>) {
    let live = f.live_insts();
    let overwrite = |v: Value| match intrinsic_of(f, v) {
        Some((Intrinsic::ChunkBegin, args)) => {
            matches!(f.kind(args[1]), InstKind::ConstInt(c) if c & CHUNK_FLAG_OVERWRITE != 0)
        }
        _ => false,
    };
    let begins: Vec<Value> = live.iter().copied().filter(|&v| overwrite(v)).collect();
    if begins.is_empty() {
        return;
    }
    let dt = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dt);
    let err = |v: Value, what: &str, message: String| LintError {
        function: name.to_string(),
        block: f.inst(v).block.index(),
        inst: v.index(),
        site: format!("{name}:v{}:{what}", v.index()),
        message,
    };
    for h in begins {
        let base = intrinsic_of(f, h).expect("a chunk.begin").1[0];
        let derefs: Vec<Value> = live
            .iter()
            .copied()
            .filter(|&v| {
                matches!(intrinsic_of(f, v), Some((Intrinsic::ChunkDeref, args)) if args[0] == h)
            })
            .collect();
        for &cd in derefs.iter().skip(1) {
            errors.push(err(
                cd,
                "deref",
                format!(
                    "overwrite stream %{} has {} derefs; it may have only one access",
                    h.index(),
                    derefs.len()
                ),
            ));
        }
        for &cd in &derefs {
            for &u in &live {
                let mut uses = false;
                f.kind(u).for_each_operand(|o| uses |= o == cd);
                if !uses {
                    continue;
                }
                match f.kind(u) {
                    InstKind::Load { .. } => errors.push(err(
                        u,
                        "load",
                        format!(
                            "load through overwrite stream %{} would read bytes its claim \
                             never fetched",
                            h.index()
                        ),
                    )),
                    InstKind::Store { ptr, val } if *ptr == cd && *val != cd => {
                        let width = f.ty(*val).map_or(8, |t| u64::from(t.size()));
                        if let Some(why) =
                            overwrite_density_violation(f, &dt, &forest, base, cd, width)
                        {
                            errors.push(err(
                                u,
                                "store",
                                format!("overwrite stream %{} is not dense: {why}", h.index()),
                            ));
                        }
                    }
                    _ => errors.push(err(
                        u,
                        "use",
                        format!(
                            "overwrite stream %{}'s pointer %{} is used other than as a \
                             store address",
                            h.index(),
                            cd.index()
                        ),
                    )),
                }
            }
        }
    }
}

fn lint_function(
    name: &str,
    f: &Function,
    pt: &PointsTo,
    ag: &AvailableGuards,
    errors: &mut Vec<LintError>,
) {
    // Loops are only needed to bound span-guarded accesses.
    let has_spans = f.live_insts().iter().any(|&v| f.guard_span(v).is_some());
    let forest = if has_spans {
        LoopForest::compute(f, &DomTree::compute(f))
    } else {
        LoopForest::default()
    };
    for b in f.blocks() {
        let Some(mut map) = ag.block_in(b).cloned() else {
            continue; // unreachable
        };
        for &v in f.block_insts(b) {
            let (ptr, is_store) = match f.kind(v) {
                InstKind::Load { ptr } => (*ptr, false),
                InstKind::Store { ptr, .. } => (*ptr, true),
                _ => {
                    ag.apply(f, &mut map, v);
                    continue;
                }
            };
            let what = if is_store { "store" } else { "load" };
            let err = |message: String| LintError {
                function: name.to_string(),
                block: b.index(),
                inst: v.index(),
                site: format!("{name}:v{}:{what}", v.index()),
                message,
            };
            match pt.class(ptr) {
                MemClass::NonPtr | MemClass::Stack | MemClass::Global | MemClass::LocalHeap => {}
                MemClass::Heap | MemClass::Unknown => errors.push(err(format!(
                    "{what} through %{} which may point to the far heap but never \
                     passed through a guard",
                    ptr.index()
                ))),
                MemClass::Localized => match map.get(&ptr) {
                    Some(cover) if cover.span > 0 => {
                        let size = match f.kind(v) {
                            InstKind::Store { val, .. } => f.ty(*val),
                            _ => f.ty(v),
                        }
                        .map_or(8, |t| u64::from(t.size()));
                        let violation = match cover.src {
                            CoverSrc::Guard(g) => {
                                span_violation(f, &forest, g, cover.span, ptr, size)
                            }
                            CoverSrc::Merged => Some(format!(
                                "{what} through %{} is covered by spans of different guards \
                                 and cannot be bounded",
                                ptr.index()
                            )),
                        };
                        if let Some(msg) = violation {
                            errors.push(err(msg));
                        } else if is_store && cover.kind != GuardKind::Write {
                            errors.push(err(format!(
                                "store through %{} whose custody has no write intent \
                                 (dirty tracking would be lost)",
                                ptr.index()
                            )));
                        }
                    }
                    None => errors.push(err(format!(
                        "{what} through %{}: custody not available on all paths \
                         (guard killed or missing on some path)",
                        ptr.index()
                    ))),
                    Some(cover) if is_store => {
                        let ok = match cover.kind {
                            GuardKind::Write => true,
                            GuardKind::Read => false,
                            GuardKind::Chunk => match cover.src {
                                CoverSrc::Guard(cd) => {
                                    chunk_has_write_intent(f, cd).unwrap_or(false)
                                }
                                CoverSrc::Merged => false,
                            },
                        };
                        if !ok {
                            errors.push(err(format!(
                                "store through %{} whose custody has no write intent \
                                 (dirty tracking would be lost)",
                                ptr.index()
                            )));
                        }
                    }
                    Some(_) => {}
                },
            }
            ag.apply(f, &mut map, v);
        }
    }
}

/// Lints every function of `module`; returns **all** violations found (the
/// pipeline gate is what turns any into a panic).
///
/// The lint always runs at full interprocedural precision, regardless of
/// which transform flags were enabled: summaries are recomputed here so
/// custody-transparent callees keep covers alive, guarded arguments cover
/// callee parameters, and call-site classes refine parameter classification
/// — the verifier must accept everything the (flag-gated) transforms are
/// allowed to produce, while the dynamic sanitizer independently checks the
/// executed path.
pub fn lint_module(module: &Module) -> Vec<LintError> {
    let locals: HashMap<FuncId, HashSet<Value>> = module
        .functions()
        .map(|(fid, f)| (fid, pruned_local_sites(f)))
        .collect();
    let sums = ModuleSummaries::compute_with_locals(module, &[], &locals);
    let mut errors = Vec::new();
    for (fid, f) in module.functions() {
        let pt = sums.points_to_for(fid, f, &locals[&fid]);
        let ag = AvailableGuards::compute_with(f, Some(sums.effects_for(fid, f)));
        lint_function(&f.name, f, &pt, &ag, &mut errors);
        lint_overwrite_streams(&f.name, f, &mut errors);
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{FunctionBuilder, Signature, Type};

    #[test]
    fn guarded_access_is_clean() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, g);
            b.ret(Some(x));
        }
        assert!(lint_module(&m).is_empty());
    }

    #[test]
    fn unguarded_heap_access_is_flagged_with_location() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let x;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            x = b.load(Type::I64, p);
            b.ret(Some(x));
        }
        let errs = lint_module(&m);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].function, "f");
        assert_eq!(errs[0].block, 0);
        assert_eq!(errs[0].inst, x.index());
        assert!(errs[0].message.contains("never passed through a guard"));
        assert!(errs[0].to_string().contains("bb0"));
    }

    #[test]
    fn guard_result_used_after_a_killing_call_is_flagged() {
        let mut m = Module::new("t");
        // The helper allocates, so it may trigger evacuation: custody dies.
        let h = m.declare_function("h", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(h));
            let _ = b.malloc_const(8);
            let z = b.iconst(Type::I64, 0);
            b.ret(Some(z));
        }
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let x;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let _ = b.call(h, vec![], Some(Type::I64));
            x = b.load(Type::I64, g);
            b.ret(Some(x));
        }
        let errs = lint_module(&m);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("not available on all paths"));
        assert_eq!(errs[0].site, format!("f:v{}:load", x.index()));
        assert!(errs[0].to_string().contains("err_at bb0"));
    }

    #[test]
    fn custody_transparent_callee_keeps_coverage_alive() {
        // Pure helper: the interprocedural lint proves it kills nothing, so
        // the guard before the call still covers the access after it.
        let mut m = Module::new("t");
        let h = m.declare_function("h", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(h));
            let x = b.param(0);
            let y = b.binop(tfm_ir::BinOp::Add, x, x);
            b.ret(Some(y));
        }
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let a = b.load(Type::I64, g);
            let _ = b.call(h, vec![a], Some(Type::I64));
            let x = b.load(Type::I64, g);
            b.ret(Some(x));
        }
        assert!(lint_module(&m).is_empty());
    }

    #[test]
    fn interprocedural_classes_cover_callee_parameter_accesses() {
        // The helper dereferences its parameter raw; every call site passes
        // a pruned local allocation, so the access provably never touches
        // the far heap.
        let mut m = Module::new("t");
        let h = m.declare_function("h", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(h));
            let p = b.param(0);
            let x = b.load(Type::I64, p);
            b.ret(Some(x));
        }
        let id = m.declare_function("main", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let loc = b.malloc_const(32);
            let z = b.iconst(Type::I64, 9);
            b.store(loc, z);
            let x = b.call(h, vec![loc], Some(Type::I64));
            b.ret(Some(x));
        }
        assert!(lint_module(&m).is_empty());
    }

    #[test]
    fn guarded_argument_covers_callee_parameter() {
        // Every call site passes a freshly guarded pointer and no kill
        // intervenes: the callee's raw parameter access is covered by the
        // caller's custody (summary entry covers).
        let mut m = Module::new("t");
        let h = m.declare_function("h", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(h));
            let p = b.param(0);
            let x = b.load(Type::I64, p);
            b.ret(Some(x));
        }
        let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.call(h, vec![g], Some(Type::I64));
            b.ret(Some(x));
        }
        assert!(lint_module(&m).is_empty());
    }

    #[test]
    fn store_through_read_guard_is_flagged() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let z = b.iconst(Type::I64, 1);
            b.store(g, z);
            b.ret(None);
        }
        let errs = lint_module(&m);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("no write intent"));
    }

    #[test]
    fn chunk_write_intent_gates_stores() {
        for (flags, want_errs) in [(0i64, 1usize), (CHUNK_FLAG_WRITE, 0usize)] {
            let mut m = Module::new("t");
            let id = m.declare_function("f", Signature::new(vec![Type::Ptr], None));
            {
                let mut b = FunctionBuilder::new(m.function_mut(id));
                let p = b.param(0);
                let fl = b.iconst(Type::I64, flags);
                let h = b.intrinsic(Intrinsic::ChunkBegin, vec![p, fl]);
                let cd = b.intrinsic(Intrinsic::ChunkDeref, vec![h, p]);
                let z = b.iconst(Type::I64, 1);
                b.store(cd, z);
                b.intrinsic(Intrinsic::ChunkEnd, vec![h]);
                b.ret(None);
            }
            assert_eq!(lint_module(&m).len(), want_errs, "flags={flags}");
        }
    }

    /// `for i in 0..1000 { a[i] = i }` through the full pipeline, which
    /// makes its stream an overwrite stream. Returns the module, the
    /// stream's deref and the store through it.
    fn compiled_fill() -> (Module, Value, Value) {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let a = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 1000);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(a, i, 8, 0);
                b.store(addr, i);
            });
            b.ret(Some(zero));
        }
        let report = crate::TrackFmCompiler::default().compile(&mut m, None);
        assert_eq!(report.chunking.overwrite_streams, 1);
        assert!(lint_module(&m).is_empty());
        let f = m.function(id);
        let cd = f
            .live_insts()
            .into_iter()
            .find(|&v| matches!(intrinsic_of(f, v), Some((Intrinsic::ChunkDeref, _))))
            .unwrap();
        let st = f
            .live_insts()
            .into_iter()
            .find(|&v| matches!(f.kind(v), InstKind::Store { ptr, .. } if *ptr == cd))
            .unwrap();
        (m, cd, st)
    }

    fn only_error(m: &Module) -> LintError {
        let errs = lint_module(m);
        assert_eq!(errs.len(), 1, "{errs:?}");
        errs.into_iter().next().unwrap()
    }

    #[test]
    fn load_through_an_overwrite_stream_is_flagged() {
        let (mut m, cd, st) = compiled_fill();
        let f = m.function_mut(FuncId(0));
        let block = f.inst(st).block;
        let ld = f.insert_after(
            st,
            tfm_ir::InstData {
                kind: InstKind::Load { ptr: cd },
                ty: Some(Type::I64),
                block,
            },
        );
        let e = only_error(&m);
        assert_eq!(e.site, format!("f:v{}:load", ld.index()));
        assert!(
            e.message
                .contains("would read bytes its claim never fetched"),
            "{e}"
        );
    }

    #[test]
    fn second_deref_on_an_overwrite_stream_is_flagged() {
        let (mut m, cd, st) = compiled_fill();
        let f = m.function_mut(FuncId(0));
        let data = f.inst(cd).clone();
        let cd2 = f.insert_after(st, data);
        let e = only_error(&m);
        assert_eq!(e.inst, cd2.index());
        assert!(e.message.contains("has 2 derefs"), "{e}");
    }

    #[test]
    fn sparse_overwrite_stream_is_flagged() {
        let (mut m, cd, st) = compiled_fill();
        let f = m.function_mut(FuncId(0));
        let InstKind::IntrinsicCall { args, .. } = f.kind(cd) else {
            unreachable!()
        };
        let gep = args[1];
        if let InstKind::Gep { scale, .. } = &mut f.inst_mut(gep).kind {
            *scale = 16;
        }
        let e = only_error(&m);
        assert_eq!(e.site, format!("f:v{}:store", st.index()));
        assert!(
            e.message
                .contains("stride must equal the 8-byte store width"),
            "{e}"
        );
    }

    #[test]
    fn stack_and_pruned_local_accesses_need_no_guard() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let s = b.alloca(8, 8);
            let z = b.iconst(Type::I64, 3);
            b.store(s, z);
            // Post-pipeline plain malloc == pruned local allocation.
            let loc = b.malloc_const(64);
            b.store(loc, z);
            let x = b.load(Type::I64, loc);
            b.ret(Some(x));
        }
        assert!(lint_module(&m).is_empty());
    }

    /// `for i in 0..8 { x ^= p[i] }` read through one span guard of `len`
    /// bytes, rebased as guard motion emits it.
    fn spanned_loop(len: i64) -> (Module, Value) {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let mut load = None;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let n = b.iconst(Type::I64, len);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p, n]);
            let zero = b.iconst(Type::I64, 0);
            let eight = b.iconst(Type::I64, 8);
            b.counted_loop(zero, eight, 1, |b, i| {
                let a = b.gep(g, i, 8, 0);
                load = Some(b.load(Type::I64, a));
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        (m, load.unwrap())
    }

    #[test]
    fn span_bounds_are_proven_from_the_iv_range() {
        assert!(lint_module(&spanned_loop(64).0).is_empty());
        let (m, load) = spanned_loop(56);
        let errs = lint_module(&m);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].inst, load.index());
        assert_eq!(errs[0].site, format!("f:v{}:load", load.index()));
        assert!(
            errs[0].message.contains("outside the 56-byte span"),
            "{}",
            errs[0]
        );
        assert!(errs[0].message.contains("bytes 0..64"), "{}", errs[0]);
    }

    #[test]
    fn unbounded_span_access_is_flagged() {
        // A data-dependent index cannot be bounded within the span.
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let k = b.param(1);
            let n = b.iconst(Type::I64, 64);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p, n]);
            let a = b.gep(g, k, 8, 0);
            let x = b.load(Type::I64, a);
            b.ret(Some(x));
        }
        let errs = lint_module(&m);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("cannot bound"), "{}", errs[0]);
    }
}
