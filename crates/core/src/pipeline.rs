//! The TrackFM compiler driver.
//!
//! Mirrors Fig. 2 of the paper: runtime initialization → guard check
//! analysis → loop chunking analysis/transform → guard check transform →
//! loop-invariant guard motion → redundant-guard elimination → libc
//! transformation → `tfm-lint` soundness check, optionally preceded by
//! the O1 scalar pipeline (the Fig. 17b ordering fix). The guard-check
//! analysis, guard motion, and elision are all optionally refined by
//! interprocedural [`ModuleSummaries`] (see [`CompilerOptions::interproc`]
//! and [`CompilerOptions::call_aware_kills`]). Produces a
//! [`CompileReport`] with the §4.6 compilation-cost metrics.

use crate::cost::CostModel;
use crate::passes::chunking::{self, ChunkingMode, ChunkingOptions, ChunkingOutcome};
use crate::passes::guard_elim::{self, ElisionOutcome};
use crate::passes::guard_motion::{self, MotionOutcome};
use crate::passes::guards;
use crate::passes::libc;
use crate::passes::lint;
use crate::passes::o1::{self, O1Outcome};
use crate::passes::runtime_init;
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use tfm_analysis::profile::Profile;
use tfm_analysis::summaries::ModuleSummaries;
use tfm_ir::{FuncId, Module, Value};

/// Compiler options.
#[derive(Copy, Clone, Debug)]
pub struct CompilerOptions {
    /// The cycle cost model (drives the chunking decision and is later
    /// shared with the execution engine).
    pub cost_model: CostModel,
    /// The AIFM object size selected for this application (§3.2: one size
    /// per application, chosen at compile time).
    pub object_size: u64,
    /// Loop-chunking mode.
    pub chunking: ChunkingMode,
    /// Plant prefetch requests on chunk streams.
    pub prefetch: bool,
    /// Run the O1 scalar pipeline before the TrackFM passes (Fig. 17b).
    pub o1: bool,
    /// Prune small constant-size allocations from remoting (§5 /
    /// MaPHeA-style): they stay on libc `malloc`, permanently local and
    /// guard-free. Uses `object_size` as the threshold.
    pub prune_local_allocations: bool,
    /// Insert guards on unchunked heap accesses. Disabled by the §5 hybrid
    /// compiler+kernel exploration, where raw accesses fault into a
    /// kernel-style handler instead (see `tfm_sim::HybridMem`).
    pub guards: bool,
    /// Delete guards the available-guards dataflow proves redundant
    /// (dominated by an un-killed guard on the same pointer) and fold the
    /// read-then-write pattern into a single write guard.
    pub elide_guards: bool,
    /// Run the `tfm-lint` soundness check on the pipeline output and panic
    /// on any may-heap access without live guard custody. Only meaningful
    /// when `guards` is on (the hybrid system leaves raw accesses on
    /// purpose).
    pub lint: bool,
    /// Use interprocedural function summaries to classify parameters and
    /// call results during guard-check analysis: pointers provably stack /
    /// global / pruned-local at every call site need no guard in the
    /// callee, and pointers guarded at every call site are treated as
    /// already-localized. Refinement only ever removes guards.
    pub interproc: bool,
    /// Use call-aware kill sets (custody-transparency summaries) in guard
    /// motion and redundant-guard elimination, so calls to functions that
    /// provably never trigger evacuation don't invalidate live guards.
    pub call_aware_kills: bool,
    /// Hoist guards on loop-invariant pointers into loop preheaders and
    /// fold cross-block read-then-write patterns into one write guard.
    pub guard_motion: bool,
    /// Chunk-stream motion: move an inner loop's chunk stream into the
    /// enclosing loop's preheader when legal, so short inner loops resume
    /// the stream's pinned window instead of paying a locality guard per
    /// entry. Off reproduces the paper's per-loop placement (the Fig. 8/15
    /// arms); on for everything else.
    pub stream_motion: bool,
    /// Overwrite streams: mark a chunk stream whose only access is a dense
    /// forward store `CHUNK_FLAG_OVERWRITE`, so the runtime claims each
    /// object it will fully overwrite instead of fetching the stale remote
    /// copy. Off reproduces the paper's streams (the Fig. 7/10/11/12 arms);
    /// on for everything else.
    pub overwrite_streams: bool,
    /// Name of the entry function that receives the runtime-init hook.
    pub main_name: &'static str,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            cost_model: CostModel::default(),
            object_size: 4096,
            chunking: ChunkingMode::CostModel,
            prefetch: true,
            o1: false,
            prune_local_allocations: false,
            guards: true,
            elide_guards: true,
            lint: true,
            interproc: true,
            call_aware_kills: true,
            guard_motion: true,
            stream_motion: true,
            overwrite_streams: true,
            main_name: "main",
        }
    }
}

/// What the compiler did, with the §4.6 code-size/compile-time metrics.
#[derive(Clone, Debug, Default)]
pub struct CompileReport {
    /// Read guards inserted.
    pub read_guards: usize,
    /// Write guards inserted.
    pub write_guards: usize,
    /// Chunking outcome.
    pub chunking: ChunkingOutcome,
    /// O1 outcome (if the pre-pipeline ran).
    pub o1: Option<O1Outcome>,
    /// Allocation sites pruned from remoting (kept always-local).
    pub pruned_local_sites: usize,
    /// What redundant-guard elimination did (`read_guards`/`write_guards`
    /// count insertions *before* elision; subtract `elision.eliminated` for
    /// the surviving total).
    pub elision: ElisionOutcome,
    /// What loop-invariant guard motion did (hoists and cross-block
    /// read→write folds).
    pub motion: MotionOutcome,
    /// Live instructions before compilation.
    pub insts_before: usize,
    /// Live instructions after compilation ("code size").
    pub insts_after: usize,
    /// Wall-clock nanoseconds per pass, in execution order.
    pub pass_nanos: Vec<(&'static str, u128)>,
    /// Every guard/chunk-deref site in the compiled output, for telemetry
    /// attribution (see [`guards::collect_sites`]).
    pub guard_sites: Vec<guards::GuardSite>,
}

impl CompileReport {
    /// Code-size growth factor (§4.6 reports ×2.4 on average for the real
    /// system).
    pub fn code_size_ratio(&self) -> f64 {
        if self.insts_before == 0 {
            1.0
        } else {
            self.insts_after as f64 / self.insts_before as f64
        }
    }

    /// Total guards inserted.
    pub fn total_guards(&self) -> usize {
        self.read_guards + self.write_guards
    }

    /// Total compile time across passes.
    pub fn total_nanos(&self) -> u128 {
        self.pass_nanos.iter().map(|(_, n)| n).sum()
    }
}

/// The TrackFM compiler.
#[derive(Clone, Debug, Default)]
pub struct TrackFmCompiler {
    /// The options this compiler instance applies.
    pub options: CompilerOptions,
}

impl TrackFmCompiler {
    /// Creates a compiler with the given options.
    pub fn new(options: CompilerOptions) -> Self {
        TrackFmCompiler { options }
    }

    /// Transforms `module` in place into a far-memory binary.
    ///
    /// # Panics
    /// Panics if the module fails verification after transformation (a
    /// compiler bug, not a user error).
    pub fn compile(&self, module: &mut Module, profile: Option<&Profile>) -> CompileReport {
        let mut report = CompileReport {
            insts_before: module.total_live_insts(),
            ..Default::default()
        };
        let opts = &self.options;

        if opts.o1 {
            let t = Instant::now();
            report.o1 = Some(o1::run(module));
            report.pass_nanos.push(("o1", t.elapsed().as_nanos()));
        }

        let t = Instant::now();
        runtime_init::run(module, opts.main_name);
        report
            .pass_nanos
            .push(("runtime-init", t.elapsed().as_nanos()));

        let t = Instant::now();
        let chunk_opts = ChunkingOptions {
            mode: opts.chunking,
            object_size: opts.object_size,
            prefetch: opts.prefetch,
            stream_motion: opts.stream_motion,
            overwrite: opts.overwrite_streams,
        };
        for id in module.function_ids().collect::<Vec<_>>() {
            report.chunking.merge(chunking::run(
                module,
                id,
                &opts.cost_model,
                &chunk_opts,
                profile,
            ));
        }
        report
            .pass_nanos
            .push(("loop-chunking", t.elapsed().as_nanos()));

        let t = Instant::now();
        let prune_threshold = opts.prune_local_allocations.then_some(opts.object_size);
        let locals: HashMap<FuncId, HashSet<Value>> = module
            .function_ids()
            .map(|id| {
                let sites = match prune_threshold {
                    Some(th) => libc::local_alloc_sites(module.function(id), th),
                    None => Default::default(),
                };
                (id, sites)
            })
            .collect();
        let (mut r, mut w) = (0, 0);
        if opts.guards {
            // Summaries for the guard-check analysis come from the
            // pre-transform IR; the transform only adds guards, so every
            // class/custody fact proven here stays sound afterwards.
            let sums = opts
                .interproc
                .then(|| ModuleSummaries::compute_with_locals(module, &[opts.main_name], &locals));
            for id in module.function_ids().collect::<Vec<_>>() {
                let plan = guards::analyze_with_env(module, id, &locals[&id], sums.as_ref());
                let (pr, pw) = guards::transform(module, id, &plan);
                r += pr;
                w += pw;
            }
        }
        report.read_guards = r;
        report.write_guards = w;
        report
            .pass_nanos
            .push(("guard-transform", t.elapsed().as_nanos()));

        // Call-aware kill sets for motion and elision: recomputed on the
        // post-transform IR so the summaries see the inserted guards.
        let kill_sums =
            (opts.guards && opts.call_aware_kills && (opts.guard_motion || opts.elide_guards))
                .then(|| ModuleSummaries::compute_with_locals(module, &[opts.main_name], &locals));

        if opts.guards && opts.guard_motion {
            let t = Instant::now();
            report.motion = guard_motion::run(module, kill_sums.as_ref());
            report
                .pass_nanos
                .push(("guard-motion", t.elapsed().as_nanos()));
        }

        if opts.guards && opts.elide_guards {
            let t = Instant::now();
            report.elision = guard_elim::run_with(module, kill_sums.as_ref());
            report
                .pass_nanos
                .push(("guard-elide", t.elapsed().as_nanos()));
        }

        let t = Instant::now();
        let (_, kept) = libc::run_pruned(module, prune_threshold);
        report.pruned_local_sites = kept;
        report
            .pass_nanos
            .push(("libc-transform", t.elapsed().as_nanos()));

        report.guard_sites = guards::collect_sites(module);
        report.insts_after = module.total_live_insts();
        module
            .verify()
            .expect("TrackFM output must verify — compiler bug");

        if opts.guards && opts.lint {
            let t = Instant::now();
            let errors = lint::lint_module(module);
            if !errors.is_empty() {
                let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
                panic!(
                    "TrackFM output failed the guard-coverage lint — compiler bug:\n{}",
                    msgs.join("\n")
                );
            }
            report.pass_nanos.push(("tfm-lint", t.elapsed().as_nanos()));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{BinOp, FunctionBuilder, InstKind, Intrinsic, Signature, Type};

    /// Builds the paper's Listing-1 sum loop over a malloc'd array.
    fn sum_program(elems: i64) -> Module {
        let mut m = Module::new("sum");
        let id = m.declare_function("main", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let arr = b.malloc_const(elems * 8);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, elems);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(arr, i, 8, 0);
                let x = b.load(Type::I64, addr);
                let _ = b.binop(BinOp::Add, x, x);
            });
            b.intrinsic(Intrinsic::Free, vec![arr]);
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        m
    }

    fn count_intr(m: &Module, intr: Intrinsic) -> usize {
        m.functions()
            .flat_map(|(_, f)| {
                f.live_insts()
                    .into_iter()
                    .filter(|&v| {
                        matches!(f.kind(v), InstKind::IntrinsicCall { intr: i, .. } if *i == intr)
                    })
                    .collect::<Vec<_>>()
            })
            .count()
    }

    #[test]
    fn full_pipeline_produces_far_memory_binary() {
        let mut m = sum_program(1000);
        let report = TrackFmCompiler::default().compile(&mut m, None);
        // The array access is chunked, so no plain guards remain on it.
        assert_eq!(report.chunking.streams, 1);
        assert_eq!(report.read_guards, 0);
        assert_eq!(count_intr(&m, Intrinsic::RuntimeInit), 1);
        assert_eq!(count_intr(&m, Intrinsic::TfmAlloc), 1);
        assert_eq!(count_intr(&m, Intrinsic::TfmFree), 1);
        assert_eq!(count_intr(&m, Intrinsic::Malloc), 0);
        assert!(report.code_size_ratio() > 1.0);
        assert!(report.total_nanos() > 0);
        // runtime-init, loop-chunking, guard-transform, guard-motion,
        // guard-elide, libc-transform, tfm-lint.
        assert_eq!(report.pass_nanos.len(), 7);
    }

    #[test]
    fn elision_folds_duplicate_guards_and_output_stays_sound() {
        // Two loads and a store through the same address in one block: the
        // guard pass inserts three guards, elision folds them into a single
        // write guard (read→write upgrade on the survivor).
        let mut m = Module::new("dup");
        let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let i = b.iconst(Type::I64, 3);
            let addr = b.gep(p, i, 8, 0);
            let x = b.load(Type::I64, addr);
            let y = b.load(Type::I64, addr);
            let s = b.binop(BinOp::Add, x, y);
            b.store(addr, s);
            b.ret(Some(s));
        }
        m.verify().unwrap();
        let report = TrackFmCompiler::default().compile(&mut m, None);
        assert_eq!(report.read_guards, 2);
        assert_eq!(report.write_guards, 1);
        assert_eq!(report.elision.eliminated, 2);
        assert_eq!(report.elision.upgraded, 1);
        assert_eq!(report.elision.sites.len(), 1);
        assert_eq!(report.elision.sites[0].absorbed, 2);
        assert_eq!(count_intr(&m, Intrinsic::GuardRead), 0);
        assert_eq!(count_intr(&m, Intrinsic::GuardWrite), 1);
        // collect_sites runs post-elision: only the survivor is reported.
        assert_eq!(report.guard_sites.len(), 1);
        assert!(report.guard_sites[0].label.ends_with(":write"));
    }

    #[test]
    fn elision_off_keeps_every_guard() {
        let mut m = sum_program(1000);
        let compiler = TrackFmCompiler::new(CompilerOptions {
            chunking: ChunkingMode::Off,
            elide_guards: false,
            ..Default::default()
        });
        let report = compiler.compile(&mut m, None);
        assert_eq!(report.elision, Default::default());
        assert_eq!(count_intr(&m, Intrinsic::GuardRead), 1);
        // No guard-elide entry in the pass list when disabled.
        assert!(report.pass_nanos.iter().all(|(n, _)| *n != "guard-elide"));
    }

    #[test]
    fn chunking_off_leaves_naive_guards() {
        let mut m = sum_program(1000);
        let compiler = TrackFmCompiler::new(CompilerOptions {
            chunking: ChunkingMode::Off,
            ..Default::default()
        });
        let report = compiler.compile(&mut m, None);
        assert_eq!(report.chunking.streams, 0);
        assert_eq!(report.read_guards, 1);
        assert_eq!(count_intr(&m, Intrinsic::GuardRead), 1);
        assert_eq!(count_intr(&m, Intrinsic::ChunkDeref), 0);
        assert_eq!(report.guard_sites.len(), 1);
        assert!(report.guard_sites[0].label.ends_with(":read"));
    }

    #[test]
    fn o1_runs_first_and_is_reported() {
        let mut m = sum_program(100);
        let compiler = TrackFmCompiler::new(CompilerOptions {
            o1: true,
            ..Default::default()
        });
        let report = compiler.compile(&mut m, None);
        assert!(report.o1.is_some());
        assert_eq!(report.pass_nanos[0].0, "o1");
    }

    /// A const-trip loop that stores through a loop-invariant pointer: the
    /// guard is loop-invariant and should be hoisted into the preheader.
    fn invariant_store_loop() -> Module {
        let mut m = Module::new("inv");
        let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 64);
            let k = b.iconst(Type::I64, 7);
            let slot = b.gep(p, k, 8, 0);
            b.counted_loop(zero, n, 1, |b, i| {
                // Data-dependent index defeats chunking; the *pointer* is
                // still loop-invariant.
                let x = b.load(Type::I64, slot);
                let y = b.binop(BinOp::Add, x, i);
                b.store(slot, y);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        m
    }

    #[test]
    fn guard_motion_hoists_invariant_guard_out_of_the_loop() {
        let mut m = invariant_store_loop();
        let compiler = TrackFmCompiler::new(CompilerOptions {
            chunking: ChunkingMode::Off,
            ..Default::default()
        });
        let report = compiler.compile(&mut m, None);
        // The read guard and the write guard fold into one write guard,
        // which then climbs into the preheader.
        assert!(report.motion.hoisted >= 1, "motion: {:?}", report.motion);
        assert_eq!(count_intr(&m, Intrinsic::GuardRead), 0);
        assert_eq!(count_intr(&m, Intrinsic::GuardWrite), 1);
    }

    #[test]
    fn guard_motion_off_leaves_guards_in_place() {
        let mut m = invariant_store_loop();
        let compiler = TrackFmCompiler::new(CompilerOptions {
            chunking: ChunkingMode::Off,
            guard_motion: false,
            ..Default::default()
        });
        let report = compiler.compile(&mut m, None);
        assert_eq!(report.motion, Default::default());
        assert!(report.pass_nanos.iter().all(|(n, _)| *n != "guard-motion"));
    }

    #[test]
    fn interproc_skips_guards_on_provably_local_parameters() {
        // helper loads through its pointer parameter; the only call site
        // passes a pruned-local allocation. With interproc on, the callee
        // access needs no guard; off, it gets one.
        let build = || {
            let mut m = Module::new("ip");
            let h = m.declare_function("helper", Signature::new(vec![Type::Ptr], Some(Type::I64)));
            {
                let mut b = FunctionBuilder::new(m.function_mut(h));
                let p = b.param(0);
                let x = b.load(Type::I64, p);
                b.ret(Some(x));
            }
            let id = m.declare_function("main", Signature::new(vec![], Some(Type::I64)));
            {
                let mut b = FunctionBuilder::new(m.function_mut(id));
                let loc = b.malloc_const(64);
                let z = b.iconst(Type::I64, 5);
                b.store(loc, z);
                let x = b.call(h, vec![loc], Some(Type::I64));
                b.ret(Some(x));
            }
            m.verify().unwrap();
            m
        };
        let opts = CompilerOptions {
            chunking: ChunkingMode::Off,
            prune_local_allocations: true,
            ..Default::default()
        };
        let mut with = build();
        let r_with = TrackFmCompiler::new(opts).compile(&mut with, None);
        let mut without = build();
        let r_without = TrackFmCompiler::new(CompilerOptions {
            interproc: false,
            ..opts
        })
        .compile(&mut without, None);
        assert!(r_with.total_guards() < r_without.total_guards());
        assert_eq!(count_intr(&with, Intrinsic::GuardRead), 0);
        assert_eq!(count_intr(&without, Intrinsic::GuardRead), 1);
    }

    #[test]
    fn call_aware_kills_let_elision_cross_transparent_calls() {
        // Two loads through the same pointer with a pure call in between:
        // with call-aware kills the second guard is elided; without, the
        // call conservatively kills custody and both survive.
        let build = || {
            let mut m = Module::new("ck");
            let h = m.declare_function("pure", Signature::new(vec![Type::I64], Some(Type::I64)));
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
                let x = b.load(Type::I64, p);
                let y = b.call(h, vec![x], Some(Type::I64));
                let z = b.load(Type::I64, p);
                let s = b.binop(BinOp::Add, y, z);
                b.ret(Some(s));
            }
            m.verify().unwrap();
            m
        };
        let opts = CompilerOptions {
            chunking: ChunkingMode::Off,
            ..Default::default()
        };
        let mut with = build();
        let r_with = TrackFmCompiler::new(opts).compile(&mut with, None);
        let mut without = build();
        let r_without = TrackFmCompiler::new(CompilerOptions {
            call_aware_kills: false,
            ..opts
        })
        .compile(&mut without, None);
        assert_eq!(r_with.elision.eliminated, 1);
        assert_eq!(r_without.elision.eliminated, 0);
        assert_eq!(count_intr(&with, Intrinsic::GuardRead), 1);
        assert_eq!(count_intr(&without, Intrinsic::GuardRead), 2);
    }

    #[test]
    fn code_size_growth_is_guard_proportional() {
        // A program with many distinct (unchunkable) accesses grows more
        // than a chunkable one — §4.6's "roughly proportional to the number
        // of memory instructions".
        let mut m = Module::new("scatter");
        let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let mut acc = b.iconst(Type::I64, 0);
            for k in 0..10 {
                // Data-dependent chained loads: no IV, all guarded.
                let addr = b.gep(p, acc, 8, k);
                let x = b.load(Type::I64, addr);
                acc = b.binop(BinOp::Add, acc, x);
            }
            b.ret(Some(acc));
        }
        m.verify().unwrap();
        let report = TrackFmCompiler::default().compile(&mut m, None);
        assert_eq!(report.read_guards, 10);
        assert!(report.code_size_ratio() > 1.3);
    }
}
