//! CI gate for the `tfm-lint` soundness check.
//!
//! The pipeline runs the lint after every compile (and panics on errors),
//! but this suite is the explicit gate: every workload, example-shaped
//! program, and compiler configuration must produce a module on which
//! `lint_module` reports **zero** may-heap accesses without guard custody.
//! Deliberately tampered modules — a deleted guard, a span guard one
//! element short, a load through an overwrite stream — prove the lint is
//! not vacuous.

use trackfm_suite::compiler::{lint_module, ChunkingMode, CompilerOptions, TrackFmCompiler};
use trackfm_suite::ir::{
    BinOp, CastOp, FunctionBuilder, InstData, InstKind, Intrinsic, Module, Signature, Type,
    CHUNK_FLAG_OVERWRITE,
};
use trackfm_suite::workloads::{
    analytics, hashmap, kmeans, memcached, nas, open_loop, stream, OpenLoopParams,
};

fn configs() -> Vec<(&'static str, CompilerOptions)> {
    vec![
        ("default", CompilerOptions::default()),
        (
            "no-elide",
            CompilerOptions {
                elide_guards: false,
                ..Default::default()
            },
        ),
        (
            "no-chunking",
            CompilerOptions {
                chunking: ChunkingMode::Off,
                ..Default::default()
            },
        ),
        (
            "o1",
            CompilerOptions {
                o1: true,
                ..Default::default()
            },
        ),
        (
            // Short loops stay unchunked at the smallest object size, so
            // guard motion turns their affine guards into span guards.
            "objects-64",
            CompilerOptions {
                object_size: 64,
                ..Default::default()
            },
        ),
    ]
}

/// The kv store's `get` (the kv-openloop benchmark's program): its
/// 8-word value loop is the span-guard motion showcase.
fn kv_get_module() -> Module {
    open_loop(&OpenLoopParams {
        keys: 64,
        requests: 1,
        ..OpenLoopParams::default()
    })
    .spec
    .module
}

fn assert_lint_clean(tag: &str, module: &Module) {
    let errors = lint_module(module);
    assert!(
        errors.is_empty(),
        "{tag}: tfm-lint found {} uncovered accesses:\n{}",
        errors.len(),
        errors
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn lint_is_clean_on_every_workload_under_every_config() {
    let specs = vec![
        stream::sum(&stream::StreamParams { elems: 4 << 10 }),
        stream::copy(&stream::StreamParams { elems: 4 << 10 }),
        stream::triad(&stream::StreamParams { elems: 4 << 10 }),
        stream::strided_sum(512, 16),
        kmeans::kmeans(&kmeans::KmeansParams {
            points: 256,
            dims: 4,
            k: 3,
            iters: 1,
        }),
        hashmap::hashmap(&hashmap::HashmapParams {
            keys: 256,
            lookups: 512,
            skew: 1.02,
            seed: 5,
        }),
        analytics::analytics(&analytics::AnalyticsParams {
            rows: 1024,
            groups: 64,
        }),
        memcached::memcached(&memcached::MemcachedParams {
            keys: 256,
            gets: 512,
            skew: 1.1,
            seed: 6,
        }),
    ]
    .into_iter()
    .chain(nas::all(&nas::NasParams { shrink: 100 }))
    .collect::<Vec<_>>();

    for spec in &specs {
        for (cname, opts) in configs() {
            let mut m = spec.module.clone();
            TrackFmCompiler::new(opts).compile(&mut m, None);
            assert_lint_clean(&format!("{}/{cname}", spec.name), &m);
        }
    }
    for (cname, opts) in configs() {
        let mut m = kv_get_module();
        TrackFmCompiler::new(opts).compile(&mut m, None);
        assert_lint_clean(&format!("kv-get/{cname}"), &m);
    }
}

/// The quickstart example's Listing-1 sum loop — the README's first
/// contact with the compiler must survive the gate too.
fn quickstart_module() -> Module {
    let mut module = Module::new("quickstart");
    let main_fn = module.declare_function(
        "main",
        Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(module.function_mut(main_fn));
        let arr = b.param(0);
        let n = b.param(1);
        let zero = b.iconst(Type::I64, 0);
        let sum_slot = b.alloca(8, 8);
        b.store(sum_slot, zero);
        b.counted_loop(zero, n, 1, |b, i| {
            let addr = b.gep(arr, i, 4, 0);
            let x = b.load(Type::I32, addr);
            let x64 = b.cast(CastOp::Sext, x, Type::I64);
            let s = b.load(Type::I64, sum_slot);
            let s2 = b.binop(BinOp::Add, s, x64);
            b.store(sum_slot, s2);
        });
        let out = b.load(Type::I64, sum_slot);
        b.ret(Some(out));
    }
    module.verify().expect("well-formed input");
    module
}

#[test]
fn lint_is_clean_on_example_shaped_programs() {
    for (cname, opts) in configs() {
        let mut m = quickstart_module();
        TrackFmCompiler::new(opts).compile(&mut m, None);
        assert_lint_clean(&format!("quickstart/{cname}"), &m);
    }
}

/// Deleting one guard from otherwise-sound pipeline output must trip the
/// lint — the gate actually gates.
#[test]
fn lint_catches_a_deleted_guard() {
    let mut m = quickstart_module();
    TrackFmCompiler::new(CompilerOptions {
        chunking: ChunkingMode::Off, // plain guards, no chunk custody
        ..Default::default()
    })
    .compile(&mut m, None);
    assert_lint_clean("pre-tamper", &m);

    // Strip the first guard: route its uses to the raw pointer.
    let fid = m.function_ids().next().unwrap();
    let f = m.function_mut(fid);
    let guard = f
        .live_insts()
        .into_iter()
        .find(|&v| {
            matches!(
                f.kind(v),
                InstKind::IntrinsicCall {
                    intr: Intrinsic::GuardRead | Intrinsic::GuardWrite,
                    ..
                }
            )
        })
        .expect("pipeline output has a guard");
    let raw = match f.kind(guard) {
        InstKind::IntrinsicCall { args, .. } => args[0],
        _ => unreachable!(),
    };
    f.replace_all_uses(guard, raw);
    f.remove_inst(guard);

    let errors = lint_module(&m);
    assert!(
        !errors.is_empty(),
        "lint must flag the access whose guard was deleted"
    );
    assert!(errors
        .iter()
        .any(|e| e.to_string().contains("never passed through a guard")));
}

/// Shortening a span guard by one element must trip the lint: the loop's
/// last word would then lie outside the custody the guard took.
#[test]
fn lint_catches_a_span_one_element_short() {
    let mut m = kv_get_module();
    let report = TrackFmCompiler::new(CompilerOptions {
        object_size: 64,
        ..Default::default()
    })
    .compile(&mut m, None);
    assert_lint_clean("pre-tamper", &m);
    let site = report
        .motion
        .sites
        .iter()
        .find(|s| s.span > 0)
        .expect("the value loop's guard leaves as a span guard");
    assert_eq!(site.span, 64, "8 words of 8 bytes");

    // Shrink the span's length constant from 64 to 56 bytes.
    let fid = m.function_ids().next().unwrap();
    let f = m.function_mut(fid);
    let guard = trackfm_suite::ir::Value::from_index(site.value as usize);
    let len = match f.kind(guard) {
        InstKind::IntrinsicCall { args, .. } => args[1],
        _ => unreachable!(),
    };
    f.inst_mut(len).kind = InstKind::ConstInt(56);
    m.verify().expect("a 56-byte span is still well-formed IR");

    let errors = lint_module(&m);
    assert_eq!(errors.len(), 1, "{errors:?}");
    let e = &errors[0];
    assert_eq!(e.function, "get");
    assert_eq!(e.site, format!("get:v{}:load", e.inst));
    let text = e.to_string();
    assert!(text.contains("err_in `get` err_at bb"), "{text}");
    assert!(text.contains(&format!("[get:v{}:load]", e.inst)), "{text}");
    assert!(text.contains("outside the 56-byte span"), "{text}");
    assert!(text.contains("bytes 0..64"), "{text}");
}

/// Loading through the STREAM triad's `a` stream — an overwrite stream,
/// whose objects the runtime claims without fetching — must trip the lint:
/// the load would read bytes that were never brought in.
#[test]
fn lint_catches_a_load_through_an_overwrite_stream() {
    let mut m = stream::triad(&stream::StreamParams { elems: 4 << 10 }).module;
    let report = TrackFmCompiler::new(CompilerOptions::default()).compile(&mut m, None);
    assert_eq!(
        report.chunking.overwrite_streams, 1,
        "a[i] = ... is write-only"
    );
    assert_lint_clean("pre-tamper", &m);

    let fid = m.function_ids().next().unwrap();
    let f = m.function_mut(fid);
    let is_overwrite_begin = |v| match f.kind(v) {
        InstKind::IntrinsicCall {
            intr: Intrinsic::ChunkBegin,
            args,
        } => matches!(f.kind(args[1]), InstKind::ConstInt(c) if c & CHUNK_FLAG_OVERWRITE != 0),
        _ => false,
    };
    let live = f.live_insts();
    let begin = *live.iter().find(|&&v| is_overwrite_begin(v)).unwrap();
    let deref = *live
        .iter()
        .find(|&&v| {
            matches!(f.kind(v), InstKind::IntrinsicCall {
                intr: Intrinsic::ChunkDeref,
                args,
            } if args[0] == begin)
        })
        .unwrap();
    let store = *live
        .iter()
        .find(|&&v| matches!(f.kind(v), InstKind::Store { ptr, .. } if *ptr == deref))
        .unwrap();
    // Read a[i] back right after writing it.
    let block = f.inst(store).block;
    let load = f.insert_after(
        store,
        InstData {
            kind: InstKind::Load { ptr: deref },
            ty: Some(Type::F64),
            block,
        },
    );
    m.verify()
        .expect("the tampered triad is still well-formed IR");

    let errors = lint_module(&m);
    assert_eq!(errors.len(), 1, "{errors:?}");
    let e = &errors[0];
    assert_eq!(e.function, "main");
    assert_eq!(e.site, format!("main:v{}:load", load.index()));
    assert!(
        e.message
            .contains(&format!("load through overwrite stream %{}", begin.index())),
        "{e}"
    );
}
