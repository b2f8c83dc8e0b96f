//! Randomized compiler-correctness properties.
//!
//! A generator builds arbitrary (but well-formed) programs — straight-line
//! integer arithmetic, a diamond branch, loads/stores through a scratch
//! buffer — then checks, for every generated program:
//!
//! * the verifier accepts it;
//! * `print → parse → print` is a fixpoint and preserves behaviour;
//! * the O1 pipeline (fold/CSE/RLE/LICM/simplify-cfg/DCE) preserves
//!   behaviour;
//! * the full TrackFM transformation preserves behaviour under far memory.
//!
//! Sibling generators add helper calls, invariant-slot loops and short
//! constant-trip affine loops (the interprocedural sweep, which also gates
//! span-guard motion), analytics-Q4-shaped loop nests (the
//! chunk-stream-motion sweep) and write-only dense fill loops (the
//! overwrite-stream sweep).

use trackfm_suite::compiler::{CostModel, TrackFmCompiler};
use trackfm_suite::ir::{
    parse_module, BinOp, CastOp, CmpOp, FunctionBuilder, Module, Signature, Type, Value,
};
use trackfm_suite::runtime::FarMemoryConfig;
use trackfm_suite::sim::{ExecStats, LocalMem, Machine, RunResult, TrackFmMem};
use trackfm_suite::workloads::SplitMix64;

/// One generated operation.
#[derive(Clone, Debug)]
enum Op {
    Bin(u8, u8, u8),
    Cmp(u8, u8, u8),
    StoreLoad(u8, u8), // store value, heap slot index
    StackSlot(u8, u8), // store value, stack slot index (mem2reg fodder)
}

fn random_op(rng: &mut SplitMix64) -> Op {
    let b8 = |rng: &mut SplitMix64| rng.next_u64() as u8;
    match rng.next_below(4) {
        0 => Op::Bin(b8(rng), b8(rng), b8(rng)),
        1 => Op::Cmp(b8(rng), b8(rng), b8(rng)),
        2 => Op::StoreLoad(b8(rng), b8(rng)),
        _ => Op::StackSlot(b8(rng), b8(rng)),
    }
}

const BINOPS: [BinOp; 9] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Lshr,
    BinOp::Ashr,
];
const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Slt,
    CmpOp::Sle,
    CmpOp::Ugt,
    CmpOp::Uge,
];

/// Builds a program from the op list: computes over two params plus a
/// 16-slot heap scratch buffer, ends with a diamond on the running value.
fn build(ops: &[Op], seed: i64) -> Module {
    let mut m = Module::new("rand");
    let id = m.declare_function(
        "main",
        Signature::new(vec![Type::I64, Type::I64, Type::Ptr], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let scratch = b.param(2);
        let slots: Vec<Value> = (0..4).map(|_| b.alloca(8, 8)).collect();
        let mut vals: Vec<Value> = vec![b.param(0), b.param(1)];
        let c = b.iconst(Type::I64, seed);
        for &sl in &slots {
            b.store(sl, c);
        }
        vals.push(c);
        for op in ops {
            let pick = |n: u8, len: usize| n as usize % len;
            let v = match op {
                Op::Bin(o, x, y) => {
                    let a = vals[pick(*x, vals.len())];
                    let bb = vals[pick(*y, vals.len())];
                    b.binop(BINOPS[pick(*o, BINOPS.len())], a, bb)
                }
                Op::Cmp(o, x, y) => {
                    let a = vals[pick(*x, vals.len())];
                    let bb = vals[pick(*y, vals.len())];
                    b.icmp(CMPS[pick(*o, CMPS.len())], a, bb)
                }
                Op::StoreLoad(x, s) => {
                    let v = vals[pick(*x, vals.len())];
                    let slot = b.iconst(Type::I64, (s % 16) as i64);
                    let addr = b.gep(scratch, slot, 8, 0);
                    b.store(addr, v);
                    b.load(Type::I64, addr)
                }
                Op::StackSlot(x, s) => {
                    let v = vals[pick(*x, vals.len())];
                    let sl = slots[(*s % 4) as usize];
                    b.store(sl, v);
                    b.load(Type::I64, sl)
                }
            };
            vals.push(v);
        }
        let last = *vals.last().unwrap();
        // Diamond on the last value.
        let t = b.create_block();
        let e = b.create_block();
        let j = b.create_block();
        let zero = b.iconst(Type::I64, 0);
        let cnd = b.icmp(CmpOp::Sgt, last, zero);
        b.cond_br(cnd, t, e);
        b.switch_to_block(t);
        let tv = b.binop(BinOp::Xor, last, vals[0]);
        b.br(j);
        b.switch_to_block(e);
        let ev = b.binop(BinOp::Add, last, vals[1]);
        b.br(j);
        b.switch_to_block(j);
        let phi = b.phi(Type::I64, &[(t, tv), (e, ev)]);
        b.ret(Some(phi));
    }
    m
}

/// Slots (8 bytes each) in the `scratch` buffer most generators use.
const SLOTS: usize = 16;

fn run_local(m: &Module, a: u64, b: u64) -> u64 {
    run_local_slots(m, a, b, SLOTS)
}

/// [`run_local`] over a zeroed `scratch` buffer of `slots` words.
fn run_local_slots(m: &Module, a: u64, b: u64, slots: usize) -> u64 {
    let mut machine = Machine::new(m, LocalMem::new(1 << 16), CostModel::default(), 1 << 16);
    let scratch = machine.setup_alloc(slots as u64 * 8);
    machine.setup_write_u64s(scratch, &vec![0; slots]);
    machine.finish_setup(false);
    machine
        .run("main", &[a, b, scratch])
        .expect("clean run")
        .ret
}

fn run_trackfm(m: &Module, a: u64, b: u64) -> u64 {
    let cfg = FarMemoryConfig {
        heap_size: 1 << 16,
        object_size: 64,
        local_budget: 256, // heavy pressure: 4 objects
        link: trackfm_suite::net::LinkParams::tcp_25g(),
        ..FarMemoryConfig::small()
    };
    let mem = TrackFmMem::new(cfg, CostModel::default());
    let mut machine = Machine::new(m, mem, CostModel::default(), 1 << 16);
    let scratch = machine.setup_alloc(128);
    machine.setup_write_u64s(scratch, &[0; 16]);
    machine.finish_setup(true); // cold: everything remote at t=0
    machine
        .run("main", &[a, b, scratch])
        .expect("clean run")
        .ret
}

#[test]
fn random_programs_verify_roundtrip_optimize_and_remote() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0001);
    for case in 0..64 {
        let ops: Vec<Op> = (0..rng.next_range(1, 39))
            .map(|_| random_op(&mut rng))
            .collect();
        let seed = rng.next_u64() as i64;
        let a = rng.next_u64();
        let b = rng.next_u64();
        let m = build(&ops, seed);
        assert!(
            m.verify().is_ok(),
            "case {case}: generated program must verify"
        );
        let want = run_local(&m, a, b);

        // Parser round-trip preserves behaviour and is a print fixpoint.
        let text1 = m.to_string();
        let parsed = parse_module(&text1).expect("printer output parses");
        parsed.verify().expect("parsed module verifies");
        assert_eq!(run_local(&parsed, a, b), want);
        let text2 = parsed.to_string();
        let reparsed = parse_module(&text2).expect("reparse");
        assert_eq!(reparsed.to_string(), text2, "print is a parse fixpoint");

        // O1 preserves behaviour.
        let mut opt = m.clone();
        trackfm_suite::compiler::passes::o1::run(&mut opt);
        opt.verify().expect("optimized module verifies");
        assert_eq!(run_local(&opt, a, b), want, "O1 changed behaviour");

        // The far-memory transformation preserves behaviour under pressure.
        let mut far = m.clone();
        TrackFmCompiler::default().compile(&mut far, None);
        assert_eq!(run_trackfm(&far, a, b), want, "TrackFM changed behaviour");

        // And O1 + TrackFM together.
        let mut both = m.clone();
        let compiler = TrackFmCompiler::new(trackfm_suite::compiler::CompilerOptions {
            o1: true,
            ..Default::default()
        });
        compiler.compile(&mut both, None);
        assert_eq!(
            run_trackfm(&both, a, b),
            want,
            "O1+TrackFM changed behaviour"
        );
    }
}

/// [`run_trackfm`], with the guard sanitizer armed: any dereference of a
/// heap pointer without live guard custody traps instead of executing.
/// Returns the result and the run's execution counters.
fn run_trackfm_sanitized(m: &Module, a: u64, b: u64) -> (u64, ExecStats) {
    let r = run_trackfm_sanitized_slots(m, a, b, SLOTS);
    (r.ret, r.stats)
}

/// [`run_trackfm_sanitized`] over a zeroed `scratch` buffer of `slots`
/// words, returning the whole run result.
fn run_trackfm_sanitized_slots(m: &Module, a: u64, b: u64, slots: usize) -> RunResult {
    let cfg = FarMemoryConfig {
        heap_size: 1 << 16,
        object_size: 64,
        local_budget: 256,
        link: trackfm_suite::net::LinkParams::tcp_25g(),
        ..FarMemoryConfig::small()
    };
    let mem = TrackFmMem::new(cfg, CostModel::default());
    let mut machine = Machine::new(m, mem, CostModel::default(), 1 << 16);
    machine.enable_guard_sanitizer();
    let scratch = machine.setup_alloc(slots as u64 * 8);
    machine.setup_write_u64s(scratch, &vec![0; slots]);
    machine.finish_setup(true);
    machine
        .run("main", &[a, b, scratch])
        .expect("sanitizer-clean run")
}

/// The static soundness lint and the dynamic guard sanitizer must agree on
/// pipeline output: over a few hundred seeded programs, `tfm-lint` reports
/// zero errors and the sanitizer reports zero traps — with redundant-guard
/// elimination both off and on. Elision must also never change the result
/// or increase simulated cycles, and must fire somewhere in the corpus.
#[test]
fn lint_and_sanitizer_agree_on_random_corpus() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0004);
    let mut total_eliminated = 0usize;
    for case in 0..200 {
        let ops: Vec<Op> = (0..rng.next_range(1, 31))
            .map(|_| random_op(&mut rng))
            .collect();
        let seed = rng.next_u64() as i64;
        let a = rng.next_u64();
        let b = rng.next_u64();
        let m = build(&ops, seed);
        let want = run_local(&m, a, b);

        let mut cycles = [0u64; 2];
        for elide in [false, true] {
            let mut far = m.clone();
            let compiler = TrackFmCompiler::new(trackfm_suite::compiler::CompilerOptions {
                elide_guards: elide,
                ..Default::default()
            });
            let report = compiler.compile(&mut far, None);
            // Static: the pipeline's own lint stage already ran (it panics
            // on errors); check the exported entry point agrees.
            assert!(
                trackfm_suite::compiler::lint_module(&far).is_empty(),
                "case {case} (elide={elide}): lint must pass on pipeline output"
            );
            // Dynamic: the sanitizer sees every access of the taken path.
            let (got, stats) = run_trackfm_sanitized(&far, a, b);
            assert_eq!(got, want, "case {case} (elide={elide}): wrong result");
            cycles[elide as usize] = stats.cycles;
            if elide {
                total_eliminated += report.elision.eliminated;
            }
        }
        assert!(
            cycles[1] <= cycles[0],
            "case {case}: elision increased cycles ({} -> {})",
            cycles[0],
            cycles[1]
        );
    }
    assert!(
        total_eliminated > 0,
        "the corpus should contain redundant guards for elision to fold"
    );
}

/// One operation of the *interprocedural* generator: the base ops plus
/// calls into helper functions and constant-trip loops over an invariant
/// far-memory slot — the shapes the interprocedural custody analysis and
/// loop-invariant guard motion exist for.
#[derive(Clone, Debug)]
enum ExtOp {
    Base(Op),
    /// Call the pure arithmetic helper (custody-transparent).
    CallPure(u8),
    /// Call the RMW helper on a scratch slot (raw pointer-param deref).
    CallBump(u8, u8),
    /// Call the stack-only RMW helper on an alloca slot: interprocedural
    /// classification proves the pointer param provably-stack, so the
    /// helper compiles guard-free.
    CallBumpStack(u8, u8),
    /// Call the allocating helper (custody-killing).
    CallKiller(u8),
    /// Constant-trip loop RMW'ing one invariant scratch slot; the second
    /// payload bit decides whether the body also calls the pure helper.
    InvLoop(u8, u8, u8),
    /// `(addend, start, trip, flags)`: a loop of 2–16 trips walking
    /// `scratch` at a constant stride, folding each element into a stack
    /// accumulator — the shape span-guard motion turns into one preheader
    /// guard. Flag bit 0 picks the stride (4-byte `i32` or 8-byte `i64`
    /// elements), bit 1 walks downwards, bit 2 writes each element back
    /// (read-modify-write), bit 3 adds a pure helper call to the body, and
    /// bit 4 recomputes the row base `scratch + 0` inside the body. The
    /// cost model chunks every stride-4/8 loop over an invariant base at
    /// the 4096-byte compile-time object size, so only in-body bases (a
    /// pure chain guard motion moves with the guard, chunking does not
    /// take) reach span motion. `start` places the run anywhere in the
    /// 128-byte buffer, so many spans straddle its 64-byte object boundary.
    AffineLoop(u8, u8, u8, u8),
}

fn random_ext_op(rng: &mut SplitMix64) -> ExtOp {
    let b8 = |rng: &mut SplitMix64| rng.next_u64() as u8;
    match rng.next_below(10) {
        0..=3 => ExtOp::Base(random_op(rng)),
        4 => ExtOp::CallPure(b8(rng)),
        5 => ExtOp::CallBump(b8(rng), b8(rng)),
        6 => ExtOp::CallBumpStack(b8(rng), b8(rng)),
        7 => ExtOp::CallKiller(b8(rng)),
        8 => ExtOp::InvLoop(b8(rng), b8(rng), b8(rng)),
        _ => ExtOp::AffineLoop(b8(rng), b8(rng), b8(rng), b8(rng)),
    }
}

/// A loop running `i` down from `first` to `last` (inclusive, `first ≥
/// last`) by one: the header tests `i > last - 1`.
fn down_loop(
    b: &mut FunctionBuilder,
    first: i64,
    last: i64,
    body: impl FnOnce(&mut FunctionBuilder, Value),
) {
    let pre = b.current_block();
    let header = b.create_block();
    let body_bb = b.create_block();
    let exit = b.create_block();
    let start = b.iconst(Type::I64, first);
    let stop = b.iconst(Type::I64, last - 1);
    b.br(header);
    b.switch_to_block(header);
    let i = b.phi(Type::I64, &[(pre, start)]);
    let go = b.icmp(CmpOp::Sgt, i, stop);
    b.cond_br(go, body_bb, exit);
    b.switch_to_block(body_bb);
    body(b, i);
    let latch = b.current_block();
    let minus_one = b.iconst(Type::I64, -1);
    let next = b.binop(BinOp::Add, i, minus_one);
    b.add_phi_incoming(i, latch, next);
    b.br(header);
    b.switch_to_block(exit);
}

/// [`build`]'s multi-function sibling: `main` plus a pure helper, an
/// RMW-on-pointer-param helper, and an allocating (custody-killing)
/// helper. Behaviour stays pointer-value-free and deterministic.
fn build_interproc(ops: &[ExtOp], seed: i64) -> Module {
    let mut m = Module::new("rand_ip");

    // Pure: f(x) = (x ^ seed) + (x << 1). Custody-transparent.
    let pure_fn = m.declare_function("pure", Signature::new(vec![Type::I64], Some(Type::I64)));
    {
        let mut b = FunctionBuilder::new(m.function_mut(pure_fn));
        let x = b.param(0);
        let c = b.iconst(Type::I64, seed);
        let one = b.iconst(Type::I64, 1);
        let t = b.binop(BinOp::Xor, x, c);
        let s = b.binop(BinOp::Shl, x, one);
        let r = b.binop(BinOp::Add, t, s);
        b.ret(Some(r));
    }

    // Bump: v = *p; *p = v + x; return v. Raw deref of the pointer param —
    // classified (and guarded) from its call sites.
    let bump_fn = m.declare_function(
        "bump",
        Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(bump_fn));
        let p = b.param(0);
        let x = b.param(1);
        let v = b.load(Type::I64, p);
        let v2 = b.binop(BinOp::Add, v, x);
        b.store(p, v2);
        b.ret(Some(v));
    }

    // Stack-only bump: body identical to `bump`, but every call site
    // passes an alloca — interprocedurally its param is provably Stack.
    let bump_stack_fn = m.declare_function(
        "bump_stack",
        Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(bump_stack_fn));
        let p = b.param(0);
        let x = b.param(1);
        let v = b.load(Type::I64, p);
        let v2 = b.binop(BinOp::Add, v, x);
        b.store(p, v2);
        b.ret(Some(v));
    }

    // Killer: allocates (and frees) — may trigger evacuation, so custody
    // must not survive calls to it.
    let killer_fn = m.declare_function("killer", Signature::new(vec![Type::I64], Some(Type::I64)));
    {
        let mut b = FunctionBuilder::new(m.function_mut(killer_fn));
        let x = b.param(0);
        let q = b.malloc_const(16);
        b.store(q, x);
        let v = b.load(Type::I64, q);
        b.intrinsic(trackfm_suite::ir::Intrinsic::Free, vec![q]);
        b.ret(Some(v));
    }

    let id = m.declare_function(
        "main",
        Signature::new(vec![Type::I64, Type::I64, Type::Ptr], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let scratch = b.param(2);
        let mut vals: Vec<Value> = vec![b.param(0), b.param(1)];
        let c = b.iconst(Type::I64, seed);
        let stack_slots: Vec<Value> = (0..4).map(|_| b.alloca(8, 8)).collect();
        for &sl in &stack_slots {
            b.store(sl, c);
        }
        vals.push(c);
        let pick = |vals: &[Value], n: u8| vals[n as usize % vals.len()];
        for op in ops {
            let v = match op {
                ExtOp::Base(op) => match op {
                    Op::Bin(o, x, y) => {
                        let a = pick(&vals, *x);
                        let bb = pick(&vals, *y);
                        b.binop(BINOPS[*o as usize % BINOPS.len()], a, bb)
                    }
                    Op::Cmp(o, x, y) => {
                        let a = pick(&vals, *x);
                        let bb = pick(&vals, *y);
                        b.icmp(CMPS[*o as usize % CMPS.len()], a, bb)
                    }
                    Op::StoreLoad(x, s) | Op::StackSlot(x, s) => {
                        let v = pick(&vals, *x);
                        let slot = b.iconst(Type::I64, (s % 16) as i64);
                        let addr = b.gep(scratch, slot, 8, 0);
                        b.store(addr, v);
                        b.load(Type::I64, addr)
                    }
                },
                ExtOp::CallPure(x) => {
                    let a = pick(&vals, *x);
                    b.call(pure_fn, vec![a], Some(Type::I64))
                }
                ExtOp::CallBump(x, s) => {
                    let a = pick(&vals, *x);
                    let slot = b.iconst(Type::I64, (s % 16) as i64);
                    let addr = b.gep(scratch, slot, 8, 0);
                    b.call(bump_fn, vec![addr, a], Some(Type::I64))
                }
                ExtOp::CallBumpStack(x, s) => {
                    let a = pick(&vals, *x);
                    let sl = stack_slots[(s % 4) as usize];
                    b.call(bump_stack_fn, vec![sl, a], Some(Type::I64))
                }
                ExtOp::CallKiller(x) => {
                    let a = pick(&vals, *x);
                    b.call(killer_fn, vec![a], Some(Type::I64))
                }
                ExtOp::InvLoop(x, s, n) => {
                    let addend = pick(&vals, *x);
                    let slot = b.iconst(Type::I64, (s % 16) as i64);
                    let addr = b.gep(scratch, slot, 8, 0);
                    let zero = b.iconst(Type::I64, 0);
                    let trip = b.iconst(Type::I64, (n % 5 + 1) as i64);
                    let with_call = n & 0x80 != 0;
                    b.counted_loop(zero, trip, 1, |b, _i| {
                        let t = b.load(Type::I64, addr);
                        let inc = if with_call {
                            b.call(pure_fn, vec![addend], Some(Type::I64))
                        } else {
                            addend
                        };
                        let t2 = b.binop(BinOp::Add, t, inc);
                        b.store(addr, t2);
                    });
                    b.load(Type::I64, addr)
                }
                ExtOp::AffineLoop(x, start, trip, flags) => {
                    let addend = pick(&vals, *x);
                    let (ty, stride) = if flags & 1 == 0 {
                        (Type::I32, 4u32)
                    } else {
                        (Type::I64, 8u32)
                    };
                    let elems = 128 / i64::from(stride);
                    let trip = i64::from(trip % 15) + 2;
                    let first = i64::from(*start) % (elems - trip + 1);
                    let (down, rmw, with_call) = (flags & 2 != 0, flags & 4 != 0, flags & 8 != 0);
                    let in_body_base = flags & 16 != 0;
                    let acc = stack_slots[(start % 4) as usize];
                    let body = |b: &mut FunctionBuilder, i: Value| {
                        let row = if in_body_base {
                            let zero = b.iconst(Type::I64, 0);
                            b.gep(scratch, zero, 64, 0)
                        } else {
                            scratch
                        };
                        let a = b.gep(row, i, stride, 0);
                        let x = b.load(ty, a);
                        if rmw {
                            let y = b.binop(BinOp::Add, x, x);
                            b.store(a, y);
                        }
                        let wide = if ty == Type::I32 {
                            b.cast(CastOp::Sext, x, Type::I64)
                        } else {
                            x
                        };
                        let inc = if with_call {
                            b.call(pure_fn, vec![addend], Some(Type::I64))
                        } else {
                            addend
                        };
                        let cur = b.load(Type::I64, acc);
                        let s1 = b.binop(BinOp::Add, cur, wide);
                        let s2 = b.binop(BinOp::Xor, s1, inc);
                        b.store(acc, s2);
                    };
                    if down {
                        down_loop(&mut b, first + trip - 1, first, body);
                    } else {
                        let lo = b.iconst(Type::I64, first);
                        let hi = b.iconst(Type::I64, first + trip);
                        b.counted_loop(lo, hi, 1, body);
                    }
                    b.load(Type::I64, acc)
                }
            };
            vals.push(v);
        }
        let last = *vals.last().unwrap();
        b.ret(Some(last));
    }
    m
}

/// The all-combos gate for the interprocedural layer. Over 200 seeded
/// multi-function programs, every on/off combination of
/// `{interproc, call_aware_kills, guard_motion}`:
///
/// * passes the (always fully interprocedural) static lint;
/// * runs clean under the dynamic guard sanitizer;
/// * returns the bit-identical result of a [`LocalMem`] oracle run;
/// * never simulates *more* cycles than the all-off configuration;
/// * with `guard_motion` on, never makes more guard calls than the same
///   combination with it off (span guards pay at most one guard per
///   object their loop touches, once per loop entry).
///
/// The transforms — span-guard motion included — must also demonstrably
/// fire somewhere in the corpus.
#[test]
fn all_interproc_flag_combos_agree_on_random_corpus() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0008);
    let mut total_hoisted = 0usize;
    let mut total_spans = 0usize;
    let mut interproc_elided_guards = false;
    let mut call_aware_extra_elision = false;
    for case in 0..200 {
        let ops: Vec<ExtOp> = (0..rng.next_range(1, 25))
            .map(|_| random_ext_op(&mut rng))
            .collect();
        let seed = rng.next_u64() as i64;
        let a = rng.next_u64();
        let b = rng.next_u64();
        let m = build_interproc(&ops, seed);
        assert!(m.verify().is_ok(), "case {case}: program must verify");
        let want = run_local(&m, a, b);

        let mut all_off_cycles = 0u64;
        let mut guard_calls = [0u64; 8];
        let mut guards_by_combo = [0usize; 8];
        let mut elided_by_combo = [0usize; 8];
        for combo in 0..8u8 {
            let opts = trackfm_suite::compiler::CompilerOptions {
                interproc: combo & 1 != 0,
                call_aware_kills: combo & 2 != 0,
                guard_motion: combo & 4 != 0,
                ..Default::default()
            };
            let mut far = m.clone();
            let report = TrackFmCompiler::new(opts).compile(&mut far, None);
            // Static: full-precision lint, regardless of transform flags.
            assert!(
                trackfm_suite::compiler::lint_module(&far).is_empty(),
                "case {case} combo {combo:03b}: lint must pass"
            );
            // Dynamic: the sanitizer checks custody on the taken path.
            let (got, stats) = run_trackfm_sanitized(&far, a, b);
            let cyc = stats.cycles;
            assert_eq!(
                got, want,
                "case {case} combo {combo:03b}: result differs from the LocalMem oracle"
            );
            if combo == 0 {
                all_off_cycles = cyc;
            } else {
                assert!(
                    cyc <= all_off_cycles,
                    "case {case} combo {combo:03b}: cycles increased \
                     ({all_off_cycles} -> {cyc})"
                );
            }
            guard_calls[combo as usize] = stats.total_guards() + stats.custody_exits;
            if combo & 4 != 0 {
                let off = guard_calls[(combo & !4) as usize];
                assert!(
                    guard_calls[combo as usize] <= off,
                    "case {case} combo {combo:03b}: guard motion added guard calls \
                     ({off} -> {})",
                    guard_calls[combo as usize]
                );
            }
            total_hoisted += report.motion.hoisted;
            total_spans += report.motion.sites.iter().filter(|s| s.span > 0).count();
            guards_by_combo[combo as usize] = report.total_guards();
            elided_by_combo[combo as usize] = report.elision.eliminated;
        }
        if guards_by_combo[1] < guards_by_combo[0] {
            interproc_elided_guards = true;
        }
        if elided_by_combo[2] > elided_by_combo[0] {
            call_aware_extra_elision = true;
        }
    }
    assert!(total_hoisted > 0, "guard motion must fire in the corpus");
    assert!(total_spans > 0, "span-guard motion must fire in the corpus");
    assert!(
        interproc_elided_guards,
        "interproc classification must skip guards somewhere in the corpus"
    );
    assert!(
        call_aware_extra_elision,
        "call-aware kills must enable extra elision somewhere in the corpus"
    );
}

/// One operation of the loop-nest generator: the base ops plus loop nests
/// shaped like analytics Q4 — an inner loop over `scratch[s..s+len]` whose
/// start `s` is read from `scratch[g]` on each outer iteration `g` — the
/// shape chunk-stream motion hoists, with payload bits that plant each of
/// the hazards that must keep the inner stream where it is.
#[derive(Clone, Debug)]
enum NestOp {
    Base(Op),
    /// `(outer trip, inner length, flags)`: flags bit 0 makes the inner
    /// loop write `scratch`; bits 1..4 pick the outer body's extra: none
    /// (0–2), a pure helper call (3), an allocating helper call (4), a
    /// conditional inner loop (5), an inner base that moves with `g` (6),
    /// or a sibling loop (7).
    Nest(u8, u8, u8),
    /// `(start, len, flags)`: a write-only fill `p[i] = v + i` over `i` in
    /// `0..n` from the unaligned base `p = &scratch[start % 8]`, covering
    /// `len % 25` words — 0 to 3 of the 64-byte objects the runs use. Flag
    /// bit 0 makes the store conditional; bit 1 adds an early exit at
    /// `i == n / 2`, before the store; bit 2 adds a sibling stream reading
    /// `p[i + 1]` from the same buffer; bit 3 fills 4-byte elements.
    Fill(u8, u8, u8),
}

fn random_nest_op(rng: &mut SplitMix64) -> NestOp {
    let b8 = |rng: &mut SplitMix64| rng.next_u64() as u8;
    match rng.next_below(3) {
        0 => NestOp::Base(random_op(rng)),
        _ => NestOp::Nest(b8(rng), b8(rng), b8(rng)),
    }
}

/// [`random_nest_op`] with fill loops mixed in: the overwrite-stream sweep.
fn random_fill_op(rng: &mut SplitMix64) -> NestOp {
    let b8 = |rng: &mut SplitMix64| rng.next_u64() as u8;
    match rng.next_below(2) {
        0 => random_nest_op(rng),
        _ => NestOp::Fill(b8(rng), b8(rng), b8(rng)),
    }
}

/// Words of `scratch` the fill loops need: an unaligned start of up to 7
/// words, 24 words of fill and the sibling stream's one word past it.
const FILL_SLOTS: usize = 32;

/// Emits one [`NestOp::Fill`] loop; returns its stack accumulator's final
/// value (the sibling stream's reads, folded in).
fn build_fill(
    b: &mut FunctionBuilder<'_>,
    scratch: Value,
    acc: Value,
    v: Value,
    (start, len, flags): (u8, u8, u8),
) -> Value {
    let narrow = flags & 8 != 0;
    let (scale, ty, per_word) = if narrow {
        (4, Type::I32, 2)
    } else {
        (8, Type::I64, 1)
    };
    let off = b.iconst(Type::I64, i64::from(start % 8) * per_word);
    let p = b.gep(scratch, off, scale, 0);
    let sib = b.gep(scratch, off, scale, i64::from(scale));
    let n = b.iconst(Type::I64, i64::from(len % 25) * per_word);
    let zero = b.iconst(Type::I64, 0);
    let pre = b.current_block();
    let (header, body, exit) = (b.create_block(), b.create_block(), b.create_block());
    b.br(header);
    b.switch_to_block(header);
    let i = b.phi(Type::I64, &[(pre, zero)]);
    let more = b.icmp(CmpOp::Slt, i, n);
    b.cond_br(more, body, exit);
    b.switch_to_block(body);
    if flags & 2 != 0 {
        let two = b.iconst(Type::I64, 2);
        let half = b.binop(BinOp::Sdiv, n, two);
        let at = b.icmp(CmpOp::Eq, i, half);
        let go_on = b.create_block();
        b.cond_br(at, exit, go_on);
        b.switch_to_block(go_on);
    }
    if flags & 4 != 0 {
        let a = b.gep(sib, i, scale, 0);
        let x = b.load(ty, a);
        let x = if narrow {
            b.cast(CastOp::Sext, x, Type::I64)
        } else {
            x
        };
        let cur = b.load(Type::I64, acc);
        let nxt = b.binop(BinOp::Add, cur, x);
        b.store(acc, nxt);
    }
    let a = b.gep(p, i, scale, 0);
    let y = b.binop(BinOp::Add, v, i);
    let y = if narrow {
        b.cast(CastOp::Trunc, y, Type::I32)
    } else {
        y
    };
    if flags & 1 != 0 {
        let x = b.binop(BinOp::Xor, i, v);
        let one = b.iconst(Type::I64, 1);
        let bit = b.binop(BinOp::And, x, one);
        let (then_bb, join) = (b.create_block(), b.create_block());
        b.cond_br(bit, then_bb, join);
        b.switch_to_block(then_bb);
        b.store(a, y);
        b.br(join);
        b.switch_to_block(join);
    } else {
        b.store(a, y);
    }
    let latch = b.current_block();
    let one = b.iconst(Type::I64, 1);
    let i2 = b.binop(BinOp::Add, i, one);
    b.add_phi_incoming(i, latch, i2);
    b.br(header);
    b.switch_to_block(exit);
    b.load(Type::I64, acc)
}

/// [`build`]'s loop-nest sibling: `main` plus a pure helper and an
/// allocating one. Every nest sums (or bumps) an in-bounds run of the
/// 16-slot `scratch` buffer into a stack accumulator.
fn build_nests(ops: &[NestOp], seed: i64) -> Module {
    let mut m = Module::new("rand_nest");
    let pure_fn = m.declare_function("pure", Signature::new(vec![Type::I64], Some(Type::I64)));
    {
        let mut b = FunctionBuilder::new(m.function_mut(pure_fn));
        let x = b.param(0);
        let c = b.iconst(Type::I64, seed);
        let r = b.binop(BinOp::Xor, x, c);
        b.ret(Some(r));
    }
    let killer_fn = m.declare_function("killer", Signature::new(vec![Type::I64], Some(Type::I64)));
    {
        let mut b = FunctionBuilder::new(m.function_mut(killer_fn));
        let x = b.param(0);
        let q = b.malloc_const(16);
        b.store(q, x);
        let v = b.load(Type::I64, q);
        b.intrinsic(trackfm_suite::ir::Intrinsic::Free, vec![q]);
        b.ret(Some(v));
    }
    let id = m.declare_function(
        "main",
        Signature::new(vec![Type::I64, Type::I64, Type::Ptr], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let scratch = b.param(2);
        let mut vals: Vec<Value> = vec![b.param(0), b.param(1)];
        let c = b.iconst(Type::I64, seed);
        let acc = b.alloca(8, 8);
        b.store(acc, c);
        vals.push(c);
        let pick = |vals: &[Value], n: u8| vals[n as usize % vals.len()];
        for op in ops {
            let v = match op {
                NestOp::Base(Op::Bin(o, x, y)) => {
                    let (a, bb) = (pick(&vals, *x), pick(&vals, *y));
                    b.binop(BINOPS[*o as usize % BINOPS.len()], a, bb)
                }
                NestOp::Base(Op::Cmp(o, x, y)) => {
                    let (a, bb) = (pick(&vals, *x), pick(&vals, *y));
                    b.icmp(CMPS[*o as usize % CMPS.len()], a, bb)
                }
                NestOp::Base(Op::StoreLoad(x, s) | Op::StackSlot(x, s)) => {
                    let v = pick(&vals, *x);
                    let slot = b.iconst(Type::I64, (s % 16) as i64);
                    let addr = b.gep(scratch, slot, 8, 0);
                    b.store(addr, v);
                    b.load(Type::I64, addr)
                }
                NestOp::Nest(trip, len, flags) => {
                    let write = flags & 1 != 0;
                    let extra = (flags >> 1) & 7;
                    let cond = pick(&vals, *trip);
                    let zero = b.iconst(Type::I64, 0);
                    let trip = b.iconst(Type::I64, (trip % 6 + 1) as i64);
                    let len = b.iconst(Type::I64, (len % 8) as i64);
                    b.counted_loop(zero, trip, 1, |b, g| {
                        // s = scratch[g] & 7: the inner run stays inside
                        // the buffer whatever the slot holds.
                        let ga = b.gep(scratch, g, 8, 0);
                        let raw = b.load(Type::I64, ga);
                        let seven = b.iconst(Type::I64, 7);
                        let start = b.binop(BinOp::And, raw, seven);
                        let end = b.binop(BinOp::Add, start, len);
                        let base = if extra == 6 {
                            let one = b.iconst(Type::I64, 1);
                            let shift = b.binop(BinOp::And, g, one);
                            b.gep(scratch, shift, 8, 0)
                        } else {
                            scratch
                        };
                        match extra {
                            3 => {
                                b.call(pure_fn, vec![g], Some(Type::I64));
                            }
                            4 => {
                                b.call(killer_fn, vec![g], Some(Type::I64));
                            }
                            7 => {
                                let z = b.iconst(Type::I64, 0);
                                let four = b.iconst(Type::I64, 4);
                                b.counted_loop(z, four, 1, |b, i| {
                                    let a = b.gep(scratch, i, 8, 0);
                                    let x = b.load(Type::I64, a);
                                    let cur = b.load(Type::I64, acc);
                                    let nxt = b.binop(BinOp::Add, cur, x);
                                    b.store(acc, nxt);
                                });
                            }
                            _ => {}
                        }
                        let join = b.create_block();
                        if extra == 5 {
                            let one = b.iconst(Type::I64, 1);
                            let bit = b.binop(BinOp::And, cond, one);
                            let then_bb = b.create_block();
                            b.cond_br(bit, then_bb, join);
                            b.switch_to_block(then_bb);
                        }
                        b.counted_loop(start, end, 1, |b, r| {
                            let a = b.gep(base, r, 8, 0);
                            let x = b.load(Type::I64, a);
                            let cur = b.load(Type::I64, acc);
                            let nxt = b.binop(BinOp::Add, cur, x);
                            b.store(acc, nxt);
                            if write {
                                b.store(a, nxt);
                            }
                        });
                        b.br(join);
                        b.switch_to_block(join);
                    });
                    b.load(Type::I64, acc)
                }
                NestOp::Fill(start, len, flags) => {
                    let v = pick(&vals, start ^ flags);
                    build_fill(&mut b, scratch, acc, v, (*start, *len, *flags))
                }
            };
            vals.push(v);
        }
        let last = *vals.last().unwrap();
        b.ret(Some(last));
    }
    m
}

/// The chunk-stream-motion gate. Over 200 seeded loop-nest programs,
/// `stream_motion` off and on each:
///
/// * passes the static lint and runs clean under the guard sanitizer;
/// * returns the bit-identical result of a [`LocalMem`] oracle run;
///
/// and motion never pays more locality-invariant guards than the paper's
/// placement. The motion must also fire somewhere in the corpus.
#[test]
fn stream_motion_on_and_off_agree_on_random_corpus() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_000C);
    let mut total_hoisted = 0usize;
    for case in 0..200 {
        let ops: Vec<NestOp> = (0..rng.next_range(1, 9))
            .map(|_| random_nest_op(&mut rng))
            .collect();
        let seed = rng.next_u64() as i64;
        let a = rng.next_u64();
        let b = rng.next_u64();
        let m = build_nests(&ops, seed);
        assert!(m.verify().is_ok(), "case {case}: program must verify");
        let want = run_local(&m, a, b);

        let mut locality = [0u64; 2];
        for motion in [false, true] {
            let mut far = m.clone();
            let report = TrackFmCompiler::new(trackfm_suite::compiler::CompilerOptions {
                stream_motion: motion,
                ..Default::default()
            })
            .compile(&mut far, None);
            assert!(
                trackfm_suite::compiler::lint_module(&far).is_empty(),
                "case {case} (motion={motion}): lint must pass"
            );
            let (got, stats) = run_trackfm_sanitized(&far, a, b);
            assert_eq!(
                got, want,
                "case {case} (motion={motion}): result differs from the LocalMem oracle"
            );
            locality[motion as usize] = stats.locality_guards;
            if motion {
                total_hoisted += report.chunking.streams_hoisted;
            } else {
                assert_eq!(report.chunking.streams_hoisted, 0);
            }
        }
        assert!(
            locality[1] <= locality[0],
            "case {case}: motion paid more locality guards ({} -> {})",
            locality[0],
            locality[1]
        );
    }
    assert!(total_hoisted > 0, "stream motion must fire in the corpus");
}

/// The overwrite-stream gate. Over 200 seeded programs mixing Q4-shaped
/// nests with write-only fill loops — conditional stores, early exits, a
/// sibling stream reading the same buffer, unaligned bases, 0 to 3 objects
/// — `overwrite_streams` off and on each:
///
/// * passes the static lint and runs clean under the guard sanitizer (and
///   under the runtime's own assertions: no `PARTIAL` object is evicted or
///   unpinned);
/// * returns the bit-identical result of a [`LocalMem`] oracle run;
///
/// and on never fetches more bytes than off. Claims, merges and the flag
/// must all fire somewhere in the corpus.
#[test]
fn overwrite_streams_on_and_off_agree_on_random_corpus() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_000D);
    let (mut marked, mut claims, mut merges) = (0, 0, 0);
    for case in 0..200 {
        let ops: Vec<NestOp> = (0..rng.next_range(1, 9))
            .map(|_| random_fill_op(&mut rng))
            .collect();
        let seed = rng.next_u64() as i64;
        let a = rng.next_u64();
        let b = rng.next_u64();
        let m = build_nests(&ops, seed);
        assert!(m.verify().is_ok(), "case {case}: program must verify");
        let want = run_local_slots(&m, a, b, FILL_SLOTS);

        let mut fetched = [0u64; 2];
        for overwrite in [false, true] {
            let mut far = m.clone();
            let report = TrackFmCompiler::new(trackfm_suite::compiler::CompilerOptions {
                overwrite_streams: overwrite,
                ..Default::default()
            })
            .compile(&mut far, None);
            assert!(
                trackfm_suite::compiler::lint_module(&far).is_empty(),
                "case {case} (overwrite={overwrite}): lint must pass"
            );
            let r = run_trackfm_sanitized_slots(&far, a, b, FILL_SLOTS);
            assert_eq!(
                r.ret, want,
                "case {case} (overwrite={overwrite}): result differs from the LocalMem oracle"
            );
            let rt = r.runtime.expect("far-memory run");
            fetched[overwrite as usize] = r.transfers.expect("far-memory run").bytes_fetched;
            if overwrite {
                marked += report.chunking.overwrite_streams;
                claims += rt.overwrite_claims;
                merges += rt.partial_merges;
            } else {
                assert_eq!(report.chunking.overwrite_streams, 0, "case {case}");
                assert_eq!(rt.overwrite_claims, 0, "case {case}");
            }
        }
        assert!(
            fetched[1] <= fetched[0],
            "case {case}: overwrite streams fetched more ({} -> {} bytes)",
            fetched[0],
            fetched[1]
        );
    }
    assert!(marked > 0, "overwrite streams must be marked in the corpus");
    assert!(claims > 0, "overwrite claims must fire in the corpus");
    assert!(merges > 0, "merge fetches must fire in the corpus");
}

/// Both checkers reject the same broken program: a raw dereference of a
/// heap pointer that never passed through a guard is a static lint error
/// *and* a dynamic sanitizer trap.
#[test]
fn lint_and_sanitizer_both_reject_unguarded_access() {
    use trackfm_suite::sim::Trap;

    let mut m = Module::new("bad");
    let id = m.declare_function(
        "main",
        Signature::new(vec![Type::I64, Type::I64, Type::Ptr], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let p = b.param(2);
        let v = b.load(Type::I64, p); // unknown-provenance deref, no guard
        b.ret(Some(v));
    }
    m.verify().unwrap();

    let errors = trackfm_suite::compiler::lint_module(&m);
    assert_eq!(errors.len(), 1, "lint must flag the raw deref: {errors:?}");
    assert!(errors[0]
        .to_string()
        .contains("never passed through a guard"));

    let cfg = FarMemoryConfig {
        heap_size: 1 << 16,
        object_size: 64,
        local_budget: 256,
        link: trackfm_suite::net::LinkParams::tcp_25g(),
        ..FarMemoryConfig::small()
    };
    let mem = TrackFmMem::new(cfg, CostModel::default());
    let mut machine = Machine::new(&m, mem, CostModel::default(), 1 << 16);
    machine.enable_guard_sanitizer();
    let scratch = machine.setup_alloc(128);
    machine.setup_write_u64s(scratch, &[0; 16]);
    machine.finish_setup(false);
    match machine.run("main", &[0, 0, scratch]) {
        Err(Trap::UnguardedAccess { .. }) => {}
        other => panic!("sanitizer should trap the unguarded deref, got {other:?}"),
    }
}

/// Runs `m` under far memory on the given engine, returning the outcome
/// and the machine's final clock (observable even when the run traps —
/// that's what makes the fuel-lockstep sweep below possible).
fn exec_far_engine(
    m: &Module,
    engine: trackfm_suite::sim::ExecEngine,
    a: u64,
    b: u64,
    sanitize: bool,
    fuel: u64,
) -> (
    Result<trackfm_suite::sim::RunResult, trackfm_suite::sim::Trap>,
    u64,
) {
    let cfg = FarMemoryConfig {
        heap_size: 1 << 16,
        object_size: 64,
        local_budget: 256,
        link: trackfm_suite::net::LinkParams::tcp_25g(),
        ..FarMemoryConfig::small()
    };
    let mem = TrackFmMem::new(cfg, CostModel::default());
    let mut machine = Machine::new(m, mem, CostModel::default(), 1 << 16);
    machine.set_engine(engine);
    machine.set_fuel(fuel);
    if sanitize {
        machine.enable_guard_sanitizer();
    }
    let scratch = machine.setup_alloc(128);
    machine.setup_write_u64s(scratch, &[0; 16]);
    machine.finish_setup(true);
    let r = machine.run("main", &[a, b, scratch]);
    let clock = machine.clock();
    (r, clock)
}

/// Asserts the two engines produced bit-identical outcomes: same
/// result-or-trap (including trap positions), same full [`ExecStats`]
/// (cycles, instructions, loads/stores, every guard counter, stalls), and
/// the same final clock.
#[allow(clippy::type_complexity)]
fn assert_engines_identical(
    ctx: &str,
    tw: (
        Result<trackfm_suite::sim::RunResult, trackfm_suite::sim::Trap>,
        u64,
    ),
    bc: (
        Result<trackfm_suite::sim::RunResult, trackfm_suite::sim::Trap>,
        u64,
    ),
) {
    match (&tw.0, &bc.0) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.ret, y.ret, "{ctx}: results differ");
            assert_eq!(x.stats, y.stats, "{ctx}: exec stats differ");
            assert_eq!(x.runtime, y.runtime, "{ctx}: runtime stats differ");
            assert_eq!(x.transfers, y.transfers, "{ctx}: transfer ledgers differ");
            assert_eq!(
                y.engine.dispatched_insts, y.stats.instructions,
                "{ctx}: bytecode must dispatch every retired instruction"
            );
            assert_eq!(
                x.engine,
                Default::default(),
                "{ctx}: tree-walk engine counters must stay zero"
            );
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "{ctx}: traps differ"),
        _ => panic!(
            "{ctx}: engines disagree on outcome: {:?} vs {:?}",
            tw.0, bc.0
        ),
    }
    assert_eq!(tw.1, bc.1, "{ctx}: final clocks differ");
}

/// The differential engine sweep: over the 200-seed corpus (both the
/// single-function and the interprocedural generator), the tree-walker and
/// the bytecode engine must agree on result, trap, cycle count, and
/// sanitizer verdict — and, via a per-instruction fuel lockstep, at *every
/// instruction boundary*: truncating both engines after exactly k retired
/// instructions must leave them at the same clock with the same trap.
#[test]
fn engines_agree_on_random_corpus_in_lockstep() {
    use trackfm_suite::sim::ExecEngine;
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0010);
    for case in 0..200 {
        let (m, a, b) = if case % 2 == 0 {
            let ops: Vec<Op> = (0..rng.next_range(1, 31))
                .map(|_| random_op(&mut rng))
                .collect();
            let seed = rng.next_u64() as i64;
            (build(&ops, seed), rng.next_u64(), rng.next_u64())
        } else {
            let ops: Vec<ExtOp> = (0..rng.next_range(1, 25))
                .map(|_| random_ext_op(&mut rng))
                .collect();
            let seed = rng.next_u64() as i64;
            (build_interproc(&ops, seed), rng.next_u64(), rng.next_u64())
        };
        let mut far = m.clone();
        TrackFmCompiler::default().compile(&mut far, None);

        // Full runs, sanitizer off and on: result, stats, cycles, verdict.
        for sanitize in [false, true] {
            let tw = exec_far_engine(&far, ExecEngine::TreeWalk, a, b, sanitize, u64::MAX);
            let bc = exec_far_engine(&far, ExecEngine::Bytecode, a, b, sanitize, u64::MAX);
            assert_engines_identical(&format!("case {case} sanitize={sanitize}"), tw, bc);
        }

        // Per-instruction lockstep on a deterministic subset: truncate both
        // engines at instruction k via the fuel limit and compare the
        // partial timelines. Identical clocks at every probed k means the
        // engines charge cycles in the same per-instruction order, not just
        // to the same total.
        if case % 10 == 0 {
            let (full, _) = exec_far_engine(&far, ExecEngine::TreeWalk, a, b, false, u64::MAX);
            let retired = full.as_ref().map(|r| r.stats.instructions).unwrap_or(64);
            for k in [
                1,
                2,
                3,
                5,
                retired / 3,
                retired / 2,
                retired.saturating_sub(1),
            ] {
                let k = k.max(1);
                let tw = exec_far_engine(&far, ExecEngine::TreeWalk, a, b, false, k);
                let bc = exec_far_engine(&far, ExecEngine::Bytecode, a, b, false, k);
                assert_engines_identical(&format!("case {case} fuel={k}"), tw, bc);
            }
        }
    }
}

/// Both engines resolve the same source position into
/// [`Trap::UnguardedAccess`]: the tree-walker reads it off the instruction
/// it is visiting, the bytecode engine maps the faulting pc back through
/// its side table — the messages must match byte for byte.
#[test]
fn engines_report_identical_sanitizer_trap_positions() {
    use trackfm_suite::sim::{ExecEngine, Trap};

    let mut m = Module::new("bad");
    let id = m.declare_function(
        "main",
        Signature::new(vec![Type::I64, Type::I64, Type::Ptr], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let p = b.param(2);
        let v = b.load(Type::I64, p); // unguarded heap deref
        b.ret(Some(v));
    }
    m.verify().unwrap();
    let tw = exec_far_engine(&m, ExecEngine::TreeWalk, 0, 0, true, u64::MAX);
    let bc = exec_far_engine(&m, ExecEngine::Bytecode, 0, 0, true, u64::MAX);
    let (t1, t2) = (tw.0.unwrap_err(), bc.0.unwrap_err());
    assert!(matches!(t1, Trap::UnguardedAccess { .. }), "{t1:?}");
    assert_eq!(t1, t2, "trap payloads (incl. positions) must match");
    assert_eq!(t1.to_string(), t2.to_string());
    assert!(
        t1.to_string().contains("bb0 %3"),
        "position should point at the load: {t1}"
    );
}

/// The static trip-count analysis must agree with the interpreter:
/// for random (init, bound, step) counted loops, `static_trip_count`
/// equals the number of body executions observed by the profiler.
#[test]
fn static_trip_count_matches_execution() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0002);
    for _ in 0..48 {
        let init = rng.next_range(-50, 49);
        let bound = rng.next_range(-50, 199);
        let step = rng.next_range(1, 8);
        use trackfm_suite::analysis::dom::DomTree;
        use trackfm_suite::analysis::induction::{basic_ivs, static_trip_count};
        use trackfm_suite::analysis::loops::LoopForest;

        let mut m = Module::new("tc");
        let id = m.declare_function("main", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let i0 = b.iconst(Type::I64, init);
            let n = b.iconst(Type::I64, bound);
            b.counted_loop(i0, n, step, |_b, _i| {});
            let z = b.iconst(Type::I64, 0);
            b.ret(Some(z));
        }
        m.verify().unwrap();

        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        assert_eq!(forest.loops.len(), 1);
        let ivs = basic_ivs(f, &forest.loops[0]);
        let predicted = static_trip_count(f, &forest.loops[0], &ivs);

        let mut machine = Machine::new(&m, LocalMem::new(1 << 12), CostModel::default(), 1 << 12);
        machine.enable_profiling();
        machine.run("main", &[]).unwrap();
        let profile = machine.take_profile();
        let body = forest.loops[0].latches[0];
        let executed = profile.block_count("main", body);

        match predicted {
            Some(t) => assert_eq!(t, executed, "static vs dynamic trip count"),
            None => assert_eq!(executed, 0, "analysis only bails on zero-trip loops"),
        }
    }
}
