//! Functions: SSA instruction arenas organized into basic blocks.

use crate::entities::{Block, Value};
use crate::inst::InstKind;
use crate::types::Type;

/// A function signature: parameter types and an optional return type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signature {
    /// Parameter types, in order.
    pub params: Vec<Type>,
    /// Return type, or `None` for `void`.
    pub ret: Option<Type>,
}

impl Signature {
    /// Creates a signature.
    pub fn new(params: Vec<Type>, ret: Option<Type>) -> Self {
        Signature { params, ret }
    }
}

/// An instruction plus its result type.
#[derive(Clone, PartialEq, Debug)]
pub struct InstData {
    /// The operation.
    pub kind: InstKind,
    /// Result type (`None` for instructions with no SSA result).
    pub ty: Option<Type>,
    /// The block currently containing this instruction. Meaningless for
    /// [`InstKind::Nop`] tombstones.
    pub block: Block,
}

/// A basic block: an ordered list of instruction ids ending in a terminator.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct BlockData {
    /// Ordered instructions; the last one must be a terminator once the
    /// function is complete.
    pub insts: Vec<Value>,
}

/// A function in SSA form.
///
/// Instructions live in a stable arena; [`Value`] ids never move, which lets
/// passes hold references across mutations. Deleting an instruction leaves a
/// [`InstKind::Nop`] tombstone in the arena and removes it from its block's
/// order. Function parameters are materialized as [`InstKind::Param`]
/// instructions at the head of the entry block, so all SSA values are
/// instruction ids.
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    /// Symbolic name (unique within a module).
    pub name: String,
    /// The signature.
    pub sig: Signature,
    insts: Vec<InstData>,
    blocks: Vec<BlockData>,
    entry: Block,
}

impl Function {
    /// Creates an empty function with an entry block containing the
    /// parameter pseudo-instructions.
    pub fn new(name: impl Into<String>, sig: Signature) -> Self {
        let mut f = Function {
            name: name.into(),
            sig: sig.clone(),
            insts: Vec::new(),
            blocks: vec![BlockData::default()],
            entry: Block(0),
        };
        for (i, ty) in sig.params.iter().enumerate() {
            let v = f.push_inst(
                Block(0),
                InstData {
                    kind: InstKind::Param(i as u16),
                    ty: Some(*ty),
                    block: Block(0),
                },
            );
            debug_assert_eq!(v.index(), i);
        }
        f
    }

    /// The entry block.
    #[inline]
    pub fn entry_block(&self) -> Block {
        self.entry
    }

    /// The `n`-th parameter's SSA value.
    ///
    /// # Panics
    /// Panics if `n` is out of range.
    #[inline]
    pub fn param(&self, n: usize) -> Value {
        assert!(n < self.sig.params.len(), "parameter index out of range");
        Value::from_index(n)
    }

    /// Number of instruction slots in the arena (including tombstones).
    #[inline]
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Number of live (non-tombstone) instructions.
    pub fn num_live_insts(&self) -> usize {
        self.insts
            .iter()
            .filter(|d| !matches!(d.kind, InstKind::Nop))
            .count()
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterator over all block ids.
    pub fn blocks(&self) -> impl Iterator<Item = Block> + '_ {
        (0..self.blocks.len()).map(Block::from_index)
    }

    /// Creates a new, empty block.
    pub fn create_block(&mut self) -> Block {
        let b = Block::from_index(self.blocks.len());
        self.blocks.push(BlockData::default());
        b
    }

    /// Instruction data for a value.
    #[inline]
    pub fn inst(&self, v: Value) -> &InstData {
        &self.insts[v.index()]
    }

    /// Mutable instruction data for a value.
    #[inline]
    pub fn inst_mut(&mut self, v: Value) -> &mut InstData {
        &mut self.insts[v.index()]
    }

    /// Instruction kind for a value.
    #[inline]
    pub fn kind(&self, v: Value) -> &InstKind {
        &self.insts[v.index()].kind
    }

    /// Result type of a value.
    #[inline]
    pub fn ty(&self, v: Value) -> Option<Type> {
        self.insts[v.index()].ty
    }

    /// The byte length of a span guard (`tfm.guard.read|write(p, len)`
    /// with a constant `len`); `None` for plain guards and every other
    /// instruction.
    pub fn guard_span(&self, v: Value) -> Option<u64> {
        match self.kind(v) {
            InstKind::IntrinsicCall { intr, args } if intr.is_guard() && args.len() == 2 => {
                match self.kind(args[1]) {
                    InstKind::ConstInt(len) => Some(*len as u64),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// The ordered instruction list of a block.
    #[inline]
    pub fn block_insts(&self, b: Block) -> &[Value] {
        &self.blocks[b.index()].insts
    }

    /// The block's terminator, if the block is non-empty and terminated.
    pub fn terminator(&self, b: Block) -> Option<Value> {
        self.blocks[b.index()]
            .insts
            .last()
            .copied()
            .filter(|v| self.kind(*v).is_terminator())
    }

    /// Appends an instruction to the end of `block`, returning its value id.
    pub fn push_inst(&mut self, block: Block, mut data: InstData) -> Value {
        data.block = block;
        let v = Value::from_index(self.insts.len());
        self.insts.push(data);
        self.blocks[block.index()].insts.push(v);
        v
    }

    /// Inserts a new instruction immediately before `before` in its block.
    ///
    /// # Panics
    /// Panics if `before` is not present in its recorded block.
    pub fn insert_before(&mut self, before: Value, mut data: InstData) -> Value {
        let block = self.insts[before.index()].block;
        data.block = block;
        let v = Value::from_index(self.insts.len());
        self.insts.push(data);
        let list = &mut self.blocks[block.index()].insts;
        let pos = list
            .iter()
            .position(|&x| x == before)
            .expect("anchor instruction not in its block");
        list.insert(pos, v);
        v
    }

    /// Inserts a new instruction immediately after `after` in its block.
    ///
    /// # Panics
    /// Panics if `after` is not present in its recorded block.
    pub fn insert_after(&mut self, after: Value, mut data: InstData) -> Value {
        let block = self.insts[after.index()].block;
        data.block = block;
        let v = Value::from_index(self.insts.len());
        self.insts.push(data);
        let list = &mut self.blocks[block.index()].insts;
        let pos = list
            .iter()
            .position(|&x| x == after)
            .expect("anchor instruction not in its block");
        list.insert(pos + 1, v);
        v
    }

    /// Inserts a new instruction at the front of a block, after any leading
    /// phis (and after parameters in the entry block).
    pub fn insert_at_block_start(&mut self, block: Block, mut data: InstData) -> Value {
        data.block = block;
        let v = Value::from_index(self.insts.len());
        self.insts.push(data);
        let pos = self.blocks[block.index()]
            .insts
            .iter()
            .position(|&x| {
                !matches!(
                    self.insts[x.index()].kind,
                    InstKind::Phi(_) | InstKind::Param(_)
                )
            })
            .unwrap_or(self.blocks[block.index()].insts.len());
        self.blocks[block.index()].insts.insert(pos, v);
        v
    }

    /// Moves an existing instruction to sit immediately before `anchor`
    /// (possibly in a different block). Used by code motion (LICM).
    ///
    /// # Panics
    /// Panics if either instruction is not present in its recorded block.
    pub fn move_inst_before(&mut self, v: Value, anchor: Value) {
        let old_block = self.insts[v.index()].block;
        let list = &mut self.blocks[old_block.index()].insts;
        let pos = list
            .iter()
            .position(|&x| x == v)
            .expect("moved instruction not in its block");
        list.remove(pos);
        let new_block = self.insts[anchor.index()].block;
        let list = &mut self.blocks[new_block.index()].insts;
        let pos = list
            .iter()
            .position(|&x| x == anchor)
            .expect("anchor instruction not in its block");
        list.insert(pos, v);
        self.insts[v.index()].block = new_block;
    }

    /// Removes an instruction from its block, leaving a tombstone in the
    /// arena. Uses of the value are NOT rewritten; callers must have replaced
    /// them first (or know the value is unused).
    pub fn remove_inst(&mut self, v: Value) {
        let block = self.insts[v.index()].block;
        let list = &mut self.blocks[block.index()].insts;
        if let Some(pos) = list.iter().position(|&x| x == v) {
            list.remove(pos);
        }
        self.insts[v.index()].kind = InstKind::Nop;
        self.insts[v.index()].ty = None;
    }

    /// Replaces every use of `old` with `new` across the whole function.
    pub fn replace_all_uses(&mut self, old: Value, new: Value) {
        for data in &mut self.insts {
            data.kind.for_each_operand_mut(|op| {
                if *op == old {
                    *op = new;
                }
            });
        }
    }

    /// Predecessor blocks of `b` (derived from terminators; O(blocks)).
    pub fn preds(&self, b: Block) -> Vec<Block> {
        let mut out = Vec::new();
        for p in self.blocks() {
            if let Some(t) = self.terminator(p) {
                if self.kind(t).successors().contains(&b) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// Successor blocks of `b`.
    pub fn succs(&self, b: Block) -> Vec<Block> {
        self.terminator(b)
            .map(|t| self.kind(t).successors())
            .unwrap_or_default()
    }

    /// Adds an incoming edge to a phi instruction.
    ///
    /// # Panics
    /// Panics if `phi` is not a phi instruction.
    pub fn add_phi_incoming(&mut self, phi: Value, pred: Block, val: Value) {
        match &mut self.insts[phi.index()].kind {
            InstKind::Phi(incs) => incs.push((pred, val)),
            _ => panic!("{phi} is not a phi"),
        }
    }

    /// Rewrites phi predecessor labels in `b` from `old_pred` to `new_pred`
    /// (used when splitting edges / inserting preheaders).
    pub fn redirect_phi_pred(&mut self, b: Block, old_pred: Block, new_pred: Block) {
        for &v in self.blocks[b.index()].insts.clone().iter() {
            if let InstKind::Phi(incs) = &mut self.insts[v.index()].kind {
                for (p, _) in incs.iter_mut() {
                    if *p == old_pred {
                        *p = new_pred;
                    }
                }
            }
        }
    }

    /// Deletes block `b`, which must be empty and unreferenced (no branch
    /// targets it, no phi names it). Every later block's id shifts down by
    /// one; instruction `Value` ids are unchanged.
    ///
    /// # Panics
    /// Panics if `b` is the entry block or still holds instructions.
    pub fn remove_block(&mut self, b: Block) {
        assert!(b != self.entry, "cannot remove the entry block");
        assert!(
            self.blocks[b.index()].insts.is_empty(),
            "{b} still holds instructions"
        );
        self.blocks.remove(b.index());
        let shift = |x: &mut Block| {
            if x.index() > b.index() {
                *x = Block(x.0 - 1);
            }
        };
        shift(&mut self.entry);
        for data in &mut self.insts {
            shift(&mut data.block);
            data.kind.for_each_successor_mut(shift);
            if let InstKind::Phi(incs) = &mut data.kind {
                for (p, _) in incs {
                    shift(p);
                }
            }
        }
    }

    /// Merges straight-line block `b` into `a`.
    ///
    /// The caller must guarantee: `a` ends in `br b`, `a` is `b`'s only
    /// predecessor, and `b` carries no phis. `a`'s branch is deleted, `b`'s
    /// instructions are appended to `a`, and phi labels in `b`'s successors
    /// are rewritten from `b` to `a`. `b` is left empty (unreachable).
    ///
    /// # Panics
    /// Panics if `a` does not end in `br b`.
    pub fn merge_straightline(&mut self, a: Block, b: Block) {
        let term = self.terminator(a).expect("a must be terminated");
        assert!(
            matches!(self.kind(term), InstKind::Br(t) if *t == b),
            "{a} must end in `br {b}`"
        );
        self.remove_inst(term);
        let moved = std::mem::take(&mut self.blocks[b.index()].insts);
        for &v in &moved {
            self.insts[v.index()].block = a;
        }
        self.blocks[a.index()].insts.extend_from_slice(&moved);
        for s in self.succs(a) {
            self.redirect_phi_pred(s, b, a);
        }
    }

    /// All live instruction values in block order (entry first, then the
    /// remaining blocks in id order).
    pub fn live_insts(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.insts.len());
        for b in self.blocks() {
            out.extend_from_slice(self.block_insts(b));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    fn inst(kind: InstKind, ty: Option<Type>) -> InstData {
        InstData {
            kind,
            ty,
            block: Block(0),
        }
    }

    fn simple_fn() -> Function {
        Function::new(
            "f",
            Signature::new(vec![Type::I64, Type::I64], Some(Type::I64)),
        )
    }

    #[test]
    fn params_are_entry_instructions() {
        let f = simple_fn();
        assert_eq!(f.param(0), Value(0));
        assert_eq!(f.param(1), Value(1));
        assert_eq!(f.block_insts(f.entry_block()), &[Value(0), Value(1)]);
        assert_eq!(f.ty(f.param(0)), Some(Type::I64));
    }

    #[test]
    #[should_panic(expected = "parameter index out of range")]
    fn param_out_of_range_panics() {
        let f = simple_fn();
        let _ = f.param(2);
    }

    #[test]
    fn push_and_terminate() {
        let mut f = simple_fn();
        let e = f.entry_block();
        let a = f.param(0);
        let b = f.param(1);
        let sum = f.push_inst(e, inst(InstKind::Binary(BinOp::Add, a, b), Some(Type::I64)));
        let r = f.push_inst(e, inst(InstKind::Ret(Some(sum)), None));
        assert_eq!(f.terminator(e), Some(r));
        assert_eq!(f.num_live_insts(), 4);
    }

    #[test]
    fn insert_before_and_after_preserve_order() {
        let mut f = simple_fn();
        let e = f.entry_block();
        let a = f.param(0);
        let add = f.push_inst(e, inst(InstKind::Binary(BinOp::Add, a, a), Some(Type::I64)));
        let pre = f.insert_before(add, inst(InstKind::ConstInt(1), Some(Type::I64)));
        let post = f.insert_after(add, inst(InstKind::ConstInt(2), Some(Type::I64)));
        let order = f.block_insts(e);
        let pi = order.iter().position(|&v| v == pre).unwrap();
        let ai = order.iter().position(|&v| v == add).unwrap();
        let qi = order.iter().position(|&v| v == post).unwrap();
        assert!(pi < ai && ai < qi);
    }

    #[test]
    fn move_inst_before_crosses_blocks() {
        let mut f = Function::new("m", Signature::new(vec![], None));
        let e = f.entry_block();
        let b2 = f.create_block();
        let c = f.push_inst(e, inst(InstKind::ConstInt(5), Some(Type::I64)));
        f.push_inst(e, inst(InstKind::Br(b2), None));
        let r = f.push_inst(b2, inst(InstKind::Ret(None), None));
        f.move_inst_before(c, r);
        assert!(!f.block_insts(e).contains(&c));
        assert_eq!(f.block_insts(b2), &[c, r]);
        assert_eq!(f.inst(c).block, b2);
    }

    #[test]
    fn remove_leaves_tombstone() {
        let mut f = simple_fn();
        let e = f.entry_block();
        let c = f.push_inst(e, inst(InstKind::ConstInt(7), Some(Type::I64)));
        assert_eq!(f.num_live_insts(), 3);
        f.remove_inst(c);
        assert_eq!(f.num_live_insts(), 2);
        assert!(matches!(f.kind(c), InstKind::Nop));
        assert!(!f.block_insts(e).contains(&c));
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let mut f = simple_fn();
        let e = f.entry_block();
        let a = f.param(0);
        let b = f.param(1);
        let add = f.push_inst(e, inst(InstKind::Binary(BinOp::Add, a, a), Some(Type::I64)));
        f.replace_all_uses(a, b);
        assert_eq!(*f.kind(add), InstKind::Binary(BinOp::Add, b, b));
    }

    #[test]
    fn preds_and_succs() {
        let mut f = Function::new("g", Signature::new(vec![], None));
        let e = f.entry_block();
        let b1 = f.create_block();
        let b2 = f.create_block();
        let cond = f.push_inst(e, inst(InstKind::ConstInt(1), Some(Type::I64)));
        f.push_inst(
            e,
            inst(
                InstKind::CondBr {
                    cond,
                    then_bb: b1,
                    else_bb: b2,
                },
                None,
            ),
        );
        f.push_inst(b1, inst(InstKind::Br(b2), None));
        f.push_inst(b2, inst(InstKind::Ret(None), None));
        assert_eq!(f.succs(e), vec![b1, b2]);
        let mut p = f.preds(b2);
        p.sort();
        assert_eq!(p, vec![e, b1]);
    }

    #[test]
    fn phi_incoming_and_redirect() {
        let mut f = Function::new("h", Signature::new(vec![], None));
        let e = f.entry_block();
        let hdr = f.create_block();
        let c = f.push_inst(e, inst(InstKind::ConstInt(0), Some(Type::I64)));
        f.push_inst(e, inst(InstKind::Br(hdr), None));
        let phi = f.push_inst(hdr, inst(InstKind::Phi(vec![(e, c)]), Some(Type::I64)));
        f.add_phi_incoming(phi, hdr, phi);
        let pre = f.create_block();
        f.redirect_phi_pred(hdr, e, pre);
        match f.kind(phi) {
            InstKind::Phi(incs) => {
                assert_eq!(incs[0].0, pre);
                assert_eq!(incs[1].0, hdr);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn remove_block_renumbers_later_blocks() {
        // `dead` is empty and unreferenced; e -> b2 -> hdr, a self-loop
        // whose phi names b2 and hdr. Both shift down one id.
        let mut f = Function::new("r", Signature::new(vec![], None));
        let e = f.entry_block();
        let dead = f.create_block();
        let b2 = f.create_block();
        let hdr = f.create_block();
        let c = f.push_inst(e, inst(InstKind::ConstInt(0), Some(Type::I64)));
        f.push_inst(e, inst(InstKind::Br(b2), None));
        f.push_inst(b2, inst(InstKind::Br(hdr), None));
        let phi = f.push_inst(hdr, inst(InstKind::Phi(vec![(b2, c)]), Some(Type::I64)));
        f.add_phi_incoming(phi, hdr, phi);
        let back = f.push_inst(hdr, inst(InstKind::Br(hdr), None));
        f.remove_block(dead);
        assert_eq!(f.num_blocks(), 3);
        let (b2, hdr) = (Block(1), Block(2));
        assert_eq!(f.succs(e), vec![b2]);
        assert_eq!(f.succs(b2), vec![hdr]);
        assert_eq!(f.inst(phi).block, hdr);
        assert_eq!(*f.kind(phi), InstKind::Phi(vec![(b2, c), (hdr, phi)]));
        assert_eq!(*f.kind(back), InstKind::Br(hdr));
        assert_eq!(f.block_insts(hdr), &[phi, back]);
    }
}
