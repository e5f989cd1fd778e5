//! Functions and basic blocks.

use crate::{BlockId, FuncId, InstRef};
use og_isa::{Inst, Op, Target};
use serde::{Deserialize, Serialize};

/// A basic block: straight-line instructions ended by exactly one
/// terminator (`br`, conditional branch, `ret` or `halt`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Human-readable label (unique within the function).
    pub label: String,
    /// The instructions, terminator last.
    pub insts: Vec<Inst>,
}

impl Block {
    /// Create an empty block with the given label.
    pub fn new(label: impl Into<String>) -> Block {
        Block { label: label.into(), insts: Vec::new() }
    }

    /// The terminator instruction, if the block is non-empty and ends with
    /// one.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.op.is_terminator())
    }

    /// Same label and, position by position, instructions that differ
    /// at most in their width (see [`crate::Program::eq_ignoring_widths`]).
    pub(crate) fn eq_ignoring_widths(&self, other: &Block) -> bool {
        let Block { label, insts } = self;
        *label == other.label
            && insts.len() == other.insts.len()
            && insts.iter().zip(&other.insts).all(|(a, b)| Inst { width: b.width, ..*a } == *b)
    }

    /// Successor block ids (empty for `ret`/`halt`).
    pub fn successors(&self) -> Vec<BlockId> {
        self.terminator()
            .map_or_else(Vec::new, |t| t.successors().into_iter().map(BlockId).collect())
    }
}

/// A function: a list of basic blocks with a designated entry block.
///
/// Arguments arrive in `a0`–`a5` and the result is returned in `v0`,
/// following the Alpha C calling convention described at [`og_isa::Reg`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// This function's id within its program.
    pub id: FuncId,
    /// Name (unique within the program).
    pub name: String,
    /// Basic blocks; `BlockId` indexes into this vector.
    pub blocks: Vec<Block>,
    /// The entry block (always `BlockId(0)` for built programs).
    pub entry: BlockId,
    /// Number of register arguments (0..=6).
    pub n_args: u8,
    /// Does the function produce a value in `v0`?
    pub returns_value: bool,
}

impl Function {
    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[inline]
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[inline]
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.index()]
    }

    /// The instruction at `r` (which must refer to this function).
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    #[inline]
    pub fn inst(&self, r: InstRef) -> &Inst {
        debug_assert_eq!(r.func, self.id);
        &self.block(r.block).insts[r.idx as usize]
    }

    /// Mutable access to the instruction at `r`.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    #[inline]
    pub fn inst_mut(&mut self, r: InstRef) -> &mut Inst {
        debug_assert_eq!(r.func, self.id);
        let fid = self.id;
        let _ = fid;
        &mut self.block_mut(r.block).insts[r.idx as usize]
    }

    /// Iterate over all block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Iterate over `(InstRef, &Inst)` for every instruction.
    pub fn insts(&self) -> impl Iterator<Item = (InstRef, &Inst)> {
        let fid = self.id;
        self.blocks.iter().enumerate().flat_map(move |(bi, b)| {
            b.insts
                .iter()
                .enumerate()
                .map(move |(ii, inst)| (InstRef::new(fid, BlockId(bi as u32), ii as u32), inst))
        })
    }

    /// Total number of instructions.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Ids of functions called directly by this function.
    pub fn callees(&self) -> Vec<FuncId> {
        let mut out = Vec::new();
        for (_, i) in self.insts() {
            if i.op == Op::Jsr {
                if let Target::Func(fid) = i.target {
                    if !out.contains(&FuncId(fid)) {
                        out.push(FuncId(fid));
                    }
                }
            }
        }
        out
    }

    /// Equal to `other` in every field and block, instruction widths
    /// aside: the same blocks, labels and instructions, where two
    /// instructions may differ only in [`Inst::width`]. See
    /// [`crate::Program::eq_ignoring_widths`] for what that buys.
    pub fn eq_ignoring_widths(&self, other: &Function) -> bool {
        let Function { id, name, blocks, entry, n_args, returns_value } = self;
        *id == other.id
            && *name == other.name
            && *entry == other.entry
            && *n_args == other.n_args
            && *returns_value == other.returns_value
            && blocks.len() == other.blocks.len()
            && blocks.iter().zip(&other.blocks).all(|(a, b)| a.eq_ignoring_widths(b))
    }

    /// Append a new block and return its id.
    pub fn push_block(&mut self, block: Block) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(block);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::{Cond, Reg, Width};

    fn sample() -> Function {
        let mut f = Function {
            id: FuncId(0),
            name: "f".into(),
            blocks: vec![],
            entry: BlockId(0),
            n_args: 1,
            returns_value: true,
        };
        let mut b0 = Block::new("entry");
        b0.insts.push(Inst::ldi(Reg::T0, 1));
        b0.insts.push(Inst::bc(Cond::Ne, Reg::T0, 1, 2));
        f.push_block(b0);
        let mut b1 = Block::new("then");
        b1.insts.push(Inst::br(2));
        f.push_block(b1);
        let mut b2 = Block::new("exit");
        b2.insts.push(Inst::out(Width::B, Reg::T0));
        b2.insts.push(Inst::ret());
        f.push_block(b2);
        f
    }

    #[test]
    fn successors_from_terminators() {
        let f = sample();
        assert_eq!(f.block(BlockId(0)).successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(f.block(BlockId(1)).successors(), vec![BlockId(2)]);
        assert!(f.block(BlockId(2)).successors().is_empty());
    }

    #[test]
    fn inst_iteration_and_lookup() {
        let f = sample();
        assert_eq!(f.inst_count(), 5);
        let refs: Vec<_> = f.insts().map(|(r, _)| r).collect();
        assert_eq!(refs[0], InstRef::new(FuncId(0), BlockId(0), 0));
        assert_eq!(f.inst(refs[3]).op, og_isa::Op::Out);
    }

    #[test]
    fn terminator_detection() {
        let f = sample();
        assert!(f.block(BlockId(0)).terminator().is_some());
        let empty = Block::new("x");
        assert!(empty.terminator().is_none());
    }

    #[test]
    fn callees_deduplicated() {
        let mut f = sample();
        f.blocks[1].insts.insert(0, Inst::jsr(5));
        f.blocks[1].insts.insert(1, Inst::jsr(5));
        f.blocks[1].insts.insert(2, Inst::jsr(6));
        assert_eq!(f.callees(), vec![FuncId(5), FuncId(6)]);
    }
}
