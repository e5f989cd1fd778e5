//! The top-level [`Program`] container.

use crate::{DataSegment, FuncId, InstRef, Layout};
use og_isa::{IsaExtension, OpClass, Width};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A whole program: functions, an entry point, and a static data segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Functions; `FuncId` indexes into this vector.
    pub funcs: Vec<crate::Function>,
    /// The entry function (conventionally `main`).
    pub entry: FuncId,
    /// Static data.
    pub data: DataSegment,
}

impl Program {
    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[inline]
    pub fn func(&self, f: FuncId) -> &crate::Function {
        &self.funcs[f.index()]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[inline]
    pub fn func_mut(&mut self, f: FuncId) -> &mut crate::Function {
        &mut self.funcs[f.index()]
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<&crate::Function> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// The instruction at `r`.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    #[inline]
    pub fn inst(&self, r: InstRef) -> &og_isa::Inst {
        self.func(r.func).inst(r)
    }

    /// Mutable access to the instruction at `r`.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range.
    #[inline]
    pub fn inst_mut(&mut self, r: InstRef) -> &mut og_isa::Inst {
        self.func_mut(r.func).inst_mut(r)
    }

    /// Iterate over all function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.funcs.len() as u32).map(FuncId)
    }

    /// Iterate over `(InstRef, &Inst)` for every instruction of every
    /// function.
    pub fn insts(&self) -> impl Iterator<Item = (InstRef, &og_isa::Inst)> {
        self.funcs.iter().flat_map(|f| f.insts())
    }

    /// Total static instruction count.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.inst_count()).sum()
    }

    /// Compute the address layout (nominal 8 bytes per instruction).
    pub fn layout(&self) -> Layout {
        Layout::compute(self)
    }

    /// Static instruction statistics (per-class and per-width counts).
    pub fn static_stats(&self) -> StaticStats {
        let mut s = StaticStats::default();
        for (_, i) in self.insts() {
            s.total += 1;
            *s.by_class.entry(i.op.class()).or_insert(0) += 1;
            if i.op.class() != OpClass::Ctrl {
                s.by_width[width_index(i.width)] += 1;
            }
        }
        s
    }

    /// Widen every instruction whose width has no opcode under `ext` to the
    /// narrowest available one (§4.3: if a narrow opcode does not exist the
    /// wider variant must be used).
    ///
    /// Returns the number of instructions that were widened.
    pub fn legalize(&mut self, ext: IsaExtension) -> usize {
        let mut widened = 0;
        for f in &mut self.funcs {
            for b in &mut f.blocks {
                for i in &mut b.insts {
                    let assigned = ext.assign(i.op, i.width);
                    if assigned != i.width {
                        i.width = assigned;
                        widened += 1;
                    }
                }
            }
        }
        widened
    }

    /// Is `other` this program with at most its instruction widths
    /// changed? The same entry, data segment and functions, block for
    /// block and instruction for instruction, where two instructions may
    /// differ only in [`og_isa::Inst::width`] — what VRP rewrites. Two
    /// such programs lay out at the same addresses and run the same ops
    /// on the same registers; whether they also take the same path is a
    /// question for their values, not their code.
    pub fn eq_ignoring_widths(&self, other: &Program) -> bool {
        // Destructured so a new field cannot be silently left out.
        let Program { funcs, entry, data } = self;
        *entry == other.entry
            && funcs.len() == other.funcs.len()
            && funcs.iter().zip(&other.funcs).all(|(a, b)| a.eq_ignoring_widths(b))
            && *data == other.data
    }

    /// Verify structural invariants; see [`crate::VerifyError`].
    ///
    /// Fail-fast shim over [`Program::verify_all`] for callers that only
    /// need accept/reject.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify(&self) -> Result<(), crate::VerifyError> {
        crate::verify::verify(self)
    }

    /// Run the full verification pipeline, collecting **all** diagnostics.
    ///
    /// On success returns the [`crate::ProgramContext`] of facts the
    /// information passes established (reachability, recursion freedom,
    /// provable call-stack depth). See the `verify` module docs for the
    /// pass pipeline and the `Ok ⇒ no structural VM error` invariant.
    ///
    /// # Errors
    ///
    /// Returns every violation found, in pass order then program order.
    pub fn verify_all(&self) -> Result<crate::ProgramContext, Vec<crate::VerifyError>> {
        crate::verify::verify_all(self)
    }
}

fn width_index(w: Width) -> usize {
    match w {
        Width::B => 0,
        Width::H => 1,
        Width::W => 2,
        Width::D => 3,
    }
}

/// Static instruction statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StaticStats {
    /// Total instruction count.
    pub total: usize,
    /// Counts per operation class.
    pub by_class: HashMap<OpClass, usize>,
    /// Counts per width (indices 0..4 = 8/16/32/64 bit), control-flow
    /// instructions excluded.
    pub by_width: [usize; 4],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{imm, ProgramBuilder};
    use og_isa::{Op, Reg};

    fn two_func_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut callee = pb.function("inc", 1);
        callee.block("entry");
        callee.add(Width::W, Reg::V0, Reg::A0, imm(1));
        callee.ret();
        pb.finish(callee);
        let mut main = pb.function("main", 0);
        main.block("entry");
        main.ldi(Reg::A0, 5);
        main.jsr("inc");
        main.out(Width::B, Reg::V0);
        main.halt();
        pb.finish(main);
        pb.build().unwrap()
    }

    #[test]
    fn lookup_and_iteration() {
        let p = two_func_program();
        assert_eq!(p.funcs.len(), 2);
        assert!(p.func_by_name("inc").is_some());
        assert!(p.func_by_name("nope").is_none());
        assert_eq!(p.func(p.entry).name, "main");
        assert_eq!(p.inst_count(), 6);
    }

    #[test]
    fn static_stats_counts() {
        let p = two_func_program();
        let s = p.static_stats();
        assert_eq!(s.total, 6);
        assert_eq!(s.by_class[&OpClass::Add], 2); // ldi + add (ldi counts as Add)
        assert!(s.by_class.contains_key(&OpClass::Ctrl));
    }

    #[test]
    fn width_only_changes_compare_equal_ignoring_widths() {
        let p = two_func_program();
        let mut q = p.clone();
        for f in &mut q.funcs {
            for b in &mut f.blocks {
                for i in &mut b.insts {
                    i.width = if i.width == Width::D { Width::B } else { Width::D };
                }
            }
        }
        assert_ne!(p, q);
        assert!(p.eq_ignoring_widths(&q) && q.eq_ignoring_widths(&p));
        assert!(p.eq_ignoring_widths(&p));
    }

    #[test]
    fn code_changes_compare_unequal_ignoring_widths() {
        let p = two_func_program();
        let find = |op| p.insts().find(|(_, i)| i.op == op).map(|(r, _)| r).unwrap();
        let (add, jsr) = (find(Op::Add), find(Op::Jsr));
        let edited = |edit: &dyn Fn(&mut Program)| {
            let mut q = p.clone();
            edit(&mut q);
            q
        };
        let changes = [
            ("op", edited(&|q| q.inst_mut(add).op = Op::Sub)),
            ("register", edited(&|q| q.inst_mut(add).dst = Some(Reg::T3))),
            ("immediate", edited(&|q| q.inst_mut(add).src2 = og_isa::Operand::Imm(2))),
            ("target", edited(&|q| q.inst_mut(jsr).target = og_isa::Target::Func(1))),
            (
                "block count",
                edited(&|q| {
                    q.func_mut(add.func).push_block(crate::Block::new("unreached"));
                }),
            ),
            ("entry", edited(&|q| q.entry = FuncId(0))),
            (
                "data segment",
                edited(&|q| {
                    q.data.define("extra", vec![1]);
                }),
            ),
        ];
        for (what, q) in changes {
            assert!(!p.eq_ignoring_widths(&q), "a changed {what} must compare unequal");
            assert!(!q.eq_ignoring_widths(&p), "a changed {what} must compare unequal");
        }
    }

    #[test]
    fn legalize_widens_unavailable_widths() {
        let mut p = two_func_program();
        // Force a byte AND, unavailable on the base Alpha ISA.
        let r = p
            .insts()
            .find(|(_, i)| i.op == Op::Add && i.width == Width::W)
            .map(|(r, _)| r)
            .unwrap();
        p.inst_mut(r).op = Op::And;
        p.inst_mut(r).width = Width::B;
        let widened = p.legalize(IsaExtension::Base);
        assert_eq!(widened, 1);
        assert_eq!(p.inst(r).width, Width::D);
        // The paper extension keeps byte logic.
        p.inst_mut(r).width = Width::B;
        assert_eq!(p.legalize(IsaExtension::PaperAlphaExt), 0);
    }
}
