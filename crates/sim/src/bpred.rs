//! The combined branch predictor of Table 2: a 1K-entry chooser selecting
//! between a gshare predictor (64K 2-bit counters, 16-bit global history)
//! and a 2K-entry bimodal predictor, plus a BTB and a return-address
//! stack.

/// BTB sets; each holds [`BTB_ASSOC`] ways.
const BTB_SETS: usize = 512;
/// BTB associativity.
const BTB_ASSOC: usize = 4;

/// Two-bit saturating counter helpers.
fn bump(c: &mut u8, taken: bool) {
    if taken {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

fn predicts_taken(c: u8) -> bool {
    c >= 2
}

/// The combined predictor.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    gshare: Vec<u8>,
    bimodal: Vec<u8>,
    chooser: Vec<u8>,
    ghr: u16,
    /// `BTB_SETS × BTB_ASSOC` ways of `(tag + 1, target)`, set-major and
    /// MRU first within a set; a zero tag marks an empty way (the layout
    /// of [`Cache`](crate::Cache)).
    btb: Vec<(u64, u64)>,
    /// Return addresses in a fixed ring: `ras_top` is the next slot to
    /// push, `ras_len` how many of the slots below it are live. A push
    /// onto a full stack overwrites the oldest entry.
    ras: Vec<u64>,
    ras_top: usize,
    ras_len: usize,
    /// Conditional-branch predictions made.
    pub lookups: u64,
    /// Conditional-branch direction mispredictions.
    pub mispredicts: u64,
}

impl BranchPredictor {
    /// Build the Table 2 predictor.
    pub fn new(ras_depth: usize) -> BranchPredictor {
        BranchPredictor {
            gshare: vec![1; 64 * 1024],
            bimodal: vec![1; 2 * 1024],
            chooser: vec![2; 1024],
            ghr: 0,
            btb: vec![(0, 0); BTB_SETS * BTB_ASSOC],
            ras: vec![0; ras_depth],
            ras_top: 0,
            ras_len: 0,
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn gshare_index(&self, pc: u64) -> usize {
        (((pc >> 3) as u16) ^ self.ghr) as usize
    }

    fn bimodal_index(pc: u64) -> usize {
        ((pc >> 3) as usize) & (2 * 1024 - 1)
    }

    fn chooser_index(pc: u64) -> usize {
        ((pc >> 3) as usize) & 1023
    }

    /// Predict a conditional branch at `pc`; then update with the actual
    /// outcome. Returns whether the *direction* was mispredicted.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        self.lookups += 1;
        let gi = self.gshare_index(pc);
        let bi = Self::bimodal_index(pc);
        let ci = Self::chooser_index(pc);
        let g = predicts_taken(self.gshare[gi]);
        let b = predicts_taken(self.bimodal[bi]);
        let use_gshare = predicts_taken(self.chooser[ci]);
        let pred = if use_gshare { g } else { b };
        // Chooser trains toward the component that was right.
        if g != b {
            bump(&mut self.chooser[ci], g == taken);
        }
        bump(&mut self.gshare[gi], taken);
        bump(&mut self.bimodal[bi], taken);
        self.ghr = (self.ghr << 1) | taken as u16;
        let miss = pred != taken;
        if miss {
            self.mispredicts += 1;
        }
        miss
    }

    /// Look up the BTB; on miss or stale target the front end cannot
    /// redirect correctly. Always installs/updates the actual target.
    pub fn btb_lookup_update(&mut self, pc: u64, target: u64) -> bool {
        let set = ((pc >> 3) as usize) & (BTB_SETS - 1);
        let key = (pc >> 12) + 1;
        let ways = &mut self.btb[set * BTB_ASSOC..(set + 1) * BTB_ASSOC];
        let hit = match ways.iter().position(|&(t, _)| t == key) {
            Some(pos) => {
                let old_target = ways[pos].1;
                ways[..=pos].rotate_right(1);
                old_target == target
            }
            None => {
                ways.rotate_right(1);
                false
            }
        };
        ways[0] = (key, target);
        hit
    }

    /// Push a return address at a call; a full stack drops its oldest
    /// entry.
    pub fn ras_push(&mut self, ret: u64) {
        let depth = self.ras.len();
        if depth == 0 {
            return;
        }
        self.ras[self.ras_top] = ret;
        self.ras_top = if self.ras_top + 1 == depth { 0 } else { self.ras_top + 1 };
        self.ras_len = (self.ras_len + 1).min(depth);
    }

    /// Pop a predicted return address; compares with the actual one.
    pub fn ras_pop_matches(&mut self, actual: u64) -> bool {
        if self.ras_len == 0 {
            return false;
        }
        self.ras_len -= 1;
        self.ras_top = if self.ras_top == 0 { self.ras.len() - 1 } else { self.ras_top - 1 };
        self.ras[self.ras_top] == actual
    }

    /// Direction misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{Rng, VecBtb, VecRas};

    #[test]
    fn learns_a_constant_direction() {
        let mut bp = BranchPredictor::new(16);
        let mut misses = 0;
        for _ in 0..100 {
            if bp.predict_and_update(0x4000, true) {
                misses += 1;
            }
        }
        assert!(misses <= 2, "always-taken learned, {misses} misses");
    }

    #[test]
    fn learns_alternation_via_history() {
        let mut bp = BranchPredictor::new(16);
        let mut recent = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            let miss = bp.predict_and_update(0x8000, taken);
            if i >= 300 && miss {
                recent += 1;
            }
        }
        assert!(recent <= 5, "gshare should capture alternation, {recent} late misses");
    }

    #[test]
    fn btb_learns_targets() {
        let mut bp = BranchPredictor::new(16);
        assert!(!bp.btb_lookup_update(0x100, 0x900));
        assert!(bp.btb_lookup_update(0x100, 0x900));
        assert!(!bp.btb_lookup_update(0x100, 0xA00), "target changed");
        assert!(bp.btb_lookup_update(0x100, 0xA00));
    }

    #[test]
    fn ras_matches_call_return_pairs() {
        let mut bp = BranchPredictor::new(4);
        bp.ras_push(0x10);
        bp.ras_push(0x20);
        assert!(bp.ras_pop_matches(0x20));
        assert!(bp.ras_pop_matches(0x10));
        assert!(!bp.ras_pop_matches(0x30), "empty stack mismatches");
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut bp = BranchPredictor::new(2);
        bp.ras_push(1);
        bp.ras_push(2);
        bp.ras_push(3);
        assert!(bp.ras_pop_matches(3));
        assert!(bp.ras_pop_matches(2));
        assert!(!bp.ras_pop_matches(1), "1 was dropped on overflow");
    }

    #[test]
    fn zero_depth_ras_predicts_nothing() {
        let mut bp = BranchPredictor::new(0);
        bp.ras_push(1);
        assert!(!bp.ras_pop_matches(1));
    }

    /// The flat BTB against the MRU-list reference over seeded streams
    /// of (pc, target) pairs: a few hot branches with stable targets,
    /// a few with changing targets, and a spread of cold pcs that
    /// conflict within sets.
    #[test]
    fn btb_matches_the_mru_list_reference() {
        for seed in 0..8u64 {
            let mut rng = Rng::new(seed);
            let mut bp = BranchPredictor::new(16);
            let mut reference = VecBtb::new();
            for step in 0..50_000 {
                let pc = match rng.below(4) {
                    0 => rng.below(64) * 8,
                    1 => rng.below(1 << 20) * 8,
                    _ => (rng.below(16) << 12) | (rng.below(8) * 8),
                };
                let target = if rng.below(4) == 0 { rng.below(4) * 64 } else { pc ^ 0x40 };
                assert_eq!(
                    bp.btb_lookup_update(pc, target),
                    reference.lookup_update(pc, target),
                    "seed {seed} step {step} pc {pc:#x}"
                );
            }
        }
    }

    /// The RAS ring against the `Vec` stack that drops its oldest entry,
    /// over seeded call/return sequences that overflow and underflow.
    #[test]
    fn ras_matches_the_vec_reference() {
        for depth in [1usize, 2, 4, 16] {
            for seed in 0..4u64 {
                let mut rng = Rng::new(seed);
                let mut bp = BranchPredictor::new(depth);
                let mut reference = VecRas::new(depth);
                for step in 0..20_000 {
                    if rng.below(2) == 0 {
                        let ret = rng.below(4) * 8;
                        bp.ras_push(ret);
                        reference.push(ret);
                    } else {
                        let actual = rng.below(4) * 8;
                        assert_eq!(
                            bp.ras_pop_matches(actual),
                            reference.pop_matches(actual),
                            "depth {depth} seed {seed} step {step}"
                        );
                    }
                }
            }
        }
    }
}
