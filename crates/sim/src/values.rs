//! Value accounting and the path digest: the part of a simulation that
//! reads a committed instruction's width and operand significances,
//! split from the timing model so that a run whose path has already
//! been timed can stream only its values.
//!
//! [`ValueCounter`] is a [`TraceSink`]. [`Simulator::feed`] hands every
//! record to its own counter, so the value rules below exist once; fed
//! alone, a counter gives the value half of a [`SimResult`], which
//! [`PathTiming::compose`] joins to the timing half of an earlier run
//! over the same path.
//!
//! [`Simulator::feed`]: crate::Simulator::feed
//! [`SimResult`]: crate::SimResult
//! [`PathTiming::compose`]: crate::PathTiming::compose

use crate::activity::{ActivityCounts, Structure};
use og_isa::{FuKind, Op};
use og_vm::{TraceRecord, TraceSink};

/// A 128-bit digest of a committed path: of the fields of every
/// [`TraceRecord`] that the timing model reads and the code does not
/// fix, in commit order, and of the number of records.
///
/// **Coverage.** The timing model ([`Simulator::feed`] less its value
/// counter) reads, of each record:
///
/// * `pc` — I-cache lines, predictor and BTB indices;
/// * `next_pc` — BTB targets and return-address checks;
/// * `mem_addr` — D-cache and L2 lines, store-to-load forwarding;
/// * `taken` — predictor training, BTB updates, fetch-group breaks;
/// * `op`, `dst` and `srcs` — functional unit, latency, memory class
///   and register dependences;
/// * and how many records there are.
///
/// It never reads `width`, `dst_sig`, `src_sigs` or `dst_value`; only
/// the value counter does. The digest folds the first four and the
/// count. The other three are the instruction's static op and
/// registers, copied from the instruction at `pc`. Take two programs
/// that are equal with every instruction width ignored
/// ([`og_program::Program::eq_ignoring_widths`]). They lay out at the
/// same addresses, so one `pc` names the same op and registers in both.
/// If their paths also have equal digests, their record streams match
/// field for field in everything the timing model reads. It then
/// computes the same cycles, cache and predictor statistics and plain
/// activity for both, and only the values can differ. The remaining gap
/// is a digest collision, which takes two different paths agreeing on
/// both independently seeded 64-bit lanes.
///
/// [`Simulator::feed`]: crate::Simulator::feed
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathDigest(pub u128);

/// Odd multipliers of the two digest lanes (the 64-bit golden ratio and
/// MurmurHash3's `fmix64` constant). For a fixed input each absorb step
/// is a bijection of the lane, so no step forgets what came before.
const LANE_A: u64 = 0x9E37_79B9_7F4A_7C15;
const LANE_B: u64 = 0xC4CE_B9FE_1A85_EC53;

/// Absorb one word into a lane: xor, multiply by the lane's odd
/// constant, rotate the well-mixed high bits down.
#[inline(always)]
fn absorb(lane: u64, word: u64, k: u64, rot: u32) -> u64 {
    (lane ^ word).wrapping_mul(k).rotate_left(rot)
}

/// MurmurHash3's 64-bit finalizer: full avalanche of a lane.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// What a committed instruction does with one value. [`ValueCounter`]
/// bins each event by (software width, significance) and
/// [`ValueCounter::finish`] folds a bin into every structure the event
/// accesses: one increment where per-structure counting makes up to
/// three. Every per-scheme byte sum is linear in the access count, so
/// the folded totals are exactly those of per-access accounting.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Dispatch into the issue queue of an op that does no value work on
    /// a functional unit: a memory op (its address generation is priced
    /// with [`Event::Memory`]) or an op with no unit.
    Dispatch,
    /// Dispatch, then execution on an ALU, multiplier or branch unit,
    /// both at the op's largest operand significance.
    Execute,
    /// A source operand read from the register file.
    Read,
    /// A result over the result bus into a rename buffer and, at commit,
    /// into the register file.
    Write,
    /// A load's result or a store's data through the LSQ and the L1
    /// D-cache, plus the address generation that occupies an ALU lane's
    /// adder at full width.
    Memory,
}

impl Event {
    const ALL: [Event; 5] =
        [Event::Dispatch, Event::Execute, Event::Read, Event::Write, Event::Memory];

    /// The structures the event's value passes through.
    fn structures(self) -> &'static [Structure] {
        match self {
            Event::Dispatch => &[Structure::InstQueue],
            Event::Execute => &[Structure::InstQueue, Structure::Fu],
            Event::Read => &[Structure::RegFile],
            Event::Write => &[Structure::ResultBus, Structure::RenameBufs, Structure::RegFile],
            Event::Memory => &[Structure::Lsq, Structure::DCacheL1],
        }
    }
}

/// Counts every value access of a committed-path stream, binned by
/// [`Event`], software width and significance (both clamped to 1..=8),
/// and folds the stream's [`PathDigest`]. It reads of each record only
/// the width, the significances, the op class and which of
/// `dst`/`srcs` are present — plus the digest's fields.
#[derive(Debug)]
pub struct ValueCounter {
    bins: [[[u64; 8]; 8]; Event::ALL.len()],
    lanes: (u64, u64),
    records: u64,
}

impl Default for ValueCounter {
    fn default() -> ValueCounter {
        ValueCounter::new()
    }
}

impl ValueCounter {
    /// An empty counter.
    pub fn new() -> ValueCounter {
        ValueCounter { bins: [[[0; 8]; 8]; Event::ALL.len()], lanes: (LANE_A, LANE_B), records: 0 }
    }

    #[inline(always)]
    fn bin(&mut self, event: Event, sw: u8, sig: u8) {
        let sw = sw.clamp(1, 8) as usize - 1;
        let sig = sig.clamp(1, 8) as usize - 1;
        self.bins[event as usize][sw][sig] += 1;
    }

    /// Count one committed instruction's value accesses and fold its
    /// path fields into the digest.
    #[inline]
    pub fn count(&mut self, rec: &TraceRecord) {
        let (mut a, mut b) = self.lanes;
        for word in [rec.pc, rec.next_pc, rec.mem_addr, rec.taken as u64] {
            a = absorb(a, word, LANE_A, 23);
            b = absorb(b, word, LANE_B, 29);
        }
        self.lanes = (a, b);
        self.records += 1;

        let sw = rec.width.bytes() as u8;
        let issue = if rec.op.is_mem() || rec.op.fu() == FuKind::None {
            Event::Dispatch
        } else {
            Event::Execute
        };
        self.bin(issue, sw, rec.max_sig());
        for (src, &sig) in rec.srcs.iter().zip(&rec.src_sigs) {
            if src.is_some() {
                self.bin(Event::Read, sw, sig);
            }
        }
        if rec.dst.is_some() {
            self.bin(Event::Write, sw, rec.dst_sig);
        }
        match rec.op {
            Op::Ld { .. } => self.bin(Event::Memory, sw, rec.dst_sig),
            Op::St => self.bin(Event::Memory, sw, rec.src_sigs[0]),
            _ => {}
        }
    }

    /// The digest of the path counted so far.
    pub fn path(&self) -> PathDigest {
        let (a, b) = self.lanes;
        let a = fmix64(absorb(a, self.records, LANE_A, 23));
        let b = fmix64(absorb(b, self.records, LANE_B, 29));
        PathDigest((a as u128) << 64 | b as u128)
    }

    /// Close the count: the value accesses as activity, and the path.
    pub fn finish(self) -> ValueActivity {
        let mut activity = ActivityCounts::new();
        for event in Event::ALL {
            for (sw, row) in self.bins[event as usize].iter().enumerate() {
                for (sig, &n) in row.iter().enumerate().filter(|&(_, &n)| n > 0) {
                    for &s in event.structures() {
                        activity.record_values(s, sw as u8 + 1, sig as u8 + 1, n);
                    }
                    if let Event::Memory = event {
                        activity.record_values(Structure::Fu, 8, 8, n);
                    }
                }
            }
        }
        ValueActivity { activity, path: self.path() }
    }
}

impl TraceSink for ValueCounter {
    fn record(&mut self, rec: &TraceRecord) {
        self.count(rec);
    }
}

/// The value half of a simulation: every value access, priced per
/// scheme, and the digest of the path they were counted on.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueActivity {
    /// Value accesses only: no structure has a plain access here.
    pub activity: ActivityCounts,
    /// The path the values were counted on.
    pub path: PathDigest,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MachineConfig, PathTiming, SimResult, Simulator};
    use og_core::{UsefulPolicy, VrpConfig, VrpPass};
    use og_program::Program;
    use og_vm::{RunConfig, Vm};
    use og_workloads::{by_name, InputSet, NAMES};

    fn simulate(p: &Program) -> (SimResult, PathTiming) {
        let mut sim = Simulator::new(MachineConfig::default());
        Vm::new(p, RunConfig::default()).run_streamed(&mut sim).unwrap();
        sim.finish_timed()
    }

    fn count_values(p: &Program) -> ValueActivity {
        let mut counter = ValueCounter::new();
        Vm::new(p, RunConfig::default()).run_streamed(&mut counter).unwrap();
        counter.finish()
    }

    /// VRP rewrites widths only: its values composed with the
    /// untransformed program's timing are the full simulation of the
    /// transformed program, on every workload.
    #[test]
    fn vrp_values_composed_with_baseline_timing_equal_full_simulation() {
        for bench in NAMES {
            let base = by_name(bench, InputSet::Train).program;
            let mut vrp = base.clone();
            VrpPass::new(VrpConfig { useful_policy: UsefulPolicy::Paper, ..Default::default() })
                .run(&mut vrp);
            assert_ne!(vrp, base, "{bench}: VRP narrowed nothing");
            assert!(vrp.eq_ignoring_widths(&base), "{bench}: VRP changed more than widths");
            let (_, timing) = simulate(&base);
            let (full, full_timing) = simulate(&vrp);
            let composed = timing.compose(&count_values(&vrp));
            assert_eq!(composed.as_ref(), Some(&full), "{bench}: composed != full simulation");
            assert_eq!(full_timing, timing, "{bench}: VRP moved the timing");
        }
    }

    /// The same code over different data takes another path, and the
    /// digest tells: composing across inputs is refused.
    #[test]
    fn train_and_ref_paths_have_different_digests() {
        for bench in NAMES {
            let train = by_name(bench, InputSet::Train).program;
            let reference = by_name(bench, InputSet::Ref).program;
            if train.funcs != reference.funcs || train.entry != reference.entry {
                continue;
            }
            let (_, timing) = simulate(&train);
            let values = count_values(&reference);
            assert_ne!(values.path, timing.path, "{bench}: Train and Ref digests agree");
            assert!(timing.compose(&values).is_none(), "{bench}");
            return;
        }
        panic!("no workload builds the same code for Train and Ref");
    }

    /// The event bins against per-access accounting, over random
    /// records of every op shape, width and significance (out-of-range
    /// significances exercise the clamps).
    #[test]
    fn event_bins_fold_to_per_access_accounting() {
        use og_isa::{Cond, Reg, Width};
        let ops = [
            Op::Add,
            Op::Mul,
            Op::Cmov(Cond::Eq),
            Op::Ld { signed: true },
            Op::St,
            Op::Bc(Cond::Ne),
            Op::Jsr,
            Op::Ret,
            Op::Nop,
            Op::Out,
        ];
        let mut rng = crate::reference::Rng::new(11);
        let mut counter = ValueCounter::new();
        let mut direct = ActivityCounts::new();
        for _ in 0..20_000 {
            let reg = |rng: &mut crate::reference::Rng| (rng.below(2) == 0).then_some(Reg::T0);
            let rec = TraceRecord {
                pc: 0,
                next_pc: 8,
                op: ops[rng.below(ops.len() as u64) as usize],
                width: [Width::B, Width::H, Width::W, Width::D][rng.below(4) as usize],
                dst: reg(&mut rng),
                srcs: [reg(&mut rng), reg(&mut rng)],
                mem_addr: 0,
                taken: false,
                dst_sig: rng.below(10) as u8,
                src_sigs: [rng.below(10) as u8, rng.below(10) as u8],
                dst_value: None,
            };
            counter.count(&rec);
            crate::reference::record_values_per_access(&rec, &mut direct);
        }
        assert_eq!(counter.finish().activity, direct);
    }

    #[test]
    fn digest_covers_every_path_field_and_the_count() {
        let rec = TraceRecord {
            pc: 0x1000,
            next_pc: 0x1008,
            op: Op::Add,
            width: og_isa::Width::D,
            dst: Some(og_isa::Reg::T0),
            srcs: [Some(og_isa::Reg::T1), None],
            mem_addr: 0,
            taken: false,
            dst_sig: 2,
            src_sigs: [1, 0],
            dst_value: Some(0x100),
        };
        let digest = |recs: &[TraceRecord]| {
            let mut c = ValueCounter::new();
            recs.iter().for_each(|r| c.count(r));
            c.path()
        };
        let base = digest(&[rec]);
        let edits: [fn(&mut TraceRecord); 4] =
            [|r| r.pc += 8, |r| r.next_pc += 8, |r| r.mem_addr = 8, |r| r.taken = true];
        for (i, edit) in edits.into_iter().enumerate() {
            let mut r = rec;
            edit(&mut r);
            assert_ne!(digest(&[r]), base, "path field {i} not covered");
        }
        assert_ne!(digest(&[rec, rec]), base, "record count not covered");
        assert_ne!(digest(&[]), base);
        // Widths and values are not the path.
        let mut r = rec;
        r.width = og_isa::Width::B;
        r.dst_sig = 8;
        r.dst_value = Some(-1);
        assert_eq!(digest(&[r]), base);
    }
}
