//! The out-of-order pipeline timing model.
//!
//! A timestamp-based model: every committed instruction flows through
//! fetch → decode/rename → dispatch → issue → execute → writeback →
//! commit, with explicit structural constraints — per-cycle fetch,
//! decode, issue and retire bandwidth, finite ROB / issue queue / LSQ
//! occupancy, functional-unit and cache-port contention, result-bus
//! bandwidth — and dataflow constraints through per-register
//! ready timestamps. This style models the same first-order behaviour as
//! a structural cycle loop (dependences, window stalls, mispredict
//! redirects, memory latency) at a fraction of the implementation
//! complexity, and is deterministic.
//!
//! The model is an **incremental state machine**: [`Simulator::feed`]
//! consumes one committed instruction at a time and
//! [`Simulator::finish`] closes the books. All per-instruction history
//! it keeps (commit/issue/memory-commit timestamps) is bounded by the
//! machine's own window sizes (ROB, issue queue, LSQ, physical register
//! file), so simulating a trace of any length takes O(1) memory. The
//! [`Simulator::run`] convenience preserves the old slice-consuming
//! interface on top of the same state machine.
//!
//! The per-record path does no division and no per-access allocation:
//! bandwidth rings and timestamp windows are indexed by power-of-two
//! masks, the in-order stages keep only their newest reserved cycle,
//! caches and the BTB rotate tags in place within one flat array, the
//! store-forwarding map hashes with one multiply, and value accesses are
//! counted into a histogram that `finish` folds into the per-scheme
//! activity totals.
//!
//! Value accounting is its own sink, [`ValueCounter`], which `feed`
//! calls once per record; everything else `feed` does reads only the
//! committed path. [`Simulator::finish_timed`] returns that path-driven
//! part as a [`PathTiming`] beside the [`SimResult`], so a later run of
//! the same code with other widths (VRP's rewrite) can stream into a
//! `ValueCounter` alone and [`compose`](PathTiming::compose) its result.

use crate::activity::{ActivityCounts, Structure};
use crate::bpred::BranchPredictor;
use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::values::{PathDigest, ValueActivity, ValueCounter};
use og_isa::{FuKind, Op};
use og_json::{FromJson, Json, ToJson};
use og_vm::{TraceRecord, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Slots per [`Ring`]: a power of two, so a cycle's slot is `cycle &
/// RING_MASK`.
///
/// **Horizon.** A slot is shared by cycles `RING_SLOTS` apart, so a
/// reservation is exact only while every request lies less than
/// `RING_SLOTS` cycles behind the newest cycle already reserved in that
/// ring. Every ring request made for instruction *i* (issue, functional
/// unit, cache port, result bus) is at or after its dispatch, and
/// dispatch waits for the commit of instruction *i − rob_size*. Every
/// slot already reserved belongs to an older instruction and lies at or
/// before that instruction's commit, so at or before the commit of
/// *i − 1*. The spread is therefore at most the time the youngest
/// `rob_size − 1` instructions take to commit one after another.
///
/// On the Table 2 machine each of them adds at most a few tens of cycles
/// of pipeline latency (front end, an L2 lookup for its fetch and for
/// its load, a 7-cycle multiply, a redirect): about 63 × 30 ≈ 1,900
/// cycles. The memory bus adds its queue, since it serializes line
/// fills; only the window's own instructions can have fills
/// outstanding, at most two each (fetch and load) of 22 cycles:
/// 126 × 22 ≈ 2,800 cycles. The bound, ~4,700 cycles, is under a third
/// of the 16,384 slots. A machine configured with far longer memory
/// latency could exceed it; [`Ring::reserve`] debug-asserts against the
/// aliasing that would follow.
const RING_SLOTS: usize = 16384;
const RING_MASK: u64 = RING_SLOTS as u64 - 1;

/// A per-cycle bandwidth-limited resource. Each slot packs the cycle it
/// was last reserved for and the units used then into one word,
/// `(cycle + 1) << 8 | used` (cycles below 2^56); 0 means never
/// reserved, so a new ring is one zeroed allocation.
#[derive(Debug, Clone)]
struct Ring {
    slots: Box<[u64; RING_SLOTS]>,
}

impl Ring {
    fn new() -> Ring {
        let slots = vec![0; RING_SLOTS].into_boxed_slice();
        Ring { slots: slots.try_into().expect("RING_SLOTS slots") }
    }

    /// Reserve a slot at the earliest cycle ≥ `cycle` with spare capacity.
    fn reserve(&mut self, mut cycle: u64, cap: u8) -> u64 {
        loop {
            let s = &mut self.slots[(cycle & RING_MASK) as usize];
            let stamp = (cycle + 1) << 8;
            debug_assert!(
                *s >> 8 <= cycle + 1,
                "ring slot aliased: cycle {cycle} requested after cycle {} was reserved \
                 ({RING_SLOTS} slots)",
                (*s >> 8) - 1
            );
            if *s & !0xFF != stamp {
                *s = stamp;
            }
            if ((*s & 0xFF) as u8) < cap {
                *s += 1;
                return cycle;
            }
            cycle += 1;
        }
    }
}

/// A per-cycle bandwidth-limited resource whose requests arrive in
/// non-decreasing cycle order: the in-order fetch, decode and retire
/// stages (`last_fetch`, `f_cyc + frontend_depth` and `last_commit` only
/// grow). Then every cycle from the latest request up to the newest
/// cycle reserved is full, and no later cycle is reserved, so the
/// newest reserved cycle and its count are the whole state: the answers
/// of a [`Ring`], without the ring.
#[derive(Debug, Default)]
struct InOrder {
    /// The newest reserved cycle (meaningless while `used` is 0).
    cycle: u64,
    /// Units used in `cycle`; 0 before the first reservation.
    used: u8,
    /// The latest request, to check the in-order premise.
    floor: u64,
}

impl InOrder {
    /// Reserve a slot at the earliest cycle ≥ `cycle` with spare capacity.
    fn reserve(&mut self, cycle: u64, cap: u8) -> u64 {
        debug_assert!(cycle >= self.floor, "in-order request {cycle} after {}", self.floor);
        self.floor = cycle;
        if self.used == 0 || cycle > self.cycle {
            self.cycle = cycle;
            self.used = 1;
        } else if self.used < cap {
            self.used += 1;
        } else {
            self.cycle += 1;
            self.used = 1;
        }
        self.cycle
    }
}

/// A multiply-shift hasher for the word-address keys of
/// [`Simulator::store_ready`]: one multiply by an odd constant, with the
/// high half folded down so the table's index (low) bits and its tag
/// (top) bits both depend on every address bit. The keys come from the
/// simulated program, not an adversary, so SipHash's flood resistance
/// buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    fn write_u64(&mut self, word: u64) {
        let h = word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Timing statistics of a simulation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CycleStats {
    /// Total cycles to commit the whole trace.
    pub cycles: u64,
    /// Committed instructions.
    pub insts: u64,
    /// Conditional branches.
    pub cond_branches: u64,
    /// Direction mispredictions.
    pub mispredicts: u64,
    /// I-cache accesses / misses.
    pub icache: (u64, u64),
    /// D-cache accesses / misses.
    pub dcache: (u64, u64),
    /// L2 accesses / misses.
    pub l2: (u64, u64),
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
}

impl CycleStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }
}

impl ToJson for CycleStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycles".into(), self.cycles.to_json()),
            ("insts".into(), self.insts.to_json()),
            ("cond_branches".into(), self.cond_branches.to_json()),
            ("mispredicts".into(), self.mispredicts.to_json()),
            ("icache".into(), self.icache.to_json()),
            ("dcache".into(), self.dcache.to_json()),
            ("l2".into(), self.l2.to_json()),
            ("loads".into(), self.loads.to_json()),
            ("stores".into(), self.stores.to_json()),
        ])
    }
}

impl FromJson for CycleStats {
    fn from_json(json: &Json) -> Result<CycleStats, og_json::Error> {
        Ok(CycleStats {
            cycles: json.field("cycles")?,
            insts: json.field("insts")?,
            cond_branches: json.field("cond_branches")?,
            mispredicts: json.field("mispredicts")?,
            icache: json.field("icache")?,
            dcache: json.field("dcache")?,
            l2: json.field("l2")?,
            loads: json.field("loads")?,
            stores: json.field("stores")?,
        })
    }
}

/// Simulation output: timing plus per-structure activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Timing statistics.
    pub stats: CycleStats,
    /// Width-annotated activity counts.
    pub activity: ActivityCounts,
}

/// The path-driven part of a simulation: everything
/// [`Simulator::feed`] derives from pcs, ops, registers, addresses and
/// branch outcomes, and nothing it derives from widths or values.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTiming {
    /// Timing statistics.
    pub stats: CycleStats,
    /// The accesses that carry no value (rename, ROB, predictor, tag
    /// matches, I-cache fetches, L2 fills).
    pub plain: ActivityCounts,
    /// The digest of the path that was timed.
    pub path: PathDigest,
}

impl PathTiming {
    /// The [`SimResult`] of a run whose values were counted into
    /// `values`, if that run took the path this timing was measured on
    /// (equal [`PathDigest`]s); `None` otherwise. Over the same path and
    /// code (widths aside) the result equals a full simulation's; see
    /// [`PathDigest`] for why.
    pub fn compose(&self, values: &ValueActivity) -> Option<SimResult> {
        (values.path == self.path).then(|| {
            let mut activity = self.plain.clone();
            activity.merge(&values.activity);
            SimResult { stats: self.stats.clone(), activity }
        })
    }
}

/// A bounded history of per-instruction timestamps: retains (at least)
/// the youngest `cap` values pushed, addressable by the global push
/// index. This is what makes the simulator's memory footprint
/// independent of trace length — the pipeline only ever looks back one
/// machine window. The buffer is `cap` rounded up to a power of two, so
/// an index is a mask, not a division.
#[derive(Debug, Clone)]
struct History {
    buf: Vec<u64>,
    mask: u64,
    len: u64,
}

impl History {
    fn new(cap: usize) -> History {
        let cap = cap.max(1).next_power_of_two();
        History { buf: vec![0; cap], mask: cap as u64 - 1, len: 0 }
    }

    fn push(&mut self, v: u64) {
        self.buf[(self.len & self.mask) as usize] = v;
        self.len += 1;
    }

    fn len(&self) -> u64 {
        self.len
    }

    /// The `idx`-th value ever pushed; `idx` must be within the retained
    /// window.
    fn get(&self, idx: u64) -> u64 {
        debug_assert!(idx < self.len && self.len - idx <= self.mask + 1, "history window exceeded");
        self.buf[(idx & self.mask) as usize]
    }
}

/// The simulator: an incremental state machine over the committed-path
/// stream. Construct with a [`MachineConfig`], [`feed`](Simulator::feed)
/// records as the emulator commits them (it implements
/// [`og_vm::TraceSink`], so it can be handed to `Vm::run_streamed`
/// directly), then [`finish`](Simulator::finish). For a materialized
/// trace, [`run`](Simulator::run) does all three steps.
#[derive(Debug)]
pub struct Simulator {
    config: MachineConfig,
    // Derived constants.
    l2_total_lat: u64,
    mem_fill: u64,
    line_mask: u64,
    // Accumulated results.
    stats: CycleStats,
    /// Plain (valueless) accesses.
    act: ActivityCounts,
    /// Value accesses and the path digest.
    values: ValueCounter,
    // Machine structures.
    icache: Cache,
    dcache: Cache,
    l2: Cache,
    bpred: BranchPredictor,
    fetch_ring: InOrder,
    decode_ring: InOrder,
    issue_ring: Ring,
    retire_ring: InOrder,
    alu_ring: Ring,
    mul_ring: Ring,
    mem_ring: Ring,
    bus_ring: Ring,
    /// The 16-byte memory bus serializes line fills (Table 2).
    mem_bus_free: u64,
    reg_ready: [u64; 32],
    /// Commit timestamps of the youngest ROB/phys-reg window.
    commit_hist: History,
    /// Issue timestamps of the youngest issue-queue window.
    issue_hist: History,
    /// Commit timestamps of the youngest LSQ window of memory ops.
    mem_hist: History,
    /// word address → cycle the latest store's data is available. Grows
    /// with the number of distinct 8-byte words the program stores (its
    /// data footprint) — not with trace length; forwarding deliberately
    /// has no age horizon, matching the original slice-consuming model.
    store_ready: HashMap<u64, u64, BuildHasherDefault<WordHasher>>,
    /// Earliest possible next fetch.
    fetch_base: u64,
    last_fetch: u64,
    last_commit: u64,
    cur_line: u64,
}

impl Simulator {
    /// Create a simulator ready to be fed a committed-path stream.
    pub fn new(config: MachineConfig) -> Simulator {
        let commit_window = config.rob_size.max(config.phys_regs - 32) as usize;
        Simulator {
            l2_total_lat: (config.l2.3 + config.dcache.3) as u64,
            mem_fill: config.memory_latency(config.l2.2) as u64,
            line_mask: !(config.icache.2 as u64 - 1),
            stats: CycleStats::default(),
            act: ActivityCounts::new(),
            values: ValueCounter::new(),
            icache: Cache::new(config.icache.0, config.icache.1, config.icache.2),
            dcache: Cache::new(config.dcache.0, config.dcache.1, config.dcache.2),
            l2: Cache::new(config.l2.0, config.l2.1, config.l2.2),
            bpred: BranchPredictor::new(config.ras_depth as usize),
            fetch_ring: InOrder::default(),
            decode_ring: InOrder::default(),
            issue_ring: Ring::new(),
            retire_ring: InOrder::default(),
            alu_ring: Ring::new(),
            mul_ring: Ring::new(),
            mem_ring: Ring::new(),
            bus_ring: Ring::new(),
            mem_bus_free: 0,
            reg_ready: [0; 32],
            commit_hist: History::new(commit_window),
            issue_hist: History::new(config.iq_size as usize),
            mem_hist: History::new(config.lsq_size as usize),
            store_ready: HashMap::default(),
            fetch_base: 0,
            last_fetch: 0,
            last_commit: 0,
            cur_line: u64::MAX,
            config,
        }
    }

    /// Feed one committed instruction through the pipeline model.
    #[allow(clippy::too_many_lines)]
    pub fn feed(&mut self, rec: &TraceRecord) {
        self.values.count(rec);
        let cfg = &self.config;
        let i = self.stats.insts;
        self.stats.insts += 1;

        // ---- fetch --------------------------------------------------
        let mut f_cyc = self.fetch_base.max(self.last_fetch);
        if rec.pc & self.line_mask != self.cur_line {
            self.cur_line = rec.pc & self.line_mask;
            self.act.record_plain(Structure::ICache);
            if !self.icache.access(rec.pc) {
                self.act.record_plain(Structure::DCacheL2);
                if self.l2.access(rec.pc) {
                    f_cyc += self.l2_total_lat;
                } else {
                    let start = (f_cyc + self.l2_total_lat).max(self.mem_bus_free);
                    self.mem_bus_free = start + self.mem_fill;
                    f_cyc = start + self.mem_fill;
                }
                self.fetch_base = self.fetch_base.max(f_cyc);
            }
        }
        let f_cyc = self.fetch_ring.reserve(f_cyc, cfg.fetch_width as u8);
        self.last_fetch = f_cyc;

        // ---- decode / rename / dispatch -----------------------------
        let mut disp =
            self.decode_ring.reserve(f_cyc + cfg.frontend_depth as u64, cfg.decode_width as u8);
        let rob = cfg.rob_size as u64;
        if i >= rob {
            disp = disp.max(self.commit_hist.get(i - rob) + 1);
        }
        // Physical registers: freed at commit of the displaced def.
        let phys_window = (cfg.phys_regs - 32) as u64;
        if i >= phys_window {
            disp = disp.max(self.commit_hist.get(i - phys_window));
        }
        let iqs = cfg.iq_size as u64;
        if i >= iqs {
            disp = disp.max(self.issue_hist.get(i - iqs));
        }
        let is_mem = rec.op.is_mem();
        if is_mem {
            let lsq = cfg.lsq_size as u64;
            if self.mem_hist.len() >= lsq {
                disp = disp.max(self.mem_hist.get(self.mem_hist.len() - lsq));
            }
        }
        self.act.record_plain(Structure::Rename);
        self.act.record_plain(Structure::Rob);

        // ---- operand readiness --------------------------------------
        let mut ready = disp + 1;
        for r in rec.srcs.iter().flatten() {
            if !r.is_zero() {
                ready = ready.max(self.reg_ready[r.index() as usize]);
            }
            self.act.record_plain(Structure::InstQueue); // wakeup tag match
        }

        // ---- issue + execute ----------------------------------------
        let (mut iss, mut lat) = match rec.op.fu() {
            FuKind::IntAlu | FuKind::Branch => {
                let c = self.issue_ring.reserve(ready, cfg.issue_width as u8);
                (self.alu_ring.reserve(c, cfg.int_alus as u8), 1u64)
            }
            FuKind::IntMul => {
                let c = self.issue_ring.reserve(ready, cfg.issue_width as u8);
                (self.mul_ring.reserve(c, cfg.int_muls as u8), cfg.mul_latency as u64)
            }
            FuKind::Mem => {
                let c = self.issue_ring.reserve(ready, cfg.issue_width as u8);
                (self.mem_ring.reserve(c, cfg.dcache_ports as u8), 1u64)
            }
            FuKind::None => (ready, 0),
        };
        if matches!(rec.op, Op::Ld { .. }) {
            self.stats.loads += 1;
            let access_start = iss + 1;
            let data_ready = if self.dcache.access(rec.mem_addr) {
                access_start + cfg.dcache.3 as u64
            } else {
                self.act.record_plain(Structure::DCacheL2);
                if self.l2.access(rec.mem_addr) {
                    access_start + self.l2_total_lat
                } else {
                    let start = (access_start + self.l2_total_lat).max(self.mem_bus_free);
                    self.mem_bus_free = start + self.mem_fill;
                    start + self.mem_fill
                }
            };
            lat = data_ready.saturating_sub(iss).max(1);
            // Store-to-load forwarding: data becomes available when
            // the youngest older store to the word completes.
            if let Some(&avail) = self.store_ready.get(&(rec.mem_addr >> 3)) {
                let forwarded = avail.max(iss + 1);
                lat = lat.min(forwarded.saturating_sub(iss)).max(1);
                iss = iss.max(avail.saturating_sub(lat).max(iss));
            }
        } else if rec.op == Op::St {
            self.stats.stores += 1;
        }
        self.issue_hist.push(iss);
        let mut complete = iss + lat.max(1);

        // ---- writeback ----------------------------------------------
        if let Some(d) = rec.dst {
            complete = self.bus_ring.reserve(complete, 4);
            if !d.is_zero() {
                self.reg_ready[d.index() as usize] = complete;
            }
        }

        // ---- control resolution -------------------------------------
        if rec.is_control() {
            self.act.record_plain(Structure::BranchPred);
            let mut redirect_at_resolve = false;
            let mut redirect_at_decode = false;
            match rec.op {
                Op::Bc(_) => {
                    self.stats.cond_branches += 1;
                    let miss = self.bpred.predict_and_update(rec.pc, rec.taken);
                    if miss {
                        self.stats.mispredicts += 1;
                        redirect_at_resolve = true;
                    } else if rec.taken && rec.next_pc != u64::MAX {
                        redirect_at_decode = !self.bpred.btb_lookup_update(rec.pc, rec.next_pc);
                    }
                }
                Op::Br | Op::Jsr => {
                    if rec.next_pc != u64::MAX {
                        redirect_at_decode = !self.bpred.btb_lookup_update(rec.pc, rec.next_pc);
                    }
                    if rec.op == Op::Jsr {
                        self.bpred.ras_push(rec.pc + 8);
                    }
                }
                Op::Ret => {
                    // ras_pop_matches pops the return-address stack;
                    // keep the call in the arm body (not a match guard)
                    // so the side effect stays tied to handling Ret.
                    let predicted =
                        rec.next_pc == u64::MAX || self.bpred.ras_pop_matches(rec.next_pc);
                    if !predicted {
                        redirect_at_resolve = true;
                    }
                }
                _ => {}
            }
            if redirect_at_resolve {
                self.fetch_base = self.fetch_base.max(complete + cfg.mispredict_penalty as u64);
            } else if redirect_at_decode {
                // Direct-branch target computed in decode: small bubble.
                self.fetch_base = self.fetch_base.max(f_cyc + 2);
            }
            if rec.taken {
                // Taken control breaks the fetch group.
                self.last_fetch = self.last_fetch.max(f_cyc + 1);
                self.cur_line = u64::MAX;
            }
        }

        // ---- commit -------------------------------------------------
        let c = self.retire_ring.reserve(complete.max(self.last_commit), cfg.retire_width as u8);
        debug_assert!(c >= self.last_commit, "commit went back from {} to {c}", self.last_commit);
        self.last_commit = c;
        self.commit_hist.push(c);
        self.act.record_plain(Structure::Rob);
        if rec.op == Op::St {
            // the store writes the cache at commit
            let hit = self.dcache.access(rec.mem_addr);
            if !hit {
                self.act.record_plain(Structure::DCacheL2);
                self.l2.access(rec.mem_addr);
            }
            self.store_ready.insert(rec.mem_addr >> 3, complete);
            self.mem_hist.push(c);
        } else if is_mem {
            self.mem_hist.push(c);
        }
    }

    /// Close the books: total cycle count and cache tallies. Consumes
    /// the simulator (a finished machine cannot be fed more work).
    pub fn finish(self) -> SimResult {
        self.finish_timed().0
    }

    /// [`finish`](Simulator::finish), plus the path-driven part of the
    /// result, for [`PathTiming::compose`] to reuse on a value-only run
    /// over the same path.
    pub fn finish_timed(self) -> (SimResult, PathTiming) {
        let mut stats = self.stats;
        stats.cycles = self.last_commit + 1;
        stats.icache = (self.icache.accesses, self.icache.misses);
        stats.dcache = (self.dcache.accesses, self.dcache.misses);
        stats.l2 = (self.l2.accesses, self.l2.misses);
        // cond_branches/mispredicts recorded inline.
        let values = self.values.finish();
        let timing = PathTiming { stats, plain: self.act, path: values.path };
        let result = timing.compose(&values).expect("a simulator's values share its path");
        (result, timing)
    }

    /// Simulate a materialized committed-path trace on a **fresh**
    /// machine (this simulator's state is not consulted). Convenience
    /// for tests and consumers that captured a trace with
    /// `og_vm::VecSink`.
    ///
    /// # Panics
    ///
    /// Panics if this simulator has already been fed records — that
    /// almost certainly means the caller wanted
    /// [`feed`](Simulator::feed)/[`finish`](Simulator::finish) to
    /// continue the stream, not a cold restart.
    pub fn run(&self, trace: &[TraceRecord]) -> SimResult {
        assert_eq!(
            self.stats.insts, 0,
            "Simulator::run simulates from a cold machine, but this simulator has already \
             been fed; use feed()/finish() to continue the stream"
        );
        let mut sim = Simulator::new(self.config.clone());
        for rec in trace {
            sim.feed(rec);
        }
        sim.finish()
    }
}

impl TraceSink for Simulator {
    fn record(&mut self, rec: &TraceRecord) {
        self.feed(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{ModRing, Rng};
    use og_isa::{Reg, Width};
    use og_program::{imm, ProgramBuilder};
    use og_vm::{RunConfig, VecSink, Vm};

    fn trace_of(build: impl FnOnce(&mut og_program::FunctionBuilder)) -> Vec<TraceRecord> {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        build(&mut f);
        pb.finish(f);
        let p = pb.build().unwrap();
        let mut vm = Vm::new(&p, RunConfig::default());
        let mut sink = VecSink::new();
        vm.run_streamed(&mut sink).unwrap();
        sink.into_records()
    }

    fn counted_loop(n: i64) -> Vec<TraceRecord> {
        trace_of(|f| {
            f.ldi(Reg::T0, 0);
            f.block("loop");
            f.add(Width::D, Reg::T1, Reg::T0, Reg::T0);
            f.add(Width::D, Reg::T0, Reg::T0, imm(1));
            f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::T2, Reg::T0, imm(n));
            f.bne(Reg::T2, "loop");
            f.block("exit");
            f.halt();
        })
    }

    #[test]
    fn ipc_is_plausible_for_independent_work() {
        let r = Simulator::new(MachineConfig::default()).run(&counted_loop(2000));
        let ipc = r.stats.ipc();
        assert!(ipc > 1.0, "4-wide machine on simple loop: ipc={ipc}");
        assert!(ipc <= 4.0, "cannot exceed machine width: ipc={ipc}");
    }

    #[test]
    fn dependent_chain_is_slower_than_independent_ops() {
        // A loop whose body is a serial multiply chain vs one with
        // independent multiplies (loops keep the I-cache warm).
        let looped = |serial: bool| {
            trace_of(move |f| {
                f.ldi(Reg::T0, 0);
                f.ldi(Reg::S1, 0);
                f.block("loop");
                for i in 0..6 {
                    if serial {
                        f.mul(Width::D, Reg::T0, Reg::T0, imm(1));
                    } else {
                        let d = [Reg::T1, Reg::T2, Reg::T3][i % 3];
                        f.mul(Width::D, d, Reg::T0, imm(1));
                    }
                }
                f.add(Width::D, Reg::S1, Reg::S1, imm(1));
                f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::S2, Reg::S1, imm(100));
                f.bne(Reg::S2, "loop");
                f.block("exit");
                f.halt();
            })
        };
        let sim = Simulator::new(MachineConfig::default());
        let c_chain = sim.run(&looped(true)).stats.cycles;
        let c_indep = sim.run(&looped(false)).stats.cycles;
        assert!(
            c_chain as f64 > c_indep as f64 * 2.0,
            "serial mul chain ({c_chain}) must be much slower than independent ({c_indep})"
        );
    }

    #[test]
    fn branch_predictor_reduces_cycles_on_regular_loops() {
        let r = Simulator::new(MachineConfig::default()).run(&counted_loop(3000));
        // A counted loop's backward branch is learned quickly.
        let rate = r.stats.mispredicts as f64 / r.stats.cond_branches.max(1) as f64;
        assert!(rate < 0.05, "mispredict rate {rate}");
    }

    #[test]
    fn feed_finish_matches_slice_run() {
        let t = counted_loop(500);
        let via_run = Simulator::new(MachineConfig::default()).run(&t);
        let mut sim = Simulator::new(MachineConfig::default());
        for rec in &t {
            sim.feed(rec);
        }
        assert_eq!(sim.finish(), via_run);
    }

    #[test]
    fn simulator_is_a_trace_sink_fusable_with_the_vm() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.ldi(Reg::T0, 0);
        f.block("loop");
        f.add(Width::D, Reg::T0, Reg::T0, imm(1));
        f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::T1, Reg::T0, imm(300));
        f.bne(Reg::T1, "loop");
        f.block("exit");
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        // Fused: one pass, the simulator consumes records as they commit.
        let mut vm = Vm::new(&p, RunConfig::default());
        let mut sim = Simulator::new(MachineConfig::default());
        vm.run_streamed(&mut sim).unwrap();
        let fused = sim.finish();
        // Materialized: capture, then simulate the slice.
        let mut vm = Vm::new(&p, RunConfig::default());
        let mut sink = VecSink::new();
        vm.run_streamed(&mut sink).unwrap();
        let materialized = Simulator::new(MachineConfig::default()).run(sink.records());
        assert_eq!(fused, materialized);
        assert_eq!(fused.stats.insts, sink.records().len() as u64);
    }

    #[test]
    fn memory_latency_visible() {
        let mut pb = ProgramBuilder::new();
        pb.data_zeroed("buf", 1 << 20);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.la(Reg::S0, "buf");
        f.ldi(Reg::T0, 0);
        f.block("loop");
        f.ld(Width::D, Reg::T1, Reg::S0, 0);
        f.add(Width::D, Reg::S0, Reg::S0, imm(4096)); // page stride: always miss
        f.add(Width::D, Reg::T0, Reg::T0, imm(1));
        f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::T2, Reg::T0, imm(200));
        f.bne(Reg::T2, "loop");
        f.block("exit");
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        let mut vm = Vm::new(&p, RunConfig::default());
        let mut strided_sim = Simulator::new(MachineConfig::default());
        vm.run_streamed(&mut strided_sim).unwrap();
        let strided = strided_sim.finish();
        assert!(strided.stats.dcache.1 >= 199, "strided loads must miss");
        // Same loop hitting a single address:
        let hot = trace_of(|f| {
            f.ldi(Reg::T0, 0);
            f.block("loop");
            f.ld(Width::D, Reg::T1, Reg::GP, 0);
            f.add(Width::D, Reg::T0, Reg::T0, imm(1));
            f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::T2, Reg::T0, imm(200));
            f.bne(Reg::T2, "loop");
            f.block("exit");
            f.halt();
        });
        let hit = Simulator::new(MachineConfig::default()).run(&hot);
        assert!(
            strided.stats.cycles > hit.stats.cycles + 1000,
            "misses must cost cycles: {} vs {}",
            strided.stats.cycles,
            hit.stats.cycles
        );
    }

    #[test]
    fn activity_tracks_widths() {
        let narrow = trace_of(|f| {
            f.ldi(Reg::T0, 1);
            for _ in 0..100 {
                f.add(Width::B, Reg::T0, Reg::T0, imm(0));
            }
            f.halt();
        });
        let wide = trace_of(|f| {
            f.ldi(Reg::T0, 1);
            for _ in 0..100 {
                f.add(Width::D, Reg::T0, Reg::T0, imm(0));
            }
            f.halt();
        });
        let sim = Simulator::new(MachineConfig::default());
        let rn = sim.run(&narrow);
        let rw = sim.run(&wide);
        let fu_n = rn.activity.of(Structure::Fu).bytes.software;
        let fu_w = rw.activity.of(Structure::Fu).bytes.software;
        assert!(fu_n < fu_w / 4, "byte ops use far fewer FU lanes: {fu_n} vs {fu_w}");
        // hardware significance sees identical dynamic values
        assert_eq!(
            rn.activity.of(Structure::Fu).bytes.hw_significance,
            rw.activity.of(Structure::Fu).bytes.hw_significance
        );
    }

    /// The masked, packed ring against the modulo ring with the
    /// `u64::MAX` sentinel: the same reserved cycle for every request.
    /// Requests walk forward with random look-backs and bursts that fill
    /// slots and carry into later cycles, staying inside the horizon.
    #[test]
    fn ring_matches_the_modulo_reference() {
        for cap in [1u8, 2, 3, 4] {
            for seed in 0..4u64 {
                let mut rng = Rng::new(seed * 17 + cap as u64);
                let mut ring = Ring::new();
                let mut reference = ModRing::new(RING_SLOTS);
                let mut newest = 0u64;
                for step in 0..100_000 {
                    newest += rng.below(3);
                    let back = match rng.below(16) {
                        0 => rng.below(4_000),
                        1..=4 => rng.below(64),
                        _ => 0,
                    };
                    let cycle = newest.saturating_sub(back);
                    let got = ring.reserve(cycle, cap);
                    assert_eq!(
                        got,
                        reference.reserve(cycle, cap),
                        "cap {cap} seed {seed} step {step} cycle {cycle}"
                    );
                    newest = newest.max(got);
                }
            }
        }
    }

    /// The in-order stage counter against the modulo ring over
    /// non-decreasing request streams: the same reserved cycles.
    #[test]
    fn in_order_matches_the_modulo_reference() {
        for cap in [1u8, 2, 3, 4] {
            for seed in 0..4u64 {
                let mut rng = Rng::new(seed * 29 + cap as u64);
                let mut stage = InOrder::default();
                let mut reference = ModRing::new(RING_SLOTS);
                let mut cycle = rng.below(3);
                for step in 0..100_000 {
                    // Bursts of equal requests overflow into later cycles.
                    cycle += match rng.below(8) {
                        0..=3 => 0,
                        4..=6 => 1,
                        _ => rng.below(40),
                    };
                    assert_eq!(
                        stage.reserve(cycle, cap),
                        reference.reserve(cycle, cap),
                        "cap {cap} seed {seed} step {step} cycle {cycle}"
                    );
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ring slot aliased")]
    fn ring_asserts_on_a_request_past_the_horizon() {
        let mut ring = Ring::new();
        ring.reserve(RING_SLOTS as u64 + 5, 4);
        ring.reserve(5, 4);
    }

    #[test]
    fn history_keeps_the_window_for_any_capacity() {
        for cap in [1usize, 3, 32, 64, 96] {
            let mut h = History::new(cap);
            for v in 0..1000u64 {
                h.push(v * 3);
                let len = h.len();
                for idx in len.saturating_sub(cap as u64)..len {
                    assert_eq!(h.get(idx), idx * 3, "cap {cap}");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let t = counted_loop(500);
        let sim = Simulator::new(MachineConfig::default());
        assert_eq!(sim.run(&t), sim.run(&t));
    }
}
