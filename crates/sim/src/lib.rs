//! # og-sim: cycle-level out-of-order processor simulator
//!
//! A trace-driven timing model of the paper's Table 2 machine: a 4-wide
//! out-of-order superscalar with a 64-entry instruction window, 96
//! physical registers, 3 integer ALUs + 1 integer multiplier (plus the FP
//! units integer workloads leave idle), a combined gshare/bimodal branch
//! predictor, 64 KB split L1 caches and a 256 KB L2.
//!
//! The simulator consumes the committed-path stream produced by `og-vm`
//! **incrementally**: it implements `og_vm::TraceSink`, so
//! `Vm::run_streamed(&mut simulator)` fuses emulation and timing
//! simulation into a single pass — no materialized trace, O(1) trace
//! memory however long the run. [`Simulator::feed`] consumes one
//! committed instruction; [`Simulator::finish`] produces:
//!
//! * [`CycleStats`] — cycles, IPC, branch/cache behaviour (the *delay*
//!   part of the paper's energy-delay² metric), and
//! * [`ActivityCounts`] — per-structure access counts annotated, for
//!   every access, with the active byte lanes under each operand-gating
//!   scheme (none / software / hardware-significance / hardware-size /
//!   cooperative). The `og-power` energy model turns these into the
//!   paper's per-structure energy numbers.
//!
//! All per-instruction history is bounded by the machine's own window
//! sizes (ROB, issue queue, LSQ, physical registers), so the state
//! machine's footprint is independent of trace *length*. It is about
//! 0.8 MiB of fixed structures, each one allocation made at
//! [`Simulator::new`], most of it zeroed by the allocator:
//!
//! * five 16,384-slot reservation rings (issue, ALU, multiplier, cache
//!   port, result bus) of one packed `u64` per slot, 128 KiB each,
//!   indexed by a mask; the in-order fetch, decode and retire stages
//!   need only their newest reserved cycle;
//! * the caches as flat `sets × ways` tag arrays (16 + 16 + 32 KiB) and
//!   the predictor's tables (64 K gshare counters, a 2 K bimodal table,
//!   a 1 K chooser, a 512 × 4 BTB in the cache's layout);
//! * the ROB, issue-queue and LSQ timestamp windows, rounded up to
//!   powers of two and indexed by masks;
//!
//! plus a store-forwarding map that grows with the program's *data
//! footprint* (one entry per distinct 8-byte word stored — the same cost
//! the slice-consuming model always paid). Activity is not summed per
//! access: [`Simulator::feed`] bins every value it moves by (event,
//! software width, significance), where one event such as a result
//! write stands for every structure the value passes through, and
//! [`Simulator::finish`] folds the bins into [`ActivityCounts`] — the
//! per-scheme byte sums are linear in the access counts, so the totals
//! are exactly those of per-access accounting.
//! [`Simulator::run`] remains as a slice-consuming convenience over
//! `feed`/`finish` for traces captured with `og_vm::VecSink`.
//!
//! ## Time a path once, count its values many times
//!
//! Value accounting is its own [`og_vm::TraceSink`], [`ValueCounter`]:
//! it reads only a record's width, significances, op class and which
//! operands are present, and it folds a 128-bit [`PathDigest`] over the
//! record fields the timing model reads that the code does not fix
//! (pc, next pc, memory address, branch outcome, record count).
//! [`Simulator::feed`] calls it for every record, so the value rules
//! exist once. [`Simulator::finish_timed`] returns, beside the
//! [`SimResult`], its path-driven part: a [`PathTiming`] of the
//! [`CycleStats`], the plain (valueless) accesses and the digest.
//!
//! A program that differs from a timed one only in its opcode widths
//! (VRP's rewrite; see `og_program::Program::eq_ignoring_widths`) can
//! then run into a `ValueCounter` alone, at the cost of the VM plus the
//! counter instead of the whole timing model, and
//! [`PathTiming::compose`] returns its `SimResult`, equal to a full
//! simulation's, if the digests show it took the same path. `og-lab`'s
//! study does this for every width-only variant of a benchmark; the
//! argument that code check plus digest cover everything the timing
//! model reads is written at [`PathDigest`].
//!
//! Being trace-driven, wrong-path activity is approximated as front-end
//! bubbles after a mispredicted branch (the standard trace-driven
//! simplification; it affects absolute energy slightly but not the
//! relative savings the paper reports).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod bpred;
mod cache;
mod config;
mod pipeline;
#[cfg(test)]
mod reference;
mod values;

pub use activity::{round_size_class, ActivityCounts, SchemeBytes, StructActivity, Structure};
pub use bpred::BranchPredictor;
pub use cache::Cache;
pub use config::MachineConfig;
pub use pipeline::{CycleStats, PathTiming, SimResult, Simulator};
pub use values::{PathDigest, ValueActivity, ValueCounter};
