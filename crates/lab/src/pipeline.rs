//! Program-first measurement pipeline.
//!
//! [`crate::run_pipeline`] is keyed by bench *name*: it builds the
//! workload itself and panics on any failure, which is right for the
//! fixed suite (a missing bench or a diverged digest there is a bug) and
//! wrong for a service (a request must never abort the process). This
//! module holds the library-ified core both ride on:
//!
//! * [`run_program`] — measure any [`Program`] under any [`Mech`],
//!   returning typed [`RunError`]s instead of panicking;
//! * [`run_lowered`] — the cached-artifact fast path: measure a program
//!   whose trusted [`FlatProgram`] was lowered earlier (and LRU-cached by
//!   `og-serve`), skipping the per-request verify+lower;
//! * [`apply_mech`] — just the program transformation, exposed so a
//!   caller can apply once and measure many times.
//!
//! Every measurement is the same two steps: [`execute`] runs the fused
//! emulate+simulate pass into an [`Executed`], and [`summarize`] checks
//! its digest and folds it into one mechanism's [`RunSummary`]. The two
//! entry points above call them back to back; [`crate::compute_study`]
//! produces one [`Executed`] per distinct transformed program of a
//! benchmark and calls [`summarize`] once per mechanism. A program
//! whose code differs from an already timed one's only in widths gets
//! its [`Executed`] from [`execute_values`]: the VM streams into a
//! value counter alone, and the timed pass supplies the timing.
//!
//! The name-keyed [`crate::run_pipeline`] is a thin wrapper:
//! build workload → [`run_program`] → unwrap. The equivalence suite
//! pins `run_program` byte-identical to every summary of a freshly
//! computed study.

use crate::{Mech, RunSummary, VrsSummary};
use og_core::{UsefulPolicy, VrpConfig, VrpPass, VrsConfig, VrsPass};
use og_program::Program;
use og_sim::{MachineConfig, PathTiming, SimResult, Simulator, ValueCounter};
use og_vm::{DynStats, FlatProgram, RunConfig, RunOutcome, Vm, VmError};
use std::fmt;

/// Why a measurement could not produce a [`RunSummary`]. Everything a
/// request can trigger is here — the service maps these to reject
/// responses; only genuine pipeline bugs still panic (in the
/// [`crate::run_pipeline`] wrapper, not in this module).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A VRS run needs a training program and none was supplied.
    MissingTrain,
    /// The VM failed: out of fuel, call-stack overflow, or (for
    /// untrusted lowerings) a structurally malformed instruction was
    /// reached.
    Vm(VmError),
    /// The output digest diverged from the expected (baseline) digest.
    DigestMismatch {
        /// The digest the caller demanded (the baseline's).
        expected: u64,
        /// The digest this run produced.
        actual: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::MissingTrain => write!(f, "VRS requires a training program"),
            RunError::Vm(e) => write!(f, "vm error: {e}"),
            RunError::DigestMismatch { expected, actual } => {
                write!(f, "output digest {actual:#018x} diverged from expected {expected:#018x}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<VmError> for RunError {
    fn from(e: VmError) -> RunError {
        RunError::Vm(e)
    }
}

/// VRS bookkeeping captured at transform time, priced into a
/// [`VrsSummary`] once the dynamic block counts exist.
pub(crate) struct VrsRaw {
    profiled: usize,
    fates: (usize, usize, usize),
    static_specialized: usize,
    static_eliminated: usize,
    blocks: Vec<(og_program::FuncId, og_program::BlockId)>,
    guards: Vec<(og_program::FuncId, og_program::BlockId, u32, u32)>,
}

/// Apply `mech`'s program transformation to `program` in place.
/// [`Mech::Vrs`] profiles `train` to choose specializations and fails
/// with [`RunError::MissingTrain`] without one; every other mechanism
/// ignores `train`. Returns the VRS bookkeeping for the summary.
pub(crate) fn apply_mech(
    program: &mut Program,
    mech: Mech,
    train: Option<&Program>,
) -> Result<Option<VrsRaw>, RunError> {
    match mech {
        Mech::Baseline => Ok(None),
        Mech::ConvVrp | Mech::Vrp | Mech::VrpAggressive => {
            let policy = match mech {
                Mech::ConvVrp => UsefulPolicy::Off,
                Mech::Vrp => UsefulPolicy::Paper,
                _ => UsefulPolicy::Aggressive,
            };
            let cfg = VrpConfig { useful_policy: policy, ..Default::default() };
            VrpPass::new(cfg).run(program);
            Ok(None)
        }
        Mech::Vrs(cost) => {
            let train = train.ok_or(RunError::MissingTrain)?;
            let cfg = VrsConfig { specialization_cost_nj: cost as f64, ..Default::default() };
            let report = VrsPass::new(cfg).run(program, train);
            Ok(Some(VrsRaw {
                profiled: report.profiled_points,
                fates: (
                    report.count_fate(og_core::CandidateFate::NoBenefit),
                    report.count_fate(og_core::CandidateFate::Dependent),
                    report.count_fate(og_core::CandidateFate::Specialized),
                ),
                static_specialized: report.static_specialized,
                static_eliminated: report.static_eliminated,
                blocks: report.specialized_blocks.clone(),
                guards: report.guard_sites.clone(),
            }))
        }
    }
}

/// Measure `program` under `mech`: transform a copy, then emulate and
/// simulate it in one fused pass (the VM streams each committed
/// instruction straight into the cycle-level simulator — no trace is
/// materialized). `name` labels the summary; `train` feeds
/// [`Mech::Vrs`]; `expected_digest` enforces observational equivalence
/// when the caller knows the baseline's digest.
///
/// This is the program-first core [`crate::run_pipeline`] wraps for the
/// fixed suite and `og-serve` calls directly for submitted programs.
///
/// # Errors
///
/// [`RunError::MissingTrain`] for a VRS run without `train`;
/// [`RunError::Vm`] when the (transformed) program fails to run;
/// [`RunError::DigestMismatch`] when the output diverges.
pub fn run_program(
    name: &str,
    program: &Program,
    mech: Mech,
    train: Option<&Program>,
    config: RunConfig,
    expected_digest: Option<u64>,
) -> Result<RunSummary, RunError> {
    let mut program = program.clone();
    let vrs = apply_mech(&mut program, mech, train)?;
    let run = execute(Vm::new(&program, config))?;
    summarize(name, mech, &program, &run, expected_digest, vrs)
}

/// Measure a program through an **already-lowered** flat artifact — the
/// service's cache-hit path. `flat` must have been lowered from this
/// exact `program` (`og-serve` guarantees it by keying the cache on the
/// program's digest); the mechanism is necessarily [`Mech::Baseline`],
/// since any transform would invalidate the artifact.
///
/// # Errors
///
/// [`RunError::Vm`] when the program fails to run (out of fuel or call
/// depth; a trusted artifact cannot hit a structural error).
///
/// # Panics
///
/// Panics if `flat` does not belong to `program` (see
/// [`Vm::with_lowered`]).
pub fn run_lowered(
    name: &str,
    program: &Program,
    flat: FlatProgram,
    config: RunConfig,
) -> Result<RunSummary, RunError> {
    let run = execute(Vm::with_lowered(program, config, flat))?;
    summarize(name, Mech::Baseline, program, &run, None, None)
}

/// One fused emulate+simulate pass, before it is folded into a
/// [`RunSummary`]. Equal code over an equal data segment runs
/// deterministically to an equal `Executed`, which is what lets
/// [`crate::compute_study`] fold one pass into every mechanism whose
/// transform produced that code.
pub(crate) struct Executed {
    outcome: RunOutcome,
    stats: DynStats,
    sim: SimResult,
}

/// The shared first step: run `vm` to completion, streaming every
/// committed instruction into a fresh cycle-level [`Simulator`].
pub(crate) fn execute(vm: Vm<'_>) -> Result<Executed, RunError> {
    execute_timed(vm).map(|(run, _)| run)
}

/// [`execute`], also returning the pass's [`PathTiming`] for
/// [`execute_values`] to reuse.
pub(crate) fn execute_timed(mut vm: Vm<'_>) -> Result<(Executed, PathTiming), RunError> {
    let mut sim = Simulator::new(MachineConfig::default());
    let outcome = vm.run_streamed(&mut sim)?;
    let (stats, _) = vm.into_parts();
    let (sim, timing) = sim.finish_timed();
    Ok((Executed { outcome, stats, sim }, timing))
}

/// The value-only first step: run `vm` to completion, streaming every
/// committed instruction into a [`ValueCounter`] only, and take the
/// timing from the first of `timed` measured on the same path. `vm`'s
/// program must equal each timed pass's program with widths ignored
/// (`Program::eq_ignoring_widths`); then the result equals
/// [`execute`]'s. `Ok(None)` when no timing's path digest matches: the
/// values took another path, and only a full pass can time it. The
/// outcome and dynamic statistics always come from this run.
pub(crate) fn execute_values(
    mut vm: Vm<'_>,
    timed: &[&PathTiming],
) -> Result<Option<Executed>, RunError> {
    let mut counter = ValueCounter::new();
    let outcome = vm.run_streamed(&mut counter)?;
    let (stats, _) = vm.into_parts();
    let values = counter.finish();
    Ok(timed.iter().find_map(|t| t.compose(&values)).map(|sim| Executed { outcome, stats, sim }))
}

/// The shared second step: check `run`'s digest against
/// `expected_digest`, then fold the pass into `mech`'s [`RunSummary`],
/// pricing `vrs` against the dynamic block counts of `program` (the
/// transformed program the pass ran).
pub(crate) fn summarize(
    name: &str,
    mech: Mech,
    program: &Program,
    run: &Executed,
    expected_digest: Option<u64>,
    vrs: Option<VrsRaw>,
) -> Result<RunSummary, RunError> {
    let Executed { outcome, stats, sim } = run;
    if let Some(expected) = expected_digest {
        if outcome.output_digest != expected {
            return Err(RunError::DigestMismatch { expected, actual: outcome.output_digest });
        }
    }

    let vrs_summary = vrs.map(|raw| {
        let total = stats.steps.max(1) as f64;
        let mut spec_dyn = 0u64;
        for (f, b) in &raw.blocks {
            let count = stats.block_counts.get(&(*f, *b)).copied().unwrap_or(0);
            spec_dyn += count * program.func(*f).block(*b).insts.len() as u64;
        }
        let mut guard_dyn = 0u64;
        for (f, b, _, len) in &raw.guards {
            let count = stats.block_counts.get(&(*f, *b)).copied().unwrap_or(0);
            guard_dyn += count * *len as u64;
        }
        VrsSummary {
            profiled: raw.profiled,
            fates: raw.fates,
            static_specialized: raw.static_specialized,
            static_eliminated: raw.static_eliminated,
            runtime_specialized_frac: spec_dyn as f64 / total,
            runtime_guard_frac: guard_dyn as f64 / total,
        }
    });

    Ok(RunSummary {
        bench: name.to_string(),
        mech,
        digest: outcome.output_digest,
        insts: outcome.steps,
        width_fracs: stats.width_fractions(),
        sig_fracs: stats.sig_fractions(),
        class_width: stats.class_width,
        sim: sim.stats.clone(),
        activity: sim.activity.clone(),
        vrs: vrs_summary,
    })
}
