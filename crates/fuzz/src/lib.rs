//! # og-fuzz: differential fuzzing of the operand-gating passes
//!
//! The hand-written kernels exercise a sliver of the program space VRP
//! and VRS must be sound over. This crate closes the gap with seeded,
//! deterministic campaigns, driven through one entry point — the
//! [`Campaign`] builder:
//!
//! ```no_run
//! use og_fuzz::Campaign;
//! let summary = Campaign::new(0x06_F0_22).cases(500).run();
//! assert!(summary.failure.is_none());
//! ```
//!
//! Every campaign follows the same spine:
//!
//! 1. **generate** — [`og_program::generate`] builds a random but
//!    provably terminating program (counted loops, fuel-bounded
//!    non-affine loops, mixed-width arithmetic, bounded memory, calls)
//!    together with a step bound;
//! 2. **check** — [`og_core::oracle::check_program`] first demands the
//!    program pass the collect-all verifier (a generated program that
//!    fails to verify is itself a bug — signature `base-verify`), then
//!    runs it untransformed (fused *and* materialized VM paths — which
//!    since the pre-decoded engine landed also means the **flat** and
//!    **reference graph-walking** engines, cross-checked on every case —
//!    plus trace-chain invariants) and after every transform in the battery
//!    (VRP across useful policies × ISA extensions, VRS with synthetic
//!    self-profiles), demanding byte-identical output streams and sane
//!    step counts. The fused baseline takes the **trusted fast path**
//!    (`Vm::new_verified`), so every case also fuzzes the verifier's
//!    invariant in both directions: generated programs must verify
//!    clean, and verified programs must never report a structural
//!    `VmError::Malformed` — or blow a static call-depth certificate —
//!    in either engine (signature `invariant`). Periodically the
//!    committed-path trace also drives the
//!    cycle simulator both fused (flat engine) and materialized
//!    (reference engine), and the two [`SimResult`]s must match
//!    bit-for-bit, and the case's VRP transform, run into a value
//!    counter only and composed with the untransformed timing, must
//!    match its own full simulation whenever the paths agree;
//!    periodically a passing case is also replayed under
//!    one seeded soft error ([`fault_cross_check`]) and the fault
//!    classifier must be sound both ways — never `Masked` with a
//!    changed output digest, never `Sdc` with an unchanged one
//!    (signature `fault`);
//! 3. **batch** — at the end of a green campaign every passing case is
//!    re-executed through the fused+batched no-stats engine
//!    ([`og_lab::run_batch`] sharding [`og_vm::BatchRunner`] lanes
//!    across a worker pool) and must reproduce the oracle's step count
//!    and output digest (signature `batch`) — the campaign-wide
//!    differential for the og-serve fast path;
//! 4. **shrink** — on failure, [`shrink::shrink`] greedily minimizes the
//!    program against the same oracle;
//! 5. **persist** — the shrunk reproducer is written to the campaign's
//!    failure directory ([`CampaignConfig::fail_dir`], default
//!    `target/og-fuzz-failures/`; CI uploads it as an artifact) as an
//!    `*.og.json` corpus case, ready to be replayed locally and, once
//!    fixed, committed to `crates/fuzz/corpus/` where the replay test
//!    guards it forever.
//!
//! ## Coverage-guided mode
//!
//! `Campaign::new(seed).coverage(true)` swaps the fixed random budget
//! for a **corpus-evolving loop** sharded across an
//! [`og_lab::WorkerPool`] (module [`campaign`] documents the mechanics):
//! each run's per-block coverage ([`og_vm::Coverage`], read straight
//! from the flat engine's dense block counters) is projected into a
//! global feature space ([`sched`]) of instruction shapes — including
//! the operand-significance class of every immediate, the quantity the
//! paper's gating decisions turn on — and covered-block adjacencies;
//! inputs that light new features are kept as mutation bases for the
//! structural mutators in [`mutate`] (immediate perturbation at
//! significance boundaries, branch retargeting/flipping through the
//! verifier gate, block splicing, width jitter). The oracle stays the
//! judge: only oracle-green inputs enter the corpus, every find shrinks
//! the same way, and the guided run reports a random baseline at equal
//! budget so `BENCH_fuzz.json` always carries the
//! `blocks_covered_guided` vs `blocks_covered_random` comparison CI
//! gates on. The kept corpus is set-cover minimized at end of run;
//! [`minimized_corpus_cases`] turns one into ready-to-commit
//! `*.og.json` cases.
//!
//! Campaigns are configured by [`CampaignConfig`]; environment
//! overrides (`OG_FUZZ_CASES`, `OG_FUZZ_SEED`, `OG_FUZZ_COVERAGE`,
//! `OG_FUZZ_SHARDS`, `OG_FUZZ_FAULT_EVERY`, `OG_FUZZ_FAIL_DIR`) are one
//! explicit builder layer
//! ([`Campaign::overrides_from_env`]) — nothing else in the crate reads
//! the process environment. Every random-mode case is fully determined
//! by `(base_seed, index)`, and every guided shard by
//! `(base_seed, shard)`, so any CI failure reproduces locally from the
//! numbers in its report alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod corpus;
pub mod mutate;
pub mod sched;
pub mod shrink;

pub use campaign::{
    minimized_corpus_cases, Campaign, CampaignConfig, CampaignSummary, CaseFailure,
};

use og_core::oracle::OracleConfig;
use og_core::{UsefulPolicy, VrpConfig, VrpPass};
use og_program::generate::GenConfig;
use og_program::rng::SplitMix64;
use og_program::Program;
use og_sim::{MachineConfig, SimResult, Simulator, ValueCounter};
use og_vm::{BatchRunner, FlatProgram, RunConfig, VecSink, Vm};

/// Run a campaign with the given config.
#[deprecated(note = "use the Campaign builder: `Campaign::from_config(cfg).run()`")]
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignSummary {
    Campaign::from_config(cfg.clone()).run()
}

pub(crate) fn env_u64(name: &str) -> Option<u64> {
    let v = std::env::var(name).ok()?;
    match v.parse() {
        Ok(n) => Some(n),
        Err(_) => panic!("{name} must be an unsigned integer, got `{v}`"),
    }
}

/// The generator configuration of case `(base_seed, index)`. Shape knobs
/// are derived from the seed so a campaign sweeps small/large, loopy/flat,
/// call-free/call-heavy programs — deterministically.
pub fn case_gen_config(base_seed: u64, index: u64) -> GenConfig {
    let seed = base_seed.wrapping_add(index);
    // Shape knobs come from the seed's first SplitMix64 output (the
    // generator draws from its own fresh stream; sharing the first word
    // with it is harmless for diversity).
    let z = SplitMix64::new(seed).next_u64();
    GenConfig {
        seed,
        regions: 3 + (z & 7) as usize,             // 3..=10
        max_straight: 4 + ((z >> 3) & 7) as usize, // 4..=11
        memory: (z >> 6) & 7 != 0,                 // on 7/8 of cases
        calls: (z >> 9) & 7 != 0,
        max_loop_depth: 1 + ((z >> 12) & 1) as usize + ((z >> 13) & 1) as usize, // 1..=3
        non_affine: (z >> 14) & 3 != 0,                                          // on 3/4 of cases
        fuel: 8 + ((z >> 16) & 31),                                              // 8..=39
    }
}

/// The oracle configuration used for a generated case: fuel derived from
/// the generator's step bound (so the campaign continuously validates the
/// termination certificate), default transform battery.
pub fn case_oracle_config(step_bound: u64) -> OracleConfig {
    OracleConfig { max_steps: step_bound, ..Default::default() }
}

/// Run the committed-path trace through the cycle simulator twice — fused
/// (the flat engine streams into the simulator) and materialized (the
/// **reference** graph-walking engine captures into a `VecSink`, then
/// replays) — and compare results bit-for-bit. Because the two runs sit
/// on different execution engines, any divergence in the trace streams
/// the engines produce (pc chaining, operand significances, memory
/// addresses) surfaces here as a `SimResult` mismatch.
///
/// Then the value-only path `og_lab::compute_study` takes for
/// width-only variants: the case's VRP transform ([`UsefulPolicy::Paper`])
/// runs into a [`ValueCounter`] alone, and whenever its path digest
/// agrees with the untransformed run's, its values composed with the
/// untransformed timing must equal its own full simulation.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn sim_cross_check(p: &Program, max_steps: u64) -> Result<(), String> {
    let cfg = RunConfig { max_steps, ..Default::default() };
    let simulate = |p: &Program| {
        let mut sim = Simulator::new(MachineConfig::default());
        Vm::new(p, cfg.clone()).run_streamed(&mut sim).map(|_| sim.finish_timed())
    };
    let (fused, timing) = simulate(p).map_err(|e| format!("fused run failed: {e}"))?;

    let mut vm = Vm::new(p, cfg.clone());
    let mut sink = VecSink::new();
    vm.run_reference_streamed(&mut sink).map_err(|e| format!("capture run failed: {e}"))?;
    let materialized: SimResult =
        Simulator::new(MachineConfig::default()).run(&sink.into_records());

    if fused != materialized {
        return Err(format!(
            "fused and materialized SimResults diverge: fused {} cycles, materialized {} cycles",
            fused.stats.cycles, materialized.stats.cycles
        ));
    }

    let mut vrp = p.clone();
    VrpPass::new(VrpConfig { useful_policy: UsefulPolicy::Paper, ..Default::default() })
        .run(&mut vrp);
    if !vrp.eq_ignoring_widths(p) {
        // Not a width-only variant: the study would time it in full.
        return Ok(());
    }
    let mut counter = ValueCounter::new();
    Vm::new(&vrp, cfg.clone())
        .run_streamed(&mut counter)
        .map_err(|e| format!("value-only VRP run failed: {e}"))?;
    let Some(composed) = timing.compose(&counter.finish()) else { return Ok(()) };
    let (full, _) = simulate(&vrp).map_err(|e| format!("full VRP run failed: {e}"))?;
    if composed != full {
        return Err(format!(
            "VRP values composed with the untransformed timing diverge from VRP's full \
             simulation on the same path: composed {} cycles, full {} cycles",
            composed.stats.cycles, full.stats.cycles
        ));
    }
    Ok(())
}

/// Replay `p` under one seeded soft error ([`og_vm::fault`]) and check
/// the fault classifier's soundness **both ways** against the golden
/// run: a finished faulted run is `Masked` if and only if its output
/// digest equals the golden digest, a run that did not finish is never
/// `Masked` or `Sdc`, and — when the strike happened to land past the
/// end of the run and never fired — the quantum-sliced driver must be
/// architecturally invisible (same steps, same digest as the golden
/// run).
///
/// # Errors
///
/// Returns a description of the first soundness violation.
pub fn fault_cross_check(p: &Program, max_steps: u64, seed: u64) -> Result<(), String> {
    use og_vm::fault::{classify, hang_budget, run_with_plan, FaultOutcome, FaultPlan, FaultedEnd};
    let golden = Vm::new(p, RunConfig { max_steps, ..Default::default() })
        .run()
        .map_err(|e| format!("golden run failed: {e}"))?;
    let plan = FaultPlan::seeded(seed, golden.steps.max(1), 1);
    let budget = RunConfig { max_steps: hang_budget(golden.steps), ..Default::default() };
    let run = run_with_plan(&mut Vm::new(p, budget), &plan);
    let outcome = classify(&golden, &run.end);
    match &run.end {
        FaultedEnd::Finished(o) => {
            let same_digest = o.output_digest == golden.output_digest;
            if (outcome == FaultOutcome::Masked) != same_digest {
                return Err(format!(
                    "classifier says {} but faulted digest {:#x} vs golden {:#x}",
                    outcome.name(),
                    o.output_digest,
                    golden.output_digest
                ));
            }
            if run.injected.is_empty() && (o.steps != golden.steps || !same_digest) {
                return Err(format!(
                    "no strike fired yet the sliced run diverged: {} steps / digest {:#x} \
                     vs golden {} / {:#x}",
                    o.steps, o.output_digest, golden.steps, golden.output_digest
                ));
            }
        }
        FaultedEnd::Faulted(_) | FaultedEnd::WildJump { .. } => {
            if matches!(outcome, FaultOutcome::Masked | FaultOutcome::Sdc) {
                return Err(format!("run did not finish but was classified {}", outcome.name()));
            }
        }
    }
    Ok(())
}

/// Run `p` as a single lane of a quantum-stepped [`BatchRunner`] (the
/// fused, trusted, no-stats engine og-serve's batch path uses) and
/// compare the architectural result — steps, output bytes, digest —
/// against the reference graph-walking engine.
///
/// A deliberately small quantum forces many pause/resume boundaries, so
/// the check exercises mid-run suspension (including between the
/// constituents of fused superinstructions), not just the happy path.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn batch_cross_check(p: &Program, max_steps: u64) -> Result<(), String> {
    let cfg = RunConfig { max_steps, ..Default::default() };
    let mut vm = Vm::new(p, cfg.clone());
    let reference = vm.run_reference().map_err(|e| format!("reference run failed: {e}"))?;
    let ref_out = vm.output().to_vec();

    let flat = FlatProgram::lower_verified(p, &p.layout())
        .map_err(|e| format!("trusted lowering failed: {e}"))?;
    let mut runner = BatchRunner::with_quantum(7);
    runner.push(Vm::with_lowered(p, cfg, flat));
    runner.run();
    let (batch_vm, result) = runner.into_lanes().pop().expect("one lane");
    let outcome = result.map_err(|e| format!("batched run failed: {e}"))?;
    if outcome.steps != reference.steps {
        return Err(format!("batched steps {} != reference {}", outcome.steps, reference.steps));
    }
    if outcome.output_digest != reference.output_digest {
        return Err(format!(
            "batched digest {:#x} != reference {:#x}",
            outcome.output_digest, reference.output_digest
        ));
    }
    if batch_vm.output() != ref_out {
        return Err("batched output bytes != reference output bytes".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_program::generate::generate_with_bound;

    #[test]
    fn case_configs_are_deterministic_and_diverse() {
        let a = case_gen_config(1, 5);
        let b = case_gen_config(1, 5);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.regions, b.regions);
        // Diversity: across 64 indices the shape knobs must not be const.
        let mut regions = std::collections::HashSet::new();
        let mut depths = std::collections::HashSet::new();
        let mut mem = std::collections::HashSet::new();
        for i in 0..64 {
            let c = case_gen_config(1, i);
            regions.insert(c.regions);
            depths.insert(c.max_loop_depth);
            mem.insert(c.memory);
        }
        assert!(regions.len() > 3, "{regions:?}");
        assert_eq!(depths.len(), 3, "{depths:?}");
        assert_eq!(mem.len(), 2);
    }

    #[test]
    fn a_tiny_campaign_is_green_and_counts_work() {
        let summary = Campaign::new(0x06_F0_22).cases(8).sim_check_every(4).run();
        assert!(summary.failure.is_none(), "{:?}", summary.failure);
        assert_eq!(summary.cases, 8);
        assert_eq!(summary.sim_checks, 2);
        assert_eq!(summary.batch_checked, 8, "every passing case re-runs batched");
        assert!(summary.total_base_steps > 0);
        assert!(summary.narrowed > 0, "VRP narrowed nothing across 8 programs?");
        let json = og_json::render(&summary.to_json()).unwrap();
        assert!(json.contains("\"failed\":false"), "{json}");
        assert!(json.contains("\"batch_cross_checked\":8"), "{json}");
    }

    #[test]
    fn the_deprecated_free_function_still_runs() {
        // The one-PR compatibility shim: same behaviour as the builder.
        #[allow(deprecated)]
        let summary = run_campaign(&CampaignConfig { cases: 2, ..Default::default() });
        assert!(summary.failure.is_none());
        assert_eq!(summary.cases, 2);
    }

    #[test]
    fn sim_cross_check_passes_on_a_generated_program() {
        let (p, bound) = generate_with_bound(&case_gen_config(42, 0));
        sim_cross_check(&p, bound).unwrap();
    }

    /// The value-only leg of [`sim_cross_check`] is not vacuous: VRP
    /// narrows generated programs without changing their code otherwise
    /// or their path, so the composed result really is compared.
    #[test]
    fn sim_cross_check_composes_vrp_values_on_generated_programs() {
        let mut composed = 0;
        for index in 0..8 {
            let (p, bound) = generate_with_bound(&case_gen_config(42, index));
            sim_cross_check(&p, bound).unwrap_or_else(|e| panic!("case {index}: {e}"));
            let mut vrp = p.clone();
            VrpPass::new(VrpConfig { useful_policy: UsefulPolicy::Paper, ..Default::default() })
                .run(&mut vrp);
            let cfg = RunConfig { max_steps: bound, ..Default::default() };
            let path = |p: &Program| {
                let mut counter = ValueCounter::new();
                Vm::new(p, cfg.clone()).run_streamed(&mut counter).unwrap();
                counter.path()
            };
            if vrp != p && vrp.eq_ignoring_widths(&p) && path(&vrp) == path(&p) {
                composed += 1;
            }
        }
        assert!(composed >= 6, "only {composed} of 8 cases reached the composed comparison");
    }

    #[test]
    fn batch_cross_check_passes_on_generated_programs() {
        for index in 0..4 {
            let (p, bound) = generate_with_bound(&case_gen_config(42, index));
            batch_cross_check(&p, bound).unwrap_or_else(|e| panic!("case {index}: {e}"));
        }
    }

    #[test]
    fn generated_programs_verify_clean_with_call_depth_certificates() {
        // One half of the invariant the campaign fuzzes: everything the
        // generator emits must pass the collect-all verifier, and since
        // the generator never emits recursion, every program must carry a
        // static call-depth certificate within the VM's default budget.
        let budget = RunConfig::default().max_call_depth;
        for index in 0..32 {
            let (p, _) = generate_with_bound(&case_gen_config(0xCE27, index));
            let ctx = p.verify_all().unwrap_or_else(|errors| {
                panic!("generated case {index} fails to verify: {errors:?}")
            });
            let depth = ctx
                .static_call_depth
                .unwrap_or_else(|| panic!("generated case {index} has no depth certificate"));
            assert!(depth <= budget, "case {index}: depth {depth} exceeds budget {budget}");
            assert!(ctx.recursion_free, "case {index}: generator emitted recursion");
        }
    }
}
