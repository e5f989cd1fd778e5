//! Pinned expected outputs of the study path.
//!
//! * Every suite program's baseline output digest and committed steps —
//!   the same values `crates/workloads/tests/golden.rs` pins.
//! * One digest over the simulated statistics of all 72 study runs:
//!   `CycleStats`, activity, and the energy report under every
//!   `GatingScheme`. The model has no real-hardware reference in the
//!   repository, so this pins the model's outputs, not their accuracy.
//!
//! If a change alters these outputs on purpose, re-pin the digest from
//! the `FAIL` line of any `study` run, which prints the freshly computed
//! value beside the pinned one.

use crate::report::Outcome;
use og_json::ToJson;
use og_lab::{Mech, Study};
use og_power::{EnergyModel, GatingScheme};
use og_vm::{RunConfig, Vm};
use og_workloads::{InputSet, NAMES};

/// The expected values a run is checked against.
#[derive(Debug, Clone)]
pub struct Pinned {
    /// (workload, input set, output digest, committed steps).
    pub golden: [(&'static str, InputSet, u64, u64); 16],
    /// [`study_stats_digest`] of the full study.
    pub study_stats: u64,
}

/// The values pinned for the current model.
pub const PINNED: Pinned = Pinned {
    golden: [
        ("compress", InputSet::Train, 0xeb1f8a952cfa4894, 15356),
        ("gcc", InputSet::Train, 0x281e714cb301371e, 31132),
        ("go", InputSet::Train, 0x1436f4bc028c4415, 18261),
        ("ijpeg", InputSet::Train, 0x7046a1a3e6240d4e, 5080),
        ("li", InputSet::Train, 0xbe97f77242f80117, 3810),
        ("m88ksim", InputSet::Train, 0x9f50e84e9a092193, 50454),
        ("perl", InputSet::Train, 0xe1228f5c1b8b9933, 21206),
        ("vortex", InputSet::Train, 0xfa89aa765b0a7dba, 6250),
        ("compress", InputSet::Ref, 0xf059e9e5b6d9c415, 459156),
        ("gcc", InputSet::Ref, 0x5619f029cd369e01, 931985),
        ("go", InputSet::Ref, 0x362385ffd854e60d, 547627),
        ("ijpeg", InputSet::Ref, 0x11f6ddc5997832df, 152168),
        ("li", InputSet::Ref, 0x49e60aa3be1f70b4, 113430),
        ("m88ksim", InputSet::Ref, 0xcdbb76a0a342d15a, 1508702),
        ("perl", InputSet::Ref, 0xecf973923336011f, 622586),
        ("vortex", InputSet::Ref, 0xd84bcca60ca6b350, 266250),
    ],
    study_stats: 0x8d675f2cd9e7d186,
};

impl Pinned {
    /// The pinned (digest, steps) of `bench` on `input`.
    pub fn golden(&self, bench: &str, input: InputSet) -> Option<(u64, u64)> {
        self.golden.iter().find(|g| g.0 == bench && g.1 == input).map(|g| (g.2, g.3))
    }
}

/// One FNV-1a digest over every run's simulated statistics, activity
/// and priced energy under every gating scheme, in study order.
pub fn study_stats_digest(study: &Study) -> u64 {
    let model = EnergyModel::new();
    let render = |j: og_json::Json| og_json::render(&j).expect("model outputs are finite");
    let mut text = String::new();
    for run in study.runs() {
        text.push_str(&run.bench);
        text.push('|');
        text.push_str(&run.mech.label());
        text.push('|');
        text.push_str(&render(run.sim.to_json()));
        text.push_str(&render(run.activity.to_json()));
        for scheme in GatingScheme::ALL {
            text.push_str(&render(model.report(&run.activity, scheme).to_json()));
        }
    }
    og_vm::fnv1a(text.as_bytes())
}

/// Check a computed study: every pair present, every baseline equal to
/// its golden digest and step count, every mechanism observationally
/// equal to its baseline, and the statistics digest equal to the pinned
/// one. Counts one attempt per run; a statistics mismatch fails all of
/// them, since it cannot be attributed to one run.
pub fn check_study(study: &Study, pinned: &Pinned, out: &mut Outcome) {
    let expected_runs = NAMES.len() * Mech::ALL.len();
    out.attempt(expected_runs as u64);
    let mut bad = 0u64;
    for bench in NAMES {
        let Some((digest, steps)) = pinned.golden(bench, InputSet::Ref) else {
            out.fail(format!("no pinned golden value for {bench}"));
            continue;
        };
        for mech in Mech::ALL {
            match study.try_get(bench, mech) {
                None => {
                    bad += 1;
                    out.fail(format!("study has no run {bench}/{mech:?}"));
                }
                Some(run) if run.digest != digest => {
                    bad += 1;
                    out.fail(format!(
                        "{bench}/{mech:?}: digest {:#x} != pinned {digest:#x}",
                        run.digest
                    ));
                }
                Some(run) if mech == Mech::Baseline && run.insts != steps => {
                    bad += 1;
                    out.fail(format!("{bench}/baseline: {} steps != pinned {steps}", run.insts));
                }
                Some(_) => {}
            }
        }
    }
    let stats = study_stats_digest(study);
    if stats != pinned.study_stats {
        out.fail_many(
            expected_runs as u64 - bad,
            format!("study statistics digest {stats:#018x} != pinned {:#018x}", pinned.study_stats),
        );
    }
}

/// Build one suite program and check its baseline run against the
/// golden values: the expected output the study set-up computes.
/// Returns the program.
pub fn build_and_check(
    bench: &str,
    input: InputSet,
    pinned: &Pinned,
    out: &mut Outcome,
) -> og_program::Program {
    let program = og_workloads::by_name(bench, input).program;
    out.attempt(1);
    let outcome = Vm::new(&program, RunConfig::default()).run();
    match (outcome, pinned.golden(bench, input)) {
        (Ok(o), Some((digest, steps))) if o.output_digest == digest && o.steps == steps => {}
        (Ok(o), Some((digest, steps))) => out.fail(format!(
            "{bench}/{input:?}: ({:#x}, {}) != pinned ({digest:#x}, {steps})",
            o.output_digest, o.steps
        )),
        (Ok(_), None) => out.fail(format!("{bench}/{input:?}: no pinned value")),
        (Err(e), _) => out.fail(format!("{bench}/{input:?}: baseline run failed: {e}")),
    }
    program
}
