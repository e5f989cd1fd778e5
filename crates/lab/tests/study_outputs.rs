//! The study's simulated outputs, pinned and checked on a **freshly
//! computed** study (never the on-disk cache, which may be stale).
//!
//! * One FNV-1a digest over every run's `CycleStats`, activity and
//!   energy report under every `GatingScheme`, in study order — the
//!   same definition as `study_stats_digest` in the `perfbench`
//!   benchmark, copied here because that package is a separate
//!   workspace. Any change to the timing model, the activity accounting
//!   or the power model moves it; a change that means to must re-pin it
//!   here and in the benchmark's oracle.
//! * Invariants every simulation must satisfy whatever the model's
//!   numbers: a retire-bandwidth bound on cycles, cache miss and L2
//!   access accounting, and the ordering of active bytes across the
//!   gating schemes.

use og_json::ToJson;
use og_lab::{compute_study, Mech, Study};
use og_power::{EnergyModel, GatingScheme};
use og_sim::{MachineConfig, Structure};
use og_workloads::NAMES;
use std::sync::OnceLock;

/// The pinned digest of [`study_stats_digest`] over the full study.
const PINNED_STUDY_STATS: u64 = 0x8d675f2cd9e7d186;

/// One fresh study shared by the tests of this binary.
fn fresh_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(compute_study)
}

/// One FNV-1a digest over every run's simulated statistics, activity
/// and priced energy under every gating scheme, in study order.
fn study_stats_digest(study: &Study) -> u64 {
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

#[test]
fn fresh_study_matches_the_pinned_statistics_digest() {
    let study = fresh_study();
    assert_eq!(study.runs().len(), NAMES.len() * Mech::ALL.len());
    let digest = study_stats_digest(study);
    assert_eq!(
        digest, PINNED_STUDY_STATS,
        "study statistics digest {digest:#018x} != pinned {PINNED_STUDY_STATS:#018x}"
    );
}

#[test]
fn fresh_study_satisfies_simulator_invariants() {
    let retire_width = MachineConfig::default().retire_width as u64;
    for run in fresh_study().runs() {
        let what = format!("{}/{}", run.bench, run.mech.label());
        let s = &run.sim;
        assert_eq!(s.insts, run.insts, "{what}: simulated and committed counts differ");
        assert!(
            s.cycles >= s.insts.div_ceil(retire_width),
            "{what}: {} cycles cannot retire {} insts at {retire_width}/cycle",
            s.cycles,
            s.insts
        );
        for (name, (accesses, misses)) in [("I", s.icache), ("D", s.dcache), ("L2", s.l2)] {
            assert!(misses <= accesses, "{what}: {name} misses {misses} > accesses {accesses}");
        }
        assert_eq!(
            s.l2.0,
            s.icache.1 + s.dcache.1,
            "{what}: every L1 miss, and nothing else, accesses the L2"
        );
        for st in Structure::ALL {
            let a = run.activity.of(st);
            let b = a.bytes;
            let n = a.value_accesses;
            let name = st.name();
            assert!(n <= a.accesses, "{what} {name}: value accesses exceed accesses");
            assert!(
                b.none >= b.hw_size && b.hw_size >= b.hw_significance && b.hw_significance >= n,
                "{what} {name}: none {} >= hw_size {} >= hw_significance {} >= accesses {n}",
                b.none,
                b.hw_size,
                b.hw_significance
            );
            assert!(b.software >= n, "{what} {name}: software {} < accesses {n}", b.software);
            assert!(
                b.cooperative <= b.software.min(b.hw_size),
                "{what} {name}: cooperative {} > min(software {}, hw_size {})",
                b.cooperative,
                b.software,
                b.hw_size
            );
        }
    }
}
