//! Study equivalence: [`og_lab::compute_study`] runs one fused pass per
//! *distinct* transformed program and folds it into every mechanism
//! that produced that code. Each of its 72 summaries must be
//! **byte-identical** — same digests, same JSON bytes — to an
//! independent, non-deduplicated [`og_lab::run_program`] of the same
//! (benchmark, mechanism) pair. The study is computed fresh here, never
//! loaded from the on-disk cache, which older code may have written.
//! The same check pins the program-first entry point that
//! `run_pipeline` and the service wrap to the study's artifact.

use og_lab::{compute_study, run_program, Mech, WorkerPool, STUDY_VERSION};
use og_vm::RunConfig;
use og_workloads::{by_name, InputSet, NAMES};
use std::sync::mpsc;

#[test]
fn run_program_reproduces_every_fresh_study_summary_byte_identically() {
    let study = compute_study();
    assert_eq!(study.version, STUDY_VERSION);
    assert_eq!(
        study.runs().len(),
        NAMES.len() * Mech::ALL.len(),
        "the study must hold the full bench x mech matrix"
    );

    // Re-run the whole matrix through the program-first entry point, one
    // independent pass per pair, on the same worker pool the study uses.
    let pool = WorkerPool::with_default_parallelism();
    let (tx, rx) = mpsc::channel();
    for (i, run) in study.runs().iter().enumerate() {
        let tx = tx.clone();
        let bench = run.bench.clone();
        let mech = run.mech;
        pool.submit(move || {
            let program = by_name(&bench, InputSet::Ref).program;
            let train =
                matches!(mech, Mech::Vrs(_)).then(|| by_name(&bench, InputSet::Train).program);
            let summary =
                run_program(&bench, &program, mech, train.as_ref(), RunConfig::default(), None)
                    .unwrap_or_else(|e| panic!("{bench}/{mech:?}: {e}"));
            tx.send((i, summary)).expect("collector alive");
        });
    }
    drop(tx);

    let mut seen = 0usize;
    for (i, summary) in rx {
        let computed = &study.runs()[i];
        assert_eq!(
            &summary, computed,
            "run_program diverged from the study's {}/{:?}",
            computed.bench, computed.mech
        );
        // Byte-level, not just PartialEq: the serialized form is what
        // the cache file and the service's keyed store actually hold.
        assert_eq!(
            serde_json::to_string(&summary).unwrap(),
            serde_json::to_string(computed).unwrap(),
            "serialized bytes diverged for {}/{:?}",
            computed.bench,
            computed.mech
        );
        seen += 1;
    }
    assert_eq!(seen, study.runs().len(), "{} run(s) went missing", pool.panicked_jobs());
}
