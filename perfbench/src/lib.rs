//! Layer-timed benchmark of the paper's study path and of
//! `og_serve::Service::call`.
//!
//! The benchmark measures from outside: it only times calls into the
//! workspace crates' public functions. Three workloads:
//!
//! * `study` — cold `og_lab::compute_study` (8 `Ref` programs × 9
//!   mechanisms) followed by warm `og_lab::run_study` loads;
//! * `serve_miss` — a closed loop of one client per core over more
//!   distinct generated programs than the service's artifact LRU holds,
//!   so every call verifies, lowers, runs and evicts;
//! * `serve_hit` — the same loop over 64 primed programs plus ~10%
//!   invalid requests, so every valid call is a memoized result hit.
//!
//! An untraced run reports the end-to-end metrics; a traced run (a
//! separate process) wraps the public layer calls in spans and reports
//! the per-layer metrics. See `NOTES.md` beside this crate for why each
//! workload exists and which end-to-end metric each layer metric moves.

pub mod oracle;
pub mod record;
pub mod report;
pub mod serve;
pub mod stats;
pub mod study;
pub mod trace;

use std::time::Duration;

/// What one benchmark run was asked to do.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Input seed (the study ignores it: its inputs are the fixed suite).
    pub seed: u64,
    /// Length of the timed phase of an untraced run.
    pub seconds: Duration,
    /// Directory inside the checkout for span files and scratch state.
    pub out_dir: std::path::PathBuf,
}

/// Write a traced run's spans to `<out_dir>/trace-<label>-seed<seed>.jsonl`
/// and note where they went.
pub fn write_trace(spec: &RunSpec, label: &str, spans: &[trace::Span], out: &mut report::Outcome) {
    let path = spec.out_dir.join(format!("trace-{label}-seed{}.jsonl", spec.seed));
    match trace::write_spans(spans, &path) {
        Ok(()) => out.notes.push(format!("spans: {} written to {}", spans.len(), path.display())),
        Err(e) => out.notes.push(format!("spans: could not write {}: {e}", path.display())),
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold `compute_study` plus warm `run_study`.
    Study,
    /// `Service::call` with every call a cache miss.
    ServeMiss,
    /// `Service::call` with every valid call a memoized result hit.
    ServeHit,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Study, Workload::ServeMiss, Workload::ServeHit];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::ServeMiss => "serve_miss",
            Workload::ServeHit => "serve_hit",
        }
    }

    /// Look a workload up by its name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run one workload, untraced (end-to-end metrics) or traced (per-layer
/// metrics).
pub fn run(workload: Workload, spec: &RunSpec, traced: bool) -> report::Outcome {
    match (workload, traced) {
        (Workload::Study, false) => study::run(spec, &oracle::PINNED),
        (Workload::Study, true) => study::run_traced(spec, &oracle::PINNED),
        (w, false) => serve::run(w, spec, &serve::Shape::for_workload(w)),
        (w, true) => serve::run_traced(w, spec, &serve::Shape::for_workload(w)),
    }
}
