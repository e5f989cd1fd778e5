//! # og-lab: the experiment pipeline
//!
//! Reproduces the paper's evaluation end to end. One [`run_study`] call
//! executes, for every benchmark of the SpecInt95-analogue suite and every
//! software mechanism (baseline, conventional VRP, the proposed useful-VRP,
//! the aggressive-useful ablation, and VRS at the five specialization-cost
//! points of Figure 8):
//!
//! 1. build the workload (reference input; training input for VRS),
//! 2. apply the program transformation,
//! 3. emulate **and** simulate in one fused pass: the VM streams each
//!    committed instruction straight into the cycle-level simulator
//!    (`og_vm::TraceSink`), so no trace is ever materialized — O(1)
//!    trace memory instead of ~56 B × steps,
//! 4. check observational equivalence against the baseline output,
//! 5. summarize timing + width-annotated activity into a serializable
//!    [`RunSummary`].
//!
//! Hardware and cooperative gating schemes need no extra runs: every
//! access was recorded with both its opcode width and its dynamic
//! significance, so `og-power` prices all five schemes from the same
//! activity record.
//!
//! The full study runs one worker-pool job per benchmark. Many
//! mechanisms transform a benchmark into the same code (VRS at every
//! cost often leaves the VRP program, and VRP and its aggressive
//! ablation often coincide), so a job runs step 3 once per *distinct*
//! transformed program and steps 4–5 once per mechanism, folding the
//! shared pass into the summary of every mechanism that produced it:
//! 25 passes for the 72 summaries of the suite. Most distinct programs
//! differ from the baseline only in opcode widths, and widths do not
//! move the timing model, so only 10 of the 25 passes are timed (VM
//! into the full simulator). The other 15 are value-only: the VM
//! streams into an `og_sim::ValueCounter`, and the timing comes from
//! the timed pass over the same code and path (`og_sim::PathTiming`).
//!
//! ## The study cache
//!
//! The full study is expensive (8 benchmarks × 9 mechanisms, each a
//! complete transform → emulate → simulate pipeline) and all 19 bench
//! targets consume the same one, so [`run_study`] caches it on disk as
//! JSON (via the in-tree `og-json` layer) and in the process behind
//! [`shared_study`]'s `OnceLock`:
//!
//! * **Path** — `og-study-v{`[`STUDY_VERSION`]`}.json` under
//!   `$CARGO_TARGET_DIR` (default: the workspace `target/`), or under
//!   `$OG_STUDY_DIR` when set.
//! * **Versioning** — [`STUDY_VERSION`] is stamped both into the file
//!   name and the JSON body; bump it when pipeline semantics change. A
//!   cache whose body version disagrees, or that fails to parse, is
//!   removed together with any other stale `og-study-v*.json` files, one
//!   explanatory line goes to stderr, and the study is recomputed.
//! * **Atomicity** — writes go to `og-study-v*.json.tmp.<pid>.<seq>` in
//!   the same directory and are `rename`d into place, so concurrent
//!   writers (bench processes or threads) never leave a torn file for a
//!   reader to observe; write failures are reported on stderr (the
//!   study is still returned). Crash-orphaned tmp files are swept by
//!   the next recompute once they are old enough to be provably dead.
//! * **`OG_STUDY_NOCACHE=1`** — bypass the cache entirely: neither read
//!   nor written. Delete the file instead to force one recompute that
//!   refreshes the cache.
//! * **`OG_STUDY_REQUIRE_CACHE=1`** — panic instead of recomputing on a
//!   cache miss. CI uses this to fail loudly if the warm path regresses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod fault;
pub mod figures;
mod pipeline;
pub mod pool;
pub mod report;
mod serialize;

pub use batch::{run_batch, BatchJob};
pub use pipeline::{run_lowered, run_program, RunError};
pub use pool::WorkerPool;

use og_isa::OpClass;
use og_power::{ed2_improvement, EnergyModel, EnergyReport, GatingScheme};
use og_program::{FuncId, Function, Program};
use og_sim::{ActivityCounts, CycleStats, Structure};
use og_vm::{RunConfig, RunOutcome, Vm};
use og_workloads::{by_name, InputSet, NAMES};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Bump when pipeline semantics change to invalidate cached studies.
///
/// v9: the emulator records source-operand significances from the values
/// *as read* instead of re-reading registers after execution, which
/// observed the freshly written result whenever an instruction's
/// destination aliased one of its sources (e.g. `add t0, t0, 1`). A
/// byte-compare of the warm cache across the PR 5 engine refactor showed
/// exactly the expected drift — `sig_fracs` and the significance-priced
/// activity bytes — while digests, step counts and timing were
/// bit-identical, so the cache version advances with it.
pub const STUDY_VERSION: u32 = 9;

/// A software mechanism applied to the program before measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mech {
    /// Unmodified program.
    Baseline,
    /// Conventional VRP: ranges only, no useful-width demands
    /// (Figure 2's "Conventional VRP").
    ConvVrp,
    /// The paper's proposed VRP with useful-range propagation.
    Vrp,
    /// Ablation: useful demands also cross low-bits-closed arithmetic.
    VrpAggressive,
    /// Value range specialization with the given specialization cost
    /// (nJ) — the Figures 8–11 knob.
    Vrs(u32),
}

impl Mech {
    /// The mechanisms of the full study.
    pub const ALL: [Mech; 9] = [
        Mech::Baseline,
        Mech::ConvVrp,
        Mech::Vrp,
        Mech::VrpAggressive,
        Mech::Vrs(110),
        Mech::Vrs(90),
        Mech::Vrs(70),
        Mech::Vrs(50),
        Mech::Vrs(30),
    ];

    /// Display label (matches the paper's legends). Borrowed for every
    /// fixed mechanism; only the parameterized `Vrs` arm allocates, so
    /// the figure-rendering loops calling this stay allocation-free on
    /// the common arms.
    pub fn label(self) -> Cow<'static, str> {
        match self {
            Mech::Baseline => Cow::Borrowed("baseline"),
            Mech::ConvVrp => Cow::Borrowed("conventional VRP"),
            Mech::Vrp => Cow::Borrowed("VRP"),
            Mech::VrpAggressive => Cow::Borrowed("VRP (aggressive)"),
            Mech::Vrs(c) => Cow::Owned(format!("VRS {c}nJ")),
        }
    }
}

/// VRS bookkeeping carried into the summaries (Figures 4–6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VrsSummary {
    /// Points profiled.
    pub profiled: usize,
    /// Triage counts: (no benefit, dependent, specialized).
    pub fates: (usize, usize, usize),
    /// Static instructions in specialized clones that got narrower.
    pub static_specialized: usize,
    /// Static instructions eliminated from clones.
    pub static_eliminated: usize,
    /// Fraction of dynamic instructions inside specialized clones.
    pub runtime_specialized_frac: f64,
    /// Fraction of dynamic instructions that are guard tests.
    pub runtime_guard_frac: f64,
}

/// One (benchmark, mechanism) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Benchmark name.
    pub bench: String,
    /// Mechanism applied.
    pub mech: Mech,
    /// Output digest (must match the baseline's).
    pub digest: u64,
    /// Committed instructions.
    pub insts: u64,
    /// Timing results.
    pub sim: CycleStats,
    /// Width-annotated activity.
    pub activity: ActivityCounts,
    /// Dynamic width distribution [8, 16, 32, 64]-bit fractions.
    pub width_fracs: [f64; 4],
    /// Dynamic value-size distribution (1..=8 significant bytes).
    pub sig_fracs: [f64; 8],
    /// Dynamic (class × width) counts for Table 3.
    pub class_width: [[u64; 4]; 13],
    /// VRS bookkeeping, for VRS runs.
    pub vrs: Option<VrsSummary>,
}

impl RunSummary {
    /// Energy under a gating scheme.
    pub fn energy(&self, model: &EnergyModel, scheme: GatingScheme) -> EnergyReport {
        model.report(&self.activity, scheme)
    }
}

/// The full study: all benchmarks × mechanisms.
#[derive(Debug, Serialize, Deserialize)]
pub struct Study {
    /// Version stamp of the pipeline that produced this study.
    pub version: u32,
    /// All runs; read via [`Study::runs`], mutate via
    /// [`Study::runs_mut`] (which invalidates the lookup index).
    runs: Vec<RunSummary>,
    /// Lazily built `(mechanism → benchmark → index into runs)` lookup,
    /// so the figure renderers' nested loops over 72 runs do O(1) hash
    /// probes instead of an O(runs) linear scan per cell.
    index: OnceLock<HashMap<Mech, HashMap<String, usize>>>,
}

impl Clone for Study {
    fn clone(&self) -> Study {
        // The clone rebuilds its index on first use.
        Study::new(self.version, self.runs.clone())
    }
}

impl PartialEq for Study {
    fn eq(&self, other: &Study) -> bool {
        self.version == other.version && self.runs == other.runs
    }
}

impl Study {
    /// Assemble a study from its runs.
    pub fn new(version: u32, runs: Vec<RunSummary>) -> Study {
        Study { version, runs, index: OnceLock::new() }
    }

    /// All runs, in benchmark-major, [`Mech::ALL`] order for a full
    /// study.
    pub fn runs(&self) -> &[RunSummary] {
        &self.runs
    }

    /// Mutable access to the runs. Drops the lazily built lookup index,
    /// so a later [`Study::get`] rebuilds it against the edited runs —
    /// mutation can never leave stale lookups behind.
    pub fn runs_mut(&mut self) -> &mut Vec<RunSummary> {
        self.index = OnceLock::new();
        &mut self.runs
    }

    /// The run of (benchmark, mechanism), or `None` if the combination
    /// is missing. The non-panicking lookup for callers handling
    /// untrusted combinations — anything a service request can name goes
    /// through here.
    pub fn try_get(&self, bench: &str, mech: Mech) -> Option<&RunSummary> {
        let index = self.index.get_or_init(|| {
            let mut map: HashMap<Mech, HashMap<String, usize>> = HashMap::new();
            for (i, run) in self.runs.iter().enumerate() {
                // First entry wins, matching the old linear scan.
                map.entry(run.mech).or_default().entry(run.bench.clone()).or_insert(i);
            }
            map
        });
        index.get(&mech).and_then(|per_bench| per_bench.get(bench)).map(|&i| &self.runs[i])
    }

    /// The run of (benchmark, mechanism).
    ///
    /// # Panics
    ///
    /// Panics if the combination is missing. The figure renderers use
    /// this on the fixed suite, where a missing run is a pipeline bug;
    /// request-facing code uses [`Study::try_get`].
    pub fn get(&self, bench: &str, mech: Mech) -> &RunSummary {
        self.try_get(bench, mech).unwrap_or_else(|| panic!("missing run {bench}/{mech:?}"))
    }

    /// Benchmark names actually present in the runs, in suite
    /// order (names unknown to the suite sort last, in first-seen
    /// order). Derived from the runs — not the global suite list — so a
    /// partial or hand-edited study is detectable here instead of
    /// panicking later in [`Study::get`] with a misleading
    /// "missing run".
    pub fn benches(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for run in &self.runs {
            if !names.contains(&run.bench.as_str()) {
                names.push(&run.bench);
            }
        }
        names.sort_by_key(|n| NAMES.iter().position(|m| m == n).unwrap_or(usize::MAX));
        names
    }

    /// Energy savings of `mech` (priced under `scheme`) vs the baseline
    /// machine without gating, for one benchmark.
    pub fn energy_savings(
        &self,
        model: &EnergyModel,
        bench: &str,
        mech: Mech,
        scheme: GatingScheme,
    ) -> f64 {
        let base = self.get(bench, Mech::Baseline).energy(model, GatingScheme::None);
        let run = self.get(bench, mech).energy(model, scheme);
        run.total_savings_vs(&base)
    }

    /// Per-structure energy savings averaged over the benchmarks present
    /// in the study.
    pub fn structure_savings(
        &self,
        model: &EnergyModel,
        mech: Mech,
        scheme: GatingScheme,
        s: Structure,
    ) -> f64 {
        let benches = self.benches();
        let mut acc = 0.0;
        for bench in &benches {
            let base = self.get(bench, Mech::Baseline).energy(model, GatingScheme::None);
            let run = self.get(bench, mech).energy(model, scheme);
            acc += run.savings_vs(&base, s);
        }
        acc / benches.len().max(1) as f64
    }

    /// ED² improvement of (`mech`, `scheme`) vs the ungated baseline.
    pub fn ed2_savings(
        &self,
        model: &EnergyModel,
        bench: &str,
        mech: Mech,
        scheme: GatingScheme,
    ) -> f64 {
        let base = self.get(bench, Mech::Baseline);
        let run = self.get(bench, mech);
        ed2_improvement(
            run.energy(model, scheme).total_nj,
            run.sim.cycles,
            base.energy(model, GatingScheme::None).total_nj,
            base.sim.cycles,
        )
    }

    /// Execution-time saving of `mech` vs baseline.
    pub fn time_savings(&self, bench: &str, mech: Mech) -> f64 {
        let base = self.get(bench, Mech::Baseline).sim.cycles as f64;
        1.0 - self.get(bench, mech).sim.cycles as f64 / base
    }
}

/// Run one (benchmark, mechanism) pipeline. `expected_digest` enforces
/// observational equivalence when known.
///
/// A thin wrapper over the program-first [`run_program`]: it builds the
/// named workload (plus the training input for VRS) and converts the
/// typed errors back into panics, which is the right contract for the
/// fixed suite — any failure here is a pipeline bug, not bad input.
///
/// # Panics
///
/// Panics if the workload fails to run or the transformed program's
/// output diverges from the baseline.
pub fn run_pipeline(bench: &str, mech: Mech, expected_digest: Option<u64>) -> RunSummary {
    let program = by_name(bench, InputSet::Ref).program;
    let train = matches!(mech, Mech::Vrs(_)).then(|| by_name(bench, InputSet::Train).program);
    run_program(bench, &program, mech, train.as_ref(), RunConfig::default(), expected_digest)
        .unwrap_or_else(|e| panic!("{bench}/{mech:?}: {e}"))
}

/// The directory study caches live in: `$OG_STUDY_DIR` if set, else
/// `$CARGO_TARGET_DIR`, else the workspace `target/`.
fn cache_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("OG_STUDY_DIR") {
        return PathBuf::from(dir);
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| {
        // Walk up from the crate dir to the workspace target dir.
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").to_string()
    });
    PathBuf::from(target)
}

/// Where [`run_study`] caches the current-version study.
pub fn study_cache_path() -> PathBuf {
    cache_dir().join(format!("og-study-v{STUDY_VERSION}.json"))
}

/// Why the cache could not serve a study.
enum CacheMiss {
    /// No cache file for the current version exists.
    Absent,
    /// A file exists but is unreadable, unparsable, or version-mismatched.
    Invalid(String),
}

fn load_cache(path: &Path) -> Result<Study, CacheMiss> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(CacheMiss::Absent),
        Err(e) => return Err(CacheMiss::Invalid(format!("unreadable: {e}"))),
    };
    let study: Study =
        serde_json::from_str(&text).map_err(|e| CacheMiss::Invalid(format!("unparsable: {e}")))?;
    if study.version != STUDY_VERSION {
        return Err(CacheMiss::Invalid(format!(
            "body version {} != current {STUDY_VERSION}",
            study.version
        )));
    }
    Ok(study)
}

/// How old a `*.json.tmp.*` file must be before the stale sweep may
/// delete it. A live writer finishes in well under a minute (the full
/// study serializes to ~160 KB); anything older is crash debris.
const TMP_DEBRIS_AGE: std::time::Duration = std::time::Duration::from_secs(15 * 60);

/// Remove every `og-study-v*.json` in `dir` — old pipeline versions and
/// corrupt current-version files alike — plus any `*.json.tmp.*` debris
/// a crashed writer left behind. Tmp files younger than
/// [`TMP_DEBRIS_AGE`] are spared: they may belong to a live
/// [`save_cache`] in another process, whose rename would fail if the
/// sweep deleted them mid-write. Returns the removed file names.
fn remove_stale_caches(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut removed = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let stale = name.starts_with("og-study-v")
            && (name.ends_with(".json")
                || (name.contains(".json.tmp.")
                    && entry
                        .metadata()
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age > TMP_DEBRIS_AGE)));
        if stale {
            match std::fs::remove_file(entry.path()) {
                Ok(()) => removed.push(name),
                Err(e) => eprintln!("og-lab: failed to remove stale cache {name}: {e}"),
            }
        }
    }
    removed
}

/// Serialize `study` and move it into place atomically via
/// [`og_json::store::atomic_write`] — the `tmp.<pid>.<seq>` + rename
/// discipline this cache pioneered, now shared with the keyed store.
fn save_cache(path: &Path, study: &Study) -> Result<(), String> {
    let text = serde_json::to_string(study).map_err(|e| format!("serialize failed: {e}"))?;
    og_json::store::atomic_write(path, &text)
}

/// Times this process fell through to a full study computation. The
/// cold→warm tests (and CI's cache-regression check) assert on this.
static STUDY_RECOMPUTES: AtomicU64 = AtomicU64::new(0);

/// How many times this process recomputed the study instead of loading
/// it from cache.
pub fn study_recomputes() -> u64 {
    STUDY_RECOMPUTES.load(Ordering::Relaxed)
}

/// Run (or load from cache) the full study. See the module docs for the
/// cache semantics (`OG_STUDY_DIR`, `OG_STUDY_NOCACHE`,
/// `OG_STUDY_REQUIRE_CACHE`, versioning, atomicity).
pub fn run_study() -> Study {
    run_study_with(compute_study)
}

/// [`run_study`] with the computation injectable, so tests can drive the
/// cache machinery with a cheap study. Not part of the stable API.
#[doc(hidden)]
pub fn run_study_with(compute: impl FnOnce() -> Study) -> Study {
    if std::env::var_os("OG_STUDY_NOCACHE").is_some() {
        return compute();
    }
    let path = study_cache_path();
    match load_cache(&path) {
        Ok(study) => return study,
        Err(CacheMiss::Absent) => {
            eprintln!("og-lab: no study cache at {}; computing", path.display());
        }
        Err(CacheMiss::Invalid(why)) => {
            eprintln!("og-lab: study cache {} is stale ({why}); recomputing", path.display());
        }
    }
    let removed = remove_stale_caches(&cache_dir());
    if !removed.is_empty() {
        eprintln!("og-lab: removed stale study cache file(s): {}", removed.join(", "));
    }
    assert!(
        std::env::var_os("OG_STUDY_REQUIRE_CACHE").is_none(),
        "OG_STUDY_REQUIRE_CACHE is set but the study cache at {} missed",
        path.display()
    );
    let study = compute();
    match save_cache(&path, &study) {
        Ok(()) => eprintln!("og-lab: study cached at {}", path.display()),
        Err(e) => eprintln!("og-lab: failed to write study cache: {e}"),
    }
    study
}

/// The study shared by every consumer in this process: computed (or
/// loaded) once behind a `OnceLock`, so `exp_all` and multi-figure runs
/// pay for at most one [`run_study`] however many figures they render.
pub fn shared_study() -> &'static Study {
    static SHARED: OnceLock<Study> = OnceLock::new();
    SHARED.get_or_init(run_study)
}

/// Collect exactly `n` indexed results from a pool-fed channel,
/// panicking with the pool's panic count if jobs went missing (a
/// panicked job drops its sender without sending).
fn drain_indexed<T>(
    rx: std::sync::mpsc::Receiver<(usize, T)>,
    n: usize,
    pool: &WorkerPool,
    what: &str,
) -> Vec<Option<T>> {
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut received = 0usize;
    for (idx, value) in rx {
        assert!(slots[idx].replace(value).is_none(), "{what}: slot {idx} filled twice");
        received += 1;
    }
    assert_eq!(received, n, "{what}: {} job(s) panicked in the worker pool", pool.panicked_jobs());
    slots
}

/// Run the full study without touching the cache.
///
/// One [`WorkerPool`] job per benchmark (`study_bench`) builds the
/// `Ref` and `Train` programs once, applies every [`Mech::ALL`]
/// transform, and runs one pass only for code it has not already run;
/// each mechanism's summary is folded from its program's pass. A pass
/// over code that equals an already timed pass's with widths ignored is
/// value-only (the VM feeds a value counter, and the timed pass lends
/// its timing once the path digests agree); any other pass is the fused
/// emulate+simulate pass. On the suite that is 10 timed and 15
/// value-only passes for the 72 summaries. The baseline's digest is
/// every other mechanism's expected digest, and a phase-0 run of the
/// baselines through the batched no-stats engine must agree with it.
/// The jobs take the benchmarks longest first, by the baselines'
/// phase-0 step counts, so the pool never starts its largest job last.
/// The runs come out benchmark-major, in [`Mech::ALL`] order, exactly
/// as 72 independent [`run_pipeline`] calls would produce them.
pub fn compute_study() -> Study {
    STUDY_RECOMPUTES.fetch_add(1, Ordering::Relaxed);
    let pool = WorkerPool::with_default_parallelism();

    // Phase 0: run every baseline through the batched no-stats engine.
    // Cheap relative to the full pipeline (no simulation, no stats) and
    // it cross-checks the fused+batched fast path against the full
    // engine on every study recompute: the study's baseline digests
    // must agree.
    let batch_jobs: Vec<BatchJob> = NAMES
        .iter()
        .map(|&bench| {
            let program = Arc::new(by_name(bench, InputSet::Ref).program);
            BatchJob::verified(program, RunConfig::default())
                .unwrap_or_else(|e| panic!("{bench}: workload must verify: {e:?}"))
        })
        .collect();
    let baselines: Vec<RunOutcome> = run_batch(&pool, batch_jobs)
        .into_iter()
        .zip(NAMES)
        .map(|(slot, bench)| {
            slot.unwrap_or_else(|| panic!("{bench}: batch shard lost to a worker panic"))
                .unwrap_or_else(|e| panic!("{bench}: batched run failed: {e:?}"))
        })
        .collect();
    let batch_digests: Vec<u64> = baselines.iter().map(|o| o.output_digest).collect();

    // Longest first: the jobs are interchangeable, and each takes the
    // next benchmark of this list when it starts, so the order holds
    // whatever order the pool runs its jobs in.
    let mut order: Vec<usize> = (0..NAMES.len()).collect();
    order.sort_by_key(|&bi| std::cmp::Reverse(baselines[bi].steps));
    let order = Arc::new(order);
    let next = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = std::sync::mpsc::channel();
    for _ in NAMES {
        let (tx, order, next) = (tx.clone(), Arc::clone(&order), Arc::clone(&next));
        pool.submit(move || {
            let bi = order[next.fetch_add(1, Ordering::Relaxed)];
            let (runs, _) = study_bench(NAMES[bi]);
            tx.send((bi, runs)).expect("study collector alive");
        });
    }
    drop(tx);
    let rows = drain_indexed(rx, NAMES.len(), &pool, "benchmark rows");

    let mut runs = Vec::with_capacity(NAMES.len() * Mech::ALL.len());
    for (row, batch_digest) in rows.into_iter().zip(batch_digests) {
        let row = row.expect("one row per bench");
        assert_eq!(
            row[0].digest, batch_digest,
            "batched no-stats engine diverged from the full pipeline on {}'s baseline digest",
            row[0].bench
        );
        runs.extend(row);
    }
    Study::new(STUDY_VERSION, runs)
}

/// How a benchmark's row of the study was produced: one pass per
/// distinct transformed program, each either timed (VM streaming into
/// the full [`og_sim::Simulator`]) or value-only (VM streaming into an
/// [`og_sim::ValueCounter`], its timing composed from a timed pass).
#[derive(Debug, Default)]
struct Passes {
    timed: usize,
    value_only: usize,
}

/// One distinct transformed program of a benchmark and its pass.
/// Transforms rewrite code and never the data segment (asserted), so a
/// pass keeps the code alone — `funcs` and `entry` — which keeps the
/// data segments (up to 233 KB) out of the memo.
struct Pass {
    funcs: Vec<Function>,
    entry: FuncId,
    run: pipeline::Executed,
    /// The pass's timing, for timed passes only.
    timing: Option<og_sim::PathTiming>,
}

impl Pass {
    /// Did this pass run `program`'s code?
    fn same_code(&self, program: &Program) -> bool {
        self.entry == program.entry && self.funcs == program.funcs
    }

    /// Did this pass run `program`'s code with at most other widths?
    fn same_code_ignoring_widths(&self, program: &Program) -> bool {
        self.entry == program.entry
            && self.funcs.len() == program.funcs.len()
            && self.funcs.iter().zip(&program.funcs).all(|(a, b)| a.eq_ignoring_widths(b))
    }
}

/// One benchmark's row of the study: its summaries in [`Mech::ALL`]
/// order, and the passes that produced them.
///
/// A mechanism whose program equals an earlier one's reuses that pass.
/// Otherwise, if its code equals that of one or more *timed* passes
/// with every width ignored ([`Program::eq_ignoring_widths`]; the data
/// segment is the benchmark's in every pass), its VM run streams into
/// a value counter only and takes its timing from the timed pass with
/// the same path digest. Any other program, or one whose values took
/// another path, gets a full timed pass. The outcome, digest check,
/// dynamic statistics and VRS pricing of every program always come
/// from its own VM run.
///
/// # Panics
///
/// Panics if a transform fails, a pass fails to run, or a mechanism's
/// output diverges from the baseline's.
fn study_bench(bench: &str) -> (Vec<RunSummary>, Passes) {
    let base = by_name(bench, InputSet::Ref).program;
    let train = by_name(bench, InputSet::Train).program;
    let mut passes: Vec<Pass> = Vec::new();
    let mut counts = Passes::default();
    let mut runs: Vec<RunSummary> = Vec::with_capacity(Mech::ALL.len());
    for mech in Mech::ALL {
        let mut program = base.clone();
        let vrs = pipeline::apply_mech(&mut program, mech, Some(&train))
            .unwrap_or_else(|e| panic!("{bench}/{mech:?}: {e}"));
        assert!(program.data == base.data, "{bench}/{mech:?}: transform touched the data segment");
        // The baseline runs first; its digest is everyone else's oracle.
        let expected = runs.first().map(|base| base.digest);
        let fail = |e: RunError| -> ! { panic!("{bench}/{mech:?}: {e}") };
        let summarize = |program: &Program, run: &pipeline::Executed| {
            pipeline::summarize(bench, mech, program, run, expected, vrs)
                .unwrap_or_else(|e| fail(e))
        };
        if let Some(pass) = passes.iter().find(|p| p.same_code(&program)) {
            runs.push(summarize(&program, &pass.run));
            continue;
        }
        let timed: Vec<&og_sim::PathTiming> = passes
            .iter()
            .filter(|p| p.same_code_ignoring_widths(&program))
            .filter_map(|p| p.timing.as_ref())
            .collect();
        let vm = || Vm::new(&program, RunConfig::default());
        let composed = if timed.is_empty() {
            None
        } else {
            pipeline::execute_values(vm(), &timed).unwrap_or_else(|e| fail(e))
        };
        let (run, timing) = match composed {
            Some(run) => {
                counts.value_only += 1;
                (run, None)
            }
            None => {
                counts.timed += 1;
                let (run, timing) = pipeline::execute_timed(vm()).unwrap_or_else(|e| fail(e));
                (run, Some(timing))
            }
        };
        runs.push(summarize(&program, &run));
        passes.push(Pass { funcs: program.funcs, entry: program.entry, run, timing });
    }
    (runs, counts)
}

/// Dynamic Table 3 rows: per-class percentage of instructions and width
/// distribution within each class, averaged over the study's benchmarks
/// (VRP runs).
pub fn table3_rows(study: &Study) -> Vec<(OpClass, f64, [f64; 4])> {
    let mut per_class = [[0u64; 4]; 13];
    let mut total = 0u64;
    for bench in study.benches() {
        let run = study.get(bench, Mech::Vrp);
        for (c, row) in run.class_width.iter().enumerate() {
            for (w, &n) in row.iter().enumerate() {
                per_class[c][w] += n;
                total += n;
            }
        }
    }
    let mut rows = Vec::new();
    for class in OpClass::TABLE3_ROWS {
        let row = per_class[class.index()];
        let class_total: u64 = row.iter().sum();
        if class_total == 0 {
            rows.push((class, 0.0, [0.0; 4]));
            continue;
        }
        let pct = 100.0 * class_total as f64 / total.max(1) as f64;
        let mut dist = [0.0; 4];
        for (w, &n) in row.iter().enumerate() {
            dist[w] = 100.0 * n as f64 / class_total as f64;
        }
        rows.push((class, pct, dist));
    }
    rows
}

/// Suite-average width fractions for a mechanism.
pub fn avg_width_fracs(study: &Study, mech: Mech) -> [f64; 4] {
    let benches = study.benches();
    let mut acc = [0.0; 4];
    for bench in &benches {
        let f = study.get(bench, mech).width_fracs;
        for i in 0..4 {
            acc[i] += f[i];
        }
    }
    for v in &mut acc {
        *v /= benches.len().max(1) as f64;
    }
    acc
}

/// Suite-average dynamic value-size distribution (Figure 12).
pub fn avg_sig_fracs(study: &Study) -> [f64; 8] {
    let benches = study.benches();
    let mut acc = [0.0; 8];
    for bench in &benches {
        let f = study.get(bench, Mech::Baseline).sig_fracs;
        for i in 0..8 {
            acc[i] += f[i];
        }
    }
    for v in &mut acc {
        *v /= benches.len().max(1) as f64;
    }
    acc
}

/// The scheme a software mechanism's activity should be priced under when
/// combined with a hardware mechanism (Figure 15's combined bars).
pub fn combined_scheme(hw: GatingScheme) -> GatingScheme {
    match hw {
        GatingScheme::HwSize => GatingScheme::Cooperative,
        other => other,
    }
}

/// Convenience: map of benchmark → baseline cycles (used by tests).
pub fn baseline_cycles(study: &Study) -> HashMap<String, u64> {
    study
        .benches()
        .iter()
        .map(|&b| (b.to_string(), study.get(b, Mech::Baseline).sim.cycles))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pipeline_runs_and_checks_digest() {
        let base = run_pipeline("compress", Mech::Baseline, None);
        assert!(base.sim.cycles > 0);
        assert!(base.insts > 1000);
        let vrp = run_pipeline("compress", Mech::Vrp, Some(base.digest));
        assert_eq!(vrp.insts, base.insts, "VRP must not change the path");
        // VRP narrows: software-priced energy strictly below baseline's.
        let model = EnergyModel::new();
        let e_base = base.energy(&model, GatingScheme::None).total_nj;
        let e_vrp = vrp.energy(&model, GatingScheme::Software).total_nj;
        assert!(e_vrp < e_base, "{e_vrp} < {e_base}");
    }

    /// The savings [`compute_study`] exists for: 25 passes, not 72, and
    /// only 10 of them through the timing model. A change to program
    /// equality, to the width-free code check or to the path digest
    /// that silently stops reuse fails here instead of only slowing the
    /// study down.
    #[test]
    fn study_bench_runs_each_distinct_program_once() {
        let passes: Vec<Passes> = NAMES.iter().map(|bench| study_bench(bench).1).collect();
        let distinct: Vec<usize> = passes.iter().map(|p| p.timed + p.value_only).collect();
        let timed: Vec<usize> = passes.iter().map(|p| p.timed).collect();
        let value_only: Vec<usize> = passes.iter().map(|p| p.value_only).collect();
        assert_eq!(distinct, [2, 4, 3, 3, 3, 2, 4, 4], "passes per benchmark, {NAMES:?}");
        assert_eq!(timed, [1, 2, 1, 1, 1, 1, 1, 2], "timed passes per benchmark, {NAMES:?}");
        assert_eq!(value_only, [1, 2, 2, 2, 2, 1, 3, 2], "value-only passes, {NAMES:?}");
    }

    #[test]
    fn mech_labels_are_unique() {
        let labels: std::collections::HashSet<Cow<'static, str>> =
            Mech::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), Mech::ALL.len());
    }

    #[test]
    fn fixed_mech_labels_do_not_allocate() {
        for mech in [Mech::Baseline, Mech::ConvVrp, Mech::Vrp, Mech::VrpAggressive] {
            assert!(matches!(mech.label(), Cow::Borrowed(_)), "{mech:?}");
        }
        assert!(matches!(Mech::Vrs(50).label(), Cow::Owned(_)));
    }

    #[test]
    fn study_get_indexes_by_bench_and_mech() {
        let mk = |bench: &str, mech: Mech, insts: u64| {
            let base = run_pipeline_stub();
            RunSummary { bench: bench.into(), mech, insts, ..base }
        };
        let study = Study::new(
            STUDY_VERSION,
            vec![
                mk("compress", Mech::Baseline, 1),
                mk("compress", Mech::Vrp, 2),
                mk("gcc", Mech::Baseline, 3),
                mk("gcc", Mech::Vrs(50), 4),
            ],
        );
        assert_eq!(study.get("compress", Mech::Vrp).insts, 2);
        assert_eq!(study.get("gcc", Mech::Vrs(50)).insts, 4);
        assert_eq!(study.get("gcc", Mech::Baseline).insts, 3);
        // clones rebuild the index and agree
        let clone = study.clone();
        assert_eq!(clone.get("compress", Mech::Baseline).insts, 1);
        assert_eq!(clone, study);
        // mutation goes through runs_mut, which drops the index, so a
        // later get() sees the edit instead of a stale lookup
        let mut study = study;
        study.runs_mut().push(mk("go", Mech::Baseline, 9));
        study.runs_mut().retain(|r| r.bench != "compress");
        assert_eq!(study.get("go", Mech::Baseline).insts, 9);
        assert_eq!(study.get("gcc", Mech::Baseline).insts, 3);
    }

    #[test]
    #[should_panic(expected = "missing run")]
    fn study_get_panics_on_missing_combination() {
        let study = Study::new(STUDY_VERSION, vec![]);
        study.get("compress", Mech::Baseline);
    }

    /// A minimal summary to clone from in index tests.
    fn run_pipeline_stub() -> RunSummary {
        RunSummary {
            bench: String::new(),
            mech: Mech::Baseline,
            digest: 0,
            insts: 0,
            sim: CycleStats::default(),
            activity: ActivityCounts::new(),
            width_fracs: [0.0; 4],
            sig_fracs: [0.0; 8],
            class_width: [[0; 4]; 13],
            vrs: None,
        }
    }
}
