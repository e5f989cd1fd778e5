//! The `study` workload: the paper's real path, workload → VRP/VRS →
//! verify+lower → VM → simulator → power pricing → study cache.
//!
//! Untraced, it times repeated cold `og_lab::compute_study` calls (72
//! runs on the default worker pool; modelled caches start empty in
//! every run) and warm `og_lab::run_study` loads from a scratch
//! `OG_STUDY_DIR`. Traced, it mirrors `compute_study` on a pool with a
//! span per `run_program`, then replays every (bench, mechanism) pair
//! sequentially, outside in, one public layer call per span.

use crate::oracle::{self, Pinned};
use crate::report::{Layers, Metric, Outcome};
use crate::stats::{median, percentile_sorted, quiet, tail_percentile, CpuMark};
use crate::trace::{stages, Tracer};
use crate::RunSpec;
use og_core::{UsefulPolicy, VrpConfig, VrpPass, VrsConfig, VrsPass};
use og_lab::{BatchJob, Mech, RunSummary, Study, VrsSummary, WorkerPool};
use og_power::{EnergyModel, GatingScheme};
use og_program::Program;
use og_sim::{MachineConfig, Simulator};
use og_vm::{FlatProgram, NullSink, RunConfig, VecSink, Vm};
use og_workloads::{InputSet, NAMES};
use std::sync::Arc;
use std::time::Instant;

/// Warm `run_study` loads after each cold study.
const WARM_LOADS: usize = 5;

/// Study set-up: build every suite program and compute its expected
/// baseline output, checked against the pinned golden values.
fn setup(pinned: &Pinned, out: &mut Outcome) -> Vec<Program> {
    let mut programs = Vec::with_capacity(2 * NAMES.len());
    for input in [InputSet::Train, InputSet::Ref] {
        for bench in NAMES {
            programs.push(oracle::build_and_check(bench, input, pinned, out));
        }
    }
    programs
}

/// Save `study` into the scratch cache through the same path a cold
/// figure bench takes: `run_study_with` on an empty cache, which probes
/// the cache, sweeps stale cache files and writes the study. Returns
/// the milliseconds that path took; emptying the cache and copying the
/// study are not timed.
fn save(study: &Study) -> f64 {
    let _ = std::fs::remove_file(og_lab::study_cache_path());
    let copy = study.clone();
    let t = Instant::now();
    std::hint::black_box(og_lab::run_study_with(move || copy));
    t.elapsed().as_secs_f64() * 1e3
}

/// One warm `run_study`, checked against `expected`; returns ms.
fn warm_load(expected: &Study, out: &mut Outcome) -> f64 {
    let recomputes = og_lab::study_recomputes();
    let t = Instant::now();
    let loaded = og_lab::run_study();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    out.attempt(1);
    if og_lab::study_recomputes() != recomputes {
        out.fail("warm run_study recomputed instead of loading the cache");
    } else if &loaded != expected {
        out.fail("warm run_study loaded a study that differs from the computed one");
    }
    ms
}

/// Untraced study run: the end-to-end metrics.
pub fn run(spec: &RunSpec, pinned: &Pinned) -> Outcome {
    let mut out = Outcome::default();
    let runs_per_study = (NAMES.len() * Mech::ALL.len()) as f64;
    let mut setups = Vec::new();
    let mut study_s = Vec::new();
    let mut steal = Vec::new();
    let mut warm_ms = Vec::new();
    let start = Instant::now();
    while setups.is_empty() || start.elapsed() < spec.seconds {
        // One set-up before every study, so the median set-up time is
        // not moved by a burst of contention at the start of the run.
        let t = Instant::now();
        std::hint::black_box(setup(pinned, &mut out));
        setups.push(t.elapsed().as_secs_f64());

        let (mark, t) = (CpuMark::now(), Instant::now());
        let study = std::panic::catch_unwind(og_lab::compute_study);
        let secs = t.elapsed().as_secs_f64();
        let stolen = mark.steal_until(CpuMark::now());
        let Ok(study) = study else {
            out.attempt(runs_per_study as u64);
            out.fail_many(runs_per_study as u64, "compute_study panicked");
            continue;
        };
        study_s.push(secs);
        steal.push(stolen);
        oracle::check_study(&study, pinned, &mut out);
        if warm_ms.is_empty() {
            save(&study);
        }
        for _ in 0..WARM_LOADS {
            warm_ms.push(warm_load(&study, &mut out));
        }
    }

    // The studies during which the hypervisor stole the least CPU time.
    let mut kept: Vec<f64> = quiet(&steal).into_iter().map(|i| study_s[i]).collect();
    kept.sort_by(f64::total_cmp);
    let n = kept.len();
    out.metrics = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new("ops_per_s", runs_per_study / median(&kept), "1/s", n),
        Metric::new("op_p50_ms", median(&kept) * 1e3, "ms", n),
        Metric::new("op_tail_ms", percentile_sorted(&kept, tail_percentile(n)) * 1e3, "ms", n),
        Metric::new("peak_rss_mb", crate::record::peak_rss_mb(), "MB", 1),
    ];
    out.notes.push(format!(
        "study_s        = {:.4} s (median of the n={n} of {} cold compute_study with steal <= {:.2}%; all: {:.4} s)",
        median(&kept),
        study_s.len(),
        median(&steal) * 100.0,
        median(&study_s)
    ));
    out.notes.push(format!(
        "study_warm_ms  = {:.4} ms (median of n={} warm run_study loads)",
        median(&warm_ms),
        warm_ms.len()
    ));
    out.notes.push(format!(
        "setup_s        = {:.4} s (median of n={} set-ups)",
        median(&setups),
        setups.len()
    ));
    out
}

/// The program transformation of `mech`, replayed through og-core's
/// public passes inside a span. Returns the VRS report for VRS.
fn transform(
    tracer: &Tracer,
    id: u64,
    parent: usize,
    program: &mut Program,
    mech: Mech,
    train: Option<&Program>,
) -> Option<og_core::VrsReport> {
    let policy = match mech {
        Mech::Baseline => return None,
        Mech::ConvVrp => UsefulPolicy::Off,
        Mech::Vrp => UsefulPolicy::Paper,
        Mech::VrpAggressive => UsefulPolicy::Aggressive,
        Mech::Vrs(cost) => {
            let train = train.expect("VRS pairs build their training program");
            let cfg = VrsConfig { specialization_cost_nj: f64::from(cost), ..Default::default() };
            return Some(
                tracer.span("core.vrs", id, Some(parent), || VrsPass::new(cfg).run(program, train)),
            );
        }
    };
    let cfg = VrpConfig { useful_policy: policy, ..Default::default() };
    tracer.span("core.vrp", id, Some(parent), || VrpPass::new(cfg).run(program));
    None
}

/// VRS bookkeeping priced from the dynamic block counts, as the study
/// summarizes it.
fn vrs_summary(
    report: &og_core::VrsReport,
    program: &Program,
    stats: &og_vm::DynStats,
) -> VrsSummary {
    let total = stats.steps.max(1) as f64;
    let count = |f, b| stats.block_counts.get(&(f, b)).copied().unwrap_or(0);
    let spec_dyn: u64 = report
        .specialized_blocks
        .iter()
        .map(|&(f, b)| count(f, b) * program.func(f).block(b).insts.len() as u64)
        .sum();
    let guard_dyn: u64 =
        report.guard_sites.iter().map(|&(f, b, _, len)| count(f, b) * u64::from(len)).sum();
    VrsSummary {
        profiled: report.profiled_points,
        fates: (
            report.count_fate(og_core::CandidateFate::NoBenefit),
            report.count_fate(og_core::CandidateFate::Dependent),
            report.count_fate(og_core::CandidateFate::Specialized),
        ),
        static_specialized: report.static_specialized,
        static_eliminated: report.static_eliminated,
        runtime_specialized_frac: spec_dyn as f64 / total,
        runtime_guard_frac: guard_dyn as f64 / total,
    }
}

/// Exact counts gathered by the replay.
#[derive(Debug, Default)]
struct Counts {
    steps: u64,
    records: u64,
    cycles: u64,
    icache_misses: u64,
    dcache_misses: u64,
    l2_misses: u64,
    mispredicts: u64,
    vrs_specialized: u64,
}

/// Replay one (bench, mechanism) pair outside in, one span per public
/// layer call, and rebuild its `RunSummary`.
fn replay_pair(
    tracer: &Tracer,
    id: u64,
    bench: &'static str,
    mech: Mech,
    counts: &mut Counts,
) -> Result<RunSummary, String> {
    let root = tracer.open("lab.replay", id, None);
    let build = |input| {
        tracer
            .span("workloads.build", id, Some(root), || og_workloads::by_name(bench, input).program)
    };
    let mut program = build(InputSet::Ref);
    let train = matches!(mech, Mech::Vrs(_)).then(|| build(InputSet::Train));
    let vrs = transform(tracer, id, root, &mut program, mech, train.as_ref());

    let lowered = tracer.span("vm.lower", id, Some(root), || {
        FlatProgram::lower_verified_all(&program, &program.layout())
    });
    let (flat, _) = lowered
        .map_err(|e| format!("{bench}/{mech:?}: transformed program fails to verify: {e:?}"))?;
    let config = RunConfig::default();
    let (exec_flat, stream_flat) = (flat.clone(), flat.clone());
    let (outcome, stats) = tracer.span("vm.exec", id, Some(root), || {
        let mut vm = Vm::with_lowered(&program, config.clone(), exec_flat);
        let outcome = vm.run();
        (outcome, vm.into_parts().0)
    });
    let outcome = outcome.map_err(|e| format!("{bench}/{mech:?}: run failed: {e}"))?;
    tracer
        .span("vm.stream", id, Some(root), || {
            Vm::with_lowered(&program, config.clone(), stream_flat).run_streamed(&mut NullSink)
        })
        .map_err(|e| format!("{bench}/{mech:?}: streamed run failed: {e}"))?;
    let records = tracer
        .span("bench.capture", id, Some(root), || {
            let mut sink = VecSink::new();
            Vm::with_lowered(&program, config.clone(), flat)
                .run_streamed(&mut sink)
                .map(|_| sink.into_records())
        })
        .map_err(|e| format!("{bench}/{mech:?}: captured run failed: {e}"))?;

    let mut sim =
        tracer.span("sim.new", id, Some(root), || Simulator::new(MachineConfig::default()));
    tracer.span("sim.feed", id, Some(root), || {
        for rec in &records {
            sim.feed(rec);
        }
    });
    let result = tracer.span("sim.finish", id, Some(root), || sim.finish());
    let model = EnergyModel::new();
    let energy = tracer.span("power.report", id, Some(root), || {
        GatingScheme::ALL.map(|scheme| model.report(&result.activity, scheme))
    });
    std::hint::black_box(energy);

    counts.steps += outcome.steps;
    counts.records += records.len() as u64;
    counts.cycles += result.stats.cycles;
    counts.icache_misses += result.stats.icache.1;
    counts.dcache_misses += result.stats.dcache.1;
    counts.l2_misses += result.stats.l2.1;
    counts.mispredicts += result.stats.mispredicts;
    counts.vrs_specialized += vrs.as_ref().map_or(0, |r| r.static_specialized as u64);
    let summary = RunSummary {
        bench: bench.to_string(),
        mech,
        digest: outcome.output_digest,
        insts: outcome.steps,
        width_fracs: stats.width_fractions(),
        sig_fracs: stats.sig_fractions(),
        class_width: stats.class_width,
        vrs: vrs.as_ref().map(|r| vrs_summary(r, &program, &stats)),
        sim: result.stats,
        activity: result.activity,
    };
    tracer.close(root);
    Ok(summary)
}

/// Every (bench, mechanism) pair in `compute_study`'s order: the eight
/// baselines first, then the other mechanisms bench by bench.
fn pairs() -> Vec<(&'static str, Mech)> {
    let baselines = NAMES.iter().map(|&b| (b, Mech::Baseline));
    let rest = NAMES.iter().flat_map(|&b| Mech::ALL.into_iter().skip(1).map(move |m| (b, m)));
    baselines.chain(rest).collect()
}

/// `compute_study` mirrored on a pool, with a span around the phase-0
/// batch cross-check and around every `run_program`. Returns the wall
/// time and each pair's `run_program` ms.
fn pool_pass(tracer: &Arc<Tracer>, reference: &Study, out: &mut Outcome) -> (f64, Vec<f64>) {
    let pool = WorkerPool::with_default_parallelism();
    let t = Instant::now();
    let root = tracer.open("lab.study", 0, None);
    let jobs: Vec<BatchJob> = tracer.span("workloads.build", 0, Some(root), || {
        NAMES
            .iter()
            .map(|&b| {
                let program = Arc::new(og_workloads::by_name(b, InputSet::Ref).program);
                BatchJob::verified(program, RunConfig::default()).expect("suite programs verify")
            })
            .collect()
    });
    let batch = tracer.span("vm.batch", 0, Some(root), || og_lab::run_batch(&pool, jobs));
    for (slot, bench) in batch.into_iter().zip(NAMES) {
        out.attempt(1);
        let digest = slot.and_then(Result::ok).map(|o| o.output_digest);
        if digest != Some(reference.get(bench, Mech::Baseline).digest) {
            out.fail(format!("{bench}: batched baseline digest {digest:?} differs from the study"));
        }
    }
    let all = pairs();
    let (baselines, rest) = all.split_at(NAMES.len());
    let mut run_ms = Vec::new();
    // compute_study finishes the baselines before it starts the rest.
    for phase in [baselines, rest] {
        let (tx, rx) = std::sync::mpsc::channel();
        for &(bench, mech) in phase {
            let tracer = Arc::clone(tracer);
            let tx = tx.clone();
            let expected =
                (mech != Mech::Baseline).then(|| reference.get(bench, Mech::Baseline).digest);
            pool.submit(move || {
                let program = og_workloads::by_name(bench, InputSet::Ref).program;
                let train = matches!(mech, Mech::Vrs(_))
                    .then(|| og_workloads::by_name(bench, InputSet::Train).program);
                let t = Instant::now();
                let summary = tracer.span("lab.run_program", 0, Some(root), || {
                    og_lab::run_program(
                        bench,
                        &program,
                        mech,
                        train.as_ref(),
                        RunConfig::default(),
                        expected,
                    )
                });
                let _ = tx.send((bench, mech, t.elapsed().as_secs_f64() * 1e3, summary));
            });
        }
        drop(tx);
        for (bench, mech, ms, summary) in rx {
            out.attempt(1);
            run_ms.push(ms);
            match summary {
                Ok(s) if &s == reference.get(bench, mech) => {}
                Ok(_) => out.fail(format!(
                    "{bench}/{mech:?}: run_program summary differs from compute_study"
                )),
                Err(e) => out.fail(format!("{bench}/{mech:?}: run_program failed: {e}")),
            }
        }
    }
    drop(pool);
    tracer.close(root);
    let missing = all.len() - run_ms.len();
    if missing > 0 {
        out.attempt(missing as u64);
        out.fail_many(missing as u64, format!("{missing} run_program job(s) panicked"));
    }
    (t.elapsed().as_secs_f64(), run_ms)
}

/// Traced study run: the per-layer metrics.
pub fn run_traced(spec: &RunSpec, pinned: &Pinned) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();

    // (a) The untraced reference: one cold compute_study.
    let t = Instant::now();
    let reference = og_lab::compute_study();
    let study_s = t.elapsed().as_secs_f64();
    oracle::check_study(&reference, pinned, &mut out);

    // (b) compute_study mirrored on the pool with spans.
    let pool_tracer = Arc::new(Tracer::new());
    let (pool_s, mut run_ms) = pool_pass(&pool_tracer, &reference, &mut out);
    run_ms.sort_by(f64::total_cmp);
    let workers = crate::record::nproc() as f64;
    layers.set("lab.run_ms_p50", median(&run_ms), run_ms.len());
    layers.set("lab.run_ms_max", percentile_sorted(&run_ms, 1.0), run_ms.len());
    layers.set(
        "lab.pool_efficiency",
        run_ms.iter().sum::<f64>() / 1e3 / (study_s * workers),
        run_ms.len(),
    );
    layers.set("trace.overhead_frac", pool_s / study_s - 1.0, 1);
    let pool_spans =
        Arc::into_inner(pool_tracer).expect("the pool released the tracer").into_spans();
    let batch = stages(&pool_spans).get("vm.batch").copied().unwrap_or_default();
    layers.set("vm.batch_ms", batch.total_ms(), batch.count as usize);

    // (c) Sequential outside-in replay of every pair.
    let tracer = Tracer::new();
    let mut counts = Counts::default();
    for (id, (bench, mech)) in pairs().into_iter().enumerate() {
        out.attempt(1);
        match replay_pair(&tracer, id as u64, bench, mech, &mut counts) {
            Ok(summary) if &summary == reference.get(bench, mech) => {}
            Ok(_) => out.fail(format!(
                "{bench}/{mech:?}: outside-in replay differs from compute_study's RunSummary"
            )),
            Err(e) => out.fail(e),
        }
    }
    if counts.records != counts.steps {
        out.fail(format!("sim.records {} != vm.steps {}", counts.records, counts.steps));
    }

    // (d) The study cache: save into an empty scratch directory, then
    // load it warm.
    let save_ms = save(&reference);
    let bytes = std::fs::metadata(og_lab::study_cache_path()).map_or(0, |m| m.len());
    let loads: Vec<f64> = (0..WARM_LOADS).map(|_| warm_load(&reference, &mut out)).collect();

    let spans = tracer.into_spans();
    let st = stages(&spans);
    let get = |name: &str| st.get(name).copied().unwrap_or_default();
    let pairs_n = pairs().len();
    layers.set(
        "workloads.build_ms",
        get("workloads.build").total_ms(),
        get("workloads.build").count as usize,
    );
    layers.set("core.vrp_ms", get("core.vrp").total_ms(), get("core.vrp").count as usize);
    layers.set("core.vrs_ms", get("core.vrs").total_ms(), get("core.vrs").count as usize);
    layers.set(
        "core.vrs_specialized",
        counts.vrs_specialized as f64,
        get("core.vrs").count as usize,
    );
    layers.set("vm.lower_us", get("vm.lower").mean_us(), get("vm.lower").count as usize);
    layers.set("vm.exec_ms", get("vm.exec").total_ms(), pairs_n);
    layers.set("vm.trace_ms", get("vm.stream").total_ms() - get("vm.exec").total_ms(), pairs_n);
    layers.set("vm.steps", counts.steps as f64, pairs_n);
    layers.set("vm.msteps_per_s", counts.steps as f64 / get("vm.exec").total_ms() / 1e3, pairs_n);
    layers.set("sim.new_us", get("sim.new").mean_us(), get("sim.new").count as usize);
    layers.set("sim.feed_ms", get("sim.feed").total_ms(), pairs_n);
    layers.set("sim.mrec_per_s", counts.records as f64 / get("sim.feed").total_ms() / 1e3, pairs_n);
    layers.set("sim.records", counts.records as f64, pairs_n);
    layers.set("sim.cycles", counts.cycles as f64, pairs_n);
    layers.set("sim.icache_misses", counts.icache_misses as f64, pairs_n);
    layers.set("sim.dcache_misses", counts.dcache_misses as f64, pairs_n);
    layers.set("sim.l2_misses", counts.l2_misses as f64, pairs_n);
    layers.set("sim.mispredicts", counts.mispredicts as f64, pairs_n);
    layers.set(
        "power.report_us",
        get("power.report").mean_us(),
        get("power.report").count as usize,
    );
    let model = EnergyModel::new();
    let savings: f64 = NAMES
        .iter()
        .map(|b| reference.energy_savings(&model, b, Mech::Vrp, GatingScheme::Software))
        .sum::<f64>()
        / NAMES.len() as f64;
    layers.set("power.vrp_sw_savings_pct", savings * 100.0, NAMES.len());
    let replay = get("lab.replay");
    layers.set(
        "lab.unattributed_frac",
        replay.self_ns as f64 / replay.total_ns.max(1) as f64,
        pairs_n,
    );
    layers.set("json.study_save_ms", save_ms, 1);
    layers.set("json.study_load_ms", median(&loads), loads.len());
    layers.set("json.study_bytes", bytes as f64, 1);
    layers.set(
        "trace.spans",
        (spans.len() + pool_spans.len()) as f64,
        spans.len() + pool_spans.len(),
    );

    out.notes.push(format!(
        "counts: vm.steps={} sim.records={} sim.cycles={} (exact; sim.records == vm.steps)",
        counts.steps, counts.records, counts.cycles
    ));
    out.notes.extend(crate::trace::self_time_table(
        &st,
        "replay self time by stage (bench.capture is the benchmark's own trace capture)",
    ));
    out.metrics = layers.into_metrics();
    crate::write_trace(spec, "study-pool", &pool_spans, &mut out);
    crate::write_trace(spec, "study-replay", &spans, &mut out);
    out
}
