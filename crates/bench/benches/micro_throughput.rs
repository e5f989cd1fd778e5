//! Criterion micro-benchmarks: analysis and simulation throughput.
//!
//! These measure the *tooling* (how fast VRP analyzes, the emulator
//! executes and the timing model simulates), complementing the figure
//! benches that measure the *reproduced system*. The headline series is
//! the **fused vs materialized** pipeline comparison: one streamed
//! emulate+simulate pass (`Vm::run_streamed` into the `Simulator` sink,
//! O(1) trace memory) against capture-then-replay through a `VecSink`
//! (O(steps) memory).
//!
//! The second headline series is the **engine** comparison: the
//! pre-decoded flat engine (the default behind `Vm::run*`) against the
//! reference graph-walking interpreter (`Vm::run_reference*`), in
//! committed steps per second — plus the **trusted** variant
//! (`Vm::new_verified`), which verifies up front and drops the per-step
//! defensive check, reported as a delta over the plain flat engine.
//!
//! On top of those sit the superinstruction series: a **fusion A/B**
//! (default fused lowering vs `lower_unfused`), the **fused no-stats**
//! single-stream headline (`Vm::new_verified` + `run_nostats` — every
//! non-architectural check and all bookkeeping compiled out), and the
//! **batch** aggregate (many trusted VMs round-robin stepped per core
//! via `og_lab::run_batch`).
//!
//! Run with `cargo bench -p og-bench --bench micro_throughput`.
//!
//! With `OG_BENCH_SMOKE=1` the Criterion groups are skipped and only the
//! quick headline measurements run; either way the comparisons are
//! written as machine-readable JSON to `BENCH_throughput.json`,
//! `BENCH_vm.json` and `BENCH_fusion.json` (the fusion-opportunity
//! profile over the workload suite + committed fuzz corpus) in the
//! target directory (override with `OG_BENCH_OUT`) so CI can track the
//! perf trajectory, with `bench_gate` failing when a single-stream
//! series' same-run ratio over the reference engine drops >20% below
//! that ratio in the committed `bench/baseline/BENCH_vm.json`.

use criterion::{criterion_group, Criterion, Throughput};
use og_core::{VrpConfig, VrpPass};
use og_json::{Json, ToJson};
use og_sim::{MachineConfig, SimResult, Simulator};
use og_vm::{RunConfig, VecSink, Vm};
use og_workloads::{compress, m88ksim, InputSet};
use std::time::{Duration, Instant};

fn bench_vrp(c: &mut Criterion) {
    let program = m88ksim(InputSet::Train).program;
    let insts = program.inst_count() as u64;
    let mut g = c.benchmark_group("vrp");
    g.throughput(Throughput::Elements(insts));
    g.bench_function("analyze_m88ksim", |b| {
        b.iter(|| {
            let mut p = program.clone();
            VrpPass::new(VrpConfig::default()).run(&mut p)
        })
    });
    g.finish();
}

fn bench_vm(c: &mut Criterion) {
    let program = compress(InputSet::Train).program;
    let mut vm = Vm::new(&program, RunConfig::default());
    let steps = vm.run().expect("runs").steps;
    let mut g = c.benchmark_group("vm");
    g.throughput(Throughput::Elements(steps));
    g.bench_function("emulate_compress", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&program, RunConfig::default());
            vm.run().expect("runs")
        })
    });
    g.bench_function("emulate_compress_reference", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&program, RunConfig::default());
            vm.run_reference().expect("runs")
        })
    });
    g.bench_function("emulate_compress_trusted", |b| {
        b.iter(|| {
            let mut vm = Vm::new_verified(&program, RunConfig::default()).expect("verifies");
            vm.run().expect("runs")
        })
    });
    g.finish();
}

fn bench_sim(c: &mut Criterion) {
    let program = compress(InputSet::Train).program;
    let mut vm = Vm::new(&program, RunConfig::default());
    let mut sink = VecSink::new();
    vm.run_streamed(&mut sink).expect("runs");
    let trace = sink.into_records();
    let mut g = c.benchmark_group("sim");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("timing_compress", |b| {
        let sim = Simulator::new(MachineConfig::default());
        b.iter(|| sim.run(&trace))
    });
    g.finish();
}

fn run_fused(program: &og_program::Program) -> SimResult {
    let mut vm = Vm::new(program, RunConfig::default());
    let mut sim = Simulator::new(MachineConfig::default());
    vm.run_streamed(&mut sim).expect("runs");
    sim.finish()
}

fn run_materialized(program: &og_program::Program) -> SimResult {
    let mut vm = Vm::new(program, RunConfig::default());
    let mut sink = VecSink::new();
    vm.run_streamed(&mut sink).expect("runs");
    Simulator::new(MachineConfig::default()).run(&sink.into_records())
}

fn bench_pipeline(c: &mut Criterion) {
    let program = compress(InputSet::Train).program;
    let mut vm = Vm::new(&program, RunConfig::default());
    let steps = vm.run().expect("runs").steps;
    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(steps));
    g.bench_function("fused_compress", |b| b.iter(|| run_fused(&program)));
    g.bench_function("materialized_compress", |b| b.iter(|| run_materialized(&program)));
    g.finish();
}

/// Median wall-clock of each series over `samples` rounds, sampled
/// round-robin: one untimed warm-up of every series, then sample *k* of
/// every series runs before sample *k + 1* of any. Machine drift (clock
/// boost, a noisy neighbour) then lands on all series alike, so a ratio
/// between two series compares samples taken at the same time.
fn interleaved_median_secs<const N: usize>(
    samples: usize,
    mut series: [&mut dyn FnMut(); N],
) -> [f64; N] {
    for f in series.iter_mut() {
        f();
    }
    let mut times = [(); N].map(|_| Vec::with_capacity(samples));
    for _ in 0..samples {
        for (f, t) in series.iter_mut().zip(&mut times) {
            let start = Instant::now();
            f();
            t.push(start.elapsed());
        }
    }
    times.map(|mut t: Vec<Duration>| {
        t.sort();
        t[t.len() / 2].as_secs_f64()
    })
}

/// Measure fused vs materialized records/sec and write the JSON report.
fn throughput_report(smoke: bool) {
    let (input, samples) = if smoke { (InputSet::Train, 3) } else { (InputSet::Ref, 10) };
    let program = compress(input).program;
    let records = {
        let mut vm = Vm::new(&program, RunConfig::default());
        vm.run().expect("runs").steps
    };

    // The two paths must agree bit-for-bit before their speeds mean
    // anything.
    assert_eq!(run_fused(&program), run_materialized(&program), "fused != materialized");

    let [fused, materialized] = interleaved_median_secs(
        samples,
        [
            &mut || {
                criterion::black_box(run_fused(&program));
            },
            &mut || {
                criterion::black_box(run_materialized(&program));
            },
        ],
    );
    let fused_rps = records as f64 / fused;
    let materialized_rps = records as f64 / materialized;
    println!(
        "pipeline/fused_vs_materialized   {:>12.0} rec/s fused, {:>12.0} rec/s materialized \
         (x{:.2}, {records} records, {} input)",
        fused_rps,
        materialized_rps,
        fused_rps / materialized_rps,
        if smoke { "train" } else { "ref" },
    );

    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("compress".into())),
        ("input".into(), Json::Str(if smoke { "train" } else { "ref" }.into())),
        ("mode".into(), Json::Str(if smoke { "smoke" } else { "full" }.into())),
        ("records".into(), records.to_json()),
        ("samples".into(), (samples as u64).to_json()),
        ("fused_records_per_sec".into(), fused_rps.to_json()),
        ("materialized_records_per_sec".into(), materialized_rps.to_json()),
    ]);
    match og_lab::report::write_bench_report("throughput", &report) {
        Ok(path) => println!("throughput report written to {}", path.display()),
        Err(e) => eprintln!("{e}"),
    }
}

/// Measure flat-engine vs reference-engine committed-steps/sec and write
/// the `BENCH_vm.json` report. The flat engine's pre-decoded hot loop is
/// the PR 5 tentpole; this is the number its ≥2× acceptance criterion is
/// judged on.
fn vm_report(smoke: bool) {
    // Always the Ref input: the engine comparison measures the hot loop,
    // and the Train run is short enough (~15k steps against a program of
    // comparable static size) that per-`Vm::new` setup — layout,
    // lowering, data-segment load — would dominate what is being
    // measured. A Ref run is ~5 ms, affordable even in smoke mode.
    let samples = if smoke { 3 } else { 10 };
    let program = compress(InputSet::Ref).program;

    // The engines must agree bit-for-bit before their speeds mean
    // anything (outcome incl. digest, and full dynamic statistics).
    let (flat_outcome, flat_stats) = {
        let mut vm = Vm::new(&program, RunConfig::default());
        let o = vm.run().expect("runs");
        (o, vm.stats().clone())
    };
    let (ref_outcome, ref_stats) = {
        let mut vm = Vm::new(&program, RunConfig::default());
        let o = vm.run_reference().expect("runs");
        (o, vm.stats().clone())
    };
    assert_eq!(flat_outcome, ref_outcome, "flat != reference outcome");
    assert_eq!(flat_stats, ref_stats, "flat != reference stats");
    let (trusted_outcome, trusted_stats) = {
        let mut vm = Vm::new_verified(&program, RunConfig::default()).expect("verifies");
        let o = vm.run().expect("runs");
        (o, vm.stats().clone())
    };
    assert_eq!(trusted_outcome, flat_outcome, "trusted != flat outcome");
    assert_eq!(trusted_stats, flat_stats, "trusted != flat stats");
    // Fusion A/B: the default lowering fuses superinstructions; the
    // unfused lowering must still agree bit-for-bit.
    let layout = program.layout();
    let (unfused_outcome, unfused_stats) = {
        let lowered = og_vm::FlatProgram::lower_unfused(&program, &layout);
        let mut vm = Vm::with_lowered(&program, RunConfig::default(), lowered);
        let o = vm.run().expect("runs");
        (o, vm.stats().clone())
    };
    assert_eq!(unfused_outcome, flat_outcome, "unfused != fused outcome");
    assert_eq!(unfused_stats, flat_stats, "unfused != fused stats");
    // No-stats mode keeps the architectural outcome identical.
    let nostats_outcome = {
        let mut vm = Vm::new_verified(&program, RunConfig::default()).expect("verifies");
        vm.run_nostats().expect("runs")
    };
    assert_eq!(nostats_outcome, flat_outcome, "nostats != flat outcome");
    let steps = flat_outcome.steps;
    let fused_count = og_vm::FlatProgram::lower(&program, &layout).fused_count();

    // The aggregate headline: many independent trusted VMs round-robin
    // stepped by one BatchRunner per core, sharded across the worker
    // pool by `og_lab::run_batch`.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let batch_lanes = (2 * cores).max(8);
    let batch_program = std::sync::Arc::new(program.clone());
    let pool = og_lab::WorkerPool::with_default_parallelism();
    let batch_jobs = || -> Vec<og_lab::BatchJob> {
        (0..batch_lanes)
            .map(|_| {
                og_lab::BatchJob::verified(
                    std::sync::Arc::clone(&batch_program),
                    RunConfig::default(),
                )
                .expect("verifies")
            })
            .collect()
    };
    // Batched execution must agree with solo before its speed counts.
    for slot in og_lab::run_batch(&pool, batch_jobs()) {
        let outcome = slot.expect("no shard lost").expect("runs");
        assert_eq!(outcome, flat_outcome, "batched != solo outcome");
    }

    // Every engine series is sampled round-robin, so each ratio over the
    // reference engine (the gate's yardstick) compares samples taken
    // side by side. Each closure builds its VM inside the timed region.
    let medians = interleaved_median_secs(
        samples,
        [
            // Plain emulation (no sink): the golden-digest / oracle path.
            &mut || {
                let mut vm = Vm::new(&program, RunConfig::default());
                criterion::black_box(vm.run().expect("runs"));
            },
            &mut || {
                let mut vm = Vm::new(&program, RunConfig::default());
                criterion::black_box(vm.run_reference().expect("runs"));
            },
            // Streamed emulation: the fused pipeline path, with a sink
            // that forces every record to be produced but does no
            // downstream work.
            &mut || {
                let mut vm = Vm::new(&program, RunConfig::default());
                criterion::black_box(vm.run_streamed(&mut og_vm::NullSink).expect("runs"));
            },
            &mut || {
                let mut vm = Vm::new(&program, RunConfig::default());
                criterion::black_box(
                    vm.run_reference_streamed(&mut og_vm::NullSink).expect("runs"),
                );
            },
            // Trusted lowering: the verifier runs once up front (inside
            // `new_verified`, so its cost is charged to this series) and
            // the hot loop drops the per-step malformed-slot check.
            &mut || {
                let mut vm = Vm::new_verified(&program, RunConfig::default()).expect("verifies");
                criterion::black_box(vm.run().expect("runs"));
            },
            &mut || {
                let mut vm = Vm::new_verified(&program, RunConfig::default()).expect("verifies");
                criterion::black_box(vm.run_streamed(&mut og_vm::NullSink).expect("runs"));
            },
            // The fusion A/B partner: same untrusted stats engine,
            // fusion off.
            &mut || {
                let lowered = og_vm::FlatProgram::lower_unfused(&program, &layout);
                let mut vm = Vm::with_lowered(&program, RunConfig::default(), lowered);
                criterion::black_box(vm.run().expect("runs"));
            },
            // The single-stream headline: trusted + fused + no-stats —
            // every check and every piece of bookkeeping that is not the
            // architectural outcome compiled out (verify and lowering
            // charged to the series).
            &mut || {
                let mut vm = Vm::new_verified(&program, RunConfig::default()).expect("verifies");
                criterion::black_box(vm.run_nostats().expect("runs"));
            },
            &mut || {
                criterion::black_box(og_lab::run_batch(&pool, batch_jobs()));
            },
        ],
    );
    let [flat, reference, flat_streamed, reference_streamed, trusted, trusted_streamed, unfused, fused_nostats, batch] =
        medians;

    let flat_sps = steps as f64 / flat;
    let reference_sps = steps as f64 / reference;
    let flat_streamed_sps = steps as f64 / flat_streamed;
    let reference_streamed_sps = steps as f64 / reference_streamed;
    let trusted_sps = steps as f64 / trusted;
    let trusted_streamed_sps = steps as f64 / trusted_streamed;
    let unfused_sps = steps as f64 / unfused;
    let fused_sps = steps as f64 / fused_nostats;
    let batch_sps = (steps * batch_lanes as u64) as f64 / batch;
    println!(
        "vm/flat_vs_reference             {:>12.0} steps/s flat, {:>12.0} steps/s reference \
         (x{:.2}, plain)",
        flat_sps,
        reference_sps,
        flat_sps / reference_sps,
    );
    println!(
        "vm/flat_vs_reference_streamed    {:>12.0} steps/s flat, {:>12.0} steps/s reference \
         (x{:.2}, NullSink, {steps} steps, ref input)",
        flat_streamed_sps,
        reference_streamed_sps,
        flat_streamed_sps / reference_streamed_sps,
    );
    println!(
        "vm/trusted_vs_flat               {:>12.0} steps/s trusted, {:>12.0} steps/s flat \
         (x{:.2} plain, x{:.2} streamed; verify charged to trusted)",
        trusted_sps,
        flat_sps,
        trusted_sps / flat_sps,
        trusted_streamed_sps / flat_streamed_sps,
    );
    println!(
        "vm/fusion_ab                     {:>12.0} steps/s fused, {:>12.0} steps/s unfused \
         (x{:.2}, {fused_count} superinstructions in compress)",
        flat_sps,
        unfused_sps,
        flat_sps / unfused_sps,
    );
    println!(
        "vm/fused_nostats                 {:>12.0} steps/s single-stream (trusted+fused+nostats, \
         x{:.2} over trusted)",
        fused_sps,
        fused_sps / trusted_sps,
    );
    println!(
        "vm/batch                         {:>12.0} steps/s aggregate ({batch_lanes} lanes, \
         {cores} core(s), x{:.2} over fused single-stream)",
        batch_sps,
        batch_sps / fused_sps,
    );

    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("compress".into())),
        ("input".into(), Json::Str("ref".into())),
        ("mode".into(), Json::Str(if smoke { "smoke" } else { "full" }.into())),
        ("steps".into(), steps.to_json()),
        ("samples".into(), (samples as u64).to_json()),
        ("flat_steps_per_sec".into(), flat_sps.to_json()),
        ("reference_steps_per_sec".into(), reference_sps.to_json()),
        ("speedup".into(), (flat_sps / reference_sps).to_json()),
        ("flat_streamed_steps_per_sec".into(), flat_streamed_sps.to_json()),
        ("reference_streamed_steps_per_sec".into(), reference_streamed_sps.to_json()),
        ("streamed_speedup".into(), (flat_streamed_sps / reference_streamed_sps).to_json()),
        ("trusted_steps_per_sec".into(), trusted_sps.to_json()),
        ("trusted_streamed_steps_per_sec".into(), trusted_streamed_sps.to_json()),
        ("trusted_over_flat".into(), (trusted_sps / flat_sps).to_json()),
        ("trusted_streamed_over_flat".into(), (trusted_streamed_sps / flat_streamed_sps).to_json()),
        ("unfused_steps_per_sec".into(), unfused_sps.to_json()),
        ("fusion_speedup".into(), (flat_sps / unfused_sps).to_json()),
        ("fused_count".into(), (fused_count as u64).to_json()),
        ("fused_steps_per_sec".into(), fused_sps.to_json()),
        ("fused_over_trusted".into(), (fused_sps / trusted_sps).to_json()),
        ("batch_lanes".into(), (batch_lanes as u64).to_json()),
        ("batch_steps_per_sec".into(), batch_sps.to_json()),
        ("cores".into(), (cores as u64).to_json()),
    ]);
    match og_lab::report::write_bench_report("vm", &report) {
        Ok(path) => println!("vm engine report written to {}", path.display()),
        Err(e) => eprintln!("{e}"),
    }
}

/// Profile fusion opportunities over the whole workload suite plus the
/// committed fuzz corpus and write `BENCH_fusion.json` — the data the
/// lowering's fused-op set is chosen from (and re-validated against).
fn fusion_report(smoke: bool) {
    let input = if smoke { InputSet::Train } else { InputSet::Ref };
    let mut acc = og_vm::fusion::FusionAccumulator::new();
    let mut programs = 0u64;
    for name in og_workloads::NAMES {
        let program = og_workloads::by_name(name, input).program;
        let mut vm = Vm::new(&program, RunConfig::default());
        vm.run().unwrap_or_else(|e| panic!("{name}: workload must run: {e}"));
        acc.add(&program, vm.stats());
        programs += 1;
    }
    let corpus = og_fuzz::corpus::load_dir(&og_fuzz::corpus::corpus_dir())
        .expect("committed corpus must load");
    for (path, case) in corpus {
        let config =
            RunConfig { max_steps: case.oracle_config().max_steps, ..RunConfig::default() };
        let mut vm = Vm::new(&case.program, config);
        vm.run().unwrap_or_else(|e| panic!("{}: corpus case must run: {e}", path.display()));
        acc.add(&case.program, vm.stats());
        programs += 1;
    }
    let profile = acc.finish();

    let table = |seqs: &[(String, u64)], top: usize| {
        Json::Arr(
            seqs.iter()
                .take(top)
                .map(|(seq, count)| {
                    Json::Obj(vec![
                        ("seq".into(), Json::Str(seq.clone())),
                        ("count".into(), count.to_json()),
                        (
                            "share".into(),
                            (*count as f64 / profile.total_steps.max(1) as f64).to_json(),
                        ),
                    ])
                })
                .collect(),
        )
    };
    let report = Json::Obj(vec![
        ("input".into(), Json::Str(if smoke { "train" } else { "ref" }.into())),
        ("programs".into(), programs.to_json()),
        ("total_steps".into(), profile.total_steps.to_json()),
        ("pairs".into(), table(&profile.pairs, 12)),
        ("triples".into(), table(&profile.triples, 12)),
    ]);
    let headline = |seqs: &[(String, u64)]| {
        seqs.iter()
            .take(3)
            .map(|(seq, count)| {
                format!("{seq} {:.1}%", 100.0 * *count as f64 / profile.total_steps.max(1) as f64)
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "fusion/profile                   {} programs, {} steps; top pairs: {}; top triples: {}",
        programs,
        profile.total_steps,
        headline(&profile.pairs),
        headline(&profile.triples),
    );
    match og_lab::report::write_bench_report("fusion", &report) {
        Ok(path) => println!("fusion profile written to {}", path.display()),
        Err(e) => eprintln!("{e}"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_vrp, bench_vm, bench_sim, bench_pipeline
}

fn main() {
    let smoke = std::env::var_os("OG_BENCH_SMOKE").is_some();
    if !smoke {
        benches();
    }
    throughput_report(smoke);
    vm_report(smoke);
    fusion_report(smoke);
}
