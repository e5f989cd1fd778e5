//! The `serve_miss` and `serve_hit` workloads: a closed loop of one
//! client thread per core calling `Service::call` on the default
//! configuration. `Service::call` blocks until its reply, so callers
//! that each wait for a reply make a closed loop.
//!
//! Requests are generated from the benchmark's seed with
//! `og_fuzz::case_gen_config`; only their texts reach the service. Every
//! valid response is checked against an independent
//! `og_lab::run_program(Baseline)` computed during set-up, and every
//! invalid request must be rejected at its own gate.

use crate::report::{Layers, Metric, Outcome};
use crate::stats::{self, beyond, mean, median, percentile_sorted, Windows};
use crate::trace::{stages, Span, Tracer};
use crate::{RunSpec, Workload};
use og_json::ToJson;
use og_lab::{Mech, RunSummary};
use og_program::rng::SplitMix64;
use og_program::Program;
use og_serve::{Reject, Response, ServeConfig, Service};
use og_sim::{MachineConfig, Simulator};
use og_vm::{FlatProgram, NullSink, RunConfig, VecSink, Vm};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pairs of values of the generator's two size knobs, `regions`
/// (3..=10) and `max_straight` (4..=11); the corpus holds an equal share
/// of each pair.
const SIZE_CLASSES: usize = 64;

/// The request mix of a serve workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    /// Distinct valid programs.
    pub corpus: usize,
    /// Invalid requests per thousand, half unparsable, half
    /// unverifiable.
    pub invalid_per_mille: u64,
    /// Cycle through the corpus in order (every call a miss once the
    /// corpus exceeds the artifact LRU) instead of drawing at random
    /// from a primed corpus.
    pub cycle: bool,
    /// Calls in each phase of a traced run.
    pub traced_calls: u64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

impl Shape {
    /// The shape each serve workload runs.
    ///
    /// # Panics
    ///
    /// Panics for the `study` workload.
    pub fn for_workload(workload: Workload) -> Shape {
        match workload {
            // 8× the 64-entry artifact LRU: a program comes back only
            // after 448 others have evicted it. One set-up takes 0.4 to
            // 0.7 s, from one to the next, so eleven settle the median.
            Workload::ServeMiss => Shape {
                corpus: 512,
                invalid_per_mille: 0,
                cycle: true,
                traced_calls: 1024,
                setups: 11,
            },
            // One program of each size class, as many as the artifact
            // LRU holds. A set-up takes about 0.1 s, so many of them
            // settle the median.
            Workload::ServeHit => Shape {
                corpus: 64,
                invalid_per_mille: 100,
                cycle: false,
                traced_calls: 4096,
                setups: 21,
            },
            Workload::Study => panic!("the study workload has no request mix"),
        }
    }
}

/// One request: what to send and which outcome is correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Index into the valid corpus: must be served its expected result.
    Valid(usize),
    /// Truncated text: must be rejected at the parse gate.
    Unparsable(usize),
    /// Entry point out of range: must be rejected at the verify gate.
    Unverifiable(usize),
}

/// The independent expected result of a valid program.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Output digest.
    pub digest: u64,
    /// Committed instructions.
    pub insts: u64,
    /// Simulated statistics; responses are checked on `cycles`.
    pub sim: og_sim::CycleStats,
}

/// A set-up serve workload: the request texts, their expected results,
/// and a running (primed, for `serve_hit`) service.
pub struct Fixture {
    /// The workload's seed.
    pub seed: u64,
    /// The request mix.
    pub shape: Shape,
    /// Valid program texts.
    pub valid: Vec<String>,
    /// Expected result of each valid program.
    pub expected: Vec<Expected>,
    /// Texts the parse gate must reject; empty when the mix sends no
    /// invalid requests.
    pub unparsable: Vec<String>,
    /// Texts the verify gate must reject; empty when the mix sends no
    /// invalid requests.
    pub unverifiable: Vec<String>,
    /// The service under test.
    pub service: Service,
}

/// Build the corpus, compute expected results, start the service and,
/// for a non-cycling shape, prime it with every valid program.
pub fn setup(seed: u64, shape: &Shape, out: &mut Outcome) -> Fixture {
    let mut valid = Vec::with_capacity(shape.corpus);
    let mut expected = Vec::with_capacity(shape.corpus);
    // case_gen_config offsets its seed by the index, so consecutive
    // benchmark seeds would share all but one program; hash the seed.
    let base = SplitMix64::new(seed).next_u64();
    // Each size class gets an equal share of the corpus, so a seed picks
    // the programs but not their mix of sizes: with 48 programs drawn
    // freely, the mix alone moved the median call by ~9% between seeds.
    let share = shape.corpus.div_ceil(SIZE_CLASSES);
    let mut per_class = [0usize; SIZE_CLASSES];
    let mut index = 0u64;
    while valid.len() < shape.corpus {
        let config = og_fuzz::case_gen_config(base, index);
        index += 1;
        let class = ((config.regions - 3) * 8 + config.max_straight - 4) % SIZE_CLASSES;
        if per_class[class] == share {
            continue;
        }
        let (program, _bound) = og_program::generate::generate_with_bound(&config);
        let text = og_json::to_string(&program).expect("generated programs render");
        let run = og_lab::run_program(
            "expected",
            &program,
            Mech::Baseline,
            None,
            RunConfig::default(),
            None,
        );
        match run {
            Ok(s) => {
                per_class[class] += 1;
                valid.push(text);
                expected.push(Expected { digest: s.digest, insts: s.insts, sim: s.sim });
            }
            // A generated program that legitimately fails its run (out
            // of fuel) is not a valid request for these workloads.
            Err(e) => {
                out.notes.push(format!("set-up skipped generated program {}: {e}", index - 1))
            }
        }
    }
    let (mut unparsable, mut unverifiable) = (Vec::new(), Vec::new());
    if shape.invalid_per_mille > 0 {
        unparsable = valid.iter().map(|t| t[..t.len() / 2].to_string()).collect();
        // The canonical rendering starts with the entry function index;
        // prefixing digits points it past the last function.
        unverifiable =
            valid.iter().map(|t| t.replacen("{\"entry\":", "{\"entry\":9999", 1)).collect();
    }
    let fixture = Fixture {
        seed,
        shape: shape.clone(),
        valid,
        expected,
        unparsable,
        unverifiable,
        service: Service::new(ServeConfig::default()),
    };
    if !shape.cycle {
        for slot in 0..fixture.valid.len() {
            let kind = Kind::Valid(slot);
            out.attempt(1);
            if let Err(e) = fixture.check(kind, &fixture.service.call(fixture.text(kind))) {
                out.fail(format!("priming: {e}"));
            }
        }
    }
    fixture
}

impl Fixture {
    /// Request `i` of the deterministic mix.
    pub fn pick(&self, i: u64) -> Kind {
        let n = self.valid.len() as u64;
        if self.shape.cycle {
            return Kind::Valid((i % n) as usize);
        }
        let roll = SplitMix64::new(self.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        let slot = ((roll >> 32) % n) as usize;
        if roll % 1000 < self.shape.invalid_per_mille {
            if roll & 1 == 0 {
                Kind::Unparsable(slot)
            } else {
                Kind::Unverifiable(slot)
            }
        } else {
            Kind::Valid(slot)
        }
    }

    /// Bytes of request text the fixture holds: the benchmark's own
    /// memory, counted in the process's peak RSS.
    pub fn text_bytes(&self) -> usize {
        [&self.valid, &self.unparsable, &self.unverifiable]
            .iter()
            .flat_map(|texts| texts.iter())
            .map(String::len)
            .sum()
    }

    /// The text of a request.
    pub fn text(&self, kind: Kind) -> &str {
        match kind {
            Kind::Valid(s) => &self.valid[s],
            Kind::Unparsable(s) => &self.unparsable[s],
            Kind::Unverifiable(s) => &self.unverifiable[s],
        }
    }

    /// Check a response against the request's correct outcome.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check(&self, kind: Kind, response: &Response) -> Result<(), String> {
        if matches!(response.served, og_serve::Served::Rejected) != response.outcome.is_err() {
            return Err(format!(
                "{kind:?}: served {:?} disagrees with its outcome",
                response.served
            ));
        }
        match (kind, &response.outcome) {
            (Kind::Valid(s), Ok(summary)) => {
                let want = &self.expected[s];
                let got = (summary.digest, summary.insts, summary.sim.cycles);
                if got == (want.digest, want.insts, want.sim.cycles) {
                    Ok(())
                } else {
                    Err(format!(
                        "valid program {s}: served (digest, insts, cycles) {got:?}, expected {:?}",
                        (want.digest, want.insts, want.sim.cycles)
                    ))
                }
            }
            (Kind::Valid(s), Err(reject)) => Err(format!("valid program {s} not served: {reject}")),
            (Kind::Unparsable(_), Err(Reject::Parse(_))) => Ok(()),
            (Kind::Unverifiable(_), Err(Reject::Verify(_))) => Ok(()),
            (kind, outcome) => Err(format!(
                "{kind:?}: wrong gate, got {}",
                match outcome {
                    Ok(_) => "a result".to_string(),
                    Err(r) => r.to_string().lines().next().unwrap_or_default().to_string(),
                }
            )),
        }
    }
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
enum Limit {
    Time(Duration),
    Calls(u64),
}

/// What a closed loop measured.
#[derive(Debug, Default)]
struct LoopResult {
    /// Every call's latency, µs, by the window it completed in: one
    /// part per client thread.
    parts: Vec<Windows>,
    /// Share of the machine's CPU time stolen by the hypervisor in each
    /// window.
    steal: Vec<f64>,
    /// Peak RSS when the loop ended, before its samples are analyzed.
    peak_rss_mb: f64,
    /// Valid requests sent.
    valid: u64,
    failures: Vec<String>,
    wall_s: f64,
    /// Traced loops keep every request and its response for the replay.
    responses: Vec<(u64, Kind, Response)>,
}

/// Run `nproc` clients against the fixture's service until `limit`,
/// starting at request `first`. With a tracer, each call is wrapped in
/// a span and kept for a replay after the loop, so the replay neither
/// slows the loop nor competes with it for cores.
fn closed_loop(fx: &Fixture, limit: Limit, first: u64, tracer: Option<&Tracer>) -> LoopResult {
    let next = AtomicU64::new(0);
    let merged = Mutex::new(LoopResult::default());
    let start = Instant::now();
    let steal = std::thread::scope(|scope| {
        // Read the steal counter at every window boundary until the
        // clients hang up.
        let (hang_up, clients_done) = std::sync::mpsc::channel::<()>();
        let sampler = scope.spawn(move || {
            let mut marks = vec![stats::CpuMark::now()];
            loop {
                let due = start + Duration::from_secs_f64(marks.len() as f64 * stats::WINDOW_S);
                match clients_done.recv_timeout(due.saturating_duration_since(Instant::now())) {
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        marks.push(stats::CpuMark::now());
                    }
                    _ => break,
                }
            }
            marks.windows(2).map(|m| m[0].steal_until(m[1])).collect::<Vec<f64>>()
        });
        let clients: Vec<_> = (0..crate::record::nproc())
            .map(|_| {
                scope.spawn(|| {
                    let mut local = LoopResult::default();
                    let mut windows = Windows::default();
                    loop {
                        if let Limit::Time(d) = limit {
                            if start.elapsed() >= d {
                                break;
                            }
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if matches!(limit, Limit::Calls(n) if i >= n) {
                            break;
                        }
                        let id = first + i;
                        let kind = fx.pick(id);
                        let text = fx.text(kind);
                        let t = Instant::now();
                        let span = tracer.map(|tr| tr.open("serve.call", id, None));
                        let response = fx.service.call(text);
                        if let (Some(tr), Some(span)) = (tracer, span) {
                            tr.close(span);
                        }
                        let latency_us = t.elapsed().as_secs_f64() * 1e6;
                        windows.record(start.elapsed().as_secs_f64(), latency_us);
                        local.valid += u64::from(matches!(kind, Kind::Valid(_)));
                        if let Err(e) = fx.check(kind, &response) {
                            local.failures.push(e);
                        }
                        if tracer.is_some() {
                            local.responses.push((id, kind, response));
                        }
                    }
                    let mut m = merged.lock().expect("a client thread panicked");
                    m.parts.push(windows);
                    m.valid += local.valid;
                    m.failures.extend(local.failures);
                    m.responses.extend(local.responses);
                })
            })
            .collect();
        for client in clients {
            client.join().expect("a client thread panicked");
        }
        drop(hang_up);
        sampler.join().expect("the steal sampler panicked")
    });
    let mut result = merged.into_inner().expect("a client thread panicked");
    result.steal = steal;
    result.wall_s = start.elapsed().as_secs_f64();
    result.peak_rss_mb = crate::record::peak_rss_mb();
    result
}

/// Stages the service itself performs for a request; the rest of a
/// call's latency is pool hand-off, queueing and lock waits.
const SERVICE_STAGES: [&str; 6] =
    ["json.parse", "program.decode", "json.render", "serve.digest", "vm.lower", "serve.compute"];

/// One request handed from the replay's client thread to its worker
/// thread, as the service hands a miss to its pool.
struct Job {
    id: u64,
    root: usize,
    kind: Kind,
    program: Program,
    flat: FlatProgram,
}

/// Replays traced requests through the public functions the service
/// calls, one span each, and checks the stages agree with the
/// responses.
///
/// The replay keeps the service's thread structure: a client thread
/// runs admission and verify+lower, a worker thread runs the compute,
/// and the client waits for the worker. Requests are replayed one at a
/// time, after the timed loop. Both threads start before the loop and
/// allocate at once, so each gets an allocator arena of its own, as the
/// service's pool workers do, instead of inheriting the arena of a
/// load client that has exited; reusing such an arena made every
/// replayed `Simulator::new` several times slower than in the service.
struct Replayer<'scope> {
    work: std::sync::mpsc::Sender<Vec<(u64, Kind, Response)>>,
    client: std::thread::ScopedJoinHandle<'scope, Vec<String>>,
}

fn claim_arena() {
    std::hint::black_box(vec![0u8; 64]);
}

impl<'scope> Replayer<'scope> {
    fn spawn<'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        tr: &'env Tracer,
        fx: &'env Fixture,
    ) -> Self {
        let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Result<RunSummary, String>>();
        let (work, work_rx) = std::sync::mpsc::channel::<Vec<(u64, Kind, Response)>>();
        scope.spawn(move || {
            claim_arena();
            for job in job_rx {
                let _ = done_tx.send(compute_stages(tr, &job));
            }
        });
        let client = scope.spawn(move || {
            claim_arena();
            let mut failures = Vec::new();
            for (id, kind, response) in work_rx.recv().unwrap_or_default() {
                let root = tr.open("serve.replay", id, None);
                let result = admit_stages(tr, id, root, fx, kind, &response).and_then(|job| {
                    let Some(job) = job else { return Ok(()) };
                    job_tx.send(job).expect("the replay worker is alive");
                    let computed = done_rx.recv().expect("the replay worker answers")?;
                    let served = response
                        .outcome
                        .as_ref()
                        .map_err(|r| format!("replay: response rejected: {r}"))?;
                    if (computed.digest, computed.insts, computed.sim.cycles)
                        == (served.digest, served.insts, served.sim.cycles)
                    {
                        Ok(())
                    } else {
                        Err(format!("replay of {kind:?}: run_lowered disagrees with the response"))
                    }
                });
                tr.close(root);
                failures.extend(result.err());
            }
            failures
        });
        Replayer { work, client }
    }

    /// Replay `responses`; returns the failures.
    fn replay(self, responses: Vec<(u64, Kind, Response)>) -> Vec<String> {
        self.work.send(responses).expect("the replay client is alive");
        self.client.join().expect("the replay client panicked")
    }
}

/// The client side of a replayed request: parse, decode, render,
/// digest and, where the service goes on, verify+lower. Returns the job
/// for the worker when the service would compute the request.
fn admit_stages(
    tr: &Tracer,
    id: u64,
    root: usize,
    fx: &Fixture,
    kind: Kind,
    response: &Response,
) -> Result<Option<Job>, String> {
    let parent = Some(root);
    let text = fx.text(kind);
    let decoded = tr.span("json.parse", id, parent, || og_json::parse(text)).and_then(|json| {
        tr.span("program.decode", id, parent, || Program::from_json_unverified(&json))
    });
    let program = match (decoded, kind) {
        (Err(_), Kind::Unparsable(_)) => return Ok(None),
        (Err(e), _) => return Err(format!("replay of {kind:?}: decode failed: {e}")),
        (Ok(_), Kind::Unparsable(_)) => return Err("replay: an unparsable request decoded".into()),
        (Ok(p), _) => p,
    };
    let canonical = tr
        .span("json.render", id, parent, || og_json::render(&program.to_json()))
        .map_err(|e| format!("replay of {kind:?}: render failed: {e}"))?;
    let digest = tr.span("serve.digest", id, parent, || og_serve::digest128(&canonical));
    if digest != response.digest {
        return Err(format!(
            "replay of {kind:?}: digest {digest:#x} != response {:#x}",
            response.digest
        ));
    }
    if matches!(kind, Kind::Valid(_)) && !fx.shape.cycle {
        // A result hit: the service stops at the LRU.
        return Ok(None);
    }
    let lowered = tr.span("vm.lower", id, parent, || {
        FlatProgram::lower_verified_all(&program, &program.layout())
    });
    match (lowered, kind) {
        (Err(_), Kind::Unverifiable(_)) => Ok(None),
        (Err(e), _) => Err(format!("replay of {kind:?}: verify failed: {e:?}")),
        (Ok(_), Kind::Unverifiable(_)) => Err("replay: an unverifiable request verified".into()),
        (Ok((flat, _)), _) => Ok(Some(Job { id, root, kind, program, flat })),
    }
}

/// The worker side of a replayed miss: the service's own compute
/// (`run_lowered`) first, then attribution runs of the VM (plain and
/// streaming) and of the simulator over a captured trace.
fn compute_stages(tr: &Tracer, job: &Job) -> Result<RunSummary, String> {
    let Job { id, root, kind, ref program, ref flat } = *job;
    let parent = Some(root);
    let config = RunConfig::default();
    let computed = tr
        .span("serve.compute", id, parent, || {
            og_lab::run_lowered("replay", program, flat.clone(), config.clone())
        })
        .map_err(|e| format!("replay of {kind:?}: run_lowered failed: {e}"))?;
    let steps = tr
        .span("vm.exec", id, parent, || {
            Vm::with_lowered(program, config.clone(), flat.clone()).run()
        })
        .map_err(|e| format!("replay of {kind:?}: run failed: {e}"))?
        .steps;
    tr.span("vm.stream", id, parent, || {
        Vm::with_lowered(program, config.clone(), flat.clone()).run_streamed(&mut NullSink)
    })
    .map_err(|e| format!("replay of {kind:?}: streamed run failed: {e}"))?;
    let records = tr
        .span("bench.capture", id, parent, || {
            let mut sink = VecSink::new();
            Vm::with_lowered(program, config.clone(), flat.clone())
                .run_streamed(&mut sink)
                .map(|_| sink.into_records())
        })
        .map_err(|e| format!("replay of {kind:?}: captured run failed: {e}"))?;
    let mut sim = tr.span("sim.new", id, parent, || Simulator::new(MachineConfig::default()));
    tr.span("sim.feed", id, parent, || records.iter().for_each(|r| sim.feed(r)));
    let fed = tr.span("sim.finish", id, parent, || sim.finish());
    if records.len() as u64 != steps || fed.stats != computed.sim {
        return Err(format!(
            "replay of {kind:?}: the VM and simulator runs disagree with run_lowered"
        ));
    }
    Ok(computed)
}

/// Time `shape.setups` set-ups and keep the last fixture; the first
/// set-up's checks count.
fn timed_setups(seed: u64, shape: &Shape, out: &mut Outcome) -> (Vec<f64>, Fixture) {
    let mut times = Vec::with_capacity(shape.setups);
    let mut fixture = None;
    for i in 0..shape.setups.max(1) {
        // Drop the previous fixture (joining its pool) before timing the
        // next, so only one service is ever alive.
        drop(fixture.take());
        let mut scratch = Outcome::default();
        let t = Instant::now();
        fixture = Some(setup(seed, shape, if i == 0 { &mut *out } else { &mut scratch }));
        times.push(t.elapsed().as_secs_f64());
    }
    (times, fixture.expect("at least one set-up"))
}

/// Check the service's counters against the loop: exact counts, no
/// invariant violations.
fn check_counters(
    fx: &Fixture,
    before: og_serve::Metrics,
    after: og_serve::Metrics,
    valid: u64,
    out: &mut Outcome,
) {
    let computed = after.computed - before.computed;
    let hits = after.result_hits - before.result_hits;
    if fx.shape.cycle && computed != valid {
        out.fail(format!("serve.computed {computed} != valid calls {valid} on a miss workload"));
    }
    if !fx.shape.cycle && hits != valid {
        out.fail(format!("serve.result_hits {hits} != valid calls {valid} on a hit workload"));
    }
    let violations = after.invariant_violations - before.invariant_violations;
    if violations > 0 {
        out.fail_many(violations, format!("{violations} invariant violation(s)"));
    }
}

/// Untraced serve run over an existing fixture: the end-to-end
/// metrics (without `setup_s`).
pub fn measure(fx: &Fixture, seconds: Duration, out: &mut Outcome) {
    let before = fx.service.metrics();
    crate::record::reset_peak_rss();
    let r = closed_loop(fx, Limit::Time(seconds), 0, None);
    let all = stats::all_sorted(&r.parts);
    let calls = all.len();
    out.attempt(calls as u64);
    for e in r.failures {
        out.fail(e);
    }
    check_counters(fx, before, fx.service.metrics(), r.valid, out);
    let whole = stats::whole_windows(r.wall_s).min(r.steal.len());
    let kept = stats::quiet(&r.steal[..whole]);
    let kept_samples = stats::kept_sorted(&r.parts, &kept);
    let p50 = percentile_sorted(&kept_samples, 0.50);
    let (rate, windows) = stats::rate(&r.parts, &kept, r.wall_s);
    let (tail, p) = stats::tail(&r.parts, &kept);
    out.metrics.push(Metric::new("ops_per_s", rate, "1/s", windows));
    out.metrics.push(Metric::new("op_p50_ms", p50 / 1e3, "ms", kept_samples.len()));
    out.metrics.push(Metric::new("op_tail_ms", tail / 1e3, "ms", windows));
    out.metrics.push(Metric::new("peak_rss_mb", r.peak_rss_mb, "MB", 1));
    let pct = (p * 100.0).round();
    out.notes.push(format!(
        "steal          = {:.2}% of CPU time over the run; {} of {whole} one-second windows kept (steal <= {:.2}%)",
        stats::mean(&r.steal) * 100.0,
        kept.len(),
        stats::median(&r.steal[..whole]) * 100.0
    ));
    out.notes.push(format!(
        "calls_per_s    = {rate:.2} 1/s (median of n={windows} kept windows; {calls} calls, {} clients)",
        crate::record::nproc()
    ));
    out.notes.push(format!(
        "call_p50_us    = {p50:.2} us (kept windows, n={}; whole run {:.2} us)",
        kept_samples.len(),
        percentile_sorted(&all, 0.50)
    ));
    out.notes.push(format!(
        "call_p{pct}_us    = {tail:.2} us (median of n={windows} kept windows' p{pct})"
    ));
    let p99 = percentile_sorted(&all, 0.99);
    out.notes.push(format!(
        "call_p99_us    = {p99:.2} us (whole run, n={calls}, {} samples beyond)",
        beyond(&all, 0.99)
    ));
}

/// Untraced serve run: the end-to-end metrics.
pub fn run(workload: Workload, spec: &RunSpec, shape: &Shape) -> Outcome {
    let mut out = Outcome::default();
    let (setups, fx) = timed_setups(spec.seed, shape, &mut out);
    out.metrics.push(Metric::new("setup_s", median(&setups), "s", setups.len()));
    out.notes.push(format!(
        "setup_s        = {:.4} s (median of n={} set-ups)",
        median(&setups),
        setups.len()
    ));
    measure(&fx, spec.seconds, &mut out);
    out.notes.push(format!(
        "workload {} corpus {} valid programs; request fixture {:.2} MB of text",
        workload.name(),
        shape.corpus,
        fx.text_bytes() as f64 / 1_048_576.0
    ));
    drop(fx);
    out
}

/// Per-request sums of the service-equivalent replay stages, ns.
fn stage_ns_by_request(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut by_id = BTreeMap::new();
    for s in spans {
        if SERVICE_STAGES.contains(&s.name) {
            *by_id.entry(s.id).or_insert(0) += s.dur_ns();
        }
    }
    by_id
}

/// Traced serve run: the per-layer metrics. One untraced and one
/// traced phase of the same fixed number of calls; their difference is
/// the tracing overhead.
pub fn run_traced(workload: Workload, spec: &RunSpec, shape: &Shape) -> Outcome {
    let mut out = Outcome::default();
    let fx = setup(spec.seed, shape, &mut out);
    let n = shape.traced_calls;
    let tracer = Tracer::new();
    let (untraced, traced, before, after, replay_failures) = std::thread::scope(|scope| {
        let replayer = Replayer::spawn(scope, &tracer, &fx);
        let untraced = closed_loop(&fx, Limit::Calls(n), 0, None);
        let before = fx.service.metrics();
        let mut traced = closed_loop(&fx, Limit::Calls(n), n, Some(&tracer));
        let after = fx.service.metrics();
        let failures = replayer.replay(std::mem::take(&mut traced.responses));
        (untraced, traced, before, after, failures)
    });
    for e in untraced.failures.iter().chain(&traced.failures).chain(&replay_failures) {
        out.fail(e.clone());
    }
    let (untraced_us, traced_us) =
        (stats::all_sorted(&untraced.parts), stats::all_sorted(&traced.parts));
    out.attempt((untraced_us.len() + traced_us.len()) as u64);
    check_counters(&fx, before, after, traced.valid, &mut out);
    let spans = tracer.into_spans();
    let st = stages(&spans);
    let get = |name: &str| st.get(name).copied().unwrap_or_default();

    let mut layers = Layers::default();
    for (metric, stage) in [
        ("json.parse_us", "json.parse"),
        ("json.render_us", "json.render"),
        ("program.decode_us", "program.decode"),
        ("serve.digest_us", "serve.digest"),
        ("vm.lower_us", "vm.lower"),
        ("sim.new_us", "sim.new"),
        ("serve.compute_us", "serve.compute"),
    ] {
        layers.set(metric, get(stage).mean_us(), get(stage).count as usize);
    }
    let runs = get("vm.exec").count as usize;
    layers.set("vm.exec_ms", get("vm.exec").total_ms(), runs);
    layers.set("vm.trace_ms", get("vm.stream").total_ms() - get("vm.exec").total_ms(), runs);
    layers.set("sim.feed_ms", get("sim.feed").total_ms(), runs);

    // Exact counts of the replayed runs, from their independently
    // computed expected results.
    let mut sim = og_sim::CycleStats::default();
    let mut steps = 0u64;
    let mut runs_expected = 0usize;
    for id in n..2 * n {
        if let (true, Kind::Valid(s)) = (fx.shape.cycle, fx.pick(id)) {
            let e = &fx.expected[s];
            steps += e.insts;
            sim.cycles += e.sim.cycles;
            sim.icache.1 += e.sim.icache.1;
            sim.dcache.1 += e.sim.dcache.1;
            sim.l2.1 += e.sim.l2.1;
            sim.mispredicts += e.sim.mispredicts;
            runs_expected += 1;
        }
    }
    if runs_expected != runs {
        out.fail(format!("{runs} replayed runs != {runs_expected} expected"));
    }
    let records = steps;
    layers.set("vm.steps", steps as f64, runs);
    layers.set(
        "vm.msteps_per_s",
        if runs > 0 { steps as f64 / get("vm.exec").total_ms() / 1e3 } else { 0.0 },
        runs,
    );
    layers.set("sim.records", records as f64, runs);
    layers.set(
        "sim.mrec_per_s",
        if runs > 0 { records as f64 / get("sim.feed").total_ms() / 1e3 } else { 0.0 },
        runs,
    );
    layers.set("sim.cycles", sim.cycles as f64, runs);
    layers.set("sim.icache_misses", sim.icache.1 as f64, runs);
    layers.set("sim.dcache_misses", sim.dcache.1 as f64, runs);
    layers.set("sim.l2_misses", sim.l2.1 as f64, runs);
    layers.set("sim.mispredicts", sim.mispredicts as f64, runs);

    // Waiting: call latency minus the service-equivalent stages.
    let stage_ns = stage_ns_by_request(&spans);
    let waits: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.call")
        .map(|s| (s.dur_ns() as f64 - stage_ns.get(&s.id).copied().unwrap_or(0) as f64) / 1e3)
        .collect();
    let wait_us = mean(&waits);
    layers.set("serve.wait_us", wait_us, waits.len());
    let calls = traced_us.len();
    layers.set("serve.computed", (after.computed - before.computed) as f64, calls);
    layers.set("serve.result_hits", (after.result_hits - before.result_hits) as f64, calls);
    layers.set("serve.evictions", (after.evictions - before.evictions) as f64, calls);
    let rejects =
        after.parse_rejects + after.verify_rejects - before.parse_rejects - before.verify_rejects;
    layers.set("serve.gate_rejects", rejects as f64, calls);
    layers.set(
        "serve.hit_ratio",
        (after.result_hits - before.result_hits) as f64 / traced.valid.max(1) as f64,
        traced.valid as usize,
    );
    let overhead = mean(&traced_us) / mean(&untraced_us).max(1e-9) - 1.0;
    layers.set("trace.overhead_frac", overhead, calls);
    layers.set("trace.spans", spans.len() as f64, spans.len());

    // Stage table per call, in µs: what one request spends where.
    let per_call = |name: &str| get(name).total_ns as f64 / 1e3 / calls.max(1) as f64;
    let mut table = vec![
        ("json.parse", per_call("json.parse")),
        ("program.decode", per_call("program.decode")),
        ("json.render", per_call("json.render")),
        ("serve.digest", per_call("serve.digest")),
        ("vm.lower", per_call("vm.lower")),
        ("sim.new", per_call("sim.new")),
        ("serve.compute-sim.new", (per_call("serve.compute") - per_call("sim.new")).max(0.0)),
        ("serve.wait", wait_us),
    ];
    let admission: f64 = table[..4].iter().map(|(_, v)| v).sum();
    table.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.notes.push(format!("{} stage cost per call (us, largest first):", workload.name()));
    for (name, us) in &table {
        out.notes.push(format!("  {name:<22} {us:>12.3}"));
    }
    out.notes
        .push(format!("  admission (json + program.decode + serve.digest) = {admission:.3} us"));
    out.notes.push(format!("largest stage: {}", table[0].0));
    let service_stage = table.iter().find(|(name, _)| *name != "serve.wait").map_or("", |(n, _)| n);
    out.notes.push(format!("largest stage of the service's own work: {service_stage}"));
    out.metrics = layers.into_metrics();
    crate::write_trace(spec, workload.name(), &spans, &mut out);
    out
}
