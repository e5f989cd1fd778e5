//! The benchmark's own tests: tiny runs of every workload pass the
//! oracle, and a wrong pinned value or a request rejected at the wrong
//! gate makes a run report failure.

use og_perfbench::oracle::PINNED;
use og_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use og_perfbench::serve::{self, Shape};
use og_perfbench::{study, RunSpec, Workload};
use std::path::PathBuf;
use std::time::Duration;

fn spec(seconds_ms: u64) -> RunSpec {
    RunSpec {
        seed: 7,
        seconds: Duration::from_millis(seconds_ms),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest"),
    }
}

fn tiny(workload: Workload) -> Shape {
    match workload {
        Workload::ServeMiss => {
            Shape { corpus: 80, invalid_per_mille: 0, cycle: true, traced_calls: 200, setups: 2 }
        }
        _ => {
            Shape { corpus: 8, invalid_per_mille: 100, cycle: false, traced_calls: 400, setups: 2 }
        }
    }
}

fn assert_correct(what: &str, out: &Outcome) {
    assert!(out.correct(), "{what} failed its oracle:\n{}", out.human());
}

/// Every study check lives in one test: the study cache directory is
/// process-wide state.
#[test]
fn study_runs_pass_the_oracle_and_wrong_pins_fail() {
    let spec = spec(0);
    let dir = spec.out_dir.join(format!("study-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    std::env::set_var("OG_STUDY_DIR", &dir);

    let out = study::run(&spec, &PINNED);
    assert_correct("untraced study", &out);
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, END_TO_END.map(|(n, _)| n));

    let traced = study::run_traced(&spec, &PINNED);
    assert_correct("traced study", &traced);
    let get = |name| traced.metric(name).expect("per-layer metric").value;
    assert_eq!(get("vm.steps"), get("sim.records"));
    assert!(get("sim.feed_ms") > 0.0 && get("vm.exec_ms") > 0.0);

    let mut wrong_digest = PINNED.clone();
    wrong_digest.golden[8].2 ^= 1;
    assert!(!study::run(&spec, &wrong_digest).correct(), "a wrong pinned digest must fail the run");

    let mut wrong_stats = PINNED.clone();
    wrong_stats.study_stats ^= 1;
    let out = study::run(&spec, &wrong_stats);
    assert!(!out.correct(), "a wrong pinned statistics digest must fail the run");
    assert!(out.failed >= 72, "a statistics mismatch fails every run of the study");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_runs_pass_the_oracle() {
    for workload in [Workload::ServeMiss, Workload::ServeHit] {
        let out = serve::run(workload, &spec(300), &tiny(workload));
        assert_correct(workload.name(), &out);
        assert!(out.attempted > 0);
        let traced = serve::run_traced(workload, &spec(0), &tiny(workload));
        assert_correct(workload.name(), &traced);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.map(|(n, _)| n));
    }
}

#[test]
fn serve_counts_repeat_exactly_and_match_the_mix() {
    let counts = |workload| {
        let out = serve::run_traced(workload, &spec(0), &tiny(workload));
        assert_correct(workload.name(), &out);
        out.metrics
            .iter()
            .filter(|m| m.unit == "count" && m.name != "trace.spans")
            .map(|m| (m.name, m.value))
            .collect::<Vec<_>>()
    };
    let miss = counts(Workload::ServeMiss);
    assert_eq!(miss, counts(Workload::ServeMiss), "exact counts must repeat");
    let get = |c: &[(&str, f64)], name| c.iter().find(|(n, _)| *n == name).expect("count").1;
    assert_eq!(get(&miss, "serve.computed"), 200.0, "every serve_miss call is computed");
    assert_eq!(get(&miss, "vm.steps"), get(&miss, "sim.records"));
    let hit = counts(Workload::ServeHit);
    assert_eq!(get(&hit, "serve.computed"), 0.0);
    assert_eq!(get(&hit, "serve.result_hits") + get(&hit, "serve.gate_rejects"), 400.0);
    assert_eq!(get(&hit, "sim.records"), 0.0, "the simulator does no work on hits");
}

#[test]
fn a_wrong_gate_response_fails_the_run() {
    let shape = tiny(Workload::ServeHit);
    let mut setup = Outcome::default();
    let mut fx = serve::setup(11, &shape, &mut setup);
    assert_correct("set-up", &setup);
    // Unparsable texts where unverifiable ones belong: the service now
    // rejects those requests at the parse gate instead of the verify gate.
    fx.unverifiable = fx.unparsable.clone();
    let mut out = Outcome::default();
    serve::measure(&fx, Duration::from_millis(300), &mut out);
    assert!(out.failed > 0 && !out.correct(), "wrong-gate rejects must fail the run");
    assert!(out.notes.iter().any(|n| n.contains("wrong gate")), "{}", out.human());
}

#[test]
fn the_command_prints_the_contract_line_and_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let dir = spec(0).out_dir;
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let run = std::process::Command::new(bin)
        .args(["--workload", "serve_hit", "--seed", "3", "--seconds", "1", "--trace", "0"])
        .current_dir(&dir)
        .output()
        .expect("the benchmark runs");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    let last = og_json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    let og_json::Json::Obj(fields) = &last else { panic!("the result is an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&og_json::Json::Bool(true)));
    for (name, unit) in END_TO_END {
        let m = last.get("metrics").and_then(|m| m.get(name)).expect("every end-to-end metric");
        assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit));
        assert!(
            m.get("value").and_then(|v| v.as_num()).is_some_and(|v| v > 0.0),
            "{name} is never 0"
        );
    }

    let bad = std::process::Command::new(bin)
        .args(["--workload", "nope"])
        .current_dir(&dir)
        .output()
        .expect("the benchmark runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty(), "no result on bad arguments");
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = og_json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|l| l.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(|v| v.as_str()).expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let catalogue = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), catalogue(&END_TO_END));
    assert_eq!(listed("per_layer"), catalogue(&PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(|l| l.as_arr())
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}
