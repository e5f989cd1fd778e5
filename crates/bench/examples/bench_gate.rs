//! Perf regression gate: compare a fresh `BENCH_vm.json` against the
//! committed baseline snapshot, on a yardstick that carries over between
//! machines.
//!
//! ```text
//! OG_BENCH_SMOKE=1 cargo bench -p og-bench --bench micro_throughput
//! cargo run --release -p og-bench --example bench_gate
//! ```
//!
//! The committed baseline lives at `bench/baseline/BENCH_vm.json`.
//! Absolute steps/sec do not carry over: the same code ran at ×0.48–0.76
//! of the baseline's numbers on a slower machine. So each single-stream
//! engine series — `flat`, `trusted`, and the fused no-stats headline
//! `fused` — is gated on its **same-run ratio over the reference
//! engine** (`reference_steps_per_sec` in the same report), which the
//! machine's speed divides out of. That ratio must stay within 20% of
//! the same ratio in the baseline; a larger drop exits nonzero. The
//! absolute numbers, the fused and the batch series are printed either
//! way so they stay visible in the CI log.
//!
//! Arguments (both optional, in order): baseline path, fresh path.
//! Defaults: the committed snapshot, and `BENCH_vm.json` in the bench
//! output directory (`OG_BENCH_OUT` or `target/`).

use og_json::Json;
use std::path::{Path, PathBuf};

/// The single-stream series the gate protects, as `(key, label)`.
const GATED: [(&str, &str); 3] = [
    ("flat_steps_per_sec", "flat"),
    ("trusted_steps_per_sec", "trusted"),
    ("fused_steps_per_sec", "fused (nostats)"),
];

/// The in-run yardstick every gated series is divided by.
const YARDSTICK: &str = "reference_steps_per_sec";

/// Largest tolerated drop of a series' ratio over the yardstick,
/// relative to the baseline's ratio: fresh ≥ 0.8 × baseline.
const MAX_REGRESSION: f64 = 0.20;

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    og_json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn num(report: &Json, key: &str, path: &Path) -> f64 {
    report.field::<f64>(key).unwrap_or_else(|e| panic!("{}: missing `{key}`: {e}", path.display()))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let baseline_path = args.next().map(PathBuf::from).unwrap_or_else(|| {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline/BENCH_vm.json"))
    });
    let fresh_path = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| og_lab::report::bench_out_dir().join("BENCH_vm.json"));
    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);

    println!("bench_gate: baseline {}", baseline_path.display());
    println!("bench_gate: fresh    {}", fresh_path.display());

    let base_ref = num(&baseline, YARDSTICK, &baseline_path);
    let now_ref = num(&fresh, YARDSTICK, &fresh_path);
    println!(
        "bench_gate: yardstick (reference engine) {now_ref:>14.0} steps/s  \
         (baseline {base_ref:>14.0}, x{:.3})",
        now_ref / base_ref
    );
    let mut failures = Vec::new();
    for (key, label) in GATED {
        let base = num(&baseline, key, &baseline_path);
        let now = num(&fresh, key, &fresh_path);
        let (base_x, now_x) = (base / base_ref, now / now_ref);
        let ratio = now_x / base_x;
        println!(
            "bench_gate: {label:<16} x{now_x:.3} over reference (baseline x{base_x:.3}, \
             x{ratio:.3}); {now:>14.0} steps/s"
        );
        if ratio < 1.0 - MAX_REGRESSION {
            failures.push(format!(
                "{label}: x{now_x:.3} over the reference engine is {:.1}% below the \
                 baseline's x{base_x:.3}",
                100.0 * (1.0 - ratio)
            ));
        }
    }

    // The superinstruction and aggregate headlines, for the CI log.
    let fused = num(&fresh, "fused_steps_per_sec", &fresh_path);
    let batch = num(&fresh, "batch_steps_per_sec", &fresh_path);
    let lanes = num(&fresh, "batch_lanes", &fresh_path);
    let cores = num(&fresh, "cores", &fresh_path);
    let fusion = num(&fresh, "fusion_speedup", &fresh_path);
    println!(
        "bench_gate: fused single-stream {:.1}M steps/s (fusion A/B x{fusion:.2}), \
         batch aggregate {:.1}M steps/s ({lanes:.0} lanes on {cores:.0} core(s))",
        fused / 1e6,
        batch / 1e6,
    );

    if failures.is_empty() {
        println!(
            "bench_gate: all single-stream series within {:.0}% of their baseline ratio",
            100.0 * MAX_REGRESSION
        );
    } else {
        for f in &failures {
            eprintln!("bench_gate: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
