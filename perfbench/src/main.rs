//! `perfbench --workload <study|serve_miss|serve_hit> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Run from the root of the repository. Prints the run record, every
//! metric by name with its unit and sample count, and as the last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). Exits 1
//! when any output is wrong, 2 on bad arguments.

use og_perfbench::record::RunRecord;
use og_perfbench::{RunSpec, Workload};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let cwd = std::env::current_dir().expect("the working directory is readable");
    let out_dir = cwd.join(".perfbench");
    // Keep the study cache in a scratch directory of this process, and
    // ignore cache overrides from the environment.
    let scratch = out_dir.join(format!("study-{}", std::process::id()));
    std::env::set_var("OG_STUDY_DIR", &scratch);
    std::env::remove_var("OG_STUDY_NOCACHE");
    std::env::remove_var("OG_STUDY_REQUIRE_CACHE");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let code = match parse_args(std::env::args().skip(1)) {
        Ok(args) => run(&args, &cwd, out_dir),
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <study|serve_miss|serve_hit> --seed <n> --seconds <s> --trace <0|1>");
            ExitCode::from(2)
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    code
}

fn run(args: &Args, cwd: &std::path::Path, out_dir: std::path::PathBuf) -> ExitCode {
    let record = RunRecord::gather(cwd);
    let spec = RunSpec { seed: args.seed, seconds: Duration::from_secs(args.seconds), out_dir };
    println!(
        "run: workload={} traced={} seed={} seconds={} nproc={} clients={} workers={} cpu=\"{}\" rev={}",
        args.workload.name(),
        u8::from(args.trace),
        args.seed,
        args.seconds,
        record.nproc,
        if args.workload == Workload::Study { 0 } else { record.nproc },
        record.nproc,
        record.cpu,
        record.rev,
    );
    let outcome = og_perfbench::run(args.workload, &spec, args.trace);
    print!("{}", outcome.human());
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
