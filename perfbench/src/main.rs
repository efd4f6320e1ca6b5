//! `inf2vec-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! inf2vec-perfbench --workload <train-digg|stream-digg|online-100k|serve-100k>
//!     --seed N --seconds S --trace 0|1 --work-dir DIR
//!     [--source-rev REV] [--fs-type FS]
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up, measures for
//! `--seconds`, checks the program's outputs, and prints one JSON result
//! as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` spends the first half of the budget
//! untraced and the second half traced, and reports per-layer self times
//! measured by spans in this crate around calls into each library crate.
//! The exit code is non-zero when a correctness gate fails. See README.md.

mod online;
mod report;
mod serve;
mod stats;
mod stream;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{Fingerprint, Outcome};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub source_rev: String,
    pub fs_type: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut work_dir = None;
    let mut source_rev = "unknown".to_string();
    let mut fs_type = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--source-rev" => source_rev = value()?,
            "--fs-type" => fs_type = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        budget: Duration::from_secs_f64(seconds),
        trace,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        source_rev,
        fs_type,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let outcome: Result<Outcome, String> = match args.workload.as_str() {
        "train-digg" => train::run(&args),
        "stream-digg" => stream::run(&args),
        "online-100k" => online::run(&args),
        "serve-100k" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    outcome.check_finite();
    let fingerprint = Fingerprint::collect(&args);
    outcome.print(&args, &fingerprint);
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        for gate in outcome.gates.iter().filter(|g| !g.passed) {
            eprintln!("perfbench: gate failed: {}: {}", gate.name, gate.detail);
        }
        ExitCode::FAILURE
    }
}
