//! `servebench`: the PS3 serving benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload scalar-cold --seed 1 --seconds 24 --trace 0
//! ```
//!
//! Drives a trained `Router` behind an in-process `NetServer` over
//! loopback from this process, checks the answers, and prints one JSON
//! result line last. `--trace 0` reports the end-to-end metrics; `--trace
//! 1` is a separate run that reports the per-layer metrics. See
//! `README.md` beside this crate for the workloads and the metric map.

mod check;
mod fixture;
mod layers;
mod quality;
mod report;
mod run;
mod schedule;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workload::Workload;

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Scratch space inside the working directory: snapshots, the frozen
/// copies the traced run thaws, and span dumps.
fn out_dir() -> PathBuf {
    PathBuf::from(".servebench")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <scalar-cold|dashboard-hot|adhoc-mixed> \
                 --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = out_dir().join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("servebench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let result = if args.trace {
        run::run_traced(&args, &scratch)
    } else {
        run::run_e2e(&args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let correct = result.correct;
    result.print();
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("servebench: answer check failed");
        ExitCode::from(1)
    }
}

/// Where a run writes its span dump.
pub fn trace_path(args: &Args) -> PathBuf {
    out_dir().join(format!("trace-{}-{}.tsv", args.workload.name(), args.seed))
}

/// `path` relative to the working directory, for messages.
pub fn shown(path: &Path) -> String {
    path.display().to_string()
}
