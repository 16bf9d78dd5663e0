//! `witag-perfbench`: the repository's benchmark.
//!
//! ```text
//! witag-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! witag-perfbench --manifest        # print the BENCHMARK.json this code defines
//! ```
//!
//! Each run executes one workload as a closed loop (the next op starts
//! when the previous one returns) for `--seconds` seconds, checks the
//! program's outputs, and prints its metrics: one human-readable line
//! per metric, one JSON line of run metadata, and — as the last line —
//! the result object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! separate traced run and reports the per-layer metrics. See
//! `README.md` in this directory for the workloads and metrics.

#![forbid(unsafe_code)]

mod manifest;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::Report;

/// Parsed command line of a benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (a [`manifest::WORKLOADS`] entry).
    pub workload: String,
    /// Input seed: every generated input is a pure function of it.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: witag-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         witag-perfbench --manifest\n\
         default seed {}, held-out seed {}",
        names.join("|"),
        manifest::DEFAULT_SEED,
        manifest::HELD_OUT_SEED
    )
}

/// Parse `--key value` pairs. Unknown keys and malformed values are
/// errors; every key but `--workload` has a default.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = manifest::DEFAULT_SEED;
    let mut seconds = f64::from(manifest::RUN_SECONDS);
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{key} needs a value"));
        match key.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !manifest::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--manifest") {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("witag-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report: Report = workloads::run(&args);
    match report.finish(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("witag-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload query_round --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "query_round".into(),
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
    }

    #[test]
    fn defaults_and_rejections() {
        let a = parse_args(&argv("--workload metro_inventory")).unwrap();
        assert_eq!(a.seed, manifest::DEFAULT_SEED);
        assert!(!a.trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload query_round --trace 2")).is_err());
        assert!(parse_args(&argv("--workload query_round --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload query_round --bogus 1")).is_err());
    }
}
