//! The four workloads. Each module exposes `run(&Args) -> Report`,
//! which performs the untraced timed run (`--trace 0`) or the traced
//! run (`--trace 1`).

mod fleet_sessions;
mod metro_inventory;
mod mimo_mox;
mod query_round;

use std::path::PathBuf;

use witag_sim::Rng;

use crate::report::{fmt_num, peak_rss_mb, Report};
use crate::stats::{coverage, median, per_op_us, Span};
use crate::trace::Tracer;
use crate::Args;

/// Repetitions of a workload's setup, spread over the measurement
/// window; `setup_s` is their median. On a shared machine interference
/// comes in bursts that can slow a single repetition several-fold, so
/// the median needs many, taken at different times.
pub const SETUP_REPS: usize = 15;

/// Consecutive ops per window of the round workloads' `op_p90_us`
/// (p90 within each window, median over windows): enough for ten
/// beyond the p90 of every window (20), and ~2–3 s of rounds, so a
/// 20 s run has 6–8 windows and an interference burst spoils a minority.
pub const TAIL_WINDOW: usize = 200;

/// Repetitions of a traced run's layer replays (the median is reported).
pub const REPLAY_REPS: usize = 9;

/// Dispatch a run to its workload.
pub fn run(args: &Args) -> Report {
    let mut report = match args.workload.as_str() {
        "query_round" => query_round::run(args),
        "mimo_mox" => mimo_mox::run(args),
        "fleet_sessions" => fleet_sessions::run(args),
        "metro_inventory" => metro_inventory::run(args),
        other => {
            let mut r = Report::default();
            r.fail(0, format!("unknown workload {other}"));
            r
        }
    };
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => report.metric("peak_rss_mb", mb, None),
            None => report.fail(0, "peak RSS unavailable (/proc/self/status)".into()),
        }
    }
    report
}

/// The benchmark's input stream for `purpose`: a pure function of the
/// run's seed, independent of every stream the program draws itself.
pub fn input_rng(seed: u64, purpose: u64) -> Rng {
    Rng::seed_from_u64(seed ^ 0x7E57_BE7C_4000_0000).fork(purpose)
}

/// Write the traced run's spans under `.bench_out/` in the working
/// directory and remember where they went.
pub fn save_spans(report: &mut Report, tracer: &Tracer, args: &Args) {
    let path = PathBuf::from(".bench_out")
        .join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.spans_path = Some(path),
        Err(e) => eprintln!("witag-perfbench: could not write spans: {e}"),
    }
}

/// Record a workload's `sim_*` values: per-layer metrics of a traced
/// run, metadata of a timed one. Both runs compute them from the same
/// inputs, so the traced run's metrics must equal the timed run's notes.
pub fn record_sim(r: &mut Report, traced: bool, values: Result<Vec<(&'static str, f64)>, String>) {
    match values {
        Ok(values) => {
            for (name, v) in values {
                if traced {
                    r.metric(name, v, None);
                } else {
                    r.note(name, fmt_num(v));
                }
            }
        }
        Err(why) => r.fail(0, why),
    }
}

/// `(traced - untraced) / untraced`, in percent.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        (traced - untraced) / untraced * 100.0
    } else {
        0.0
    }
}

/// Report span timings as per-op medians, one `(metric, span name,
/// self time?)` row each. A self time below zero means a replayed child
/// outlasted the call it stands in for, which fails a check.
pub fn span_metrics(r: &mut Report, spans: &[Span], rows: &[(&'static str, &str, bool)]) {
    for &(metric, span, self_time) in rows {
        let per_op: Vec<f64> = per_op_us(spans, span, self_time).into_values().collect();
        r.median_metric(metric, &per_op);
        let value = median(&per_op).unwrap_or(0.0);
        r.check(!self_time || value >= 0.0, 0, || {
            format!("{metric} is negative ({value})")
        });
    }
}

/// `bench.coverage`: the per-op medians of the top-level `stages`,
/// summed, over the untraced op median.
pub fn stage_coverage(r: &mut Report, spans: &[Span], stages: &[&str], untraced_us: &[f64]) {
    let medians: Vec<f64> = stages
        .iter()
        .map(|s| {
            let per_op: Vec<f64> = per_op_us(spans, s, false).into_values().collect();
            median(&per_op).unwrap_or(0.0)
        })
        .collect();
    match coverage(&medians, median(untraced_us).unwrap_or(0.0)) {
        Some(c) => r.metric("bench.coverage", c, None),
        None => r.fail(0, "no untraced ops to cover".into()),
    }
}
