//! What a run reports: metrics with their sample summaries, ops
//! attempted and failed, the correctness verdict and run metadata.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::manifest;
use crate::stats::{median, windowed_tail, Summary};
use crate::Args;

/// One reported metric value with the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name (a [`manifest`] table entry).
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// Summary of the samples the value came from, when it has any.
    pub samples: Option<Summary>,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted (sessions, tags or rounds, per the workload).
    pub attempted: u64,
    /// Ops that returned an error or failed a check.
    pub failed: u64,
    /// Why ops failed, one line per failed check.
    pub failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Worker threads the workload ran on.
    pub threads: usize,
    /// Extra metadata lines (`key`, JSON value).
    pub notes: Vec<(String, String)>,
    /// Spans of the traced run, when there was one.
    pub spans_path: Option<PathBuf>,
}

impl Report {
    /// Record a metric whose value is derived from `samples` (or `None`
    /// when it is a single computed value).
    pub fn metric(&mut self, name: &'static str, value: f64, samples: Option<&[f64]>) {
        debug_assert!(manifest::find(name).is_some(), "undeclared metric {name}");
        self.metrics.push(Metric {
            name,
            value,
            samples: samples.and_then(Summary::of),
        });
    }

    /// Record the median of `samples` as metric `name`; a check fails
    /// when there are none.
    pub fn median_metric(&mut self, name: &'static str, samples: &[f64]) {
        match median(samples) {
            Some(v) => self.metric(name, v, Some(samples)),
            None => self.fail(0, format!("{name}: no samples")),
        }
    }

    /// Record as metric `name` the `p`-th percentile of `samples`
    /// within each window of `window` consecutive samples, median over
    /// the windows ([`windowed_tail`]). A check fails when there is no
    /// full window or one leaves fewer than `min_beyond` samples beyond
    /// its percentile.
    pub fn tail_metric(
        &mut self,
        name: &'static str,
        samples: &[f64],
        p: f64,
        window: usize,
        min_beyond: usize,
    ) {
        match windowed_tail(samples, window, p, min_beyond) {
            Some(v) => self.metric(name, v, Some(samples)),
            None => self.fail(
                0,
                format!(
                    "{name}: {} samples give no window of {window} with \
                     {min_beyond} beyond p{p}",
                    samples.len()
                ),
            ),
        }
    }

    /// Count `ops` as failed because of `why`; a run with any failure
    /// is not correct.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    /// Check `ok`; on failure count `ops` as failed.
    pub fn check(&mut self, ok: bool, ops: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(ops, why());
        }
    }

    /// Record a metadata note (`value` must already be valid JSON).
    pub fn note(&mut self, key: &str, value: String) {
        self.notes.push((key.to_string(), value));
    }

    /// Bring the metrics to exactly the run's table, in table order.
    /// A metric the workload measures but did not report fails a check,
    /// and so does one reported outside its table or workload; a
    /// per-layer metric of a layer the workload does not exercise reads
    /// 0. No end-to-end metric may be 0.
    fn complete(&mut self, workload: &str, trace: bool) {
        let table = manifest::table(trace);
        for m in &self.metrics {
            if !table
                .iter()
                .any(|d| d.name == m.name && d.measured_on(workload))
            {
                self.failures
                    .push(format!("{} is not a metric of this run", m.name));
            }
        }
        let mut out = Vec::with_capacity(table.len());
        for def in table {
            match self.metrics.iter().find(|m| m.name == def.name) {
                Some(m) => out.push(m.clone()),
                None => {
                    if def.measured_on(workload) {
                        self.failures.push(format!("{} was not reported", def.name));
                    }
                    out.push(Metric {
                        name: def.name,
                        value: 0.0,
                        samples: None,
                    });
                }
            }
        }
        if !trace {
            for m in out
                .iter()
                .filter(|m| !(m.value.is_finite() && m.value > 0.0))
            {
                self.failures
                    .push(format!("end-to-end metric {} reads {}", m.name, m.value));
            }
        }
        self.metrics = out;
    }

    /// Print the report: one line per metric, the metadata line, and
    /// the result object last. Fails (without printing a result) when
    /// the run attempted nothing.
    pub fn finish(mut self, args: &Args) -> Result<(), String> {
        if self.attempted == 0 {
            return Err("the run attempted no ops".into());
        }
        self.complete(&args.workload, args.trace);
        let mut failed = self.failed.min(self.attempted);
        // A failed run-level check with no ops attached still makes the
        // run incorrect: count one op against it.
        if !self.failures.is_empty() && failed == 0 {
            failed = 1;
        }
        self.failed = failed;
        for why in &self.failures {
            eprintln!("witag-perfbench: check failed: {why}");
        }
        for m in &self.metrics {
            let unit = manifest::find(m.name).map_or("", |d| d.unit);
            println!("{:<36} {:>16} {}", m.name, fmt_num(m.value), unit);
        }
        println!("{}", self.meta_json(args));
        println!("{}", self.result_json());
        Ok(())
    }

    fn result_json(&self) -> String {
        let mut s = String::new();
        let correct = self.failed == 0 && self.failures.is_empty();
        let _ = write!(
            s,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let unit = manifest::find(m.name).map_or("", |d| d.unit);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    m.name,
                    fmt_num(m.value)
                )
            })
            .collect();
        s.push_str(&items.join(", "));
        s.push_str("}}");
        s
    }

    fn meta_json(&self, args: &Args) -> String {
        let mut s = String::from("{\"meta\": {");
        let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
        let features = if cfg!(feature = "simd") {
            "simd"
        } else {
            "portable"
        };
        let fields = [
            ("workload", format!("\"{}\"", args.workload)),
            ("seed", args.seed.to_string()),
            ("seconds", fmt_num(args.seconds)),
            ("trace", args.trace.to_string()),
            ("git_commit", format!("\"{}\"", git_commit())),
            ("rustc", format!("\"{}\"", env!("PERFBENCH_RUSTC"))),
            ("profile", format!("\"{}\"", env!("PERFBENCH_PROFILE"))),
            ("opt_level", format!("\"{}\"", env!("PERFBENCH_OPT_LEVEL"))),
            ("target", format!("\"{}\"", env!("PERFBENCH_TARGET"))),
            (
                "target_cpu",
                format!("\"{}\"", env!("PERFBENCH_TARGET_CPU")),
            ),
            ("phy_kernels", format!("\"{features}\"")),
            ("available_parallelism", parallelism.to_string()),
            ("threads", self.threads.to_string()),
            ("default_seed", manifest::DEFAULT_SEED.to_string()),
            ("held_out_seed", manifest::HELD_OUT_SEED.to_string()),
        ];
        let mut items: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        items.extend(self.notes.iter().map(|(k, v)| format!("\"{k}\": {v}")));
        if let Some(p) = &self.spans_path {
            items.push(format!("\"spans\": \"{}\"", p.display()));
        }
        let summaries: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|m| {
                m.samples.map(|s| {
                    format!(
                        "\"{}\": {{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
                        m.name,
                        s.n,
                        fmt_num(s.q1),
                        fmt_num(s.median),
                        fmt_num(s.q3)
                    )
                })
            })
            .collect();
        items.push(format!("\"samples\": {{{}}}", summaries.join(", ")));
        s.push_str(&items.join(", "));
        s.push_str("}}");
        s
    }
}

/// A JSON number with all its digits (`{:?}` keeps round-trip
/// precision); non-finite values, which JSON cannot hold, print as 0.
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The checked-out commit, when the working directory is a git
/// checkout; `unknown` otherwise (the benchmark may run from a plain
/// copy of the tree).
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Results of a closed-loop timed phase.
#[derive(Debug, Default)]
pub struct Timed {
    /// Host time per op of every call, microseconds: the call's wall
    /// time over the ops it resolved.
    pub op_us: Vec<f64>,
    /// Throughput of each ≥ 1 s slice of consecutive calls, ops/s.
    pub slice_rates: Vec<f64>,
    /// Ops completed (a call may resolve many ops).
    pub ops: u64,
    /// Calls made.
    pub calls: u64,
}

/// Wall-time length of one throughput slice.
const SLICE_S: f64 = 1.0;

/// A closed-loop timed phase: each call starts when the previous one
/// returns, until `seconds` have passed and at least `min_calls` calls
/// were made. Only what runs inside [`ClosedLoop::time`] is timed, so
/// input generation and output checks stay outside the measurement.
pub struct ClosedLoop {
    start: Instant,
    seconds: f64,
    min_calls: u64,
    sampled: usize,
    t: Timed,
    slice_ops: u64,
    slice_s: f64,
}

impl ClosedLoop {
    /// Start the clock.
    pub fn new(seconds: f64, min_calls: u64) -> ClosedLoop {
        ClosedLoop {
            start: Instant::now(),
            seconds,
            min_calls,
            sampled: 0,
            t: Timed::default(),
            slice_ops: 0,
            slice_s: 0.0,
        }
    }

    /// Index of the next call, or `None` when the phase is over.
    pub fn next_call(&self) -> Option<u64> {
        let done =
            self.start.elapsed().as_secs_f64() >= self.seconds && self.t.calls >= self.min_calls;
        (!done).then_some(self.t.calls)
    }

    /// How many of `n` side samples (untimed work such as the setup
    /// repetitions), spread evenly over the window, fall due now; the
    /// first is due before the first call. Spreading them lets them see
    /// the same machine conditions as the calls.
    pub fn samples_due(&mut self, n: usize) -> usize {
        let frac = (self.start.elapsed().as_secs_f64() / self.seconds).min(1.0);
        let due = ((frac * n as f64) as usize + 1).min(n);
        let k = due.saturating_sub(self.sampled);
        self.sampled += k;
        k
    }

    /// Time one call of `f`, which resolves `ops` ops.
    pub fn time<T>(&mut self, ops: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.t.op_us.push(dt * 1e6 / ops.max(1) as f64);
        self.t.ops += ops;
        self.t.calls += 1;
        self.slice_ops += ops;
        self.slice_s += dt;
        if self.slice_s >= SLICE_S {
            self.t
                .slice_rates
                .push(self.slice_ops as f64 / self.slice_s);
            (self.slice_ops, self.slice_s) = (0, 0.0);
        }
        out
    }

    /// The phase's timings. A trailing partial slice counts only when
    /// no slice completed.
    pub fn finish(mut self) -> Timed {
        if self.t.slice_rates.is_empty() && self.slice_s > 0.0 {
            self.t
                .slice_rates
                .push(self.slice_ops as f64 / self.slice_s);
        }
        self.t
    }
}

/// Times one call of `f`. Each sample is the per-call mean of a batch
/// long enough (≥ 10 ms) that timer resolution and short interruptions
/// do not matter.
pub struct PerCallTimer<F> {
    f: F,
    batch: usize,
    samples: Vec<f64>,
}

impl<R, F: FnMut() -> R> PerCallTimer<F> {
    /// Size the batch by doubling it until one batch takes 10 ms.
    pub fn new(mut f: F) -> PerCallTimer<F> {
        let mut batch = 1usize;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            if t0.elapsed().as_secs_f64() >= 1e-2 || batch >= 1 << 24 {
                break;
            }
            batch *= 2;
        }
        PerCallTimer {
            f,
            batch,
            samples: Vec::new(),
        }
    }

    /// Time one batch.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        for _ in 0..self.batch {
            std::hint::black_box((self.f)());
        }
        self.samples
            .push(t0.elapsed().as_secs_f64() / self.batch as f64);
    }

    /// Take samples until there are `n`.
    pub fn fill(&mut self, n: usize) -> &[f64] {
        while self.samples.len() < n {
            self.sample();
        }
        &self.samples
    }
}

/// Median wall time of one call of `f` over `reps` samples, seconds.
pub fn time_per_call<R>(reps: usize, f: impl FnMut() -> R) -> f64 {
    median(PerCallTimer::new(f).fill(reps)).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(fmt_num(1.0), "1.0");
        assert_eq!(fmt_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(fmt_num(f64::NAN), "0");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.5, None);
        let j = r.result_json();
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.fail(1, "x".into());
        assert!(r
            .result_json()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }

    #[test]
    fn every_run_prints_its_whole_table() {
        let names = |r: &Report| r.metrics.iter().map(|m| m.name).collect::<Vec<_>>();
        // Untraced: the end-to-end table in order; a missing one fails.
        let mut r = Report::default();
        r.metric("ops_per_s", 10.0, None);
        r.metric("setup_s", 0.5, None);
        r.complete("fleet_sessions", false);
        let want: Vec<_> = manifest::END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names(&r), want);
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("op_p50_us was not reported")));
        assert!(r.failures.iter().any(|f| f.contains("op_p50_us reads 0")));

        // Traced: a layer the workload does not exercise reads 0 and is
        // no failure; one it does exercise must be reported.
        let mut r = Report::default();
        r.metric("net.grants", 7.0, None);
        r.complete("metro_inventory", true);
        assert_eq!(r.metrics.len(), manifest::PER_LAYER.len());
        let value = |r: &Report, n: &str| r.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(value(&r, "net.grants"), 7.0);
        assert_eq!(value(&r, "phy.rx_us"), 0.0);
        assert!(!r.failures.iter().any(|f| f.contains("phy.rx_us")));
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("net.domains was not reported")));

        // A metric outside the run's table or workload fails.
        let mut r = Report::default();
        r.metric("phy.rx_us", 1.0, None);
        r.complete("metro_inventory", true);
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("phy.rx_us is not a metric")));
    }

    #[test]
    fn closed_loop_counts_calls_ops_and_slices() {
        let mut lp = ClosedLoop::new(0.0, 5);
        while let Some(i) = lp.next_call() {
            assert_eq!(lp.time(2, || i), i);
        }
        let t = lp.finish();
        assert_eq!((t.calls, t.ops, t.op_us.len()), (5, 10, 5));
        assert_eq!(t.slice_rates.len(), 1);
    }

    #[test]
    fn per_call_timing_reports_a_positive_median() {
        let mut t = PerCallTimer::new(|| vec![0u8; 64]);
        assert_eq!(t.fill(3).len(), 3);
        assert!(time_per_call(3, || vec![0u8; 64]) > 0.0);
    }

    #[test]
    fn side_samples_spread_over_the_window() {
        let mut lp = ClosedLoop::new(3600.0, 1);
        assert_eq!(lp.samples_due(15), 1, "one before the first call");
        assert_eq!(lp.samples_due(15), 0);
        let mut done = ClosedLoop::new(0.0, 1);
        assert_eq!(done.samples_due(15), 15, "the whole window has passed");
        assert_eq!(done.samples_due(15), 0);
    }
}
