//! Order statistics and the span arithmetic the benchmark reports with.
//!
//! Every helper is a pure function of its inputs, so the self-tests at
//! the bottom pin the exact definitions the README documents.

use std::collections::BTreeMap;

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` does (the default
/// "exclusive" method). A single value is its own three quartiles.
/// `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// The `p`-th percentile (nearest rank: the smallest sample with at
/// least `p` % of the samples at or below it), but only when at least
/// `min_beyond` samples lie strictly above the chosen rank; otherwise
/// `None` — the tail is too thin for the percentile to be steady.
pub fn tail_percentile(values: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize; // 1-based
    let beyond = n - rank;
    (beyond >= min_beyond).then(|| v[rank - 1])
}

/// The `p`-th percentile (as [`tail_percentile`]) within each run of
/// `window` consecutive samples, median over the runs. A trailing
/// partial window is dropped. Interference on a shared machine comes in
/// bursts that can fill the tail of the whole run; the median over
/// windows keeps the tail of the typical stretch. `None` when there is
/// no full window or a window leaves fewer than `min_beyond` samples
/// beyond its percentile.
pub fn windowed_tail(values: &[f64], window: usize, p: f64, min_beyond: usize) -> Option<f64> {
    let tails: Option<Vec<f64>> = values
        .chunks_exact(window.max(1))
        .map(|w| tail_percentile(w, p, min_beyond))
        .collect();
    median(&tails?)
}

/// The highest whole percentile (≤ 99) that keeps at least
/// `min_beyond` samples beyond it, for `n` samples. `None` when even
/// the median does not qualify.
pub fn highest_steady_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (50..=99u32).rev().find(|&p| {
        let rank = ((f64::from(p) / 100.0) * n as f64).ceil().max(1.0) as usize;
        n >= rank && n - rank >= min_beyond
    })
}

/// Summary of one metric's samples within a run: count, median and
/// quartiles (recorded with every result).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples the metric was computed from.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarise `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let [q1, _, q3] = quartiles(values)?;
        Some(Summary {
            n: values.len(),
            q1,
            median: median(values)?,
            q3,
        })
    }
}

/// One timed interval of the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The op (round, point) this span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `phy.rx`.
    pub name: &'static str,
    /// Parent span id; `None` for a top-level stage.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the summed durations of
/// its direct children. Children are matched by parent id, not by
/// interval, because replayed kernels run just after the call they
/// stand in for. May be negative when a child's replay outlasts the
/// parent; callers that publish a self time check its sign.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u32, i64> {
    let mut out: BTreeMap<u32, i64> = spans.iter().map(|s| (s.id, s.dur_ns() as i64)).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(t) = out.get_mut(&p) {
                *t -= s.dur_ns() as i64;
            }
        }
    }
    out
}

/// Per-op totals of one span name, in microseconds: for each op, the
/// sum over spans named `name` of either their full duration
/// (`self_time = false`) or their self time. Ops without such a span
/// are absent.
pub fn per_op_us(spans: &[Span], name: &str, self_time: bool) -> BTreeMap<u64, f64> {
    let selfs = if self_time {
        Some(self_times_ns(spans))
    } else {
        None
    };
    let mut out: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        let ns = match &selfs {
            Some(m) => m.get(&s.id).copied().unwrap_or(0) as f64,
            None => s.dur_ns() as f64,
        };
        *out.entry(s.op).or_insert(0.0) += ns / 1e3;
    }
    out
}

/// Σ of the per-op medians of every top-level stage, over the untraced
/// op median: how much of an op the traced stages account for.
pub fn coverage(stage_medians_us: &[f64], untraced_op_p50_us: f64) -> Option<f64> {
    (untraced_op_p50_us > 0.0).then(|| stage_medians_us.iter().sum::<f64>() / untraced_op_p50_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly 10 above it.
        assert_eq!(tail_percentile(&v, 90.0, 10), Some(90.0));
        // p99 leaves one sample beyond: too thin.
        assert_eq!(tail_percentile(&v, 99.0, 10), None);
        // 99 samples: rank ceil(89.1) = 90 leaves 9 beyond.
        assert_eq!(tail_percentile(&v[..99], 90.0, 10), None);
        assert_eq!(tail_percentile(&v[..99], 50.0, 10), Some(50.0));
        assert_eq!(tail_percentile(&[], 50.0, 0), None);
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Three windows of 100: tails 90, 190 and 290; the partial
        // fourth window (the burst of 1e9s) is dropped.
        let mut v: Vec<f64> = (1..=300).map(f64::from).collect();
        v.extend([1e9; 50]);
        assert_eq!(windowed_tail(&v, 100, 90.0, 10), Some(190.0));
        // A burst that spoils one window moves the whole run's p90 but
        // not the median over windows.
        let mut burst = v[..300].to_vec();
        burst[100..200].fill(1e9);
        assert_eq!(tail_percentile(&burst, 90.0, 10), Some(1e9));
        assert_eq!(windowed_tail(&burst, 100, 90.0, 10), Some(290.0));
        // Each window must keep ten beyond; no full window is no value.
        assert_eq!(windowed_tail(&v, 99, 90.0, 10), None);
        assert_eq!(windowed_tail(&v[..50], 100, 90.0, 10), None);
        // One window over everything is the plain percentile.
        assert_eq!(windowed_tail(&v[..300], 300, 90.0, 0), Some(270.0));
    }

    #[test]
    fn highest_steady_percentile_follows_the_rule() {
        assert_eq!(highest_steady_percentile(100, 10), Some(90));
        assert_eq!(highest_steady_percentile(1000, 10), Some(99));
        assert_eq!(highest_steady_percentile(200, 10), Some(95));
        assert_eq!(highest_steady_percentile(15, 10), None);
    }

    #[test]
    fn summary_reports_count_median_quartiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
    }

    fn span(id: u32, op: u64, name: &'static str, parent: Option<u32>, s: u64, e: u64) -> Span {
        Span {
            id,
            op,
            name,
            parent,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, 0, "core.query_build", None, 0, 10_000),
            span(1, 0, "phy.transmit", Some(0), 10_000, 16_000),
            span(2, 0, "phy.rx", None, 20_000, 50_000),
            span(3, 0, "phy.rx_viterbi", Some(2), 50_000, 70_000),
            span(4, 0, "inner", Some(3), 70_000, 71_000),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[&0], 4_000);
        assert_eq!(st[&1], 6_000);
        assert_eq!(st[&2], 10_000);
        assert_eq!(st[&3], 19_000);
        assert_eq!(per_op_us(&spans, "core.query_build", true)[&0], 4.0);
        assert_eq!(per_op_us(&spans, "core.query_build", false)[&0], 10.0);
    }

    #[test]
    fn per_op_sums_repeated_spans() {
        let spans = [
            span(0, 0, "phy.rx_mu", None, 0, 1_000),
            span(1, 0, "phy.rx_mu", None, 2_000, 4_000),
            span(2, 1, "phy.rx_mu", None, 5_000, 6_000),
        ];
        let m = per_op_us(&spans, "phy.rx_mu", false);
        assert_eq!(m[&0], 3.0);
        assert_eq!(m[&1], 1.0);
    }

    #[test]
    fn coverage_is_stage_sum_over_op_median() {
        assert_eq!(coverage(&[40.0, 50.0, 10.0], 100.0), Some(1.0));
        assert_eq!(coverage(&[1.0], 0.0), None);
    }
}
