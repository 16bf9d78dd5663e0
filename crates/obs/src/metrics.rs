//! In-memory metrics: per-kind counters, scalar aggregates and
//! fixed-bucket histograms, fed by recording events.
//!
//! Everything here is fixed-shape — counter arrays indexed by position
//! in [`KINDS`] / [`FAULT_CLASS_NAMES`] and histograms
//! over `const` bucket bounds — so rendering order is deterministic by
//! construction (no hash maps anywhere, per the determinism lint).

use core::fmt::Write as _;

use crate::event::{Event, FAULT_CLASS_NAMES, KINDS};
use crate::Recorder;

/// Bucket upper bounds for per-decode mean |LLR| (soft confidence).
/// Spans clean links (≈ 10–15 at short range) down to collapse (< 2).
pub const LLR_BUCKETS: [f64; 6] = [2.0, 4.0, 6.0, 8.0, 12.0, 16.0];

/// Bucket upper bounds for per-round bit errors out of a ≤ 62-bit
/// readout window.
pub const BIT_ERROR_BUCKETS: [f64; 6] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0];

/// A fixed-bucket histogram: `bounds` are inclusive upper bounds in
/// ascending order, plus one implicit overflow bucket.
///
/// ```
/// let mut h = witag_obs::Histogram::new(&[1.0, 2.0]);
/// h.observe(0.5);
/// h.observe(1.5);
/// h.observe(9.0);
/// assert_eq!(h.counts(), &[1, 1, 1]);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
}

impl Histogram {
    /// A histogram over `bounds` (ascending inclusive upper bounds);
    /// one extra bucket catches everything above the last bound.
    pub fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
        }
    }

    /// Count one observation into its bucket.
    pub fn observe(&mut self, value: f64) {
        let mut idx = self.bounds.len();
        for (i, b) in self.bounds.iter().enumerate() {
            if value <= *b {
                idx = i;
                break;
            }
        }
        self.counts[idx] += 1; // lint:allow(panic_path) idx <= bounds.len(), counts.len() == bounds.len() + 1
    }

    /// Per-bucket counts: one per bound, then the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Append a one-line rendering like `≤2 ███ 12` per bucket.
    fn render_into(&self, out: &mut String, indent: &str) {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        for (i, count) in self.counts.iter().enumerate() {
            let label = if i < self.bounds.len() {
                format!("<={:>5.1}", self.bounds[i])
            } else {
                "  over ".to_string()
            };
            let bar_len = (count * 24).div_ceil(max) as usize;
            let _ = write!(out, "{indent}{label} ");
            for _ in 0..bar_len {
                out.push('#');
            }
            let _ = writeln!(out, " {count}");
        }
    }
}

/// A [`Recorder`] that folds events into counters and histograms as
/// they arrive, for callers that want aggregates without a trace file.
///
/// Per-kind counts are indexed by [`KINDS`] position and
/// fault-class counts by [`FAULT_CLASS_NAMES`] position, so
/// [`summary`](Self::summary) renders in one fixed order.
///
/// ```
/// use witag_obs::{Event, MetricsRecorder, Recorder};
/// let mut m = MetricsRecorder::new();
/// m.record(&Event::RoundEnd {
///     round: 0, triggered: true, ba_lost: false,
///     bits: 62, bit_errors: 3, airtime_us: 2000,
/// });
/// assert_eq!(m.rounds(), 1);
/// assert_eq!(m.bit_errors(), 3);
/// assert!(m.summary().contains("rounds"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRecorder {
    kind_counts: [u64; KINDS.len()],
    fault_counts: [u64; FAULT_CLASS_NAMES.len()],
    rounds: u64,
    triggered: u64,
    ba_lost: u64,
    bits: u64,
    bit_errors: u64,
    airtime_us: u64,
    llr_hist: Histogram,
    bit_error_hist: Histogram,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRecorder {
    /// An empty metrics sink.
    pub fn new() -> Self {
        MetricsRecorder {
            kind_counts: [0; KINDS.len()],
            fault_counts: [0; FAULT_CLASS_NAMES.len()],
            rounds: 0,
            triggered: 0,
            ba_lost: 0,
            bits: 0,
            bit_errors: 0,
            airtime_us: 0,
            llr_hist: Histogram::new(&LLR_BUCKETS),
            bit_error_hist: Histogram::new(&BIT_ERROR_BUCKETS),
        }
    }

    /// Events seen for `kind` (a [`KINDS`] entry);
    /// 0 for unknown names.
    pub fn count(&self, kind: &str) -> u64 {
        KINDS
            .iter()
            .position(|k| *k == kind)
            .map_or(0, |i| self.kind_counts[i])
    }

    /// `round` events folded in.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total bit errors across all `round` events.
    pub fn bit_errors(&self) -> u64 {
        self.bit_errors
    }

    /// Total simulated airtime across all `round` events, microseconds.
    pub fn airtime_us(&self) -> u64 {
        self.airtime_us
    }

    /// The per-decode mean-|LLR| histogram.
    pub fn llr_histogram(&self) -> &Histogram {
        &self.llr_hist
    }

    /// Render a fixed-order, human-readable summary table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics ({})", crate::SCHEMA);
        let _ = writeln!(out, "  events by kind:");
        for (i, kind) in KINDS.iter().enumerate() {
            if self.kind_counts[i] > 0 {
                let _ = writeln!(out, "    {kind:<16} {}", self.kind_counts[i]);
            }
        }
        if self.rounds > 0 {
            let _ = writeln!(
                out,
                "  rounds {} | triggered {} | ba_lost {} | bits {} | bit_errors {} | airtime {:.3} ms",
                self.rounds,
                self.triggered,
                self.ba_lost,
                self.bits,
                self.bit_errors,
                self.airtime_us as f64 / 1000.0
            );
        }
        if self.fault_counts.iter().any(|c| *c > 0) {
            let _ = writeln!(out, "  fault rounds by class:");
            for (i, name) in FAULT_CLASS_NAMES.iter().enumerate() {
                if self.fault_counts[i] > 0 {
                    let _ = writeln!(out, "    {name:<20} {}", self.fault_counts[i]);
                }
            }
        }
        if self.llr_hist.total() > 0 {
            let _ = writeln!(out, "  decode mean |LLR|:");
            self.llr_hist.render_into(&mut out, "    ");
        }
        if self.bit_error_hist.total() > 0 {
            let _ = writeln!(out, "  per-round bit errors:");
            self.bit_error_hist.render_into(&mut out, "    ");
        }
        out
    }
}

impl Recorder for MetricsRecorder {
    fn record(&mut self, event: &Event) {
        self.kind_counts[event.kind_index()] += 1; // lint:allow(panic_path) kind_counts sized KINDS.len(), kind_index < that by test
        match *event {
            Event::PhyRx { quality, .. } => {
                self.llr_hist.observe(quality.llr_mean);
            }
            Event::RoundEnd {
                triggered,
                ba_lost,
                bits,
                bit_errors,
                airtime_us,
                ..
            } => {
                self.rounds += 1;
                self.triggered += u64::from(triggered);
                self.ba_lost += u64::from(ba_lost);
                self.bits += u64::from(bits);
                self.bit_errors += u64::from(bit_errors);
                self.airtime_us += airtime_us;
                self.bit_error_hist.observe(f64::from(bit_errors));
            }
            Event::FaultInjected { mask, .. } => {
                for (i, slot) in self.fault_counts.iter_mut().enumerate() {
                    if mask & (1 << i) != 0 {
                        *slot += 1;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RxQuality;

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.0, 1.0, 1.5, 2.0, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn metrics_fold_rounds_faults_and_quality() {
        let mut m = MetricsRecorder::new();
        m.record(&Event::PhyRx {
            round: 0,
            quality: RxQuality {
                symbols: 40,
                sampled: 14,
                llr_min: 1.0,
                llr_mean: 5.0,
                llr_max: 9.0,
            },
        });
        m.record(&Event::RoundEnd {
            round: 0,
            triggered: true,
            ba_lost: false,
            bits: 62,
            bit_errors: 2,
            airtime_us: 2000,
        });
        m.record(&Event::RoundEnd {
            round: 1,
            triggered: false,
            ba_lost: true,
            bits: 0,
            bit_errors: 62,
            airtime_us: 1800,
        });
        m.record(&Event::FaultInjected { round: 1, mask: 0b101 });
        assert_eq!(m.rounds(), 2);
        assert_eq!(m.bit_errors(), 64);
        assert_eq!(m.airtime_us(), 3800);
        assert_eq!(m.count("round"), 2);
        assert_eq!(m.count("phy_rx"), 1);
        assert_eq!(m.count("fault"), 1);
        assert_eq!(m.count("not_a_kind"), 0);
        assert_eq!(m.llr_histogram().total(), 1);
        let s = m.summary();
        assert!(s.contains("query_loss"), "{s}");
        assert!(s.contains("burst"), "{s}");
        assert!(!s.contains("drift"), "{s}");
    }

    #[test]
    fn summary_is_deterministic() {
        let build = || {
            let mut m = MetricsRecorder::new();
            for e in crate::event::all_sample_events() {
                m.record(&e);
            }
            m.summary()
        };
        assert_eq!(build(), build());
    }
}
