//! The benchmark's definition: workloads, metrics, bounds and seeds.
//! `BENCHMARK.json` at the repository root is generated from these
//! tables (`witag-perfbench --manifest`), and a self-test keeps the
//! committed file equal to them, so names are defined in one place.

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 20;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Held-out seed: never used while tuning a change, so a claimed gain
/// can be confirmed on inputs it was not fitted to.
pub const HELD_OUT_SEED: u64 = 20_181_115;

/// One workload: a name and why it is in the benchmark.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen (one line).
    pub why: &'static str,
}

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric definition.
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Workloads that exercise what the metric measures. Every run
    /// prints every metric of its table; on the other workloads a
    /// per-layer metric reads 0 (the layer does no work there).
    pub workloads: &'static [&'static str],
}

impl MetricDef {
    /// Whether `workload` exercises what this metric measures.
    pub fn measured_on(&self, workload: &str) -> bool {
        self.workloads.contains(&workload)
    }
}

const QR: &[&str] = &["query_round"];
const MOX: &[&str] = &["mimo_mox"];
const ROUNDS: &[&str] = &["query_round", "mimo_mox"];
const FLEET: &[&str] = &["fleet_sessions"];
const METRO: &[&str] = &["metro_inventory"];
const ENGINES: &[&str] = &["fleet_sessions", "metro_inventory"];
const ALL: &[&str] = &[
    "query_round",
    "mimo_mox",
    "fleet_sessions",
    "metro_inventory",
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        workloads: ALL,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        workloads,
    }
}

use Better::{Higher, Lower};

/// The four workloads, from one query round to a metro inventory.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "query_round",
        why: "The paper's unit of work: one A-MPDU query round through PHY, channel, tag, MAC and reader at 3 m (BER ~1.4%); no network or session layers",
    },
    Workload {
        name: "mimo_mox",
        why: "MOXcatter 3-stream MMSE point over 1-7 m: the matrix receive path (sounding, per-tone solve, joint equalisation) next to the shared Viterbi",
    },
    Workload {
        name: "fleet_sessions",
        why: "Full-fidelity fountain sessions for 1000 duty-cycled tags: fleet DES, DCF, scheduler and chunk codec at medium saturation, no PHY",
    },
    Workload {
        name: "metro_inventory",
        why: "10^6-tag metro inventory at 2 threads: SoA tag state, inline schedulers, calendar queue and par_map over domains, no PHY or codec",
    },
];

/// End-to-end metrics (from the untraced run). Every workload reports
/// every one of them, and none is ever 0.
pub const END_TO_END: [MetricDef; 5] = [
    // Host timings: on a shared 2-core machine a run's median moves by
    // up to a tenth from run to run, so they get the widest bound.
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "ops/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("op_p90_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// Per-layer metrics (from the traced run).
pub const PER_LAYER: [MetricDef; 57] = [
    // query_round stages (self time, medians per round).
    layer("core.query_build_us", "us", Lower, QR),
    layer("phy.transmit_us", "us", Lower, QR),
    layer("tag.respond_us", "us", Lower, QR),
    layer("channel.apply_ppdu_us", "us", Lower, QR),
    layer("phy.rx_us", "us", Lower, QR),
    layer("mac.deaggregate_us", "us", Lower, ROUNDS),
    layer("crypto.decrypt_us", "us", Lower, QR),
    layer("mac.ba_build_us", "us", Lower, ROUNDS),
    layer("phy.legacy_tx_us", "us", Lower, QR),
    layer("channel.apply_legacy_us", "us", Lower, QR),
    layer("phy.legacy_rx_us", "us", Lower, QR),
    layer("core.reader_us", "us", Lower, QR),
    layer("phy.rx_demap_us", "us", Lower, QR),
    layer("phy.rx_deinterleave_depuncture_us", "us", Lower, QR),
    layer("phy.rx_viterbi_us", "us", Lower, ROUNDS),
    layer("phy.rx_rest_us", "us", Lower, QR),
    layer("mac.subframe_ok_frac", "fraction", Higher, ROUNDS),
    layer("tag.trigger_frac", "fraction", Higher, QR),
    layer("mac.ba_lost_frac", "fraction", Lower, QR),
    layer("crypto.decrypt_failures", "count", Lower, QR),
    layer("bench.coverage", "ratio", Higher, ROUNDS),
    layer("obs.overhead_pct", "%", Lower, ALL),
    layer("obs.events_per_op", "count", Lower, ROUNDS),
    // Modelled quantities: exact for a seed, equal to the untraced
    // run's (which records them in its metadata). A change that only
    // speeds up the simulator must leave them bit-identical.
    layer("sim_tag_ber", "fraction", Lower, QR),
    layer("sim_tag_kbps", "Kbps", Higher, QR),
    layer("sim_delivered_frac", "fraction", Higher, ENGINES),
    layer("sim_goodput_kbps", "Kbps", Higher, ENGINES),
    layer("sim_read_p50_s", "s", Lower, ENGINES),
    // mimo_mox stages.
    layer("channel.mimo_link_new_us", "us", Lower, MOX),
    layer("phy.transmit_mu_us", "us", Lower, MOX),
    layer("channel.mimo_apply_us", "us", Lower, MOX),
    layer("channel.post_eq_snr_us", "us", Lower, MOX),
    layer("mac.aggregate_us", "us", Lower, MOX),
    layer("phy.rx_mu_us", "us", Lower, MOX),
    layer("phy.mimo_estimate_us", "us", Lower, MOX),
    layer("phy.mimo_weights_us", "us", Lower, MOX),
    layer("phy.rx_mu_rest_us", "us", Lower, MOX),
    layer("phy.streams_hit_frac", "fraction", Higher, MOX),
    // fleet_sessions.
    layer("net.grants", "count", Lower, ENGINES),
    layer("net.collision_rate", "fraction", Lower, ENGINES),
    layer("net.rounds_per_delivered", "ratio", Lower, FLEET),
    layer("net.airtime_share_max", "fraction", Lower, FLEET),
    layer("obs.count.net.grant", "count", Lower, FLEET),
    layer("obs.count.net.collision", "count", Lower, FLEET),
    layer("obs.count.tagnet.symbol", "count", Lower, FLEET),
    layer("obs.count.tagnet.decode_progress", "count", Lower, FLEET),
    layer("core.fountain_absorb_us", "us", Lower, FLEET),
    layer("core.chunk_decode_us", "us", Lower, FLEET),
    layer("net.sched_pick_ns", "ns", Lower, FLEET),
    layer("mac.contention_draw_ns", "ns", Lower, FLEET),
    // metro_inventory.
    layer("net.probe_rounds", "count", Lower, METRO),
    layer("net.grant_yield", "fraction", Higher, METRO),
    layer("net.domains", "count", Higher, METRO),
    layer("net.busiest_cell_share", "fraction", Lower, METRO),
    layer("sim.parallel_speedup", "ratio", Higher, METRO),
    layer("sim.calendar_push_pop_ns", "ns", Lower, METRO),
    layer("obs.events_per_tag", "count", Lower, METRO),
];

/// The table a run reports: per-layer for a traced run, end-to-end
/// otherwise.
pub fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Look up a metric definition by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `BENCHMARK.json` these tables define, pretty-printed.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--frozen\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let items: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    s.push_str(&items.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let items: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                m.better.name(),
                m.bound.unwrap_or(0.0)
            )
        })
        .collect();
    s.push_str(&items.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let items: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                json_str(m.name),
                json_str(m.unit),
                m.better.name()
            )
        })
        .collect();
    s.push_str(&items.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_follow_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!m.workloads.is_empty(), "{} is measured nowhere", m.name);
            for w in m.workloads {
                assert!(WORKLOADS.iter().any(|x| x.name == *w), "{}: {w}", m.name);
            }
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.workloads.len() == WORKLOADS.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let max = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(max), "setup_s has the largest bound");
        assert_ne!(DEFAULT_SEED, HELD_OUT_SEED);
    }

    #[test]
    fn generated_json_has_exactly_the_contract_keys() {
        let j = benchmark_json();
        assert!(j.len() <= 64 * 1024);
        let top: Vec<&str> = j
            .lines()
            .filter(|l| l.starts_with("  \""))
            .map(|l| l.trim_start().split('"').nth(1).unwrap())
            .collect();
        assert_eq!(
            top,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for l in j.lines().filter(|l| l.starts_with("    {")) {
            let keys: Vec<&str> = l
                .split('"')
                .enumerate()
                .filter(|(i, _)| i % 4 == 1)
                .map(|(_, k)| k)
                .collect();
            assert!(
                keys == ["name", "why"]
                    || keys == ["name", "unit", "better", "bound"]
                    || keys == ["name", "unit", "better"],
                "{l}"
            );
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `witag-perfbench --manifest > BENCHMARK.json`"
        );
    }
}
