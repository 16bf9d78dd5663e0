//! # witag-bench — the benchmark harness
//!
//! One binary per paper artefact (see DESIGN.md §5 for the experiment
//! index):
//!
//! | binary | artefact |
//! |---|---|
//! | `fig5` | Figure 5 — BER & throughput vs tag position (LOS) |
//! | `fig6` | Figure 6 — CDF of per-window BER at NLOS locations A/B |
//! | `ablation_phase` | Figure 3 — phase-flip vs on-off keying |
//! | `throughput_sweep` | §4.1 — query design space vs tag throughput |
//! | `power` | §7 — oscillator power & temperature sensitivity |
//! | `requirements_matrix` | §1/§2 — system comparison checklist |
//! | `encryption` | §4 — open/WEP/WPA2 operation + HitchHike contrast |
//! | `interference` | §2/§8 — secondary-channel victim losses |
//! | `fec` | §4.1 future work — Hamming-coded tag channel |
//! | `fault_sweep` | §4.1 future work — session vs stop-and-wait under injected faults |
//! | `net_scale` | beyond the paper — fleet/metro scheduling at 1–10⁶ tags, ARQ vs fountain |
//!
//! Run any of them with `cargo run --release -p witag-bench --bin <name>`.
//! Round counts are scaled by the `WITAG_ROUNDS` environment variable
//! (default 150 rounds ≈ 9,300 tag bits per measurement point).
//!
//! Wall-clock performance is measured by the repository benchmark in
//! `perfbench/`, not here: every binary above prints only deterministic
//! sim-time results.
//!
//! The system-wide map — crate graph, data flow, determinism/replay
//! contract, fault/observability/lint hooks — is `docs/ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

/// Number of query rounds per measurement point, from `WITAG_ROUNDS`
/// (falls back to `default`). A round carries 62 tag bits.
pub fn rounds_from_env(default: usize) -> usize {
    std::env::var("WITAG_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Print a standard experiment header.
pub fn header(id: &str, paper_artifact: &str) {
    println!("================================================================");
    println!("{id}: reproduces {paper_artifact}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_from_env_behaviour() {
        // Tests in this binary run in threads; serialise env access by
        // doing all three cases in one test.
        std::env::remove_var("WITAG_ROUNDS");
        assert_eq!(rounds_from_env(150), 150);
        std::env::set_var("WITAG_ROUNDS", "42");
        assert_eq!(rounds_from_env(150), 42);
        std::env::set_var("WITAG_ROUNDS", "not-a-number");
        assert_eq!(rounds_from_env(150), 150, "junk falls back to the default");
        std::env::remove_var("WITAG_ROUNDS");
    }
}
