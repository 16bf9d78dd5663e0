//! NET SCALE — what scheduling buys at fleet and city scale, and what the
//! rateless transport buys under hostile links (beyond the paper).
//!
//! Three sim-time tables, every value a pure function of the hard-coded
//! seeds (no wall-clock column, so the output is byte-stable and checked
//! against `experiments_output.txt` by `ci.sh`):
//!
//! * **fleet** — one client, a duty-cycled inventory fleet (tags awake
//!   8 % of each 4 s period, phases spread) of 1/10/100 tags, airtime-
//!   fair scheduler against serial polling on the single-medium engine
//!   (`witag_net::run_fleet`). Serial polling burns the medium probing
//!   sleeping tags; the fair scheduler's cooldown steers grants to tags
//!   that answer.
//! * **metro** — the same fair-vs-serial comparison on the spatial-cell
//!   engine (`witag_net::run_metro`: reuse-3 channels, batch 8, 1 s
//!   epochs) at 10³–10⁶ tags. Spatial reuse plus batching lifts the
//!   goodput ratio well past the single-medium one.
//! * **transport** — selective-repeat ARQ against the rateless fountain
//!   on a loaded two-client fleet where every link runs
//!   `FaultPlan::hostile` (intensity 1.0) or its half-strength scaling
//!   (0.5).
//!
//! `tests/net_determinism.rs` pins the headline claims of the metro and
//! transport tables as assertions.

use witag_bench::header;
use witag_faults::FaultPlan;
use witag_net::{run_fleet, run_metro, FleetConfig, MetroConfig, SchedulerKind, Transport};
use witag_obs::NullRecorder;
use witag_sim::time::Duration;

/// Master seed of every fleet and metro run below.
const SEED: u64 = 0xBE;

fn main() {
    header(
        "NET SCALE",
        "§8 at scale (fair scheduling vs serial polling, ARQ vs fountain; beyond the paper)",
    );
    let threads = witag_sim::available_threads();
    println!("duty cycle: 0.08 ON fraction over 4 s periods (phases spread), seed {SEED:#x}\n");

    println!("fleet engine, 1 client:");
    println!("    tags horizon s       fair bps     serial bps    ratio   fair del serial del    fair p99 us");
    let horizon = Duration::secs(20);
    for tags in [1usize, 10, 100] {
        let run = |kind: SchedulerKind| {
            let cfg = FleetConfig::inventory(1, tags, kind, horizon, SEED)
                .with_duty_cycle(Duration::secs(4), 0.08);
            run_fleet(&cfg, &mut NullRecorder).expect("viable fleet")
        };
        let (fair, serial) = (run(SchedulerKind::Fair), run(SchedulerKind::Serial));
        println!(
            "{tags:>8} {:>9.0} {:>14.1} {:>14.1} {:>8.2} {:>10} {:>10} {:>14.0}",
            horizon.as_secs_f64(),
            fair.goodput_bps(),
            serial.goodput_bps(),
            fair.goodput_bps() / serial.goodput_bps().max(1e-9),
            fair.delivered(),
            serial.delivered(),
            fair.latency_percentile(99.0).unwrap_or(0.0),
        );
    }

    println!("\nmetro engine, reuse-3 cells, batch 8, 1 s epochs:");
    println!("    tags  cells readers domains horizon s       fair bps     serial bps    ratio   fair del serial del    fair p99 us");
    // (tags, cells, readers, horizon_s)
    for (tags, cells, readers, horizon_s) in [
        (1000usize, 4usize, 4usize, 60u64),
        (10_000, 16, 16, 60),
        (100_000, 64, 64, 90),
        (1_000_000, 1000, 1000, 120),
    ] {
        let run = |kind: SchedulerKind| {
            let cfg = MetroConfig::inventory(
                cells,
                readers,
                tags,
                kind,
                Duration::secs(horizon_s),
                SEED,
            )
            .with_duty_cycle(Duration::secs(4), 0.08);
            run_metro(&cfg, threads, &mut NullRecorder).expect("viable metro")
        };
        let (fair, serial) = (run(SchedulerKind::Fair), run(SchedulerKind::Serial));
        println!(
            "{tags:>8} {cells:>6} {readers:>7} {:>7} {horizon_s:>9} {:>14.1} {:>14.1} {:>8.2} {:>10} {:>10} {:>14.0}",
            fair.domains,
            fair.goodput_bps(),
            serial.goodput_bps(),
            fair.goodput_bps() / serial.goodput_bps().max(1e-9),
            fair.delivered,
            serial.delivered,
            fair.latency_percentile(99.0).unwrap_or(0.0),
        );
    }

    let (t_tags, t_horizon) = (100usize, Duration::secs(30));
    println!(
        "\ntransport, 2 clients x {t_tags} tags, fair scheduler, horizon {:.0} s, \
         every link FaultPlan::hostile(0xBE^i) at the stated intensity:",
        t_horizon.as_secs_f64()
    );
    println!(" transport intensity delivered  goodput bps         p99 us    collision p");
    for intensity in [1.0f64, 0.5] {
        for transport in [Transport::Arq, Transport::Fountain] {
            let mut cfg = FleetConfig::inventory(2, t_tags, SchedulerKind::Fair, t_horizon, SEED)
                .with_transport(transport);
            for (i, p) in cfg.profiles.iter_mut().enumerate() {
                p.faults = Some(if intensity >= 1.0 {
                    FaultPlan::hostile(SEED ^ i as u64)
                } else {
                    FaultPlan::hostile_scaled(SEED ^ i as u64, intensity)
                });
            }
            let rep = run_fleet(&cfg, &mut NullRecorder).expect("viable fleet");
            println!(
                "{:>10} {intensity:>9.1} {:>9} {:>12.1} {:>14.0} {:>14.4}",
                transport.name(),
                rep.delivered(),
                rep.goodput_bps(),
                rep.latency_percentile(99.0).unwrap_or(0.0),
                rep.collision_rate(),
            );
        }
    }

    println!();
    println!("expected: with one tag both schedulers are the same; from 10 tags up");
    println!("the fair scheduler beats serial polling on goodput (>= 10x at 100");
    println!("tags), and the metro engine keeps a double-digit ratio from 10^3 to");
    println!("10^6 tags. Under hostile links the fountain delivers at least as");
    println!("many tags as ARQ, at lower p99 latency.");
}
