//! `witag` — command-line front end to the WiTAG reproduction.
//!
//! ```text
//! witag run    [--distance 1.0] [--rounds 150] [--seed 42] [--quiet]
//!              [--security open|wep|wpa2] [--encoding flip|ook]
//!              [--clock-khz 250] [--temp 0]
//! witag nlos   [--location a|b] [--windows 10] [--rounds 40] [--seed 7]
//! witag sweep  [--from 1] [--to 7] [--step 1] [--rounds 100] [--seed 42]
//!              [--threads N] [--trace out.jsonl]
//! witag design [--distance 1.0] [--clock-khz 250] [--subframes 64]
//! witag send   --message "text" [--distance 2] [--max-queries 400]
//! witag faults [--message "text"] [--intensity 1.0] [--distance 1]
//!              [--seed 42] [--plan-seed 7] [--budget 3000]
//!              [--trace out.jsonl]
//! witag net    [--clients 2] [--tags 8] [--scheduler rr|fair|edf|serial|pred]
//!              [--transport arq|fountain]
//!              [--horizon 2000] [--seed 42] [--window 4]
//!              [--duty 0.0] [--duty-period 4000]
//!              [--replicas 1] [--threads N] [--trace out.jsonl]
//! witag net    --cells 16 [--readers 16] [--tags 10000]
//!              [--scheduler rr|fair|edf|serial] [--channels 3]
//!              [--batch 8] [--epoch 1000] [--horizon 60000] [--seed 42]
//!              [--duty 0.0] [--duty-period 4000]
//!              [--threads N] [--trace out.jsonl]
//! witag mox    [--streams 1,2,3] [--mcs 7] [--subframes 16] [--payload 64]
//!              [--eq zf|mmse] [--from 1] [--to 7] [--step 1] [--seed 2]
//!              [--threads N] [--trace out.jsonl]
//! witag report <trace.jsonl>
//! witag floorplan
//! ```
//!
//! Every subcommand prints a deterministic result for a given `--seed`.
//! `--trace` streams a `witag-obs/2` JSONL event trace (schema:
//! `docs/OBS_SCHEMA.md`); `report` aggregates such a trace into a
//! summary table. The trace bytes are independent of `--threads`.
//!
//! The system-wide map — crate graph, data flow, determinism/replay
//! contract, fault/observability/lint hooks — is `docs/ARCHITECTURE.md`
//! at the repository root.

#![forbid(unsafe_code)]

mod args;

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

use args::{sweep_points, ArgError, Args};
use witag::experiment::{Experiment, ExperimentConfig, SecurityMode};
use witag::moxcatter::{run_point, MoxConfig};
use witag::query::QueryDesign;
use witag::tagnet::{
    deliver, session_over_experiment, session_over_experiment_obs, SessionConfig, SessionOutcome,
};
use witag_faults::FaultPlan;
use witag_net::{
    run_metro, run_replicas, FleetConfig, FleetReport, MetroConfig, SchedulerKind, Transport,
};
use witag_obs::{BufferRecorder, Event, JsonlRecorder, NullRecorder, Recorder, TraceSummary};
use witag_channel::{Link, LinkConfig};
use witag_sim::geom::Floorplan;
use witag_sim::time::Duration;
use witag_tag::device::BitEncoding;
use witag_tag::oscillator::Oscillator;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
        std::process::exit(2);
    }
    let cmd = argv.remove(0);
    let parsed = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => fail(&e),
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&parsed),
        "nlos" => cmd_nlos(&parsed),
        "sweep" => cmd_sweep(&parsed),
        "design" => cmd_design(&parsed),
        "send" => cmd_send(&parsed),
        "faults" => cmd_faults(&parsed),
        "net" => cmd_net(&parsed),
        "mox" => cmd_mox(&parsed),
        "report" => cmd_report(&parsed),
        "floorplan" => cmd_floorplan(&parsed),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => {
            eprintln!("unknown subcommand '{other}'\n");
            usage();
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        fail(&e);
    }
}

fn fail(e: &ArgError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2)
}

/// Wire up a scenario, exiting 1 with the typed reason if it cannot run.
fn experiment(cfg: ExperimentConfig) -> Experiment {
    Experiment::new(cfg).unwrap_or_else(|e| {
        eprintln!("scenario not viable: {e}");
        std::process::exit(1)
    })
}

/// A tag distance from the client in metres (`--key`, or `default`): it
/// must lie on the LOS client–AP segment, or the tag would sit off the
/// line the scenario describes.
fn tag_distance(a: &Args, key: &str, default: f64) -> Result<f64, ArgError> {
    let d = a.f64_or(key, default)?;
    let span = Floorplan::los_client_position().distance(Floorplan::ap_position());
    if (0.0..=span).contains(&d) {
        Ok(d)
    } else {
        Err(ArgError::BadValue {
            key: key.to_string(),
            value: a.raw(key).unwrap_or_default().to_string(),
            expected: "distance in metres on the 8 m client-AP segment (0-8)",
        })
    }
}

fn usage() {
    eprintln!(
        "witag — MAC-layer WiFi backscatter (HotNets'18 reproduction)\n\n\
         subcommands:\n\
         \x20 run        one scenario: BER/throughput at a tag position\n\
         \x20 nlos       the paper's Figure-6 NLOS locations\n\
         \x20 sweep      Figure-5 style distance sweep (parallel across\n\
         \x20            --threads; identical output at any thread count)\n\
         \x20 design     show the query design for a link\n\
         \x20 send       deliver a message via the reliable transport\n\
         \x20 faults     run the resilient session under injected faults\n\
         \x20            (single session; deterministic for --seed/--plan-seed)\n\
         \x20 net        fleet run: N clients x M tags on one medium under a\n\
         \x20            --scheduler (rr|fair|edf|serial|pred) and a\n\
         \x20            --transport (arq|fountain); prints goodput,\n\
         \x20            latency percentiles, airtime shares, collision rate.\n\
         \x20            With --cells N: the metro-scale engine (spatial\n\
         \x20            cells with --channels reuse, --readers readers,\n\
         \x20            batched grants, hierarchical scheduling) for\n\
         \x20            10^4..10^6 tags\n\
         \x20 mox        MOXcatter MIMO sweep: streams x MCS x tag distance,\n\
         \x20            per-stream block-ACK corruption from one tag\n\
         \x20 report     summarise a --trace JSONL file (docs/OBS_SCHEMA.md)\n\
         \x20 floorplan  print the simulated testbed geometry\n\n\
         `sweep`, `faults`, `net` and `mox` accept --trace <path> to stream a\n\
         witag-obs/2 event trace; see EXPERIMENTS.md (TRACE + REPORT,\n\
         PERF GATE) for walkthroughs.\n\
         run `witag <cmd> --help` semantics: all options have defaults;\n\
         see crates/cli/src/main.rs for the full list."
    );
}

/// Shared scenario options.
fn scenario(a: &Args) -> Result<ExperimentConfig, ArgError> {
    let distance = tag_distance(a, "distance", 1.0)?;
    let seed = a.u64_or("seed", 42)?;
    let mut cfg = ExperimentConfig::fig5(distance, seed);
    if a.flag("quiet") {
        cfg.link.interference_rate_hz = 0.0;
    }
    cfg.security = match a.str_or("security", "open") {
        "open" => SecurityMode::Open,
        "wep" => SecurityMode::Wep,
        "wpa2" => SecurityMode::Wpa2,
        other => {
            return Err(ArgError::BadValue {
                key: "security".into(),
                value: other.into(),
                expected: "open|wep|wpa2",
            })
        }
    };
    cfg.encoding = match a.str_or("encoding", "flip") {
        "flip" => BitEncoding::PhaseFlip,
        "ook" => BitEncoding::OnOffKeying,
        other => {
            return Err(ArgError::BadValue {
                key: "encoding".into(),
                value: other.into(),
                expected: "flip|ook",
            })
        }
    };
    let khz = a.f64_or("clock-khz", 250.0)?;
    cfg.clock = Oscillator::Crystal { freq_hz: khz * 1e3 };
    cfg.temperature_delta = a.f64_or("temp", 0.0)?;
    Ok(cfg)
}

fn cmd_run(a: &Args) -> Result<(), ArgError> {
    let cfg = scenario(a)?;
    let rounds = a.usize_or("rounds", 150)?;
    a.reject_unknown()?;
    let mut exp = experiment(cfg);
    println!(
        "link SNR {:.1} dB; query: {:?}-{:?}, {} B subframes x {}",
        exp.snr_db(),
        exp.design.phy.mcs.modulation,
        exp.design.phy.mcs.code_rate,
        exp.design.subframe_bytes,
        exp.design.n_subframes
    );
    let stats = exp.run(rounds);
    println!(
        "{} rounds: BER {:.4} (false0 {}, false1 {}), throughput {:.1} Kbps, \
         missed triggers {}, lost BAs {}",
        stats.rounds,
        stats.ber(),
        stats.errors.false_zeros,
        stats.errors.false_ones,
        stats.throughput_kbps(),
        stats.missed_triggers,
        stats.lost_block_acks
    );
    Ok(())
}

fn cmd_nlos(a: &Args) -> Result<(), ArgError> {
    let seed = a.u64_or("seed", 7)?;
    let windows = a.usize_or("windows", 10)?;
    let rounds = a.usize_or("rounds", 40)?;
    let loc = a.str_or("location", "both").to_string();
    a.reject_unknown()?;
    let run = |name: &str, cfg: ExperimentConfig| {
        let mut exp = experiment(cfg);
        let mut stats = exp.run_windows(windows, rounds);
        println!(
            "location {name}: SNR {:.1} dB, mean BER {:.4}, p90 window BER {:.4}, tput {:.1} Kbps",
            exp.snr_db(),
            stats.ber(),
            stats.window_bers.percentile(90.0).unwrap_or(0.0),
            stats.throughput_kbps()
        );
    };
    match loc.as_str() {
        "a" => run("A", ExperimentConfig::nlos_a(seed)),
        "b" => run("B", ExperimentConfig::nlos_b(seed)),
        _ => {
            run("A", ExperimentConfig::nlos_a(seed));
            run("B", ExperimentConfig::nlos_b(seed));
        }
    }
    Ok(())
}

/// Read `--trace <path>`: `None` when absent, error on an empty value.
fn trace_arg(a: &Args) -> Result<Option<String>, ArgError> {
    match a.raw("trace") {
        Some("") => Err(ArgError::MissingValue("trace".into())),
        t => Ok(t.map(str::to_string)),
    }
}

/// Open a JSONL trace sink at `path`, exiting with a message on failure.
fn open_trace(path: &str) -> JsonlRecorder<BufWriter<File>> {
    match JsonlRecorder::create(Path::new(path)) {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!("cannot create trace file '{path}': {e}");
            std::process::exit(1);
        }
    }
}

/// Flush a trace sink and report how many events landed on disk.
fn close_trace(rec: JsonlRecorder<BufWriter<File>>, path: &str) {
    let events = rec.lines();
    match rec.finish() {
        Ok(_) => eprintln!("trace: {events} events -> {path}"),
        Err(e) => {
            eprintln!("trace file '{path}' is incomplete: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_sweep(a: &Args) -> Result<(), ArgError> {
    let from = tag_distance(a, "from", 1.0)?;
    let to = tag_distance(a, "to", 7.0)?;
    let step = a.f64_or("step", 1.0)?;
    let rounds = a.usize_or("rounds", 100)?;
    let seed = a.u64_or("seed", 42)?;
    let threads = a.usize_or("threads", witag_sim::available_threads())?;
    let trace = trace_arg(a)?;
    a.reject_unknown()?;
    let distances = sweep_points(from, to, step)?;
    println!("{:>10} {:>10} {:>14}", "dist (m)", "BER", "tput (Kbps)");
    // Sweep points are independent experiments, so they parallelise with
    // no change in output: each point's seed and round sequence are
    // exactly what the serial loop used, and results print in distance
    // order regardless of completion order. When tracing, each worker
    // buffers its point's events and the buffers are replayed in point
    // order, so the trace bytes are thread-count-invariant too.
    let tracing = trace.is_some();
    let results = witag_sim::par_map(distances.len(), threads, |i| {
        let mut exp = experiment(ExperimentConfig::fig5(distances[i], seed));
        if tracing {
            let mut buf = BufferRecorder::new();
            let stats = exp.run_obs(rounds, &mut buf);
            (stats, Some(buf))
        } else {
            (exp.run(rounds), None)
        }
    });
    for (d, (stats, _)) in distances.iter().zip(results.iter()) {
        println!("{d:>10.2} {:>10.4} {:>14.1}", stats.ber(), stats.throughput_kbps());
    }
    if let Some(path) = trace {
        let mut rec = open_trace(&path);
        for (i, (d, (_, buf))) in distances.iter().zip(results.iter()).enumerate() {
            rec.record(&Event::SweepPoint {
                index: i as u32,
                distance_m: *d,
            });
            if let Some(buf) = buf {
                buf.replay_into(&mut rec);
            }
        }
        close_trace(rec, &path);
    }
    Ok(())
}

/// `witag mox` — the MOXcatter MIMO sweep: multiplexed per-stream
/// A-MPDUs through a matrix channel with one modulating tag, reporting
/// how the corruption lands on every stream's block-ACK bitmap.
fn cmd_mox(a: &Args) -> Result<(), ArgError> {
    let streams_raw = a.str_or("streams", "2").to_string();
    let streams_list: Vec<usize> = streams_raw
        .split(',')
        .map(|t| {
            t.trim().parse::<usize>().ok().filter(|n| (1..=4).contains(n)).ok_or_else(|| {
                ArgError::BadValue {
                    key: "streams".into(),
                    value: streams_raw.clone(),
                    expected: "comma list of stream counts 1-4",
                }
            })
        })
        .collect::<Result<_, _>>()?;
    let base_mcs = a.usize_or("mcs", 7)?;
    if base_mcs > 7 {
        return Err(ArgError::BadValue {
            key: "mcs".into(),
            value: base_mcs.to_string(),
            expected: "base HT MCS index 0-7",
        });
    }
    let subframes = a.usize_or("subframes", 16)?;
    let payload = a.usize_or("payload", 64)?;
    let eq = match a.str_or("eq", "mmse") {
        "zf" => witag_phy::MimoEqualiser::Zf,
        "mmse" => witag_phy::MimoEqualiser::Mmse,
        other => {
            return Err(ArgError::BadValue {
                key: "eq".into(),
                value: other.to_string(),
                expected: "zf or mmse",
            })
        }
    };
    let from = tag_distance(a, "from", 1.0)?;
    let to = tag_distance(a, "to", 7.0)?;
    let step = a.f64_or("step", 1.0)?;
    let seed = a.u64_or("seed", 2)?;
    let threads = a.usize_or("threads", witag_sim::available_threads())?;
    let trace = trace_arg(a)?;
    a.reject_unknown()?;

    let distances = sweep_points(from, to, step)?;
    // One point per (streams, distance) combo, globally indexed in print
    // order so the trace's `index` stamps are sweep-order stable.
    let points: Vec<(usize, f64)> = streams_list
        .iter()
        .flat_map(|&n| distances.iter().map(move |&d| (n, d)))
        .collect();
    let tracing = trace.is_some();
    // Points are independent; parallelise like `sweep` with per-point
    // buffers replayed in point order for thread-count-invariant traces.
    let results = witag_sim::par_map(points.len(), threads, |i| {
        let (n, d) = points[i];
        let cfg = MoxConfig {
            streams: n,
            base_mcs,
            subframes,
            payload_bytes: payload,
            equaliser: eq,
            seed,
        };
        if tracing {
            let mut buf = BufferRecorder::new();
            let r = run_point(i as u32, d, &cfg, &mut buf);
            (r, Some(buf))
        } else {
            (run_point(i as u32, d, &cfg, &mut NullRecorder), None)
        }
    });

    println!(
        "{:>7} {:>4} {:>8} {:>9} {:>9} {:>12} {:>5}",
        "streams", "mcs", "dist (m)", "snr min", "snr max", "acked", "hit"
    );
    for ((n, d), (r, _)) in points.iter().zip(results.iter()) {
        let acked: Vec<String> = r
            .streams
            .iter()
            .map(|s| format!("{}/{}", s.acked, s.subframes))
            .collect();
        println!(
            "{:>7} {:>4} {:>8.2} {:>9.1} {:>9.1} {:>12} {:>3}/{}",
            n,
            8 * (n - 1) + base_mcs,
            d,
            r.snr_min_db,
            r.snr_max_db,
            acked.join(" "),
            r.streams_hit(),
            n
        );
    }
    if let Some(path) = trace {
        let mut rec = open_trace(&path);
        for (_, buf) in &results {
            if let Some(buf) = buf {
                buf.replay_into(&mut rec);
            }
        }
        close_trace(rec, &path);
    }
    Ok(())
}

fn cmd_design(a: &Args) -> Result<(), ArgError> {
    let distance = tag_distance(a, "distance", 1.0)?;
    let khz = a.f64_or("clock-khz", 250.0)?;
    let subframes = a.usize_or("subframes", 64)?;
    a.reject_unknown()?;
    let fp = Floorplan::paper_testbed();
    let client = Floorplan::los_client_position();
    let ap = Floorplan::ap_position();
    let tag = client.lerp(ap, distance / client.distance(ap));
    let link = Link::new(&fp, client, ap, Some(tag), LinkConfig::default(), 1);
    let clock = Oscillator::Crystal { freq_hz: khz * 1e3 };
    match QueryDesign::best(&link, &clock, subframes, 2) {
        Ok(d) => {
            println!("link SNR:         {:.1} dB", link.snr_db());
            println!(
                "query MCS:        {:?} {:?} ({} MHz)",
                d.phy.mcs.modulation,
                d.phy.mcs.code_rate,
                d.phy.bandwidth.hertz() / 1_000_000
            );
            println!(
                "subframe:         {} bytes = {} OFDM symbols = {}",
                d.subframe_bytes,
                d.symbols_per_subframe,
                d.subframe_airtime()
            );
            println!("bits per query:   {}", d.bits_per_query());
            println!(
                "marker signature: {:?} (gap {})",
                d.signature.bursts, d.marker_gap
            );
            println!(
                "est. tag rate:    {:.1} Kbps",
                d.bits_per_query() as f64 / d.round_airtime_estimate().as_secs_f64() / 1e3
            );
        }
        Err(e) => {
            eprintln!("no feasible corruptible design: {e}");
            std::process::exit(1);
        }
    }
    Ok(())
}

fn cmd_send(a: &Args) -> Result<(), ArgError> {
    let message = a.str_or("message", "hello from the tag").to_string();
    let distance = tag_distance(a, "distance", 2.0)?;
    let seed = a.u64_or("seed", 42)?;
    let max_queries = a.usize_or("max-queries", 400)?;
    a.reject_unknown()?;
    let mut exp = experiment(ExperimentConfig::fig5(distance, seed));
    let n_bits = exp.design.bits_per_query();
    match deliver(message.as_bytes(), n_bits, max_queries, |tx| {
        exp.run_round(tx).readout.bits
    }) {
        Some((got, queries)) => {
            println!(
                "delivered {} bytes in {queries} queries: {:?}",
                got.len(),
                String::from_utf8_lossy(&got)
            );
            assert_eq!(got, message.as_bytes(), "transport integrity");
        }
        None => {
            eprintln!("gave up after {max_queries} queries");
            std::process::exit(1);
        }
    }
    Ok(())
}

fn cmd_faults(a: &Args) -> Result<(), ArgError> {
    let message = a.str_or("message", "sensor frame 0042: 21.5C 40%RH ok").to_string();
    let distance = tag_distance(a, "distance", 1.0)?;
    let seed = a.u64_or("seed", 42)?;
    let plan_seed = a.u64_or("plan-seed", 7)?;
    let intensity = a.f64_or("intensity", 1.0)?;
    let budget = a.usize_or("budget", 3000)?;
    let trace = trace_arg(a)?;
    a.reject_unknown()?;
    let mut exp = experiment(ExperimentConfig::fig5(distance, seed));
    exp.attach_faults(FaultPlan::hostile_scaled(plan_seed, intensity));
    let cfg = SessionConfig {
        max_rounds: budget,
        ..SessionConfig::default()
    };
    let outcome = if let Some(path) = &trace {
        let mut rec = open_trace(path);
        let r = session_over_experiment_obs(&mut exp, message.as_bytes(), &cfg, &mut rec);
        close_trace(rec, path);
        r
    } else {
        session_over_experiment(&mut exp, message.as_bytes(), &cfg)
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("session setup failed: {e}");
            std::process::exit(1);
        }
    };
    let s = &report.stats;
    println!(
        "fault plan: hostile x{intensity:.2}, seed {plan_seed}; budget {budget} rounds"
    );
    if let Some(c) = exp.fault_counters() {
        println!(
            "injected:   {} lost queries, {} lost block ACKs, {} burst / {} drift / {} brownout rounds",
            c.queries_lost, c.block_acks_lost, c.burst_rounds, c.drift_rounds, c.brownout_rounds
        );
    }
    println!(
        "session:    {} rounds ({} idle), {} retransmissions, {} resyncs, {} desync events",
        s.rounds, s.idle_rounds, s.retransmissions, s.resyncs, s.desync_events
    );
    println!(
        "            goodput {:.3} ({} payload bits over {} raw)",
        s.goodput_ratio(),
        s.payload_bits,
        s.raw_bits
    );
    match report.outcome {
        SessionOutcome::Delivered(bytes) => {
            println!(
                "delivered:  {} bytes: {:?}",
                bytes.len(),
                String::from_utf8_lossy(&bytes)
            );
            assert_eq!(bytes, message.as_bytes(), "transport integrity");
        }
        SessionOutcome::Failed(f) => {
            eprintln!("failed: {f:?} — the plan won this time");
            std::process::exit(1);
        }
    }
    Ok(())
}

fn cmd_net(a: &Args) -> Result<(), ArgError> {
    if a.raw("cells").is_some() {
        return cmd_net_metro(a);
    }
    let clients = a.usize_or("clients", 2)?;
    let tags = a.usize_or("tags", 8)?;
    let sched_name = a.str_or("scheduler", "fair").to_string();
    let scheduler = match SchedulerKind::parse(&sched_name) {
        Some(k) => k,
        None => {
            return Err(ArgError::BadValue {
                key: "scheduler".into(),
                value: sched_name,
                expected: "rr|fair|edf|serial|pred",
            })
        }
    };
    let transport_name = a.str_or("transport", "arq").to_string();
    let transport = match Transport::parse(&transport_name) {
        Some(t) => t,
        None => {
            return Err(ArgError::BadValue {
                key: "transport".into(),
                value: transport_name,
                expected: "arq|fountain",
            })
        }
    };
    let horizon_ms = a.u64_or("horizon", 2000)?;
    let seed = a.u64_or("seed", 42)?;
    let window = a.usize_or("window", 4)?;
    let duty = a.f64_or("duty", 0.0)?;
    let duty_period_ms = a.u64_or("duty-period", 4000)?;
    let replicas = a.usize_or("replicas", 1)?;
    let threads = a.usize_or("threads", witag_sim::available_threads())?;
    let trace = trace_arg(a)?;
    a.reject_unknown()?;
    let mut cfg = FleetConfig::inventory(
        clients,
        tags,
        scheduler,
        Duration::millis(horizon_ms),
        seed,
    );
    cfg.window = window;
    cfg = cfg.with_transport(transport);
    if duty > 0.0 {
        cfg = cfg.with_duty_cycle(Duration::millis(duty_period_ms), duty);
    }
    let outcome = if let Some(path) = &trace {
        let mut rec = open_trace(path);
        let r = run_replicas(&cfg, replicas, threads, &mut rec);
        close_trace(rec, path);
        r
    } else {
        run_replicas(&cfg, replicas, threads, &mut NullRecorder)
    };
    let reports = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet not viable: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "fleet: {clients} client(s) x {tags} tag(s) | scheduler {} | transport {} | horizon {horizon_ms} ms | seed {seed}",
        scheduler.name(),
        transport.name()
    );
    if duty > 0.0 {
        println!(
            "duty cycle: {duty:.2} ON fraction over {duty_period_ms} ms periods (phases spread)"
        );
    }
    for (i, rep) in reports.iter().enumerate() {
        print_fleet_report(i, tags, rep);
    }
    Ok(())
}

/// `witag net --cells …`: the metro-scale engine (spatial cells,
/// channel reuse, batched grants, hierarchical scheduling).
fn cmd_net_metro(a: &Args) -> Result<(), ArgError> {
    let cells = a.usize_or("cells", 4)?;
    let readers = a.usize_or("readers", cells)?;
    let tags = a.usize_or("tags", 1000)?;
    let sched_name = a.str_or("scheduler", "fair").to_string();
    let scheduler = match SchedulerKind::parse(&sched_name) {
        Some(k) => k,
        None => {
            return Err(ArgError::BadValue {
                key: "scheduler".into(),
                value: sched_name,
                expected: "rr|fair|edf|serial",
            })
        }
    };
    let horizon_ms = a.u64_or("horizon", 60_000)?;
    let seed = a.u64_or("seed", 42)?;
    let channels = a.usize_or("channels", 3)?;
    let batch = a.usize_or("batch", 8)? as u32;
    let epoch_ms = a.u64_or("epoch", 1000)?;
    let duty = a.f64_or("duty", 0.0)?;
    let duty_period_ms = a.u64_or("duty-period", 4000)?;
    let threads = a.usize_or("threads", witag_sim::available_threads())?;
    let trace = trace_arg(a)?;
    a.reject_unknown()?;
    let mut cfg = MetroConfig::inventory(
        cells,
        readers,
        tags,
        scheduler,
        Duration::millis(horizon_ms),
        seed,
    );
    cfg.channels = channels;
    cfg.batch = batch;
    cfg.epoch = Duration::millis(epoch_ms);
    if duty > 0.0 {
        cfg = cfg.with_duty_cycle(Duration::millis(duty_period_ms), duty);
    }
    let outcome = if let Some(path) = &trace {
        let mut rec = open_trace(path);
        let r = run_metro(&cfg, threads, &mut rec);
        close_trace(rec, path);
        r
    } else {
        run_metro(&cfg, threads, &mut NullRecorder)
    };
    let rep = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("metro not viable: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "metro: {cells} cell(s) x {readers} reader(s) x {tags} tag(s) | scheduler {} | {} channel(s) -> {} contention domain(s)",
        scheduler.name(),
        channels,
        rep.domains
    );
    println!(
        "       batch {batch} | epoch {epoch_ms} ms | horizon {horizon_ms} ms | seed {seed}"
    );
    if duty > 0.0 {
        println!(
            "duty cycle: {duty:.2} ON fraction over {duty_period_ms} ms periods (phases spread)"
        );
    }
    let pct = |p: f64| {
        rep.latency_percentile(p)
            .map_or_else(|| "-".to_string(), |us| format!("{:.1}", us / 1000.0))
    };
    println!(
        "delivered {}/{tags} | grants {} | collisions {} (rate {:.3}) | probe rounds {} | elapsed {:.1} ms",
        rep.delivered,
        rep.grants,
        rep.collisions,
        rep.collision_rate(),
        rep.probe_rounds,
        rep.elapsed.as_secs_f64() * 1e3
    );
    println!(
        "goodput {:.1} Kbps | read latency ms p50 {} p90 {} p99 {} | airtime {:.1} ms across cells | deadlines met {}/{}",
        rep.goodput_bps() / 1e3,
        pct(50.0),
        pct(90.0),
        pct(99.0),
        rep.airtime.as_secs_f64() * 1e3,
        rep.deadline_hits,
        rep.delivered
    );
    let busiest = rep
        .cell_summaries
        .iter()
        .max_by_key(|c| c.grants)
        .map_or(0, |c| c.cell);
    println!(
        "cells: busiest cell {} | per-cell delivery min {} max {}",
        busiest,
        rep.cell_summaries.iter().map(|c| c.delivered).min().unwrap_or(0),
        rep.cell_summaries.iter().map(|c| c.delivered).max().unwrap_or(0)
    );
    Ok(())
}

/// Render one replica's fleet report in the CLI's fixed format.
fn print_fleet_report(replica: usize, tags: usize, rep: &FleetReport) {
    let shares = rep.airtime_shares();
    let min_share = shares.iter().copied().fold(f64::MAX, f64::min);
    let max_share = shares.iter().copied().fold(0.0, f64::max);
    let pct = |p: f64| {
        rep.latency_percentile(p)
            .map_or_else(|| "-".to_string(), |us| format!("{:.1}", us / 1000.0))
    };
    println!(
        "replica {replica}: delivered {}/{tags} | grants {} | collisions {} (rate {:.3}) | elapsed {:.1} ms",
        rep.delivered(),
        rep.grants,
        rep.collisions,
        rep.collision_rate(),
        rep.elapsed.as_secs_f64() * 1e3
    );
    println!(
        "          goodput {:.1} Kbps | read latency ms p50 {} p90 {} p99 {} | airtime share min {:.3} max {:.3} | deadlines met {}/{}",
        rep.goodput_bps() / 1e3,
        pct(50.0),
        pct(90.0),
        pct(99.0),
        min_share,
        max_share,
        rep.deadline_hits(),
        rep.delivered()
    );
}

fn cmd_report(a: &Args) -> Result<(), ArgError> {
    a.reject_unknown()?;
    let path = match a.positionals().first() {
        Some(p) => p.clone(),
        None => {
            eprintln!("usage: witag report <trace.jsonl>");
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read trace file '{path}': {e}");
            std::process::exit(1);
        }
    };
    let mut summary = TraceSummary::default();
    for line in text.lines() {
        summary.ingest_line(line);
    }
    if summary.events() == 0 && summary.schema().is_none() {
        eprintln!("'{path}' contains no witag-obs events");
        std::process::exit(1);
    }
    print!("{}", summary.render());
    Ok(())
}

fn cmd_floorplan(a: &Args) -> Result<(), ArgError> {
    a.reject_unknown()?;
    let fp = Floorplan::paper_testbed();
    println!("testbed reconstruction of the paper's Figure 4 (18 m x 7 m):\n");
    println!("  AP          at {:?}", Floorplan::ap_position());
    println!("  LOS client  at {:?}  (8 m from the AP)", Floorplan::los_client_position());
    println!("  NLOS A      at {:?}  (~7 m)", Floorplan::nlos_a_client_position());
    println!("  NLOS B      at {:?}  (~17 m)", Floorplan::nlos_b_client_position());
    println!("\nobstacles:");
    for o in &fp.obstacles {
        println!(
            "  {:?} from ({:.1},{:.1}) to ({:.1},{:.1})  [{:.0} dB/crossing]",
            o.material,
            o.segment.a.x,
            o.segment.a.y,
            o.segment.b.x,
            o.segment.b.y,
            o.material.penetration_loss_db()
        );
    }
    println!("\nreflectors: {:?}", fp.reflectors);
    Ok(())
}
