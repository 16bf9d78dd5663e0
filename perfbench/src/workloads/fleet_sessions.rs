//! `fleet_sessions`: one `run_fleet` per call over the inventory fleet
//! (4 clients, 1000 tags, fair scheduler, 120 s horizon) on the
//! fountain transport with tags awake 25 % of a 4 s period. An op is
//! one tag session resolved, so a call resolves 1000 ops.
//!
//! The traced run attaches the program's `MetricsRecorder` and replays
//! the layer functions the engine leans on at the workload's shapes.

use std::time::Instant;

use witag::fountain::{source_count_for_len, FountainDecoder, FountainEncoder};
use witag::tagnet::{
    decode_chunk, encode_chunk, run_fountain_session_obs, FountainConfig, RoundOutcome,
    CHUNK_PAYLOAD_BITS, MIN_CHANNEL_BITS,
};
use witag_mac::access::Contention;
use witag_net::{
    run_fleet, Candidate, FairScheduler, FleetConfig, FleetReport, Scheduler, SchedulerKind,
    Transport, MARKER_AIRTIME,
};
use witag_obs::{MetricsRecorder, NullRecorder, Recorder};
use witag_phy::airtime::{block_ack_airtime, LegacyRate};
use witag_phy::params::timing;
use witag_phy::ppdu::PhyConfig;
use witag_phy::Mcs;
use witag_sim::time::{Duration, Instant as SimInstant};

use super::{input_rng, overhead_pct, record_sim, REPLAY_REPS, SETUP_REPS};
use crate::report::{time_per_call, ClosedLoop, PerCallTimer, Report};
use crate::stats::median;
use crate::Args;

const CLIENTS: usize = 4;
const TAGS: usize = 1000;

/// Fleets a run cycles through, each from its own seed: one fleet's
/// delivery count swings by several percent from seed to seed, so the
/// `sim_*` values pool this many.
const FLEETS: usize = 8;

fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig::inventory(
        CLIENTS,
        TAGS,
        SchedulerKind::Fair,
        Duration::secs(120),
        seed,
    )
    .with_transport(Transport::Fountain)
    .with_duty_cycle(Duration::secs(4), 0.25)
}

/// The run's fleets, seeded from the run's seed.
fn fleet_configs(seed: u64) -> Vec<FleetConfig> {
    let mut rng = input_rng(seed, 7);
    (0..FLEETS).map(|_| fleet_config(rng.next_u64())).collect()
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        traced(args)
    } else {
        timed(args)
    }
}

/// Structural checks of one report; returns the failed tag count and
/// the first reason.
fn check_report(cfg: &FleetConfig, rep: &FleetReport) -> (u64, Option<String>) {
    if rep.tags.len() != cfg.profiles.len() || rep.delivered() > cfg.profiles.len() {
        return (
            TAGS as u64,
            Some(format!(
                "{} outcomes, {} delivered",
                rep.tags.len(),
                rep.delivered()
            )),
        );
    }
    let mut bad = 0u64;
    let mut why = None;
    for (t, prof) in rep.tags.iter().zip(&cfg.profiles) {
        // A round that starts before the horizon may finish after it,
        // so a delivered session's latency can exceed the horizon.
        let ok = !t.delivered
            || (t.latency.is_some()
                && u64::from(t.payload_bits) >= t.message_bits
                && t.message_bits == (prof.message.len() * 8) as u64);
        if !ok {
            bad += 1;
            why.get_or_insert_with(|| format!("tag {} delivered inconsistently: {t:?}", t.tag));
        }
    }
    (bad, why)
}

/// Every session the fleet marked delivered must assemble to its source
/// message. The fleet report does not carry the assembled bytes, so
/// each delivered tag's message is run through the fountain session
/// codec at the tag's own channel width over a lossless channel, and
/// the bytes it hands over are compared with the source.
fn check_delivered_assemble(
    cfg: &FleetConfig,
    rep: &FleetReport,
    rec: &mut dyn Recorder,
) -> (u64, Option<String>) {
    let mut bad = 0u64;
    let mut why = None;
    for t in rep.tags.iter().filter(|t| t.delivered) {
        let prof = &cfg.profiles[t.tag];
        let session = run_fountain_session_obs(
            &prof.message,
            prof.channel_bits,
            &FountainConfig::default(),
            rec,
            |_, tx| RoundOutcome {
                tag_heard: true,
                readout: Some(tx.to_vec()),
            },
        );
        let ok = matches!(&session, Ok(s) if s.delivered() == Some(prof.message.as_slice()));
        if !ok {
            bad += 1;
            why.get_or_insert_with(|| format!("tag {} does not assemble to its message", t.tag));
        }
    }
    (bad, why)
}

fn timed(args: &Args) -> Report {
    let mut r = Report {
        threads: 1,
        ..Report::default()
    };
    let mut setup = PerCallTimer::new(|| fleet_configs(args.seed));
    let cfgs = fleet_configs(args.seed);
    let mut reports: Vec<FleetReport> = Vec::with_capacity(FLEETS);
    // Warm-up: one untimed call, so the first timed one does not pay
    // for cold caches and fresh pages; its report is the reference.
    match run_fleet(&cfgs[0], &mut NullRecorder) {
        Ok(rep) => reports.push(rep),
        Err(e) => r.fail(TAGS as u64, format!("warm-up call: {e:?}")),
    }
    let mut lp = ClosedLoop::new(args.seconds, FLEETS as u64);
    while let Some(i) = lp.next_call() {
        for _ in 0..lp.samples_due(SETUP_REPS) {
            setup.sample();
        }
        let k = i as usize % FLEETS;
        let cfg = &cfgs[k];
        match lp.time(TAGS as u64, || run_fleet(cfg, &mut NullRecorder)) {
            Err(e) => r.fail(TAGS as u64, format!("call {i}: {e:?}")),
            Ok(rep) => {
                let (bad, why) = check_report(cfg, &rep);
                if let Some(why) = why {
                    r.fail(bad, format!("call {i}: {why}"));
                }
                match reports.get(k) {
                    None => reports.push(rep),
                    Some(f) => r.check(*f == rep, TAGS as u64, || {
                        format!("call {i}: report differs from call {k}")
                    }),
                }
            }
        }
    }
    let timed = lp.finish();
    r.median_metric("setup_s", setup.fill(SETUP_REPS));
    r.attempted = timed.ops;
    r.median_metric("ops_per_s", &timed.slice_rates);
    // A call resolves a whole fleet, so an op's time is the call's
    // share per session; the percentiles are over calls, too few for
    // the ≥ 10-beyond rule.
    r.median_metric("op_p50_us", &timed.op_us);
    r.tail_metric("op_p90_us", &timed.op_us, 90.0, timed.op_us.len(), 0);
    if reports.len() != FLEETS {
        r.fail(0, "a fleet call failed".into());
        return r;
    }
    for (cfg, rep) in cfgs.iter().zip(&reports) {
        let (bad, why) = check_delivered_assemble(cfg, rep, &mut NullRecorder);
        if let Some(why) = why {
            r.fail(bad, why);
        }
    }
    record_sim(&mut r, false, sim_values(&reports));
    r
}

/// The `sim_*` values pooled over the fleets of one run.
fn sim_values(reports: &[FleetReport]) -> Result<Vec<(&'static str, f64)>, String> {
    let tags: usize = reports.iter().map(|x| x.tags.len()).sum();
    let delivered: Vec<_> = reports
        .iter()
        .flat_map(|x| x.tags.iter().filter(|t| t.delivered))
        .collect();
    let bits: u64 = delivered.iter().map(|t| t.message_bits).sum();
    let secs: f64 = reports.iter().map(|x| x.elapsed.as_secs_f64()).sum();
    let latencies: Vec<f64> = delivered
        .iter()
        .filter_map(|t| t.latency.map(|l| l.as_secs_f64()))
        .collect();
    let read_p50 = median(&latencies).ok_or("no session was delivered")?;
    Ok(vec![
        (
            "sim_delivered_frac",
            delivered.len() as f64 / tags.max(1) as f64,
        ),
        (
            "sim_goodput_kbps",
            if secs > 0.0 {
                bits as f64 / secs / 1e3
            } else {
                0.0
            },
        ),
        ("sim_read_p50_s", read_p50),
    ])
}

fn traced(args: &Args) -> Report {
    let mut r = Report {
        threads: 1,
        ..Report::default()
    };
    let cfgs = fleet_configs(args.seed);
    let cfg = cfgs[0].clone();
    // Untraced and recorder-attached calls, alternating.
    let (mut plain_s, mut obs_s) = (Vec::new(), Vec::new());
    let mut metrics_rec = None;
    let mut reports = Vec::new();
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 2 || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let mut rec = MetricsRecorder::new();
        let t0 = Instant::now();
        let plain = run_fleet(&cfg, &mut NullRecorder);
        let t1 = Instant::now();
        let observed = run_fleet(&cfg, &mut rec);
        plain_s.push((t1 - t0).as_secs_f64());
        obs_s.push(t1.elapsed().as_secs_f64());
        metrics_rec = Some(rec);
        calls += 1;
        match (plain, observed) {
            (Ok(a), Ok(b)) => {
                r.check(a == b, TAGS as u64, || {
                    "report differs with a recorder attached".into()
                });
                reports.push(a);
            }
            (a, b) => r.fail(
                TAGS as u64,
                format!("run_fleet failed: {:?} / {:?}", a.err(), b.err()),
            ),
        }
    }
    r.attempted = calls * TAGS as u64;
    let (Some(rep), Some(metrics_rec)) = (reports.first().cloned(), metrics_rec) else {
        return r;
    };
    r.check(reports.iter().all(|x| *x == rep), 0, || {
        "fleet reports differ between calls".into()
    });
    let (bad, why) = check_report(&cfg, &rep);
    if let Some(why) = why {
        r.fail(bad, why);
    }
    // The sim_* values over the run's fleets, pooled as in the timed run.
    let pooled: Result<Vec<FleetReport>, _> = cfgs
        .iter()
        .map(|c| run_fleet(c, &mut NullRecorder))
        .collect();
    let sim = pooled
        .map_err(|e| format!("run_fleet failed: {e:?}"))
        .and_then(|p| sim_values(&p));
    record_sim(&mut r, true, sim);
    let mut codec_rec = MetricsRecorder::new();
    let (bad, why) = check_delivered_assemble(&cfg, &rep, &mut codec_rec);
    if let Some(why) = why {
        r.fail(bad, why);
    }

    let delivered = rep.delivered().max(1) as f64;
    r.metric("net.grants", rep.grants as f64, None);
    r.metric("net.collision_rate", rep.collision_rate(), None);
    r.metric(
        "net.rounds_per_delivered",
        rep.grants as f64 / delivered,
        None,
    );
    let share_max = rep.airtime_shares().into_iter().fold(0.0, f64::max);
    r.metric("net.airtime_share_max", share_max, None);
    r.metric(
        "obs.count.net.grant",
        metrics_rec.count("net.grant") as f64,
        None,
    );
    r.metric(
        "obs.count.net.collision",
        metrics_rec.count("net.collision") as f64,
        None,
    );
    r.metric(
        "obs.count.tagnet.symbol",
        codec_rec.count("tagnet.symbol") as f64,
        None,
    );
    r.metric(
        "obs.count.tagnet.decode_progress",
        codec_rec.count("tagnet.decode_progress") as f64,
        None,
    );
    let plain = median(&plain_s).unwrap_or(0.0);
    r.metric(
        "obs.overhead_pct",
        overhead_pct(median(&obs_s).unwrap_or(0.0), plain),
        None,
    );

    // Layer replays at the workload's shapes.
    let mut rng = input_rng(args.seed, 4);
    // Fountain peeling at the median message length of the inventory.
    let mut lens: Vec<usize> = cfg.profiles.iter().map(|p| p.message.len()).collect();
    lens.sort_unstable();
    let mut message = vec![0u8; lens[lens.len() / 2]];
    rng.fill_bytes(&mut message);
    let k = source_count_for_len(message.len());
    let symbols: Option<Vec<Vec<u8>>> = FountainEncoder::new(&message).ok().map(|enc| {
        (0..(8 * k + 64) as u64)
            .map(|esi| enc.symbol(esi))
            .collect()
    });
    let Some(symbols) = symbols else {
        r.fail(0, "fountain encoder rejected the message".into());
        return r;
    };
    let mut absorbed = 0usize;
    let mut decodes = 0usize;
    let absorb_s = time_per_call(REPLAY_REPS, || {
        let mut dec = FountainDecoder::new(k);
        for (esi, s) in symbols.iter().enumerate() {
            dec.absorb(esi as u64, s);
            absorbed += 1;
            if dec.complete() {
                break;
            }
        }
        decodes += 1;
        std::hint::black_box(dec.assemble());
    });
    r.metric(
        "core.fountain_absorb_us",
        absorb_s * 1e6 * decodes as f64 / absorbed.max(1) as f64,
        None,
    );

    // Chunk decode at each channel width the inventory cycles through.
    let chunks: Vec<(Vec<u8>, usize)> = (0..4)
        .filter_map(|w| {
            let bits = MIN_CHANNEL_BITS + 2 * w;
            let payload: Vec<u8> = (0..CHUNK_PAYLOAD_BITS)
                .map(|_| (rng.next_u64() & 1) as u8)
                .collect();
            encode_chunk(w as u8, &payload, bits)
                .ok()
                .map(|c| (c, bits))
        })
        .collect();
    r.check(chunks.len() == 4, 0, || {
        "chunk encoder rejected a width".into()
    });
    r.check(
        chunks
            .iter()
            .all(|(c, bits)| decode_chunk(c, *bits).is_some()),
        0,
        || "a clean chunk failed to decode".into(),
    );
    let mut next = 0;
    let chunk_s = time_per_call(REPLAY_REPS, || {
        let (c, bits) = &chunks[next % chunks.len()];
        next += 1;
        decode_chunk(c, *bits)
    });
    r.metric("core.chunk_decode_us", chunk_s * 1e6, None);

    // Fair scheduler pick over one client's share of the fleet.
    let phy = PhyConfig::new(Mcs::ht(4));
    let per_client = TAGS / CLIENTS;
    let candidates: Vec<Candidate> = cfg
        .profiles
        .iter()
        .enumerate()
        .filter(|(t, _)| t % CLIENTS == 0)
        .map(|(tag, p)| Candidate {
            tag,
            airtime_used: Duration::ZERO,
            round_airtime: MARKER_AIRTIME
                + phy.airtime(p.subframe_bytes * (p.channel_bits + 2))
                + timing::SIFS
                + block_ack_airtime(LegacyRate::M24),
            deadline: SimInstant::ZERO + p.deadline,
        })
        .collect();
    r.check(candidates.len() == per_client, 0, || {
        "candidate set size".into()
    });
    let mut sched = FairScheduler::new();
    let pick_s = time_per_call(REPLAY_REPS, || {
        let pos = sched.pick(&candidates);
        let c = &candidates[pos];
        sched.on_served(c.tag, c.round_airtime);
    });
    r.metric("net.sched_pick_ns", pick_s * 1e9, None);

    let contention = Contention::new();
    let mut mac_rng = input_rng(args.seed, 5);
    let draw_s = time_per_call(REPLAY_REPS, || contention.draw_backoff(&mut mac_rng));
    r.metric("mac.contention_draw_ns", draw_s * 1e9, None);
    r
}
