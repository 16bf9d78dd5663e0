//! `metro_inventory`: one `run_metro` per call over a 10⁶-tag metro
//! (1000 cells, 1000 readers, fair scheduler, 120 s horizon, tags
//! awake 8 % of a 4 s period) on 2 threads. An op is one tag
//! inventoried, so a call resolves 10⁶ ops.
//!
//! Every run also repeats the metro on 1 thread and requires a
//! byte-identical report. The traced run attaches the program's
//! `MetricsRecorder` and replays the calendar queue at the workload's
//! per-domain depth.

use std::time::Instant;

use witag_net::{run_metro, MetroConfig, MetroReport, SchedulerKind};
use witag_obs::{MetricsRecorder, NullRecorder, KINDS};
use witag_sim::time::{Duration, Instant as SimInstant};
use witag_sim::CalendarQueue;

use super::{input_rng, overhead_pct, record_sim, REPLAY_REPS, SETUP_REPS};
use crate::report::{time_per_call, ClosedLoop, PerCallTimer, Report};
use crate::Args;

const CELLS: usize = 1000;
const READERS: usize = 1000;
const TAGS: usize = 1_000_000;
const THREADS: usize = 2;
const MIN_CALLS: u64 = 2;

fn metro_config(seed: u64) -> MetroConfig {
    MetroConfig::inventory(
        CELLS,
        READERS,
        TAGS,
        SchedulerKind::Fair,
        Duration::secs(120),
        seed,
    )
    .with_duty_cycle(Duration::secs(4), 0.08)
}

/// Tags the metro places in each cell (tag `i` lives in cell
/// `i % cells`): the benchmark's expectation for the per-cell report.
fn expected_cell_tags(cfg: &MetroConfig) -> Vec<usize> {
    (0..cfg.cells)
        .map(|c| {
            if c < cfg.tags {
                (cfg.tags - c - 1) / cfg.cells + 1
            } else {
                0
            }
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        traced(args)
    } else {
        timed(args)
    }
}

/// Structural checks of one report against the configuration.
fn check_report(cfg: &MetroConfig, expected: &[usize], rep: &MetroReport) -> Result<(), String> {
    if rep.tags != cfg.tags || rep.delivered > rep.tags || rep.cell_summaries.len() != cfg.cells {
        return Err(format!(
            "{} tags, {} delivered, {} cells",
            rep.tags,
            rep.delivered,
            rep.cell_summaries.len()
        ));
    }
    if rep.domains == 0 || rep.domains > cfg.cells {
        return Err(format!("{} contention domains", rep.domains));
    }
    let delivered: usize = rep.cell_summaries.iter().map(|c| c.delivered).sum();
    if delivered != rep.delivered {
        return Err(format!(
            "cells deliver {delivered}, report says {}",
            rep.delivered
        ));
    }
    for (c, (cell, &want)) in rep.cell_summaries.iter().zip(expected).enumerate() {
        if cell.cell != c || cell.tags != want || cell.delivered > cell.tags {
            return Err(format!("cell {c}: {cell:?}, expected {want} tags"));
        }
    }
    Ok(())
}

/// The 1-thread run must reproduce the 2-thread report byte for byte.
fn check_thread_invariance(cfg: &MetroConfig, rep: &MetroReport) -> Result<f64, String> {
    let t0 = Instant::now();
    let single = run_metro(cfg, 1, &mut NullRecorder).map_err(|e| format!("{e:?}"))?;
    let secs = t0.elapsed().as_secs_f64();
    if format!("{single:?}") == format!("{rep:?}") {
        Ok(secs)
    } else {
        Err("metro report differs between 1 and 2 threads".into())
    }
}

fn timed(args: &Args) -> Report {
    let mut r = Report {
        threads: THREADS,
        ..Report::default()
    };
    let mut setup = PerCallTimer::new(|| {
        let cfg = metro_config(args.seed);
        let expected = expected_cell_tags(&cfg);
        (cfg, expected)
    });
    let cfg = metro_config(args.seed);
    let expected = expected_cell_tags(&cfg);
    // Warm-up: one untimed call, so the first timed one does not pay
    // for cold caches and fresh pages; its report is the reference.
    let mut first: Option<MetroReport> = None;
    match run_metro(&cfg, THREADS, &mut NullRecorder) {
        Ok(rep) => first = Some(rep),
        Err(e) => r.fail(TAGS as u64, format!("warm-up call: {e:?}")),
    }
    let mut lp = ClosedLoop::new(args.seconds, MIN_CALLS);
    while let Some(i) = lp.next_call() {
        for _ in 0..lp.samples_due(SETUP_REPS) {
            setup.sample();
        }
        match lp.time(TAGS as u64, || run_metro(&cfg, THREADS, &mut NullRecorder)) {
            Err(e) => r.fail(TAGS as u64, format!("call {i}: {e:?}")),
            Ok(rep) => {
                if let Err(why) = check_report(&cfg, &expected, &rep) {
                    r.fail(TAGS as u64, format!("call {i}: {why}"));
                }
                match &first {
                    None => first = Some(rep),
                    Some(f) => r.check(*f == rep, TAGS as u64, || {
                        format!("call {i}: report differs from the warm-up call")
                    }),
                }
            }
        }
    }
    let timed = lp.finish();
    r.median_metric("setup_s", setup.fill(SETUP_REPS));
    r.attempted = timed.ops;
    r.median_metric("ops_per_s", &timed.slice_rates);
    // A call inventories the whole metro, so an op's time is the call's
    // share per tag; the percentiles are over calls, too few for the
    // ≥ 10-beyond rule.
    r.median_metric("op_p50_us", &timed.op_us);
    r.tail_metric("op_p90_us", &timed.op_us, 90.0, timed.op_us.len(), 0);
    let Some(rep) = first else {
        r.fail(0, "no metro call succeeded".into());
        return r;
    };
    if let Err(why) = check_thread_invariance(&cfg, &rep) {
        r.fail(TAGS as u64, why);
    }
    record_sim(&mut r, false, sim_values(&rep));
    r
}

/// The `sim_*` values of one report.
fn sim_values(rep: &MetroReport) -> Result<Vec<(&'static str, f64)>, String> {
    let read_p50_us = rep.latency_percentile(50.0).ok_or("no tag was delivered")?;
    Ok(vec![
        ("sim_delivered_frac", rep.delivered as f64 / TAGS as f64),
        ("sim_goodput_kbps", rep.goodput_bps() / 1e3),
        ("sim_read_p50_s", read_p50_us / 1e6),
    ])
}

fn traced(args: &Args) -> Report {
    let mut r = Report {
        threads: THREADS,
        ..Report::default()
    };
    let cfg = metro_config(args.seed);
    let expected = expected_cell_tags(&cfg);
    let t0 = Instant::now();
    let plain = run_metro(&cfg, THREADS, &mut NullRecorder);
    let t_plain = t0.elapsed().as_secs_f64();
    let mut rec = MetricsRecorder::new();
    let t0 = Instant::now();
    let observed = run_metro(&cfg, THREADS, &mut rec);
    let t_obs = t0.elapsed().as_secs_f64();
    r.attempted = 2 * TAGS as u64;
    let rep = match (plain, observed) {
        (Ok(a), Ok(b)) => {
            r.check(a == b, TAGS as u64, || {
                "report differs with a recorder attached".into()
            });
            a
        }
        (a, b) => {
            r.fail(
                2 * TAGS as u64,
                format!("run_metro failed: {:?} / {:?}", a.err(), b.err()),
            );
            return r;
        }
    };
    if let Err(why) = check_report(&cfg, &expected, &rep) {
        r.fail(TAGS as u64, why);
    }
    match check_thread_invariance(&cfg, &rep) {
        Ok(t_single) => r.metric("sim.parallel_speedup", t_single / t_plain, None),
        Err(why) => r.fail(TAGS as u64, why),
    }

    record_sim(&mut r, true, sim_values(&rep));
    r.metric("net.grants", rep.grants as f64, None);
    r.metric("net.probe_rounds", rep.probe_rounds as f64, None);
    r.metric(
        "net.grant_yield",
        rep.delivered as f64 / rep.grants.max(1) as f64,
        None,
    );
    r.metric("net.collision_rate", rep.collision_rate(), None);
    r.metric("net.domains", rep.domains as f64, None);
    let total_air: f64 = rep
        .cell_summaries
        .iter()
        .map(|c| c.airtime.as_secs_f64())
        .sum();
    let busiest = rep
        .cell_summaries
        .iter()
        .map(|c| c.airtime.as_secs_f64())
        .fold(0.0, f64::max);
    r.metric(
        "net.busiest_cell_share",
        if total_air > 0.0 {
            busiest / total_air
        } else {
            0.0
        },
        None,
    );
    let events: u64 = KINDS.iter().map(|k| rec.count(k)).sum();
    r.metric("obs.events_per_tag", events as f64 / TAGS as f64, None);
    r.metric("obs.overhead_pct", overhead_pct(t_obs, t_plain), None);

    // Calendar queue hold model at one domain's depth: pop the earliest
    // wakeup, schedule the next one within a duty period.
    let depth = (TAGS / rep.domains.max(1)).max(1);
    let mut rng = input_rng(args.seed, 6);
    let period_ns = Duration::secs(4).as_nanos();
    let mut queue: CalendarQueue<u32> = CalendarQueue::with_width(Duration::millis(1));
    for t in 0..depth {
        queue.schedule(SimInstant::from_nanos(rng.below(period_ns)), t as u32);
    }
    let delays: Vec<u64> = (0..4096).map(|_| 1 + rng.below(period_ns)).collect();
    let mut next = 0;
    let hold_s = time_per_call(REPLAY_REPS, || {
        if let Some(ev) = queue.pop() {
            let at = SimInstant::from_nanos(ev.at.nanos() + delays[next % delays.len()]);
            queue.schedule(at, ev.payload);
        }
        next += 1;
    });
    r.check(queue.len() == depth, 0, || {
        "calendar replay lost events".into()
    });
    r.metric("sim.calendar_push_pop_ns", hold_s * 1e9, None);
    r
}
