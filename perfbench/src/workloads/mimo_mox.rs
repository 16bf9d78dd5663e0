//! `mimo_mox`: one `moxcatter::run_point` per op, 3 spatial streams with
//! MMSE equalisation (otherwise `MoxConfig::default()`), the tag
//! distance cycling over 1–7 m and the channel seed drawn per op.
//!
//! The traced run composes the point from the public calls `run_point`
//! makes, with spans around each, and checks it reproduces the point.

use std::time::Instant;

use witag::moxcatter::{run_point, MoxConfig, MoxPointResult, MoxStreamResult};
use witag_channel::{MimoLink, MimoLinkConfig, TagMode, TagSchedule};
use witag_mac::{
    aggregate, deaggregate, Addr, BlockAck, FrameKind, MacHeader, Mpdu, SubframeExtent,
};
use witag_obs::{BufferRecorder, NullRecorder};
use witag_phy::complex::Complex64;
use witag_phy::convolutional::{viterbi_decode_stream_into, ViterbiScratch};
use witag_phy::mimo::{estimate_into, MimoEqualiser, MAX_NSS};
use witag_phy::ppdu::{PhyConfig, Ppdu};
use witag_phy::receiver::{receive_mu_with_scratch, RxScratch};
use witag_phy::{transmit_mu, Mcs};
use witag_sim::geom::Floorplan;

use super::{
    input_rng, overhead_pct, save_spans, span_metrics, stage_coverage, SETUP_REPS, TAIL_WINDOW,
};
use crate::report::{ClosedLoop, PerCallTimer, Report};
use crate::stats::{highest_steady_percentile, median};
use crate::trace::Tracer;
use crate::Args;

const STREAMS: usize = 3;

/// Ops before the (distance, seed) schedule repeats.
const SCHEDULE_LEN: usize = 64;

/// Points composed from public calls and compared with `run_point` in
/// every untraced run.
const VERIFY_POINTS: u64 = 3;

/// Minimum ops of a run (the p90 needs ten beyond it).
const MIN_OPS: u64 = 200;

/// Minimum ops of a traced run (each runs the point three times).
const MIN_TRACE_OPS: u64 = 50;

/// Top-level stages of a composed point.
const STAGES: [&str; 8] = [
    "mac.aggregate",
    "phy.transmit_mu",
    "channel.mimo_link_new",
    "channel.post_eq_snr",
    "channel.mimo_apply",
    "phy.rx_mu",
    "mac.deaggregate",
    "mac.ba_build",
];

/// One op's inputs.
#[derive(Debug, Clone, Copy)]
struct PointInput {
    distance_m: f64,
    seed: u64,
}

/// The op schedule: distances 1, 2, …, 7 m in turn (starting at a
/// seed-dependent offset), each op with its own channel seed.
fn schedule(seed: u64) -> Vec<PointInput> {
    let mut rng = input_rng(seed, 3);
    let offset = rng.below(7) as usize;
    (0..SCHEDULE_LEN)
        .map(|i| PointInput {
            distance_m: 1.0 + ((i + offset) % 7) as f64,
            seed: rng.next_u64(),
        })
        .collect()
}

fn mox_config(seed: u64) -> MoxConfig {
    MoxConfig {
        streams: STREAMS,
        equaliser: MimoEqualiser::Mmse,
        seed,
        ..MoxConfig::default()
    }
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        traced(args)
    } else {
        timed(args)
    }
}

fn check_point(input: &PointInput, p: &MoxPointResult) -> Result<(), String> {
    let cfg = mox_config(input.seed);
    if p.streams.len() != cfg.streams || p.distance_m != input.distance_m {
        return Err(format!("{} streams at {} m", p.streams.len(), p.distance_m));
    }
    if p.mcs != Mcs::ht(8 * (cfg.streams - 1) + cfg.base_mcs) {
        return Err("wrong MCS".into());
    }
    if !(p.snr_min_db.is_finite() && p.snr_max_db.is_finite() && p.snr_min_db <= p.snr_max_db) {
        return Err(format!("SNR range {} .. {}", p.snr_min_db, p.snr_max_db));
    }
    for s in &p.streams {
        let n = cfg.subframes as u32;
        if s.subframes != n
            || s.acked > n
            || s.acked_idle > n
            || (!s.hit && s.acked != s.acked_idle)
        {
            return Err(format!("inconsistent stream outcome {s:?}"));
        }
    }
    Ok(())
}

fn same_point(a: &MoxPointResult, b: &MoxPointResult) -> bool {
    a.index == b.index
        && a.distance_m.to_bits() == b.distance_m.to_bits()
        && a.mcs == b.mcs
        && a.snr_min_db.to_bits() == b.snr_min_db.to_bits()
        && a.snr_max_db.to_bits() == b.snr_max_db.to_bits()
        && a.streams == b.streams
}

fn timed(args: &Args) -> Report {
    let mut r = Report {
        threads: 1,
        ..Report::default()
    };
    let mut setup = PerCallTimer::new(|| schedule(args.seed));
    let inputs = schedule(args.seed);
    let mut lp = ClosedLoop::new(args.seconds, MIN_OPS);
    while let Some(i) = lp.next_call() {
        for _ in 0..lp.samples_due(SETUP_REPS) {
            setup.sample();
        }
        let input = inputs[i as usize % SCHEDULE_LEN];
        let cfg = mox_config(input.seed);
        let p = lp.time(1, || {
            run_point(i as u32, input.distance_m, &cfg, &mut NullRecorder)
        });
        if let Err(why) = check_point(&input, &p) {
            r.fail(1, format!("point {i}: {why}"));
        }
    }
    let timed = lp.finish();
    r.median_metric("setup_s", setup.fill(SETUP_REPS));
    r.attempted = timed.calls;
    r.median_metric("ops_per_s", &timed.slice_rates);
    r.median_metric("op_p50_us", &timed.op_us);
    r.tail_metric("op_p90_us", &timed.op_us, 90.0, TAIL_WINDOW, 10);
    if let Some(p) = highest_steady_percentile(timed.op_us.len(), 10) {
        r.note("op_highest_steady_percentile", p.to_string());
    }

    r.attempted += VERIFY_POINTS;
    let mut composer = Composer::new();
    let mut tracer = Tracer::new();
    for (i, input) in inputs.iter().take(VERIFY_POINTS as usize).enumerate() {
        let cfg = mox_config(input.seed);
        let want = run_point(i as u32, input.distance_m, &cfg, &mut NullRecorder);
        let got = composer.point(i as u32, input.distance_m, &cfg, &mut tracer);
        r.check(same_point(&want, &got), 1, || {
            format!("composed point {i} differs from run_point")
        });
    }
    r
}

/// Reusable state of the composed point: receive scratch and the
/// kernel replays' buffers.
struct Composer {
    scratch: RxScratch,
    h: Vec<Complex64>,
    llrs: Vec<f64>,
    bits: Vec<u8>,
    viterbi: ViterbiScratch,
}

impl Composer {
    fn new() -> Composer {
        Composer {
            scratch: RxScratch::new(),
            h: Vec::new(),
            llrs: Vec::new(),
            bits: Vec::new(),
            viterbi: ViterbiScratch::default(),
        }
    }

    /// `run_point` composed from public calls (same construction and
    /// call order), each under a span.
    fn point(
        &mut self,
        index: u32,
        distance_m: f64,
        cfg: &MoxConfig,
        tr: &mut Tracer,
    ) -> MoxPointResult {
        let fp = Floorplan::paper_testbed();
        let client = Floorplan::los_client_position();
        let ap = Floorplan::ap_position();
        let frac = (distance_m / client.distance(ap)).clamp(0.0, 1.0);
        let tag_pos = client.lerp(ap, frac);
        let mcs = Mcs::ht(8 * (cfg.streams - 1) + cfg.base_mcs);
        let mut phy = PhyConfig::new(mcs);
        phy.equaliser = cfg.equaliser;

        let (psdus, extents) = tr.time("mac.aggregate", None, || stream_psdus(cfg));
        let tx = tr.time("phy.transmit_mu", None, || transmit_mu(&phy, &psdus));
        let ndbps1 = phy.ndbps() / cfg.streams;
        let schedule = TagSchedule {
            ltf: TagMode::Phase0,
            data: subframe_schedule(&extents, tx.symbols.len(), ndbps1),
        };
        let idle = TagSchedule::constant(TagMode::Phase0, tx.symbols.len());
        let link_cfg = MimoLinkConfig::rich_scattering();
        let new_link = |tr: &mut Tracer, c: MimoLinkConfig| {
            tr.time("channel.mimo_link_new", None, || {
                MimoLink::new(&fp, client, ap, Some(tag_pos), cfg.streams, c, cfg.seed)
            })
        };
        let mut link = new_link(tr, link_cfg.clone());
        let mut link_idle = new_link(tr, link_cfg);
        let layout = phy.layout();
        let snrs = tr.time("channel.post_eq_snr", None, || {
            link.post_eq_snr_db(cfg.streams, cfg.equaliser, layout)
        });
        let snr_min = snrs.iter().cloned().fold(f64::INFINITY, f64::min);
        let snr_max = snrs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let rx = tr.time("channel.mimo_apply", None, || {
            link.apply_ppdu(&tx, &schedule)
        });
        let rx_idle = tr.time("channel.mimo_apply", None, || {
            link_idle.apply_ppdu(&tx, &idle)
        });
        let decoded = self.receive(&rx, link.noise_var(), tr);
        let decoded_idle = self.receive(&rx_idle, link_idle.noise_var(), tr);

        let mut streams = Vec::with_capacity(cfg.streams);
        for s in 0..cfg.streams {
            let ssn = (64 * s) as u16;
            let mut bitmap = |bytes: &[u8]| {
                let outcomes = tr.time("mac.deaggregate", None, || deaggregate(bytes));
                tr.time("mac.ba_build", None, || {
                    BlockAck::from_outcomes(Addr::local(1), Addr::local(2), 0, ssn, &outcomes)
                })
            };
            let ba = bitmap(&decoded[s]);
            let ba_idle = bitmap(&decoded_idle[s]);
            streams.push(MoxStreamResult {
                subframes: cfg.subframes as u32,
                acked: ba.acked_count(),
                acked_idle: ba_idle.acked_count(),
                hit: ba.bitmap != ba_idle.bitmap,
            });
        }
        MoxPointResult {
            index,
            distance_m,
            mcs,
            snr_min_db: snr_min,
            snr_max_db: snr_max,
            streams,
        }
    }

    /// `receive_mu_with_scratch` under a `phy.rx_mu` span, followed by
    /// replays of its matrix kernels and per-stream Viterbi decodes as
    /// children. Returns each stream's PSDU bytes.
    fn receive(&mut self, rx: &Ppdu, noise_var: f64, tr: &mut Tracer) -> Vec<Vec<u8>> {
        let scratch = &mut self.scratch;
        let (id, decoded) = tr.span("phy.rx_mu", None, || {
            receive_mu_with_scratch(rx, noise_var, scratch)
        });
        let config = &rx.config;
        let layout = config.layout();
        let nss = config.mcs.spatial_streams;
        let h = &mut self.h;
        tr.time("phy.mimo_estimate", Some(id), || {
            estimate_into(&rx.ltfs, nss, layout.n_occupied(), h)
        });
        tr.time("phy.mimo_weights", Some(id), || {
            let mut w = [Complex64::ZERO; MAX_NSS * MAX_NSS];
            for &pos in layout.data_positions() {
                let hp = &h[pos * nss * nss..(pos + 1) * nss * nss];
                std::hint::black_box(config.equaliser.weights(hp, nss, noise_var, &mut w));
            }
        });
        // Per-stream decode replay: one mother-rate LLR stream per
        // spatial stream, of the length the stream's DATA field has
        // (the add-compare-select work does not depend on the values).
        let n_bits = rx.symbols.len() * (config.ndbps() / nss);
        if self.llrs.len() != 2 * n_bits {
            self.llrs = (0..2 * n_bits)
                .map(|k| if (k * 7 + k / 3) % 5 < 3 { 1.5 } else { -0.75 })
                .collect();
        }
        for _ in 0..nss {
            let (llrs, viterbi, bits) = (&self.llrs, &mut self.viterbi, &mut self.bits);
            tr.time("phy.rx_viterbi", Some(id), || {
                viterbi_decode_stream_into(llrs, n_bits, viterbi, bits)
            });
        }
        decoded.into_iter().map(|d| d.bytes).collect()
    }
}

/// The per-stream A-MPDUs `run_point` transmits: identical subframe
/// grids, stream `s` numbering its subframes from `64·s`.
fn stream_psdus(cfg: &MoxConfig) -> (Vec<Vec<u8>>, Vec<SubframeExtent>) {
    let mut psdus = Vec::with_capacity(cfg.streams);
    let mut extents = Vec::new();
    for s in 0..cfg.streams {
        let mpdus: Vec<Mpdu> = (0..cfg.subframes)
            .map(|i| {
                let seq = (64 * s + i) as u16;
                let mut header =
                    MacHeader::qos_null(Addr::local(2), Addr::local(1), Addr::local(2), seq);
                header.kind = FrameKind::QosData;
                Mpdu {
                    header,
                    payload: vec![0xA5u8; cfg.payload_bytes],
                }
            })
            .collect();
        let (psdu, ext) = aggregate(&mpdus);
        if s == 0 {
            extents = ext;
        }
        psdus.push(psdu);
    }
    (psdus, extents)
}

/// Tag mode per OFDM symbol: the 180° path on odd subframes, the
/// reference on even ones (the SERVICE field shifts bytes by 16 bits).
fn subframe_schedule(extents: &[SubframeExtent], n_symbols: usize, ndbps1: usize) -> Vec<TagMode> {
    (0..n_symbols)
        .map(|s| {
            let bit_lo = s * ndbps1;
            let k = extents
                .iter()
                .position(|e| bit_lo < 16 + 8 * e.end)
                .unwrap_or(extents.len() - 1);
            if k % 2 == 1 {
                TagMode::Phase180
            } else {
                TagMode::Phase0
            }
        })
        .collect()
}

fn traced(args: &Args) -> Report {
    let mut r = Report {
        threads: 1,
        ..Report::default()
    };
    let inputs = schedule(args.seed);
    let mut composer = Composer::new();
    let mut tracer = Tracer::new();
    let mut buf = BufferRecorder::new();
    let (mut untraced_us, mut obs_us) = (Vec::new(), Vec::new());
    let (mut hit, mut streams, mut acked, mut subframes) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds || i < MIN_TRACE_OPS {
        let input = inputs[i as usize % SCHEDULE_LEN];
        let cfg = mox_config(input.seed);
        let idx = i as u32;
        let plain = || {
            let t0 = Instant::now();
            let p = run_point(idx, input.distance_m, &cfg, &mut NullRecorder);
            (t0.elapsed().as_secs_f64() * 1e6, p)
        };
        let with_obs = |buf: &mut BufferRecorder| {
            let t0 = Instant::now();
            let p = run_point(idx, input.distance_m, &cfg, buf);
            (t0.elapsed().as_secs_f64() * 1e6, p)
        };
        let ((dt_u, want), (dt_o, observed)) = if i.is_multiple_of(2) {
            let a = plain();
            (a, with_obs(&mut buf))
        } else {
            let b = with_obs(&mut buf);
            (plain(), b)
        };
        untraced_us.push(dt_u);
        obs_us.push(dt_o);
        tracer.set_op(i);
        let got = composer.point(idx, input.distance_m, &cfg, &mut tracer);
        r.check(same_point(&want, &got), 1, || {
            format!("composed point {i} differs from run_point")
        });
        r.check(same_point(&want, &observed), 1, || {
            format!("point {i} differs with a recorder attached")
        });
        if let Err(why) = check_point(&input, &want) {
            r.fail(1, format!("point {i}: {why}"));
        }
        hit += u64::from(want.streams_hit());
        streams += want.streams.len() as u64;
        acked += want.streams.iter().map(|s| u64::from(s.acked)).sum::<u64>();
        subframes += want
            .streams
            .iter()
            .map(|s| u64::from(s.subframes))
            .sum::<u64>();
        i += 1;
    }
    r.attempted = i;

    span_metrics(
        &mut r,
        tracer.spans(),
        &[
            ("channel.mimo_link_new_us", "channel.mimo_link_new", false),
            ("phy.transmit_mu_us", "phy.transmit_mu", false),
            ("channel.mimo_apply_us", "channel.mimo_apply", false),
            ("channel.post_eq_snr_us", "channel.post_eq_snr", false),
            ("mac.aggregate_us", "mac.aggregate", false),
            ("phy.rx_mu_us", "phy.rx_mu", false),
            ("phy.mimo_estimate_us", "phy.mimo_estimate", false),
            ("phy.mimo_weights_us", "phy.mimo_weights", false),
            ("phy.rx_viterbi_us", "phy.rx_viterbi", false),
            ("phy.rx_mu_rest_us", "phy.rx_mu", true),
            ("mac.deaggregate_us", "mac.deaggregate", false),
            ("mac.ba_build_us", "mac.ba_build", false),
        ],
    );
    r.metric(
        "phy.streams_hit_frac",
        hit as f64 / streams.max(1) as f64,
        None,
    );
    r.metric(
        "mac.subframe_ok_frac",
        acked as f64 / subframes.max(1) as f64,
        None,
    );
    stage_coverage(&mut r, tracer.spans(), &STAGES, &untraced_us);
    let op_p50 = median(&untraced_us).unwrap_or(0.0);
    r.metric(
        "obs.overhead_pct",
        overhead_pct(median(&obs_us).unwrap_or(0.0), op_p50),
        None,
    );
    r.metric(
        "obs.events_per_op",
        buf.events().len() as f64 / i.max(1) as f64,
        None,
    );
    save_spans(&mut r, &tracer, args);
    r
}
