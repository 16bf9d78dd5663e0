//! `query_round`: one `Experiment::run_round` on the paper's Figure 5
//! testbed with the tag 3 m from the client, default link (ambient
//! bursts and block-ACK loss on), tag bits generated by the benchmark.
//!
//! The traced run composes the same round from the public calls the
//! experiment makes (`Mirror`), on the same inputs, with a span around
//! every call, and checks that it reproduces `run_round` bit for bit.

use std::time::Instant;

use witag::experiment::{Experiment, ExperimentConfig, ExperimentStats, RoundResult};
use witag::query::QueryDesign;
use witag::reader::{read_tag_bits, BitErrors, TagReadout};
use witag_channel::{Link, TagSchedule};
use witag_mac::access::Contention;
use witag_mac::header::{Addr, FrameKind, MacHeader};
use witag_mac::{aggregate, deaggregate, BlockAck, Mpdu, Security};
use witag_obs::{BufferRecorder, Recorder};
use witag_phy::airtime::{block_ack_airtime, LegacyRate};
use witag_phy::complex::Complex64;
use witag_phy::convolutional::{depuncture_into, viterbi_decode_stream_into, ViterbiScratch};
use witag_phy::interleaver::{InterleaverDims, InterleaverPerm};
use witag_phy::legacy::{legacy_receive_with_scratch, legacy_transmit};
use witag_phy::modulation::{axis_scale, demap_symbol_into};
use witag_phy::params::timing;
use witag_phy::ppdu::{transmit, Ppdu};
use witag_phy::receiver::{receive_with_scratch, RxScratch};
use witag_sim::time::{Duration, Instant as SimInstant};
use witag_sim::Rng;
use witag_tag::device::{Tag, TagConfig};
use witag_tag::envelope::{EnergyTrace, EnvelopeDetector};

use super::{
    input_rng, overhead_pct, record_sim, save_spans, span_metrics, stage_coverage, SETUP_REPS,
    TAIL_WINDOW,
};
use crate::report::{ClosedLoop, PerCallTimer, Report};
use crate::stats::{highest_steady_percentile, median};
use crate::trace::Tracer;
use crate::Args;

/// Tag distance from the client, metres (BER ≈ 1.4 %: both landed and
/// failed tag flips occur).
const DISTANCE_M: f64 = 3.0;

/// Consecutive rounds each channel realisation (one `Experiment`)
/// serves before the next one takes over.
const ROUNDS_PER_EXPERIMENT: u64 = 10;

/// Channel realisations the workload cycles through. They are part of
/// the workload's definition, not of its seed: errors are bursty
/// (about 85 % of rounds are error-free), so BER over 1500 rounds of
/// seed-drawn channels varies by a third from seed to seed. `--seed`
/// draws the tag's bits instead.
const EXPERIMENTS: u64 = 150;

/// Seed of the fixed set of channel realisations.
const SCENARIO_SEED: u64 = 0x0057_17A6;

/// Rounds the `sim_*` metrics are computed over: a fixed count, so they
/// repeat exactly for a seed whatever the host's speed.
const SIM_ROUNDS: u64 = ROUNDS_PER_EXPERIMENT * EXPERIMENTS;

/// Rounds composed from public calls and compared with `run_round` in
/// every untraced run.
const VERIFY_ROUNDS: u64 = 12;

/// Top-level stages of a composed round, in call order.
const STAGES: [&str; 11] = [
    "core.query_build",
    "tag.respond",
    "channel.apply_ppdu",
    "phy.rx",
    "mac.deaggregate",
    "crypto.decrypt",
    "mac.ba_build",
    "phy.legacy_tx",
    "channel.apply_legacy",
    "phy.legacy_rx",
    "core.reader",
];

pub fn run(args: &Args) -> Report {
    if args.trace {
        traced(args)
    } else {
        timed(args)
    }
}

/// Configuration of channel realisation `k` (cyclic): the Figure 5
/// scenario with the tag at 3 m, seeded the way
/// `Experiment::run_parallel` seeds its shards.
fn experiment_config(k: u64) -> ExperimentConfig {
    let shard_seed = Rng::seed_from_u64(SCENARIO_SEED)
        .fork(k % EXPERIMENTS)
        .next_u64();
    ExperimentConfig::fig5(DISTANCE_M, shard_seed)
}

fn random_bits(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
}

/// Check one round's output against its input; returns why it is wrong.
fn check_round(bits: &[u8], res: &RoundResult) -> Result<(), String> {
    let n = bits.len();
    if res.sent.len() != n || res.readout.bits.len() != n || res.errors.total != n {
        return Err(format!(
            "round lengths: sent {} readout {} scored {} of {n} bits",
            res.sent.len(),
            res.readout.bits.len(),
            res.errors.total
        ));
    }
    if res.sent != bits {
        return Err("the tag committed other bits than it was given".into());
    }
    if !res.ba_lost && res.errors != BitErrors::compare(&res.sent, &res.readout.bits) {
        return Err("bit errors disagree with the readout".into());
    }
    Ok(())
}

fn same_round(a: &RoundResult, b: &RoundResult) -> bool {
    a.sent == b.sent
        && a.readout == b.readout
        && a.errors == b.errors
        && a.triggered == b.triggered
        && a.ba_lost == b.ba_lost
        && a.airtime == b.airtime
}

fn fold(stats: &mut ExperimentStats, res: &RoundResult) {
    stats.rounds += 1;
    stats.errors.merge(&res.errors);
    stats.elapsed += res.airtime;
    stats.missed_triggers += usize::from(!res.triggered);
    stats.lost_block_acks += usize::from(res.ba_lost);
}

/// The `sim_*` values of the rounds folded into `stats`.
fn sim_values(stats: &ExperimentStats) -> Vec<(&'static str, f64)> {
    vec![
        ("sim_tag_ber", stats.ber()),
        ("sim_tag_kbps", stats.throughput_kbps()),
    ]
}

fn timed(args: &Args) -> Report {
    let mut r = Report {
        threads: 1,
        ..Report::default()
    };
    let cfg0 = experiment_config(0);
    let mut setup = PerCallTimer::new(|| Experiment::new(cfg0.clone()));
    let mut bits_rng = input_rng(args.seed, 1);
    let mut stats = ExperimentStats::default();
    let mut exp: Option<Experiment> = None;
    let mut decrypt_failures = 0;
    let mut lp = ClosedLoop::new(args.seconds, SIM_ROUNDS);
    while let Some(i) = lp.next_call() {
        for _ in 0..lp.samples_due(SETUP_REPS) {
            setup.sample();
        }
        if i.is_multiple_of(ROUNDS_PER_EXPERIMENT) {
            decrypt_failures += exp.as_ref().map_or(0, |e| e.decrypt_failures);
            match Experiment::new(experiment_config(i / ROUNDS_PER_EXPERIMENT)) {
                Ok(e) => exp = Some(e),
                Err(e) => {
                    r.fail(1, format!("Experiment::new: {e}"));
                    break;
                }
            }
        }
        let Some(exp) = exp.as_mut() else { break };
        let bits = random_bits(&mut bits_rng, exp.design.bits_per_query());
        let res = lp.time(1, || exp.run_round(&bits));
        if let Err(why) = check_round(&bits, &res) {
            r.fail(1, format!("round {i}: {why}"));
        }
        if i < SIM_ROUNDS {
            fold(&mut stats, &res);
        }
    }
    decrypt_failures += exp.as_ref().map_or(0, |e| e.decrypt_failures);
    let timed = lp.finish();
    r.median_metric("setup_s", setup.fill(SETUP_REPS));
    r.attempted = timed.calls.max(1);
    r.check(decrypt_failures == 0, decrypt_failures, || {
        format!("{decrypt_failures} FCS-valid MPDUs failed to decrypt")
    });
    r.median_metric("ops_per_s", &timed.slice_rates);
    r.median_metric("op_p50_us", &timed.op_us);
    r.tail_metric("op_p90_us", &timed.op_us, 90.0, TAIL_WINDOW, 10);
    if let Some(p) = highest_steady_percentile(timed.op_us.len(), 10) {
        r.note("op_highest_steady_percentile", p.to_string());
    }
    r.check(stats.rounds as u64 == SIM_ROUNDS, 0, || {
        "too few rounds for the sim_* metrics".into()
    });
    record_sim(&mut r, false, Ok(sim_values(&stats)));
    r.note("sim_rounds", stats.rounds.to_string());

    // The composed round must reproduce run_round on the same inputs.
    r.attempted += VERIFY_ROUNDS;
    if let Err(why) = verify_composition(&cfg0, args.seed, VERIFY_ROUNDS) {
        r.fail(VERIFY_ROUNDS, why);
    }
    r
}

/// Run `rounds` rounds through both `run_round` and the composed
/// round; any difference is an error.
fn verify_composition(cfg: &ExperimentConfig, seed: u64, rounds: u64) -> Result<(), String> {
    let mut exp = Experiment::new(cfg.clone()).map_err(|e| e.to_string())?;
    let mut mirror = Mirror::new(cfg.clone())?;
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut rng = input_rng(seed, 2);
    let n_bits = exp.design.bits_per_query();
    for i in 0..rounds {
        let bits = random_bits(&mut rng, n_bits);
        let want = exp.run_round(&bits);
        let got = mirror.round(&bits, &mut tracer, &mut counts);
        if !same_round(&want, &got) {
            return Err(format!("composed round {i} differs from run_round"));
        }
    }
    mirror.check_transmit_replay()
}

/// Per-run outcome counts of the composed rounds.
#[derive(Debug, Default)]
struct Counts {
    subframes_sent: u64,
    subframes_ok: u64,
    triggered: u64,
    ba_lost: u64,
    rounds: u64,
}

/// The experiment's round composed from public calls. Construction and
/// the per-round call sequence follow `Experiment::new` and
/// `Experiment::run_round` for a configuration without fault plan,
/// cross traffic or energy model (the Figure 5 default), so the results
/// are bit-identical.
struct Mirror {
    design: QueryDesign,
    cfg: ExperimentConfig,
    link: Link,
    reverse_link: Link,
    tag: Tag,
    tx_sec: Security,
    rx_sec: Security,
    contention: Contention,
    rng: Rng,
    now: SimInstant,
    seq: u16,
    scratch: RxScratch,
    decrypt_failures: u64,
    /// The last round's PSDU and PPDU (for the transmit-replay check).
    last_psdu: Vec<u8>,
    last_ppdu: Option<Ppdu>,
    replay: Replay,
}

/// Working memory of the receive-kernel replays.
struct Replay {
    perm: InterleaverPerm,
    eq: Vec<Complex64>,
    scales: Vec<f64>,
    llrs: Vec<f64>,
    coded: Vec<f64>,
    soft: Vec<f64>,
    bits: Vec<u8>,
    viterbi: ViterbiScratch,
}

impl Mirror {
    fn new(cfg: ExperimentConfig) -> Result<Mirror, String> {
        if cfg.cross_traffic.is_some()
            || cfg.energy_capacity_uj.is_some()
            || cfg.signature_override.is_some()
            || !cfg.model_ba_loss
            || cfg.origin != witag::QueryOrigin::Client
            || cfg.security != witag::SecurityMode::Open
        {
            return Err("the composed round covers the Figure 5 default configuration only".into());
        }
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let link = Link::new(
            &cfg.floorplan,
            cfg.client,
            cfg.ap,
            Some(cfg.tag),
            cfg.link.clone(),
            rng.next_u64(),
        );
        let reverse_link = Link::new(
            &cfg.floorplan,
            cfg.ap,
            cfg.client,
            Some(cfg.tag),
            cfg.link.clone(),
            rng.next_u64(),
        );
        let design = QueryDesign::best_in(
            &link,
            &cfg.clock,
            cfg.n_subframes,
            cfg.guard_subframes,
            cfg.design_space,
        )
        .map_err(|e| e.to_string())?;
        let tag = Tag::new(TagConfig {
            oscillator: cfg.clock,
            temperature_delta: cfg.temperature_delta,
            detector: EnvelopeDetector::default(),
            profile: design.tag_profile(),
            encoding: cfg.encoding,
        });
        let mut tx_sec = Security::Open;
        design
            .build_query(Addr::local(1), Addr::local(2), &mut tx_sec, 0)
            .map_err(|e| e.to_string())?;
        let n_bpscs = design.phy.mcs.modulation.bits_per_subcarrier();
        let perm = InterleaverPerm::new(InterleaverDims::ht(design.phy.bandwidth, n_bpscs));
        Ok(Mirror {
            design,
            cfg,
            link,
            reverse_link,
            tag,
            tx_sec,
            rx_sec: Security::Open,
            contention: Contention::new(),
            rng,
            now: SimInstant::ZERO,
            seq: 0,
            scratch: RxScratch::new(),
            decrypt_failures: 0,
            last_psdu: Vec::new(),
            last_ppdu: None,
            replay: Replay {
                perm,
                eq: Vec::new(),
                scales: Vec::new(),
                llrs: Vec::new(),
                coded: Vec::new(),
                soft: Vec::new(),
                bits: Vec::new(),
                viterbi: ViterbiScratch::default(),
            },
        })
    }

    /// The query's PSDU, built the way `QueryDesign::build_query` builds
    /// it for an open network.
    fn query_psdu(&self) -> Vec<u8> {
        let (client, ap) = (Addr::local(1), Addr::local(2));
        let payload = vec![0xA5u8; self.design.payload_len()];
        let mpdus: Vec<Mpdu> = (0..self.design.n_subframes)
            .map(|i| {
                let mut header = MacHeader::qos_null(ap, client, ap, (self.seq + i as u16) % 4096);
                header.kind = FrameKind::QosData;
                Mpdu {
                    header,
                    payload: payload.clone(),
                }
            })
            .collect();
        aggregate(&mpdus).0
    }

    /// `ppdu::transmit` on the last round's PSDU must equal the PPDU
    /// `build_query` produced — the replayed child is the real call.
    fn check_transmit_replay(&self) -> Result<(), String> {
        let Some(built) = &self.last_ppdu else {
            return Err("no round ran".into());
        };
        let replayed = transmit(&self.design.phy, &self.last_psdu);
        let same = replayed.psdu_len == built.psdu_len
            && replayed.symbols.len() == built.symbols.len()
            && replayed
                .symbols
                .iter()
                .zip(&built.symbols)
                .all(|(a, b)| a.streams == b.streams);
        if same {
            Ok(())
        } else {
            Err("replayed transmit differs from build_query's PPDU".into())
        }
    }

    fn round(&mut self, bits: &[u8], tr: &mut Tracer, counts: &mut Counts) -> RoundResult {
        let design = &self.design;
        let profile = design.tag_profile();

        // Contention and the marker timeline.
        let contention = timing::DIFS + self.contention.draw_backoff(&mut self.rng);
        let mut trace = EnergyTrace::new();
        let incident = self.link.tag_incident_dbm(1.0);
        self.now += contention;
        let mut t = self.now;
        for (i, &burst) in profile.signature.bursts.iter().enumerate() {
            trace.push(t, t + burst, incident);
            t += burst;
            if i != profile.signature.bursts.len() - 1 {
                t += timing::SIFS;
            }
        }
        t += profile.marker_gap;
        let ppdu_start = t;

        // Query build, with the PHY transmit replayed as its child.
        let psdu = self.query_psdu();
        let tx_sec = &mut self.tx_sec;
        let seq = self.seq;
        let (build_id, built) = tr.span("core.query_build", None, || {
            design.build_query(Addr::local(1), Addr::local(2), tx_sec, seq)
        });
        let built = built.expect("the query geometry was validated at construction");
        let replayed = tr.time("phy.transmit", Some(build_id), || {
            transmit(&design.phy, &psdu)
        });
        std::hint::black_box(replayed);
        let ppdu_airtime = built.ppdu.airtime();
        trace.push(ppdu_start, ppdu_start + ppdu_airtime, incident);

        // Tag: trigger match, planning and the symbol schedule.
        let reference = self.cfg.encoding.reference();
        let n_symbols = built.ppdu.symbols.len();
        let tag = &mut self.tag;
        let (schedule, sent_bits, triggered) = tr.time("tag.respond", None, || {
            tag.push_bits(bits);
            match tag.respond(&trace) {
                Some(p) => {
                    let s = p.to_tag_schedule(ppdu_start, &design.phy, n_symbols, reference);
                    (s, p.bits, true)
                }
                None => {
                    tag.drop_pending(bits.len());
                    (
                        TagSchedule::constant(reference, n_symbols),
                        bits.to_vec(),
                        false,
                    )
                }
            }
        });

        // Forward channel and receive chain.
        let noise_var = self.link.noise_var();
        let link = &mut self.link;
        let rx = tr.time("channel.apply_ppdu", None, || {
            link.apply_ppdu(&built.ppdu, &schedule)
        });
        let scratch = &mut self.scratch;
        let (rx_id, decoded) = tr.span("phy.rx", None, || {
            receive_with_scratch(&rx, noise_var, scratch)
        });
        replay_rx_kernels(&mut self.replay, &rx, noise_var, tr, rx_id);

        // MAC: de-aggregation, the security check, block-ACK assembly.
        let reverse_noise = self.reverse_link.noise_var();
        let outcomes = tr.time("mac.deaggregate", None, || deaggregate(&decoded.bytes));
        let rx_sec = &mut self.rx_sec;
        let failures = tr.time("crypto.decrypt", None, || {
            outcomes
                .iter()
                .filter_map(|o| o.mpdu.as_ref())
                .filter(|m| rx_sec.decrypt(&m.header, &m.payload).is_err())
                .count() as u64
        });
        self.decrypt_failures += failures;
        let (ba, ba_bytes) = tr.time("mac.ba_build", None, || {
            let ba = BlockAck::from_outcomes(Addr::local(1), Addr::local(2), 0, seq, &outcomes);
            let bytes = ba.to_bytes();
            (ba, bytes)
        });

        // The block ACK's trip back over the reverse channel.
        let tx = tr.time("phy.legacy_tx", None, || {
            legacy_transmit(LegacyRate::M24, &ba_bytes)
        });
        let reverse_link = &mut self.reverse_link;
        let lrx = tr.time("channel.apply_legacy", None, || {
            reverse_link.apply_legacy(&tx, reference)
        });
        let scratch = &mut self.scratch;
        let lbytes = tr.time("phy.legacy_rx", None, || {
            legacy_receive_with_scratch(&lrx, reverse_noise, scratch)
        });

        // The client reads the tag's bits from the bitmap it received.
        let (n_sub, guard) = (design.n_subframes, design.guard_subframes);
        let (readout, errors, ba_lost) = tr.time("core.reader", None, || {
            let (seen, lost) = match BlockAck::from_bytes(&lbytes) {
                Some(rx_ba) => (rx_ba, false),
                None => (ba, true),
            };
            let readout: TagReadout = read_tag_bits(&seen, n_sub, guard);
            let errors = if lost {
                BitErrors {
                    total: sent_bits.len(),
                    false_zeros: sent_bits.iter().filter(|&&b| b == 1).count(),
                    false_ones: sent_bits.iter().filter(|&&b| b == 0).count(),
                }
            } else {
                BitErrors::compare(&sent_bits, &readout.bits)
            };
            (readout, errors, lost)
        });
        self.contention.on_success();

        // Advance simulated time across the whole exchange.
        let ba_air = block_ack_airtime(LegacyRate::M24);
        let markers = design.marker_airtime() + design.marker_gap;
        let round_air: Duration = contention + markers + ppdu_airtime + timing::SIFS + ba_air;
        self.now = ppdu_start + ppdu_airtime + timing::SIFS + ba_air;
        self.link.advance(round_air);
        self.reverse_link.advance(round_air);
        self.seq = (self.seq + n_sub as u16) % 4096;

        counts.rounds += 1;
        counts.subframes_sent += n_sub as u64;
        counts.subframes_ok += outcomes.iter().filter(|o| o.mpdu.is_some()).count() as u64;
        counts.triggered += u64::from(triggered);
        counts.ba_lost += u64::from(ba_lost);
        self.last_psdu = psdu;
        self.last_ppdu = Some(built.ppdu);

        RoundResult {
            sent: sent_bits,
            readout,
            errors,
            triggered,
            ba_lost,
            airtime: round_air,
        }
    }
}

/// Replay the receive chain's three kernels on this round's received
/// PPDU (same MCS, rate and length), each under its own child span of
/// `phy.rx`: the soft demapper over every DATA symbol, deinterleave and
/// depuncture, then the Viterbi decode of the whole DATA field. The
/// demapper's inputs are the zero-forced data tones; their preparation
/// is not timed.
fn replay_rx_kernels(rp: &mut Replay, rx: &Ppdu, noise_var: f64, tr: &mut Tracer, parent: u32) {
    let config = &rx.config;
    let layout = config.layout();
    let modulation = config.mcs.modulation;
    let h = &rx.ltfs[0].streams[0];
    rp.eq.clear();
    rp.scales.clear();
    for sym in &rx.symbols {
        for &pos in layout.data_positions() {
            let hv = h[pos];
            rp.eq.push(sym.streams[0][pos] / hv);
            rp.scales
                .push(axis_scale(modulation, noise_var / hv.norm_sqr().max(1e-9)));
        }
    }
    let n_data = layout.data_positions().len();
    let Replay {
        perm,
        eq,
        scales,
        llrs,
        coded,
        soft,
        bits,
        viterbi,
    } = rp;
    tr.time("phy.rx_demap", Some(parent), || {
        llrs.clear();
        for (e, s) in eq.chunks_exact(n_data).zip(scales.chunks_exact(n_data)) {
            demap_symbol_into(e, modulation, s, llrs);
        }
    });
    let n_total = rx.symbols.len() * config.ndbps();
    let n_cbps = config.ncbps();
    tr.time("phy.rx_deinterleave_depuncture", Some(parent), || {
        coded.clear();
        for sym in llrs.chunks_exact(n_cbps) {
            perm.deinterleave_append(sym, coded);
        }
        depuncture_into(coded, config.mcs.code_rate, 2 * n_total, soft);
    });
    tr.time("phy.rx_viterbi", Some(parent), || {
        viterbi_decode_stream_into(soft, n_total, viterbi, bits);
    });
    std::hint::black_box(&rp.bits);
}

fn traced(args: &Args) -> Report {
    let mut r = Report {
        threads: 1,
        ..Report::default()
    };
    let mut scenario: Option<(Experiment, Experiment, Mirror)> = None;
    let mut rng = input_rng(args.seed, 1);
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut buf = BufferRecorder::new();
    let mut decrypt_failures = 0u64;
    let (mut untraced_us, mut obs_us) = (Vec::new(), Vec::new());
    let (mut plain_stats, mut composed_stats) =
        (ExperimentStats::default(), ExperimentStats::default());
    let start = Instant::now();
    let mut i = 0u64;
    // At least the rounds the sim_* metrics are computed over, on the
    // timed run's inputs, so the two runs' values must be equal.
    while start.elapsed().as_secs_f64() < args.seconds || i < SIM_ROUNDS {
        if i.is_multiple_of(ROUNDS_PER_EXPERIMENT) {
            if let Some((_, _, m)) = scenario.take() {
                decrypt_failures += m.decrypt_failures;
            }
            let cfg = experiment_config(i / ROUNDS_PER_EXPERIMENT);
            match (
                Experiment::new(cfg.clone()),
                Experiment::new(cfg.clone()),
                Mirror::new(cfg),
            ) {
                (Ok(a), Ok(b), Ok(m)) => scenario = Some((a, b, m)),
                _ => {
                    r.fail(1, "scenario construction failed".into());
                    break;
                }
            }
        }
        let Some((exp, obs_exp, mirror)) = scenario.as_mut() else {
            break;
        };
        let bits = random_bits(&mut rng, exp.design.bits_per_query());
        // Alternate which untraced variant runs first, so neither
        // always finds the caches the other left.
        let mut run_plain = || {
            let t0 = Instant::now();
            let res = exp.run_round(&bits);
            (t0.elapsed().as_secs_f64() * 1e6, res)
        };
        let mut run_obs = || {
            let t0 = Instant::now();
            let res = obs_exp.run_round_obs(&bits, &mut buf as &mut dyn Recorder);
            (t0.elapsed().as_secs_f64() * 1e6, res)
        };
        let ((dt_u, want), (dt_o, with_obs)) = if i.is_multiple_of(2) {
            let a = run_plain();
            (a, run_obs())
        } else {
            let b = run_obs();
            (run_plain(), b)
        };
        untraced_us.push(dt_u);
        obs_us.push(dt_o);
        tracer.set_op(i);
        let got = mirror.round(&bits, &mut tracer, &mut counts);
        r.check(same_round(&want, &got), 1, || {
            format!("composed round {i} differs from run_round")
        });
        r.check(same_round(&want, &with_obs), 1, || {
            format!("round {i} differs with a recorder attached")
        });
        if let Err(why) = check_round(&bits, &want) {
            r.fail(1, format!("round {i}: {why}"));
        }
        if i < SIM_ROUNDS {
            fold(&mut plain_stats, &want);
            fold(&mut composed_stats, &got);
        }
        i += 1;
    }
    r.attempted = i.max(1);
    if let Some((_, _, m)) = &scenario {
        decrypt_failures += m.decrypt_failures;
        if let Err(why) = m.check_transmit_replay() {
            r.fail(0, why);
        }
    }
    r.check(
        plain_stats.ber().to_bits() == composed_stats.ber().to_bits()
            && plain_stats.throughput_kbps().to_bits()
                == composed_stats.throughput_kbps().to_bits(),
        0,
        || "traced and untraced sim_* values differ".into(),
    );
    r.check(plain_stats.rounds as u64 == SIM_ROUNDS, 0, || {
        "too few rounds for the sim_* metrics".into()
    });
    record_sim(&mut r, true, Ok(sim_values(&plain_stats)));

    span_metrics(
        &mut r,
        tracer.spans(),
        &[
            ("core.query_build_us", "core.query_build", true),
            ("phy.transmit_us", "phy.transmit", false),
            ("tag.respond_us", "tag.respond", false),
            ("channel.apply_ppdu_us", "channel.apply_ppdu", false),
            ("phy.rx_us", "phy.rx", false),
            ("mac.deaggregate_us", "mac.deaggregate", false),
            ("crypto.decrypt_us", "crypto.decrypt", false),
            ("mac.ba_build_us", "mac.ba_build", false),
            ("phy.legacy_tx_us", "phy.legacy_tx", false),
            ("channel.apply_legacy_us", "channel.apply_legacy", false),
            ("phy.legacy_rx_us", "phy.legacy_rx", false),
            ("core.reader_us", "core.reader", false),
            ("phy.rx_demap_us", "phy.rx_demap", false),
            (
                "phy.rx_deinterleave_depuncture_us",
                "phy.rx_deinterleave_depuncture",
                false,
            ),
            ("phy.rx_viterbi_us", "phy.rx_viterbi", false),
            ("phy.rx_rest_us", "phy.rx", true),
        ],
    );
    let sent = counts.subframes_sent.max(1) as f64;
    let rounds = counts.rounds.max(1) as f64;
    r.metric(
        "mac.subframe_ok_frac",
        counts.subframes_ok as f64 / sent,
        None,
    );
    r.metric("tag.trigger_frac", counts.triggered as f64 / rounds, None);
    r.metric("mac.ba_lost_frac", counts.ba_lost as f64 / rounds, None);
    r.metric("crypto.decrypt_failures", decrypt_failures as f64, None);
    r.check(decrypt_failures == 0, decrypt_failures, || {
        "FCS-valid MPDUs failed to decrypt".into()
    });
    stage_coverage(&mut r, tracer.spans(), &STAGES, &untraced_us);
    let op_p50 = median(&untraced_us).unwrap_or(0.0);
    r.metric(
        "obs.overhead_pct",
        overhead_pct(median(&obs_us).unwrap_or(0.0), op_p50),
        None,
    );
    r.metric(
        "obs.events_per_op",
        buf.events().len() as f64 / rounds,
        None,
    );
    save_spans(&mut r, &tracer, args);
    r
}
