//! The link channel model: geometric multipath + switchable tag reflector
//! + noise + ambient interference.
//!
//! A [`Link`] models one TX→RX wireless channel inside a floorplan as a
//! sum of rays:
//!
//! * the **direct path**, with free-space loss plus any obstacle
//!   penetration losses along the straight line (NLOS),
//! * **environmental rays** bounced off floorplan reflectors (walls,
//!   cabinets) — these give the channel its frequency selectivity and,
//!   via slow phase drift, its temporal dynamics (people moving around,
//!   coherence time ≈ 100 ms per the paper's footnote 2),
//! * optionally the **tag ray**: TX → tag → RX, whose complex amplitude
//!   follows the radar-equation 1/(Ds·Dr) field dependence (paper §6.2)
//!   and whose sign/presence is switched *per OFDM symbol* by a
//!   [`TagSchedule`] — this is the backscatter modulation.
//!
//! Everything is evaluated per subcarrier: `h[k] = Σ_p a_p·e^{−j2πf_k τ_p}`,
//! which is what makes the tag's contribution frequency-selective (a real
//! channel change) rather than a common phase rotation that pilot tracking
//! could undo.

use crate::pathloss::{
    backscatter_amplitude, db_to_linear, dbm_to_mw, freespace_amplitude, noise_floor_dbm,
    SPEED_OF_LIGHT,
};
use std::rc::Rc;
use witag_phy::complex::{c64, Complex64};
use witag_phy::mcs::Mcs;
use witag_phy::params::SubcarrierLayout;
use witag_phy::ppdu::{OfdmSymbol, Ppdu};
use witag_sim::geom::{Floorplan, Point2};
use witag_sim::rng::Rng;
use witag_sim::time::Duration;

/// The state of the tag's RF switch during one OFDM symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TagMode {
    /// No tag present at all.
    #[default]
    Absent,
    /// Antenna open-circuited: non-reflective (paper §5.1).
    OpenCircuit,
    /// Antenna short-circuited: reflective (paper §5.1).
    ShortCircuit,
    /// Always-reflecting tag, 0° phase path (paper §5.2).
    Phase0,
    /// Always-reflecting tag, 180° phase path (paper §5.2).
    Phase180,
}

impl TagMode {
    /// Multiplier applied to the geometric tag ray.
    pub(crate) fn coefficient(self) -> Complex64 {
        match self {
            TagMode::Absent | TagMode::OpenCircuit => Complex64::ZERO,
            TagMode::ShortCircuit | TagMode::Phase0 => Complex64::ONE,
            TagMode::Phase180 => c64(-1.0, 0.0),
        }
    }
}

/// Per-symbol tag switch states for one PPDU.
#[derive(Debug, Clone)]
pub struct TagSchedule {
    /// Mode during the preamble / LTF (channel estimation window). WiTAG
    /// holds a *constant* state here so the estimate is clean (paper §5.1:
    /// non-reflective during estimation; §5.2: reflecting at 0°).
    pub ltf: TagMode,
    /// Mode during each DATA symbol.
    pub data: Vec<TagMode>,
}

impl TagSchedule {
    /// A schedule with the same mode everywhere (tag idle / absent).
    pub fn constant(mode: TagMode, n_symbols: usize) -> Self {
        TagSchedule {
            ltf: mode,
            data: vec![mode; n_symbols],
        }
    }
}

/// Channel responses memoised for one `apply_ppdu*` call, keyed by the
/// tag switch states that produced them.
///
/// A tag holds one of a few switch states per OFDM symbol, so a PPDU
/// meets only a few distinct channels; each is computed once and shared
/// by every symbol with that key. The memo must not outlive the call:
/// `advance` drifts the rays between calls.
pub(crate) struct ResponseMemo<K> {
    entries: Vec<(K, Rc<[Complex64]>)>,
}

impl<K: PartialEq> ResponseMemo<K> {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        ResponseMemo {
            entries: Vec::new(),
        }
    }

    /// The response for `key`, computed by `compute` the first time the
    /// key is met.
    pub(crate) fn get(
        &mut self,
        key: K,
        compute: impl FnOnce(&K) -> Vec<Complex64>,
    ) -> Rc<[Complex64]> {
        if let Some((_, h)) = self.entries.iter().find(|(k, _)| *k == key) {
            return Rc::clone(h);
        }
        let h: Rc<[Complex64]> = compute(&key).into();
        self.entries.push((key, Rc::clone(&h)));
        h
    }
}

/// One propagation ray.
#[derive(Debug, Clone, Copy)]
struct Ray {
    /// Complex field amplitude at the carrier (includes carrier phase).
    amplitude: Complex64,
    /// Excess propagation delay in seconds.
    delay: f64,
}

impl Ray {
    /// Per-subcarrier contribution at baseband offset `f` Hz.
    fn at(&self, f: f64) -> Complex64 {
        self.amplitude * Complex64::from_polar(1.0, -2.0 * core::f64::consts::PI * f * self.delay)
    }
}

/// Radio and environment parameters for a link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Carrier frequency (Hz). Default: 2.437 GHz (channel 6).
    pub carrier_hz: f64,
    /// Transmit power (dBm). Default 15 dBm — typical client NIC.
    pub tx_power_dbm: f64,
    /// Receiver noise figure (dB).
    pub noise_figure_db: f64,
    /// Receiver bandwidth (Hz) for the noise floor.
    pub bandwidth_hz: f64,
    /// Number of environmental multipath rays to synthesise (in addition
    /// to any floorplan reflectors).
    pub n_env_rays: usize,
    /// Mean power of an environmental ray relative to the direct path (dB,
    /// negative).
    pub env_ray_rel_db: f64,
    /// Channel coherence time (s); the paper's footnote 2 cites ≈ 100 ms
    /// for indoor WiFi.
    pub coherence_time_s: f64,
    /// Ambient interference bursts (microwave ovens, co-channel WiFi…):
    /// Poisson arrival rate (1/s). These are what keep the ambient
    /// subframe error rate above zero (paper §4.1: "we can never
    /// guarantee an error rate of zero").
    pub interference_rate_hz: f64,
    /// Mean interference burst duration (s).
    pub interference_duration_s: f64,
    /// Interference power relative to the *received* signal (dB).
    pub interference_rel_db: f64,
    /// Tag scatterer field gain `g` (antenna gain², re-radiation
    /// efficiency and RCS folded into one calibration constant; see
    /// EXPERIMENTS.md for the calibration).
    pub tag_field_gain: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            carrier_hz: 2.437e9,
            tx_power_dbm: 15.0,
            noise_figure_db: 7.0,
            bandwidth_hz: 20e6,
            n_env_rays: 6,
            env_ray_rel_db: -18.0,
            coherence_time_s: 0.1,
            interference_rate_hz: 16.0,
            interference_duration_s: 500e-6,
            interference_rel_db: 3.0,
            // Calibration constant (antenna gain² × re-radiation
            // efficiency, e.g. a 3 dBi resonant patch at ~9 % scattering
            // efficiency): 0.35 puts the phase-flip channel displacement
            // at the level where 64-QAM 2/3 subframes corrupt reliably
            // near the link endpoints but marginally at the midpoint —
            // the paper's Figure 5 regime. See EXPERIMENTS.md for the
            // calibration sweep.
            tag_field_gain: 0.30,
        }
    }
}

/// A TX→RX channel with an optional backscatter tag in the environment.
#[derive(Debug, Clone)]
pub struct Link {
    cfg: LinkConfig,
    direct: Ray,
    env: Vec<Ray>,
    /// Geometric tag ray (before the switch coefficient).
    tag: Option<Ray>,
    /// Additional tag rays (multi-tag deployments); each entry is a
    /// further tag's geometric ray, controlled independently via
    /// [`Link::apply_ppdu_multi`].
    extra_tags: Vec<Ray>,
    /// TX→tag and tag→RX distances (diagnostics & tests).
    tag_distances: Option<(f64, f64)>,
    /// Field amplitude of the TX→tag hop (for the tag's envelope
    /// detector).
    tag_incident_amplitude: f64,
    /// Complex noise variance per subcarrier relative to unit TX power.
    noise_var: f64,
    /// Coherence-time divisor (fault injection: coherence collapse).
    /// 1.0 = the configured coherence time; larger = faster fading.
    coherence_scale: f64,
    rng: Rng,
}

impl Link {
    /// Build a link inside `floorplan` from `tx` to `rx`, with an optional
    /// tag at `tag_pos`.
    pub fn new(
        floorplan: &Floorplan,
        tx: Point2,
        rx: Point2,
        tag_pos: Option<Point2>,
        cfg: LinkConfig,
        seed: u64,
    ) -> Self {
        Self::new_multi(floorplan, tx, rx, tag_pos, &[], cfg, seed)
    }

    /// [`Link::new`] with additional tags in the environment. The primary
    /// tag (`tag_pos`) is the one single-tag APIs control; the extras are
    /// driven via [`Link::apply_ppdu_multi`].
    pub fn new_multi(
        floorplan: &Floorplan,
        tx: Point2,
        rx: Point2,
        tag_pos: Option<Point2>,
        extra_tag_positions: &[Point2],
        cfg: LinkConfig,
        seed: u64,
    ) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let f = cfg.carrier_hz;

        // Direct path.
        let d = tx.distance(rx);
        let pen_db = floorplan.penetration_loss_db(tx, rx);
        let direct_amp = freespace_amplitude(d, f) * db_to_linear(-pen_db).sqrt();
        let direct = Ray {
            amplitude: Complex64::from_polar(
                direct_amp,
                -2.0 * core::f64::consts::PI * f * (d / SPEED_OF_LIGHT),
            ),
            delay: 0.0, // delays are excess over the direct path
        };
        let direct_delay = d / SPEED_OF_LIGHT;

        // Environmental rays: floorplan reflectors first, synthetic extras
        // after, all with random phases and a spread around the configured
        // mean relative power.
        let mut env = Vec::new();
        let mut reflector_points: Vec<Point2> = floorplan.reflectors.clone();
        while reflector_points.len() < cfg.n_env_rays {
            // Synthetic scatterer somewhere in the vicinity of the link.
            let t = rng.f64();
            let base = tx.lerp(rx, t);
            reflector_points.push(Point2::new(
                base.x + rng.range_f64(-4.0, 4.0),
                base.y + rng.range_f64(-4.0, 4.0),
            ));
        }
        for p in reflector_points.iter().take(cfg.n_env_rays.max(floorplan.reflectors.len())) {
            let path_len = tx.distance(*p) + p.distance(rx);
            let rel_db = cfg.env_ray_rel_db + rng.normal(0.0, 3.0);
            let amp = direct_amp * db_to_linear(rel_db).sqrt();
            env.push(Ray {
                amplitude: Complex64::from_polar(amp, rng.range_f64(0.0, core::f64::consts::TAU)),
                delay: (path_len / SPEED_OF_LIGHT) - direct_delay,
            });
        }

        // Tag ray.
        let make_tag_ray = |p: Point2| -> (Ray, (f64, f64), f64) {
            let ds = tx.distance(p);
            let dr = p.distance(rx);
            // Penetration on each hop.
            let pen =
                floorplan.penetration_loss_db(tx, p) + floorplan.penetration_loss_db(p, rx);
            let amp = backscatter_amplitude(ds, dr, f, cfg.tag_field_gain)
                * db_to_linear(-pen).sqrt();
            let delay = ((ds + dr) / SPEED_OF_LIGHT) - direct_delay;
            let ray = Ray {
                amplitude: Complex64::from_polar(
                    amp,
                    -2.0 * core::f64::consts::PI * f * (ds + dr) / SPEED_OF_LIGHT,
                ),
                delay,
            };
            let incident = freespace_amplitude(ds, f)
                * db_to_linear(-floorplan.penetration_loss_db(tx, p)).sqrt();
            (ray, (ds, dr), incident)
        };
        let (tag, tag_distances, tag_incident_amplitude) = match tag_pos {
            Some(p) => {
                let (ray, dists, incident) = make_tag_ray(p);
                (Some(ray), Some(dists), incident)
            }
            None => (None, None, 0.0),
        };
        let extra_tags: Vec<Ray> = extra_tag_positions
            .iter()
            .map(|&p| make_tag_ray(p).0)
            .collect();

        // Noise relative to unit TX power.
        let noise_mw = dbm_to_mw(noise_floor_dbm(cfg.bandwidth_hz, cfg.noise_figure_db));
        let tx_mw = dbm_to_mw(cfg.tx_power_dbm);
        let noise_var = noise_mw / tx_mw;

        Link {
            cfg,
            direct,
            env,
            tag,
            extra_tags,
            tag_distances,
            tag_incident_amplitude,
            noise_var,
            coherence_scale: 1.0,
            rng,
        }
    }

    /// Divide the effective coherence time by `scale` (fault injection:
    /// a coherence collapse — doors slamming, machinery moving through
    /// the Fresnel zone). `1.0` restores the configured dynamics; the
    /// nominal path is bit-identical to a link without the hook.
    pub fn set_coherence_scale(&mut self, scale: f64) {
        self.coherence_scale = scale.max(1e-9);
    }

    /// The channel's complex response at arbitrary baseband frequencies
    /// for a given tag switch state.
    pub fn response_at(&self, mode: TagMode, freqs_hz: &[f64]) -> Vec<Complex64> {
        let extras = vec![mode; self.extra_tags.len()];
        self.response_at_multi(mode, &extras, freqs_hz)
    }

    /// Like [`Link::response_at`], with independent switch states for the
    /// primary tag and each extra tag.
    pub fn response_at_multi(
        &self,
        mode: TagMode,
        extra_modes: &[TagMode],
        freqs_hz: &[f64],
    ) -> Vec<Complex64> {
        assert_eq!(
            extra_modes.len(),
            self.extra_tags.len(),
            "one mode per extra tag"
        );
        let tag_coeff = mode.coefficient();
        freqs_hz
            .iter()
            .map(|&f| {
                let mut h = self.direct.at(f);
                for ray in &self.env {
                    h += ray.at(f);
                }
                if let Some(tag) = &self.tag {
                    h += tag.at(f) * tag_coeff;
                }
                for (ray, m) in self.extra_tags.iter().zip(extra_modes.iter()) {
                    h += ray.at(f) * m.coefficient();
                }
                h
            })
            .collect()
    }

    /// The channel's complex response on every occupied subcarrier for a
    /// given tag switch state.
    pub fn response(&self, mode: TagMode, layout: &SubcarrierLayout) -> Vec<Complex64> {
        let freqs: Vec<f64> = (0..layout.n_occupied())
            .map(|pos| layout.freq_offset_hz(pos))
            .collect();
        self.response_at(mode, &freqs)
    }

    /// Mean |Δh| between two tag modes across subcarriers — the channel
    /// displacement the paper's Figure 3 illustrates.
    pub fn tag_delta_magnitude(
        &self,
        a: TagMode,
        b: TagMode,
        layout: &SubcarrierLayout,
    ) -> f64 {
        let ha = self.response(a, layout);
        let hb = self.response(b, layout);
        ha.iter()
            .zip(hb.iter())
            .map(|(&x, &y)| (x - y).abs())
            .sum::<f64>()
            / ha.len() as f64
    }

    /// Per-subcarrier noise variance relative to unit TX power.
    pub fn noise_var(&self) -> f64 {
        self.noise_var
    }

    /// Link SNR if the receiver opened a different bandwidth: the noise
    /// floor grows 3 dB per doubling, the signal does not (the query's
    /// energy is spread, not increased). Used by the query designer when
    /// sweeping 40/80 MHz operation.
    pub fn snr_db_at(&self, bandwidth_hz: f64) -> f64 {
        self.snr_db() - 10.0 * (bandwidth_hz / self.cfg.bandwidth_hz).log10()
    }

    /// Link SNR in dB (direct + environmental power over noise).
    pub fn snr_db(&self) -> f64 {
        let sig = self.direct.amplitude.norm_sqr()
            + self.env.iter().map(|r| r.amplitude.norm_sqr()).sum::<f64>();
        10.0 * (sig / self.noise_var).log10()
    }

    /// Received power at the tag (dBm) during a symbol with mean TX power
    /// `sym_power` (relative to 1.0) — drives the envelope detector.
    pub fn tag_incident_dbm(&self, sym_power: f64) -> f64 {
        self.cfg.tx_power_dbm
            + 10.0 * (self.tag_incident_amplitude.powi(2) * sym_power.max(1e-12)).log10()
    }

    /// TX→tag / tag→RX distances, if a tag is present.
    pub fn tag_distances(&self) -> Option<(f64, f64)> {
        self.tag_distances
    }

    /// Highest HT MCS (0–7, single stream) whose SNR requirement clears
    /// this link's SNR by `margin_db` — the querier's rate selection
    /// (paper §4.1). A `Link` models one antenna pair, so single-stream
    /// picks are all it can justify; on an antenna array use
    /// [`crate::MimoLink::best_mcs`], which rates multi-stream MCS
    /// indices (8–31) from the measured post-equalisation SNR.
    pub fn best_mcs(&self, margin_db: f64) -> Mcs {
        let snr = self.snr_db();
        let mut best = 0usize;
        for idx in 0..8 {
            if Mcs::ht(idx).required_snr_db() + margin_db <= snr {
                best = idx;
            }
        }
        Mcs::ht(best)
    }

    /// Advance environment time by `dt`: environmental ray phases random-
    /// walk with the configured coherence time (people moving, doors…).
    pub fn advance(&mut self, dt: Duration) {
        let sigma = core::f64::consts::TAU
            * (dt.as_secs_f64() / self.cfg.coherence_time_s).sqrt()
            * 0.5
            * self.coherence_scale.sqrt();
        for ray in &mut self.env {
            let dphi = self.rng.normal(0.0, sigma);
            ray.amplitude *= Complex64::from_polar(1.0, dphi);
        }
    }

    /// Pass a PPDU through the channel with the given tag schedule,
    /// returning what the receiver sees (channel applied + noise +
    /// interference bursts). `schedule.data` must cover every DATA symbol.
    pub fn apply_ppdu(&mut self, ppdu: &Ppdu, schedule: &TagSchedule) -> Ppdu {
        let extras: Vec<TagSchedule> = self
            .extra_tags
            .iter()
            .map(|_| TagSchedule::constant(TagMode::Absent, ppdu.symbols.len()))
            .collect();
        let refs: Vec<&TagSchedule> = extras.iter().collect();
        self.apply_ppdu_multi(ppdu, schedule, &refs)
    }

    /// [`Link::apply_ppdu`] with independent schedules for the extra tags
    /// (multi-tag deployments: collisions, addressing).
    pub fn apply_ppdu_multi(
        &mut self,
        ppdu: &Ppdu,
        schedule: &TagSchedule,
        extra_schedules: &[&TagSchedule],
    ) -> Ppdu {
        let layout = ppdu.config.layout();
        assert!(
            schedule.data.len() >= ppdu.symbols.len(),
            "schedule covers {} symbols, PPDU has {}",
            schedule.data.len(),
            ppdu.symbols.len()
        );

        // Interference bursts overlapping this PPDU (Poisson arrivals).
        let airtime = ppdu.airtime().as_secs_f64();
        let sym_dur = ppdu.config.guard.symbol_duration().as_secs_f64();
        let preamble = ppdu.config.preamble_duration().as_secs_f64();
        let mut bursts: Vec<(f64, f64)> = Vec::new();
        if self.cfg.interference_rate_hz > 0.0 {
            let mut t = self.rng.exponential(self.cfg.interference_rate_hz);
            while t < airtime {
                let d = self.rng.exponential(1.0 / self.cfg.interference_duration_s);
                bursts.push((t, t + d));
                t += d + self.rng.exponential(self.cfg.interference_rate_hz);
            }
        }
        let sig_power = self.direct.amplitude.norm_sqr();
        let intf_var = sig_power * db_to_linear(self.cfg.interference_rel_db);
        let overlaps = |lo: f64, hi: f64| bursts.iter().any(|&(a, b)| a < hi && b > lo);

        assert_eq!(
            extra_schedules.len(),
            self.extra_tags.len(),
            "one schedule per extra tag"
        );
        for s in extra_schedules {
            assert!(s.data.len() >= ppdu.symbols.len(), "extra schedule too short");
        }
        // Channel responses first (immutable borrows), noise (mutable RNG
        // borrow) in a second pass. Each distinct switch-state tuple —
        // the primary tag's mode, then the extra tags' — is computed once.
        let freqs: Vec<f64> = (0..layout.n_occupied())
            .map(|pos| layout.freq_offset_hz(pos))
            .collect();
        let mut memo = ResponseMemo::new();
        let mut response = |key: (TagMode, Vec<TagMode>)| {
            memo.get(key, |(mode, extras)| self.response_at_multi(*mode, extras, &freqs))
        };
        let h_ltf = response((schedule.ltf, extra_schedules.iter().map(|s| s.ltf).collect()));
        let h_data: Vec<_> = (0..ppdu.symbols.len())
            .map(|i| response((schedule.data[i], extra_schedules.iter().map(|s| s.data[i]).collect())))
            .collect();

        let noise_std = (self.noise_var / 2.0).sqrt();
        let rng = &mut self.rng;
        let mut noisy = |carriers: &[Complex64], h: &[Complex64], extra_var: f64| {
            let extra_std = (extra_var / 2.0).sqrt();
            carriers
                .iter()
                .zip(h.iter())
                .map(|(&x, &hc)| {
                    let mut y =
                        x * hc + c64(rng.gaussian() * noise_std, rng.gaussian() * noise_std);
                    if extra_var > 0.0 {
                        y += c64(rng.gaussian() * extra_std, rng.gaussian() * extra_std);
                    }
                    y
                })
                .collect::<Vec<_>>()
        };

        // LTF symbols: channel in the schedule's LTF mode (the tag holds
        // one state across the whole training field — it cannot see
        // training-symbol boundaries). Interference during the preamble
        // corrupts the estimate itself.
        let ltf_intf = if overlaps(0.0, preamble) { intf_var } else { 0.0 };
        let ltfs: Vec<OfdmSymbol> = ppdu
            .ltfs
            .iter()
            .map(|sym| OfdmSymbol {
                streams: sym
                    .streams
                    .iter()
                    .map(|s| noisy(s, &h_ltf, ltf_intf))
                    .collect(),
            })
            .collect();

        // DATA symbols.
        let mut symbols = Vec::with_capacity(ppdu.symbols.len());
        for (i, (sym, h)) in ppdu.symbols.iter().zip(&h_data).enumerate() {
            let lo = preamble + i as f64 * sym_dur;
            let extra = if overlaps(lo, lo + sym_dur) { intf_var } else { 0.0 };
            symbols.push(OfdmSymbol {
                streams: sym.streams.iter().map(|s| noisy(s, h, extra)).collect(),
            });
        }

        Ppdu {
            config: ppdu.config.clone(),
            psdu_len: ppdu.psdu_len,
            ltfs,
            symbols,
        }
    }

    /// Pass a legacy (non-HT) PPDU through the channel with the tag held
    /// in a constant state — how control responses like block ACKs travel.
    /// Short control frames get AWGN only (an interference burst hitting
    /// the 32 µs BA is folded into the data-frame interference process).
    pub fn apply_legacy(
        &mut self,
        ppdu: &witag_phy::legacy::LegacyPpdu,
        mode: TagMode,
    ) -> witag_phy::legacy::LegacyPpdu {
        let layout = witag_phy::legacy::LegacyLayout::cached();
        let freqs: Vec<f64> = (0..layout.n_occupied())
            .map(|pos| layout.freq_offset_hz(pos))
            .collect();
        let h = self.response_at(mode, &freqs);
        let noise_std = (self.noise_var / 2.0).sqrt();
        let mut noisy = |carriers: &[Complex64]| -> Vec<Complex64> {
            carriers
                .iter()
                .zip(h.iter())
                .map(|(&x, &hc)| {
                    x * hc
                        + c64(
                            self.rng.gaussian() * noise_std,
                            self.rng.gaussian() * noise_std,
                        )
                })
                .collect()
        };
        witag_phy::legacy::LegacyPpdu {
            rate: ppdu.rate,
            psdu_len: ppdu.psdu_len,
            ltf: OfdmSymbol {
                streams: vec![noisy(&ppdu.ltf.streams[0])],
            },
            symbols: ppdu
                .symbols
                .iter()
                .map(|s| OfdmSymbol {
                    streams: vec![noisy(&s.streams[0])],
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_phy::mcs::Mcs;
    use witag_phy::ppdu::{transmit, PhyConfig};
    use witag_phy::receiver::receive;

    fn quiet_cfg() -> LinkConfig {
        LinkConfig {
            interference_rate_hz: 0.0,
            ..LinkConfig::default()
        }
    }

    fn los_link(tag: Option<Point2>, cfg: LinkConfig, seed: u64) -> Link {
        let fp = Floorplan::paper_testbed();
        Link::new(
            &fp,
            Floorplan::los_client_position(),
            Floorplan::ap_position(),
            tag,
            cfg,
            seed,
        )
    }

    #[test]
    fn los_snr_is_high() {
        let link = los_link(None, quiet_cfg(), 1);
        let snr = link.snr_db();
        assert!(
            (40.0..65.0).contains(&snr),
            "8 m LOS at 15 dBm should be ~50 dB SNR, got {snr}"
        );
    }

    #[test]
    fn nlos_b_snr_much_lower_than_a() {
        let fp = Floorplan::paper_testbed();
        let cfg = quiet_cfg();
        let a = Link::new(
            &fp,
            Floorplan::nlos_a_client_position(),
            Floorplan::ap_position(),
            None,
            cfg.clone(),
            2,
        );
        let b = Link::new(
            &fp,
            Floorplan::nlos_b_client_position(),
            Floorplan::ap_position(),
            None,
            cfg,
            2,
        );
        // B is ~10 m further and behind heavier construction; the paper
        // still operated there, so the gap is a handful of dB, not tens.
        assert!(
            a.snr_db() > b.snr_db() + 2.0,
            "A {} dB should beat B {} dB clearly",
            a.snr_db(),
            b.snr_db()
        );
    }

    #[test]
    fn end_to_end_decode_over_quiet_channel() {
        let mut link = los_link(None, quiet_cfg(), 3);
        let mcs = link.best_mcs(3.0);
        let config = PhyConfig::new(mcs);
        let psdu = vec![0xC3u8; 64];
        let tx = transmit(&config, &psdu);
        let schedule = TagSchedule::constant(TagMode::Absent, tx.symbols.len());
        let rx = link.apply_ppdu(&tx, &schedule);
        let decoded = receive(&rx, link.noise_var());
        assert_eq!(decoded.bytes, psdu, "quiet LOS link must decode cleanly");
    }

    #[test]
    fn tag_phase_flip_corrupts_decode() {
        let tag_pos = Point2::new(1.8, 3.5); // 1 m from client at (0.8, 3.5)?? — near AP actually
        let mut link = los_link(Some(tag_pos), quiet_cfg(), 4);
        let config = PhyConfig::new(Mcs::ht(7));
        let psdu = vec![0x5Au8; 64];
        let tx = transmit(&config, &psdu);
        // Tag: 0° during LTF, flips to 180° for the whole DATA field.
        let schedule = TagSchedule {
            ltf: TagMode::Phase0,
            data: vec![TagMode::Phase180; tx.symbols.len()],
        };
        let rx = link.apply_ppdu(&tx, &schedule);
        let decoded = receive(&rx, link.noise_var());
        assert_ne!(decoded.bytes, psdu, "tag flip must corrupt the frame");

        // Control: tag holds 0° throughout -> clean decode.
        let mut link2 = los_link(Some(tag_pos), quiet_cfg(), 4);
        let idle = TagSchedule::constant(TagMode::Phase0, tx.symbols.len());
        let rx2 = link2.apply_ppdu(&tx, &idle);
        let decoded2 = receive(&rx2, link2.noise_var());
        assert_eq!(decoded2.bytes, psdu, "steady tag must not corrupt");
    }

    #[test]
    fn phase_flip_doubles_channel_displacement_vs_ook() {
        // Paper §5.2 / Figure 3: |h(0°) − h(180°)| = 2·|tag ray| while
        // |h(short) − h(open)| = |tag ray|.
        let link = los_link(Some(Point2::new(4.8, 3.5)), quiet_cfg(), 5);
        let layout = SubcarrierLayout::new(witag_phy::params::Bandwidth::Mhz20);
        let ook = link.tag_delta_magnitude(TagMode::ShortCircuit, TagMode::OpenCircuit, &layout);
        let flip = link.tag_delta_magnitude(TagMode::Phase0, TagMode::Phase180, &layout);
        assert!(
            (flip / ook - 2.0).abs() < 1e-9,
            "flip {flip} should be exactly 2× OOK {ook}"
        );
    }

    #[test]
    fn tag_displacement_minimised_at_midpoint() {
        let layout = SubcarrierLayout::new(witag_phy::params::Bandwidth::Mhz20);
        let client = Floorplan::los_client_position();
        let ap = Floorplan::ap_position();
        let delta_at = |frac: f64| {
            let link = los_link(Some(client.lerp(ap, frac)), quiet_cfg(), 6);
            link.tag_delta_magnitude(TagMode::Phase0, TagMode::Phase180, &layout)
        };
        let near = delta_at(0.125); // 1 m from client
        let mid = delta_at(0.5);
        let far = delta_at(0.875); // 1 m from AP
        assert!(near > mid && far > mid, "U-shape: {near} / {mid} / {far}");
    }

    #[test]
    fn coherence_scale_accelerates_decorrelation_and_is_inert_at_one() {
        let layout = SubcarrierLayout::new(witag_phy::params::Bandwidth::Mhz20);
        let mut nominal = los_link(None, quiet_cfg(), 7);
        let mut collapsed = los_link(None, quiet_cfg(), 7);
        collapsed.set_coherence_scale(100.0);
        let h0 = nominal.response(TagMode::Absent, &layout);
        nominal.advance(Duration::millis(5));
        collapsed.advance(Duration::millis(5));
        let dist = |h: &[Complex64]| -> f64 {
            h0.iter().zip(h).map(|(a, b)| (*a - *b).abs()).sum::<f64>() / h0.len() as f64
        };
        let dn = dist(&nominal.response(TagMode::Absent, &layout));
        let dc = dist(&collapsed.response(TagMode::Absent, &layout));
        assert!(
            dc > dn * 3.0,
            "100× collapse must fade much faster: {dc} vs {dn}"
        );

        // Scale 1.0 must be bit-identical to an untouched link.
        let mut a = los_link(None, quiet_cfg(), 9);
        let mut b = los_link(None, quiet_cfg(), 9);
        b.set_coherence_scale(1.0);
        a.advance(Duration::millis(3));
        b.advance(Duration::millis(3));
        assert_eq!(
            a.response(TagMode::Absent, &layout),
            b.response(TagMode::Absent, &layout)
        );
    }

    #[test]
    fn advance_decorrelates_channel_over_coherence_time() {
        let layout = SubcarrierLayout::new(witag_phy::params::Bandwidth::Mhz20);
        let mut link = los_link(None, quiet_cfg(), 7);
        let h0 = link.response(TagMode::Absent, &layout);
        link.advance(Duration::millis(1));
        let h1 = link.response(TagMode::Absent, &layout);
        link.advance(Duration::millis(500)); // 5× coherence time
        let h2 = link.response(TagMode::Absent, &layout);
        let d01: f64 =
            h0.iter().zip(&h1).map(|(a, b)| (*a - *b).abs()).sum::<f64>() / h0.len() as f64;
        let d02: f64 =
            h0.iter().zip(&h2).map(|(a, b)| (*a - *b).abs()).sum::<f64>() / h0.len() as f64;
        assert!(
            d02 > d01 * 3.0,
            "long-horizon drift {d02} must exceed short-horizon {d01}"
        );
    }

    #[test]
    fn interference_bursts_cause_losses() {
        // Crank interference way up: decodes must fail sometimes even
        // without a tag.
        let cfg = LinkConfig {
            interference_rate_hz: 4000.0,
            interference_duration_s: 300e-6,
            interference_rel_db: 10.0,
            ..LinkConfig::default()
        };
        let mut link = los_link(None, cfg, 8);
        let config = PhyConfig::new(Mcs::ht(7));
        let psdu = vec![0x11u8; 64];
        let tx = transmit(&config, &psdu);
        let schedule = TagSchedule::constant(TagMode::Absent, tx.symbols.len());
        let mut failures = 0;
        for _ in 0..40 {
            let rx = link.apply_ppdu(&tx, &schedule);
            if receive(&rx, link.noise_var()).bytes != psdu {
                failures += 1;
            }
        }
        assert!(failures > 0, "saturating interference must cause some losses");
    }

    #[test]
    fn best_mcs_tracks_snr() {
        let fp = Floorplan::free_space();
        let cfg = quiet_cfg();
        let near = Link::new(
            &fp,
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            None,
            cfg.clone(),
            9,
        );
        let far = Link::new(
            &fp,
            Point2::new(0.0, 0.0),
            Point2::new(400.0, 0.0),
            None,
            cfg,
            9,
        );
        let near_mcs = near.best_mcs(3.0);
        let far_mcs = far.best_mcs(3.0);
        assert!(near_mcs.required_snr_db() > far_mcs.required_snr_db());
    }

    #[test]
    fn tag_incident_power_reasonable() {
        let link = los_link(Some(Point2::new(7.8, 3.5)), quiet_cfg(), 10);
        let p = link.tag_incident_dbm(1.0);
        // 1 m from a 15 dBm transmitter: ≈ 15 − 40 = −25 dBm.
        assert!((-32.0..-18.0).contains(&p), "got {p} dBm");
    }

    #[test]
    fn second_tag_absent_matches_single_tag() {
        let fp = Floorplan::paper_testbed();
        let client = Floorplan::los_client_position();
        let ap = Floorplan::ap_position();
        let layout = SubcarrierLayout::new(witag_phy::params::Bandwidth::Mhz20);
        let single = Link::new(&fp, client, ap, Some(Point2::new(7.8, 3.5)), quiet_cfg(), 44);
        let multi = Link::new_multi(
            &fp,
            client,
            ap,
            Some(Point2::new(7.8, 3.5)),
            &[Point2::new(3.0, 3.2)],
            quiet_cfg(),
            44,
        );
        let freqs: Vec<f64> = (0..layout.n_occupied())
            .map(|p| layout.freq_offset_hz(p))
            .collect();
        let h1 = single.response_at(TagMode::Phase0, &freqs);
        let h2 = multi.response_at_multi(TagMode::Phase0, &[TagMode::Absent], &freqs);
        for (a, b) in h1.iter().zip(h2.iter()) {
            assert!((*a - *b).abs() < 1e-15, "absent extra tag must be invisible");
        }
        // A reflecting extra tag changes the channel.
        let h3 = multi.response_at_multi(TagMode::Phase0, &[TagMode::Phase0], &freqs);
        let diff: f64 = h1.iter().zip(h3.iter()).map(|(a, b)| (*a - *b).abs()).sum();
        assert!(diff > 0.0);
    }

    #[test]
    fn colliding_tags_corrupt_each_others_ones() {
        // Two tags answering the same query: tag A flips odd data
        // subframes, tag B flips even ones — the block-ACK bitmap shows
        // the union of corruption, garbling both tags' data. This is why
        // deployments give tags distinct trigger signatures.
        use witag_mac::ampdu::aggregate;
        use witag_mac::header::{Addr, FrameKind, MacHeader};
        use witag_mac::{deaggregate, Mpdu};
        let fp = Floorplan::paper_testbed();
        let client = Floorplan::los_client_position();
        let ap = Floorplan::ap_position();
        let mut link = Link::new_multi(
            &fp,
            client,
            ap,
            Some(Point2::new(7.8, 3.5)),
            &[Point2::new(6.9, 3.6)],
            quiet_cfg(),
            45,
        );
        let mpdus: Vec<Mpdu> = (0..16)
            .map(|seq| {
                let mut h =
                    MacHeader::qos_null(Addr::local(2), Addr::local(1), Addr::local(2), seq);
                h.kind = FrameKind::QosData;
                Mpdu {
                    header: h,
                    payload: vec![0xA5; 70],
                }
            })
            .collect();
        let (psdu, _) = aggregate(&mpdus);
        let phy = PhyConfig::new(Mcs::ht(5));
        let ppdu = transmit(&phy, &psdu);
        let k = phy.n_symbols(psdu.len()) / 16; // symbols per subframe (approx)
        let n_sym = ppdu.symbols.len();
        let mut sched_a = TagSchedule::constant(TagMode::Phase0, n_sym);
        let mut sched_b = TagSchedule::constant(TagMode::Phase0, n_sym);
        for i in 0..16usize {
            for s in i * k + 1..((i + 1) * k - 1).min(n_sym) {
                if i % 2 == 1 {
                    sched_a.data[s] = TagMode::Phase180;
                } else {
                    sched_b.data[s] = TagMode::Phase180;
                }
            }
        }
        let rx = link.apply_ppdu_multi(&ppdu, &sched_a, &[&sched_b]);
        let decoded = witag_phy::receiver::receive(&rx, link.noise_var());
        let outcomes = deaggregate(&decoded.bytes);
        let survivors = outcomes.iter().filter(|o| o.mpdu.is_some()).count();
        // Tag A alone would leave the even subframes alive; with B also
        // flipping, nearly everything dies — the collision destroys both
        // tags' "1" bits.
        assert!(
            survivors <= 2,
            "collision must corrupt nearly all subframes, {survivors} survived"
        );
    }

    #[test]
    fn legacy_block_ack_roundtrips_through_channel() {
        use witag_phy::legacy::{legacy_receive, legacy_transmit, LegacyRate};
        let mut link = los_link(Some(Point2::new(7.8, 3.5)), quiet_cfg(), 21);
        let psdu = vec![0x5Cu8; 32];
        let tx = legacy_transmit(LegacyRate::M24, &psdu);
        let rx = link.apply_legacy(&tx, TagMode::Phase0);
        assert_eq!(legacy_receive(&rx, link.noise_var()), psdu);
    }

    /// The per-symbol channel pass the response memo replaced: one full
    /// `response_at_multi` per DATA symbol, then the noise pass in the
    /// same RNG draw order (bursts, LTF noise, DATA noise by symbol).
    fn reference_apply_ppdu_multi(
        link: &mut Link,
        ppdu: &Ppdu,
        schedule: &TagSchedule,
        extra_schedules: &[&TagSchedule],
    ) -> Ppdu {
        let layout = ppdu.config.layout();
        let airtime = ppdu.airtime().as_secs_f64();
        let sym_dur = ppdu.config.guard.symbol_duration().as_secs_f64();
        let preamble = ppdu.config.preamble_duration().as_secs_f64();
        let mut bursts: Vec<(f64, f64)> = Vec::new();
        if link.cfg.interference_rate_hz > 0.0 {
            let mut t = link.rng.exponential(link.cfg.interference_rate_hz);
            while t < airtime {
                let d = link.rng.exponential(1.0 / link.cfg.interference_duration_s);
                bursts.push((t, t + d));
                t += d + link.rng.exponential(link.cfg.interference_rate_hz);
            }
        }
        let intf_var = link.direct.amplitude.norm_sqr() * db_to_linear(link.cfg.interference_rel_db);
        let overlaps = |lo: f64, hi: f64| bursts.iter().any(|&(a, b)| a < hi && b > lo);
        let freqs: Vec<f64> = (0..layout.n_occupied()).map(|pos| layout.freq_offset_hz(pos)).collect();
        let ltf_extra_modes: Vec<TagMode> = extra_schedules.iter().map(|s| s.ltf).collect();
        let h_ltf = link.response_at_multi(schedule.ltf, &ltf_extra_modes, &freqs);
        let h_data: Vec<Vec<Complex64>> = (0..ppdu.symbols.len())
            .map(|i| {
                let modes: Vec<TagMode> = extra_schedules.iter().map(|s| s.data[i]).collect();
                link.response_at_multi(schedule.data[i], &modes, &freqs)
            })
            .collect();
        let noise_std = (link.noise_var / 2.0).sqrt();
        let rng = &mut link.rng;
        let mut noisy = |carriers: &[Complex64], h: &[Complex64], extra_var: f64| {
            let extra_std = (extra_var / 2.0).sqrt();
            carriers
                .iter()
                .zip(h.iter())
                .map(|(&x, &hc)| {
                    let mut y = x * hc + c64(rng.gaussian() * noise_std, rng.gaussian() * noise_std);
                    if extra_var > 0.0 {
                        y += c64(rng.gaussian() * extra_std, rng.gaussian() * extra_std);
                    }
                    y
                })
                .collect::<Vec<_>>()
        };
        let ltf_intf = if overlaps(0.0, preamble) { intf_var } else { 0.0 };
        let ltfs: Vec<OfdmSymbol> = ppdu
            .ltfs
            .iter()
            .map(|sym| OfdmSymbol {
                streams: sym.streams.iter().map(|s| noisy(s, &h_ltf, ltf_intf)).collect(),
            })
            .collect();
        let mut symbols = Vec::new();
        for (i, sym) in ppdu.symbols.iter().enumerate() {
            let lo = preamble + i as f64 * sym_dur;
            let extra = if overlaps(lo, lo + sym_dur) { intf_var } else { 0.0 };
            symbols.push(OfdmSymbol {
                streams: sym.streams.iter().map(|s| noisy(s, &h_data[i], extra)).collect(),
            });
        }
        Ppdu {
            config: ppdu.config.clone(),
            psdu_len: ppdu.psdu_len,
            ltfs,
            symbols,
        }
    }

    /// Every float of a PPDU's LTFs and DATA symbols, as raw bits.
    fn ppdu_bits(p: &Ppdu) -> Vec<u64> {
        p.ltfs
            .iter()
            .chain(&p.symbols)
            .flat_map(|sym| sym.streams.iter().flatten())
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
            .collect()
    }

    /// A schedule alternating Phase0/Phase180 in runs of `run` symbols.
    fn alternating(ltf: TagMode, run: usize, n: usize) -> TagSchedule {
        TagSchedule {
            ltf,
            data: (0..n)
                .map(|i| if (i / run).is_multiple_of(2) { TagMode::Phase0 } else { TagMode::Phase180 })
                .collect(),
        }
    }

    #[test]
    fn memoised_responses_match_per_symbol_reference() {
        // Two extra tags with their own schedules, interference bursts on,
        // 1- and 2-stream PPDUs, three PPDUs in a row with `advance`
        // between them: output and RNG state must be bit-identical.
        let cfg = LinkConfig {
            interference_rate_hz: 20_000.0,
            interference_duration_s: 50e-6,
            ..LinkConfig::default()
        };
        let fp = Floorplan::paper_testbed();
        let mut link = Link::new_multi(
            &fp,
            Floorplan::los_client_position(),
            Floorplan::ap_position(),
            Some(Point2::new(1.8, 3.5)),
            &[Point2::new(3.0, 3.2), Point2::new(6.9, 3.6)],
            cfg,
            46,
        );
        let mut reference = link.clone();
        for (round, mcs) in [5usize, 13, 7].into_iter().enumerate() {
            let tx = transmit(&PhyConfig::new(Mcs::ht(mcs)), &[0x3Cu8; 1200]);
            let n = tx.symbols.len();
            let primary = alternating(TagMode::Phase0, 1 + round, n);
            let extra_a = alternating(TagMode::ShortCircuit, 3, n);
            let extra_b = alternating(TagMode::Phase180, 7, n);
            let extras = [&extra_a, &extra_b];
            let got = link.apply_ppdu_multi(&tx, &primary, &extras);
            let want = reference_apply_ppdu_multi(&mut reference, &tx, &primary, &extras);
            assert_eq!(ppdu_bits(&got), ppdu_bits(&want), "round {round}: PPDU bits");
            assert_eq!(got.psdu_len, want.psdu_len);
            // `apply_ppdu` holds the extra tags absent.
            let absent = TagSchedule::constant(TagMode::Absent, n);
            let got = link.apply_ppdu(&tx, &primary);
            let want = reference_apply_ppdu_multi(&mut reference, &tx, &primary, &[&absent, &absent]);
            assert_eq!(ppdu_bits(&got), ppdu_bits(&want), "round {round}: apply_ppdu bits");
            link.advance(Duration::millis(3));
            reference.advance(Duration::millis(3));
        }
        assert_eq!(link.rng.next_u64(), reference.rng.next_u64(), "RNG draw order");
    }

    #[test]
    #[should_panic(expected = "schedule covers")]
    fn short_schedule_rejected() {
        let mut link = los_link(None, quiet_cfg(), 11);
        let config = PhyConfig::new(Mcs::ht(0));
        let tx = transmit(&config, &[0u8; 100]);
        let schedule = TagSchedule::constant(TagMode::Absent, 1);
        let _ = link.apply_ppdu(&tx, &schedule);
    }
}
