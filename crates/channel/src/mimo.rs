//! Matrix MIMO channel: per-subcarrier `Nss×Nss` responses with a rank-1
//! backscatter tag.
//!
//! A [`MimoLink`] generalises [`Link`](crate::Link) to antenna arrays at
//! both ends. Each TX element `i` → RX element `j` pair gets its own ray
//! sum, so the channel at subcarrier offset `f` is a full complex matrix
//! `H(f)` rather than a scalar:
//!
//! * the **direct paths** carry per-element geometric phases from the
//!   exact element-to-element distances (λ/2 spacing by default). In pure
//!   LOS these phases are nearly equal across the array, so the direct
//!   matrix is close to rank-1 — the classical reason LOS MIMO is
//!   ill-conditioned and spatial multiplexing leans on scattering;
//! * **environmental rays** contribute correlated Rayleigh gains per
//!   antenna pair: `g_ji = a·(√ρ·c + √(1−ρ)·z_ji)` with a shared complex
//!   component `c` and i.i.d. per-pair components `z_ji`
//!   ([`MimoLinkConfig::correlation`] is ρ). These supply the rank that
//!   makes ZF/MMSE separation possible;
//! * the **tag ray** is an *exactly rank-1* perturbation: the tag is one
//!   physical scatterer, so its contribution factors as an outer product
//!   `u_j·v_i` of the RX-side and TX-side hop responses (the two-hop
//!   [`backscatter_amplitude`](crate::pathloss::backscatter_amplitude)
//!   is separable in the hop distances). When the tag flips its switch
//!   state, **every entry of `H` moves at once** — the MOXcatter
//!   observation that a single backscatter reflector leaks across all
//!   spatial streams simultaneously, which is what makes WiTAG-style
//!   modulation MIMO-agnostic (paper §4).
//!
//! Determinism mirrors [`Link`](crate::Link): everything is seeded, and a
//! given `(floorplan, positions, config, seed)` tuple reproduces the same
//! matrices bit-for-bit.

use crate::link::{LinkConfig, ResponseMemo, TagMode, TagSchedule};
use crate::pathloss::{
    db_to_linear, dbm_to_mw, freespace_amplitude, noise_floor_dbm,
    wavelength, SPEED_OF_LIGHT,
};
use witag_phy::complex::{c64, Complex64};
use witag_phy::mcs::Mcs;
use witag_phy::mimo::MimoEqualiser;
use witag_phy::params::{Bandwidth, GuardInterval, SubcarrierLayout};
use witag_phy::ppdu::{OfdmSymbol, Ppdu};
use witag_sim::geom::{Floorplan, Point2};
use witag_sim::rng::Rng;
use witag_sim::time::Duration;

/// Radio/array parameters for a [`MimoLink`].
#[derive(Debug, Clone)]
pub struct MimoLinkConfig {
    /// Scalar link parameters (carrier, powers, multipath statistics…).
    pub link: LinkConfig,
    /// Antenna element spacing in metres at both ends. `0.0` (the
    /// default) means λ/2 at the configured carrier.
    pub spacing_m: f64,
    /// Inter-pair correlation ρ of the environmental Rayleigh gains, in
    /// `[0, 1]`. `0` = i.i.d. fading per antenna pair, `1` = fully
    /// correlated (keyhole). Default 0.25 — lightly correlated indoor
    /// arrays.
    pub correlation: f64,
}

impl Default for MimoLinkConfig {
    fn default() -> Self {
        MimoLinkConfig {
            link: LinkConfig::default(),
            spacing_m: 0.0,
            correlation: 0.25,
        }
    }
}

impl MimoLinkConfig {
    /// A scattering-rich indoor profile: more and stronger environmental
    /// rays than [`LinkConfig::default`], giving well-conditioned
    /// matrices that support 2–3 spatial streams (the MOXcatter testbed
    /// regime). Interference is left at the scalar default.
    pub fn rich_scattering() -> Self {
        MimoLinkConfig {
            link: LinkConfig {
                n_env_rays: 12,
                env_ray_rel_db: -6.0,
                ..LinkConfig::default()
            },
            spacing_m: 0.0,
            correlation: 0.25,
        }
    }
}

/// One per-antenna-pair propagation ray.
#[derive(Debug, Clone, Copy)]
struct MRay {
    amplitude: Complex64,
    /// Excess delay over the array-centre direct path (s).
    delay: f64,
}

impl MRay {
    fn at(&self, f: f64) -> Complex64 {
        self.amplitude * Complex64::from_polar(1.0, -2.0 * core::f64::consts::PI * f * self.delay)
    }
}

/// An environmental ray: one excess delay shared by the array, plus a
/// correlated-Rayleigh complex gain per antenna pair (`gains[j*nss+i]`).
#[derive(Debug, Clone)]
struct EnvRay {
    delay: f64,
    gains: Vec<Complex64>,
}

/// The tag's rank-1 contribution: `ΔH_ji = u[j]·v[i]·e^{−j2πfτ}·coeff`.
#[derive(Debug, Clone)]
struct TagRay {
    /// RX-side hop factors (one per RX element).
    u: Vec<Complex64>,
    /// TX-side hop factors (one per TX element), carrying the scatterer
    /// gain and penetration losses.
    v: Vec<Complex64>,
    /// Excess delay of the centre two-hop path (s).
    delay: f64,
}

/// A TX array → RX array channel with an optional backscatter tag.
#[derive(Debug, Clone)]
pub struct MimoLink {
    cfg: MimoLinkConfig,
    nss: usize,
    /// `direct[j * nss + i]`: TX element `i` → RX element `j`.
    direct: Vec<MRay>,
    env: Vec<EnvRay>,
    tag: Option<TagRay>,
    tag_distances: Option<(f64, f64)>,
    noise_var: f64,
    rng: Rng,
}

/// Antenna element positions: a uniform linear array centred on `at`,
/// laid out perpendicular to the link axis `axis` (broadside).
fn element_positions(at: Point2, axis: (f64, f64), n: usize, spacing: f64) -> Vec<Point2> {
    let norm = (axis.0 * axis.0 + axis.1 * axis.1).sqrt();
    let (px, py) = if norm > 1e-12 {
        (-axis.1 / norm, axis.0 / norm)
    } else {
        (0.0, 1.0)
    };
    (0..n)
        .map(|k| {
            let off = (k as f64 - (n as f64 - 1.0) / 2.0) * spacing;
            Point2::new(at.x + off * px, at.y + off * py)
        })
        .collect()
}

impl MimoLink {
    /// Build an `nss`-antenna link inside `floorplan` from `tx` to `rx`
    /// (array centres), with an optional tag at `tag_pos`. Deterministic
    /// in `seed`.
    pub fn new(
        floorplan: &Floorplan,
        tx: Point2,
        rx: Point2,
        tag_pos: Option<Point2>,
        nss: usize,
        cfg: MimoLinkConfig,
        seed: u64,
    ) -> Self {
        assert!((1..=4).contains(&nss), "1–4 antennas per end, got {nss}");
        let mut rng = Rng::seed_from_u64(seed);
        let f = cfg.link.carrier_hz;
        let spacing = if cfg.spacing_m > 0.0 {
            cfg.spacing_m
        } else {
            wavelength(f) / 2.0
        };
        let axis = (rx.x - tx.x, rx.y - tx.y);
        let tx_el = element_positions(tx, axis, nss, spacing);
        let rx_el = element_positions(rx, axis, nss, spacing);

        // Direct paths: exact element-to-element geometry. Obstacle
        // penetration is evaluated once at the array centres (the array
        // aperture is centimetres; walls do not resolve it).
        let d_ref = tx.distance(rx);
        let pen_amp = db_to_linear(-floorplan.penetration_loss_db(tx, rx)).sqrt();
        let mut direct = Vec::with_capacity(nss * nss);
        for rj in &rx_el {
            for ti in &tx_el {
                let d = ti.distance(*rj);
                direct.push(MRay {
                    amplitude: Complex64::from_polar(
                        freespace_amplitude(d, f) * pen_amp,
                        -2.0 * core::f64::consts::PI * f * (d / SPEED_OF_LIGHT),
                    ),
                    delay: (d - d_ref) / SPEED_OF_LIGHT,
                });
            }
        }
        let direct_amp = freespace_amplitude(d_ref, f) * pen_amp;
        let direct_delay = d_ref / SPEED_OF_LIGHT;

        // Environmental rays: floorplan reflectors first, synthetic
        // scatterers after (same recipe as the scalar Link), each with a
        // correlated-Rayleigh gain per antenna pair.
        let rho = cfg.correlation.clamp(0.0, 1.0);
        let (wc, wz) = (rho.sqrt(), (1.0 - rho).sqrt());
        let mut reflector_points: Vec<Point2> = floorplan.reflectors.clone();
        while reflector_points.len() < cfg.link.n_env_rays {
            let t = rng.f64();
            let base = tx.lerp(rx, t);
            reflector_points.push(Point2::new(
                base.x + rng.range_f64(-4.0, 4.0),
                base.y + rng.range_f64(-4.0, 4.0),
            ));
        }
        let n_rays = cfg.link.n_env_rays.max(floorplan.reflectors.len());
        let mut env = Vec::with_capacity(n_rays);
        for p in reflector_points.iter().take(n_rays) {
            let path_len = tx.distance(*p) + p.distance(rx);
            let rel_db = cfg.link.env_ray_rel_db + rng.normal(0.0, 3.0);
            let amp = direct_amp * db_to_linear(rel_db).sqrt();
            // Shared component: the ray's bulk complex gain; per-pair
            // components: i.i.d. CN(0,1) scatter around it.
            let common = c64(
                rng.gaussian() / core::f64::consts::SQRT_2,
                rng.gaussian() / core::f64::consts::SQRT_2,
            );
            let gains = (0..nss * nss)
                .map(|_| {
                    let z = c64(
                        rng.gaussian() / core::f64::consts::SQRT_2,
                        rng.gaussian() / core::f64::consts::SQRT_2,
                    );
                    (common * wc + z * wz) * amp
                })
                .collect();
            env.push(EnvRay {
                delay: (path_len / SPEED_OF_LIGHT) - direct_delay,
                gains,
            });
        }

        // Tag ray: exactly rank-1. backscatter_amplitude(ds, dr, …) is
        // separable in the hop distances, so the per-pair amplitude
        // factors as s(ds_i)·r(dr_j); the carrier phases factor the same
        // way. The full scatterer gain (and two-hop penetration loss)
        // rides on the TX-side factor.
        let (tag, tag_distances) = match tag_pos {
            Some(p) => {
                let pen =
                    floorplan.penetration_loss_db(tx, p) + floorplan.penetration_loss_db(p, rx);
                let k = cfg.link.tag_field_gain
                    * 4.0
                    * core::f64::consts::PI
                    / wavelength(f)
                    * db_to_linear(-pen).sqrt();
                let v = tx_el
                    .iter()
                    .map(|ti| {
                        let ds = ti.distance(p);
                        Complex64::from_polar(
                            k * freespace_amplitude(ds, f),
                            -2.0 * core::f64::consts::PI * f * ds / SPEED_OF_LIGHT,
                        )
                    })
                    .collect();
                let u = rx_el
                    .iter()
                    .map(|rj| {
                        let dr = rj.distance(p);
                        Complex64::from_polar(
                            freespace_amplitude(dr, f),
                            -2.0 * core::f64::consts::PI * f * dr / SPEED_OF_LIGHT,
                        )
                    })
                    .collect();
                let ds0 = tx.distance(p);
                let dr0 = p.distance(rx);
                (
                    Some(TagRay {
                        u,
                        v,
                        delay: ((ds0 + dr0) / SPEED_OF_LIGHT) - direct_delay,
                    }),
                    Some((ds0, dr0)),
                )
            }
            None => (None, None),
        };

        let noise_mw = dbm_to_mw(noise_floor_dbm(cfg.link.bandwidth_hz, cfg.link.noise_figure_db));
        let tx_mw = dbm_to_mw(cfg.link.tx_power_dbm);

        MimoLink {
            cfg,
            nss,
            direct,
            env,
            tag,
            tag_distances,
            noise_var: noise_mw / tx_mw,
            rng,
        }
    }

    /// Number of antennas per end.
    pub fn nss(&self) -> usize {
        self.nss
    }

    /// Per-subcarrier complex noise variance relative to unit TX power
    /// (per RX antenna).
    pub fn noise_var(&self) -> f64 {
        self.noise_var
    }

    /// TX→tag / tag→RX centre distances, if a tag is present.
    pub fn tag_distances(&self) -> Option<(f64, f64)> {
        self.tag_distances
    }

    /// The channel matrix at baseband offsets `freqs_hz` for a tag switch
    /// state, flattened as `h[pos·nss² + j·nss + i]` (RX antenna `j`, TX
    /// stream `i`) — the layout `witag_phy::mimo` uses.
    pub fn response_at(&self, mode: TagMode, freqs_hz: &[f64]) -> Vec<Complex64> {
        let n = self.nss;
        let coeff = mode.coefficient();
        let mut out = vec![Complex64::ZERO; freqs_hz.len() * n * n];
        for (p, &f) in freqs_hz.iter().enumerate() {
            let block = &mut out[p * n * n..(p + 1) * n * n];
            for (e, ray) in block.iter_mut().zip(self.direct.iter()) {
                *e = ray.at(f);
            }
            for ray in &self.env {
                let rot = Complex64::from_polar(
                    1.0,
                    -2.0 * core::f64::consts::PI * f * ray.delay,
                );
                for (e, g) in block.iter_mut().zip(ray.gains.iter()) {
                    *e += *g * rot;
                }
            }
            if let Some(tag) = &self.tag {
                if coeff != Complex64::ZERO {
                    let rot = coeff
                        * Complex64::from_polar(
                            1.0,
                            -2.0 * core::f64::consts::PI * f * tag.delay,
                        );
                    for (j, uj) in tag.u.iter().enumerate() {
                        for (i, vi) in tag.v.iter().enumerate() {
                            block[j * n + i] += *uj * *vi * rot; // lint:allow(panic_path) u and v both hold n factors, block is n*n
                        }
                    }
                }
            }
        }
        out
    }

    /// The channel matrices on every occupied subcarrier of `layout`.
    pub fn response(&self, mode: TagMode, layout: &SubcarrierLayout) -> Vec<Complex64> {
        let freqs: Vec<f64> = (0..layout.n_occupied())
            .map(|pos| layout.freq_offset_hz(pos))
            .collect();
        self.response_at(mode, &freqs)
    }

    /// Mean Frobenius displacement `‖H(a) − H(b)‖_F / √(nss²)` between
    /// two tag modes, averaged across subcarriers — the matrix analogue
    /// of [`Link::tag_delta_magnitude`](crate::Link::tag_delta_magnitude).
    pub fn tag_delta_magnitude(
        &self,
        a: TagMode,
        b: TagMode,
        layout: &SubcarrierLayout,
    ) -> f64 {
        let ha = self.response(a, layout);
        let hb = self.response(b, layout);
        let sum: f64 = ha
            .iter()
            .zip(hb.iter())
            .map(|(&x, &y)| (x - y).norm_sqr())
            .sum();
        (sum / ha.len() as f64).sqrt()
    }

    /// Mean per-RX-antenna link SNR in dB (direct + environmental power
    /// over noise) — the pre-equalisation figure.
    pub fn snr_db(&self) -> f64 {
        let n = self.nss as f64;
        let mut sig = self.direct.iter().map(|r| r.amplitude.norm_sqr()).sum::<f64>();
        for ray in &self.env {
            sig += ray.gains.iter().map(|g| g.norm_sqr()).sum::<f64>();
        }
        10.0 * ((sig / n) / self.noise_var).log10()
    }

    /// Advance environment time by `dt`: each environmental ray's gains
    /// random-walk in phase with the configured coherence time. The
    /// rotation is common to all antenna pairs of a ray (the scatterer
    /// moves; the array geometry does not), preserving ρ.
    pub fn advance(&mut self, dt: Duration) {
        let sigma = core::f64::consts::TAU
            * (dt.as_secs_f64() / self.cfg.link.coherence_time_s).sqrt()
            * 0.5;
        for ray in &mut self.env {
            let rot = Complex64::from_polar(1.0, self.rng.normal(0.0, sigma));
            for g in &mut ray.gains {
                *g *= rot;
            }
        }
    }

    /// Measured post-equalisation SNR per stream (dB, length `k`) when
    /// operating `k ≤ nss` spatial streams through this channel with
    /// equaliser `eq`. For each subcarrier the top-left `k×k` submatrix
    /// of `H` (the first `k` RF chains at each end) is equalised and the
    /// per-stream signal-to-(noise + residual-interference) ratio is
    /// accumulated; subcarriers where the submatrix is singular count as
    /// zero SNR. This is what [`MimoLink::best_mcs`] rates against —
    /// replacing the +3 dB/stream bookkeeping heuristic with the actual
    /// separation cost of this channel.
    pub fn post_eq_snr_db(&self, k: usize, eq: MimoEqualiser, layout: &SubcarrierLayout) -> Vec<f64> {
        assert!((1..=self.nss).contains(&k), "1..={} streams, got {k}", self.nss);
        let h_full = self.response(TagMode::Absent, layout);
        let n = self.nss;
        let n_pos = layout.n_occupied();
        let mut acc = vec![0.0f64; k];
        let mut hsub = [Complex64::ZERO; 16];
        let mut w = [Complex64::ZERO; 16];
        for pos in 0..n_pos {
            let block = &h_full[pos * n * n..(pos + 1) * n * n];
            for j in 0..k {
                for i in 0..k {
                    hsub[j * k + i] = block[j * n + i]; // lint:allow(panic_path) j,i < k <= n; hsub is MAX*MAX, block is n*n
                }
            }
            if !eq.weights(&hsub[..k * k], k, self.noise_var, &mut w) {
                continue; // singular: contributes zero SNR on this tone
            }
            for (si, a) in acc.iter_mut().enumerate() {
                let mut sig = 0.0;
                let mut isi = 0.0;
                for m in 0..k {
                    // (W·H)[si][m]
                    let mut wh = Complex64::ZERO;
                    for j in 0..k {
                        wh += w[si * k + j] * hsub[j * k + m]; // lint:allow(panic_path) si,j,m < k; w and hsub are MAX*MAX with k <= MAX
                    }
                    if m == si {
                        sig = wh.norm_sqr();
                    } else {
                        isi += wh.norm_sqr();
                    }
                }
                let nz: f64 = (0..k).map(|j| w[si * k + j].norm_sqr()).sum::<f64>() // lint:allow(panic_path) si,j < k; w is MAX*MAX with k <= MAX
                    * self.noise_var;
                *a += sig / (isi + nz);
            }
        }
        acc.iter()
            .map(|&s| 10.0 * (s / n_pos as f64).max(1e-30).log10())
            .collect()
    }

    /// Highest-throughput HT MCS (any stream count this array supports)
    /// whose *single-stream* SNR requirement clears the **measured**
    /// worst-stream post-equalisation SNR by `margin_db` — the
    /// rate/stream selection a MIMO querier runs. Unlike the scalar
    /// [`Link::best_mcs`](crate::Link::best_mcs) (and unlike
    /// [`Mcs::required_snr_db`]'s +3 dB/stream bookkeeping), the
    /// multi-stream penalty here is whatever ZF/MMSE actually costs on
    /// this channel.
    pub fn best_mcs(&self, margin_db: f64, eq: MimoEqualiser, bw: Bandwidth) -> Mcs {
        let layout = SubcarrierLayout::new(bw);
        let mut best = Mcs::ht(0);
        let mut best_rate = best.data_rate_bps(bw, GuardInterval::Long);
        for k in 1..=self.nss.min(4) {
            let snrs = self.post_eq_snr_db(k, eq, &layout);
            let worst = snrs.iter().cloned().fold(f64::INFINITY, f64::min);
            for idx in 0..8 {
                let m = Mcs::ht((k - 1) * 8 + idx);
                if Mcs::ht(idx).required_snr_db() + margin_db <= worst {
                    let rate = m.data_rate_bps(bw, GuardInterval::Long);
                    if rate > best_rate {
                        best = m;
                        best_rate = rate;
                    }
                }
            }
        }
        best
    }

    /// Pass a PPDU through the matrix channel with the given tag
    /// schedule: `y_j = Σ_i H_ji·x_i + AWGN` per subcarrier, with
    /// Poisson interference bursts as in the scalar link. The PPDU's
    /// stream count must match the array size. The tag holds
    /// `schedule.ltf` across the entire training field (it cannot see
    /// HT-LTF symbol boundaries).
    pub fn apply_ppdu(&mut self, ppdu: &Ppdu, schedule: &TagSchedule) -> Ppdu {
        let n = self.nss;
        let layout = ppdu.config.layout();
        assert_eq!(
            ppdu.config.mcs.spatial_streams, n,
            "PPDU stream count must match the array"
        );
        assert!(
            schedule.data.len() >= ppdu.symbols.len(),
            "schedule covers {} symbols, PPDU has {}",
            schedule.data.len(),
            ppdu.symbols.len()
        );

        // Interference bursts overlapping this PPDU (Poisson arrivals),
        // hitting every RX antenna (co-channel energy is not spatially
        // white, but one burst does land on the whole array).
        let airtime = ppdu.airtime().as_secs_f64();
        let sym_dur = ppdu.config.guard.symbol_duration().as_secs_f64();
        let preamble = ppdu.config.preamble_duration().as_secs_f64();
        let mut bursts: Vec<(f64, f64)> = Vec::new();
        if self.cfg.link.interference_rate_hz > 0.0 {
            let mut t = self.rng.exponential(self.cfg.link.interference_rate_hz);
            while t < airtime {
                let d = self
                    .rng
                    .exponential(1.0 / self.cfg.link.interference_duration_s);
                bursts.push((t, t + d));
                t += d + self.rng.exponential(self.cfg.link.interference_rate_hz);
            }
        }
        let sig_power =
            self.direct.iter().map(|r| r.amplitude.norm_sqr()).sum::<f64>() / n as f64;
        let intf_var = sig_power * db_to_linear(self.cfg.link.interference_rel_db);
        let overlaps = |lo: f64, hi: f64| bursts.iter().any(|&(a, b)| a < hi && b > lo);

        let freqs: Vec<f64> = (0..layout.n_occupied())
            .map(|pos| layout.freq_offset_hz(pos))
            .collect();
        // One response per distinct tag mode (see `ResponseMemo`).
        let mut memo = ResponseMemo::new();
        let mut response = |mode: TagMode| memo.get(mode, |&m| self.response_at(m, &freqs));
        let h_ltf = response(schedule.ltf);
        let h_data: Vec<_> = (0..ppdu.symbols.len()).map(|i| response(schedule.data[i])).collect();

        let noise_std = (self.noise_var / 2.0).sqrt();
        let rng = &mut self.rng;
        let mut mix = |sym: &OfdmSymbol, h: &[Complex64], extra_var: f64| -> OfdmSymbol {
            let extra_std = (extra_var / 2.0).sqrt();
            let n_pos = freqs.len();
            let streams = (0..n)
                .map(|j| {
                    (0..n_pos)
                        .map(|pos| {
                            let mut y = Complex64::ZERO;
                            for (i, s) in sym.streams.iter().enumerate() {
                                y += h[pos * n * n + j * n + i] * s[pos]; // lint:allow(panic_path) nss asserted == n, h holds n_pos*n*n entries
                            }
                            y += c64(rng.gaussian() * noise_std, rng.gaussian() * noise_std);
                            if extra_var > 0.0 {
                                y += c64(
                                    rng.gaussian() * extra_std,
                                    rng.gaussian() * extra_std,
                                );
                            }
                            y
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            OfdmSymbol { streams }
        };

        let ltf_intf = if overlaps(0.0, preamble) { intf_var } else { 0.0 };
        let ltfs: Vec<OfdmSymbol> = ppdu.ltfs.iter().map(|s| mix(s, &h_ltf, ltf_intf)).collect();
        let mut symbols = Vec::with_capacity(ppdu.symbols.len());
        for (i, (sym, h)) in ppdu.symbols.iter().zip(&h_data).enumerate() {
            let lo = preamble + i as f64 * sym_dur;
            let extra = if overlaps(lo, lo + sym_dur) { intf_var } else { 0.0 };
            symbols.push(mix(sym, h, extra));
        }

        Ppdu {
            config: ppdu.config.clone(),
            psdu_len: ppdu.psdu_len,
            ltfs,
            symbols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_phy::ppdu::{transmit, PhyConfig};
    use witag_phy::receiver::receive;

    fn quiet_cfg() -> MimoLinkConfig {
        MimoLinkConfig {
            link: LinkConfig {
                interference_rate_hz: 0.0,
                ..MimoLinkConfig::rich_scattering().link
            },
            ..MimoLinkConfig::rich_scattering()
        }
    }

    fn testbed_link(nss: usize, tag: Option<Point2>, seed: u64) -> MimoLink {
        let fp = Floorplan::paper_testbed();
        MimoLink::new(
            &fp,
            Floorplan::los_client_position(),
            Floorplan::ap_position(),
            tag,
            nss,
            quiet_cfg(),
            seed,
        )
    }

    /// The per-symbol matrix channel pass the response memo replaced:
    /// one full `response_at` per DATA symbol, then the mixing/noise pass
    /// in the same RNG draw order.
    fn reference_apply_ppdu(link: &mut MimoLink, ppdu: &Ppdu, schedule: &TagSchedule) -> Ppdu {
        let n = link.nss;
        let layout = ppdu.config.layout();
        let airtime = ppdu.airtime().as_secs_f64();
        let sym_dur = ppdu.config.guard.symbol_duration().as_secs_f64();
        let preamble = ppdu.config.preamble_duration().as_secs_f64();
        let mut bursts: Vec<(f64, f64)> = Vec::new();
        if link.cfg.link.interference_rate_hz > 0.0 {
            let mut t = link.rng.exponential(link.cfg.link.interference_rate_hz);
            while t < airtime {
                let d = link.rng.exponential(1.0 / link.cfg.link.interference_duration_s);
                bursts.push((t, t + d));
                t += d + link.rng.exponential(link.cfg.link.interference_rate_hz);
            }
        }
        let sig_power = link.direct.iter().map(|r| r.amplitude.norm_sqr()).sum::<f64>() / n as f64;
        let intf_var = sig_power * db_to_linear(link.cfg.link.interference_rel_db);
        let overlaps = |lo: f64, hi: f64| bursts.iter().any(|&(a, b)| a < hi && b > lo);
        let freqs: Vec<f64> = (0..layout.n_occupied()).map(|pos| layout.freq_offset_hz(pos)).collect();
        let h_ltf = link.response_at(schedule.ltf, &freqs);
        let h_data: Vec<Vec<Complex64>> = (0..ppdu.symbols.len())
            .map(|i| link.response_at(schedule.data[i], &freqs))
            .collect();
        let noise_std = (link.noise_var / 2.0).sqrt();
        let rng = &mut link.rng;
        let mut mix = |sym: &OfdmSymbol, h: &[Complex64], extra_var: f64| -> OfdmSymbol {
            let extra_std = (extra_var / 2.0).sqrt();
            let streams = (0..n)
                .map(|j| {
                    (0..freqs.len())
                        .map(|pos| {
                            let mut y = Complex64::ZERO;
                            for (i, s) in sym.streams.iter().enumerate() {
                                y += h[pos * n * n + j * n + i] * s[pos];
                            }
                            y += c64(rng.gaussian() * noise_std, rng.gaussian() * noise_std);
                            if extra_var > 0.0 {
                                y += c64(rng.gaussian() * extra_std, rng.gaussian() * extra_std);
                            }
                            y
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            OfdmSymbol { streams }
        };
        let ltf_intf = if overlaps(0.0, preamble) { intf_var } else { 0.0 };
        let ltfs: Vec<OfdmSymbol> = ppdu.ltfs.iter().map(|s| mix(s, &h_ltf, ltf_intf)).collect();
        let mut symbols = Vec::new();
        for (i, sym) in ppdu.symbols.iter().enumerate() {
            let lo = preamble + i as f64 * sym_dur;
            let extra = if overlaps(lo, lo + sym_dur) { intf_var } else { 0.0 };
            symbols.push(mix(sym, &h_data[i], extra));
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

    #[test]
    fn memoised_responses_match_per_symbol_reference() {
        // Alternating Phase0/Phase180 DATA runs, a reflecting LTF state,
        // interference bursts on, three PPDUs with `advance` between
        // them: output and RNG state must be bit-identical.
        for nss in [2usize, 3] {
            let cfg = MimoLinkConfig {
                link: LinkConfig {
                    interference_rate_hz: 20_000.0,
                    interference_duration_s: 50e-6,
                    ..MimoLinkConfig::rich_scattering().link
                },
                ..MimoLinkConfig::rich_scattering()
            };
            let fp = Floorplan::paper_testbed();
            let mut link = MimoLink::new(
                &fp,
                Floorplan::los_client_position(),
                Floorplan::ap_position(),
                Some(Point2::new(2.0, 3.5)),
                nss,
                cfg,
                60 + nss as u64,
            );
            let mut reference = link.clone();
            let config = PhyConfig::new(Mcs::ht(8 * nss - 3));
            for round in 0..3usize {
                let psdus = vec![vec![0x96u8 ^ round as u8; 600]; nss];
                let tx = witag_phy::transmit_mu(&config, &psdus);
                let schedule = TagSchedule {
                    ltf: TagMode::Phase0,
                    data: (0..tx.symbols.len())
                        .map(|i| {
                            if (i / (round + 1)).is_multiple_of(2) {
                                TagMode::Phase0
                            } else {
                                TagMode::Phase180
                            }
                        })
                        .collect(),
                };
                let got = link.apply_ppdu(&tx, &schedule);
                let want = reference_apply_ppdu(&mut reference, &tx, &schedule);
                assert_eq!(ppdu_bits(&got), ppdu_bits(&want), "nss {nss} round {round}");
                link.advance(Duration::millis(3));
                reference.advance(Duration::millis(3));
            }
            assert_eq!(link.rng.next_u64(), reference.rng.next_u64(), "nss {nss}: RNG draw order");
        }
    }

    #[test]
    fn same_seed_reproduces_matrices_bitwise() {
        let layout = SubcarrierLayout::new(Bandwidth::Mhz20);
        let a = testbed_link(3, Some(Point2::new(2.0, 3.5)), 7);
        let b = testbed_link(3, Some(Point2::new(2.0, 3.5)), 7);
        assert_eq!(
            a.response(TagMode::Phase0, &layout),
            b.response(TagMode::Phase0, &layout)
        );
    }

    #[test]
    fn tag_flip_perturbs_every_matrix_entry() {
        let layout = SubcarrierLayout::new(Bandwidth::Mhz20);
        let link = testbed_link(2, Some(Point2::new(2.0, 3.5)), 9);
        let h0 = link.response(TagMode::Phase0, &layout);
        let h1 = link.response(TagMode::Phase180, &layout);
        for (e0, e1) in h0.iter().zip(h1.iter()) {
            assert!(
                (*e0 - *e1).abs() > 0.0,
                "a single reflector must move every H entry"
            );
        }
    }

    #[test]
    fn tag_delta_is_exactly_rank_one() {
        // ΔH = H(0°) − H(180°) = 2·(tag ray): det(ΔH) must vanish for the
        // 2×2 case on every subcarrier (up to float noise).
        let layout = SubcarrierLayout::new(Bandwidth::Mhz20);
        let link = testbed_link(2, Some(Point2::new(2.0, 3.5)), 11);
        let h0 = link.response(TagMode::Phase0, &layout);
        let h1 = link.response(TagMode::Phase180, &layout);
        for pos in 0..layout.n_occupied() {
            let d: Vec<Complex64> = (0..4)
                .map(|k| h0[pos * 4 + k] - h1[pos * 4 + k])
                .collect();
            let det = d[0] * d[3] - d[1] * d[2];
            let scale = d.iter().map(|e| e.norm_sqr()).sum::<f64>();
            assert!(
                det.abs() <= 1e-9 * scale.max(1e-300),
                "pos {pos}: det {det:?} vs scale {scale}"
            );
        }
    }

    #[test]
    fn multi_stream_decode_through_nondiagonal_channel() {
        // MCS 8–23 (2 and 3 streams) survive a real scattering channel
        // end-to-end with both equalisers.
        for &idx in &[8usize, 15, 16, 23] {
            let mcs = Mcs::ht(idx);
            for eq in [MimoEqualiser::Zf, MimoEqualiser::Mmse] {
                let mut link = testbed_link(mcs.spatial_streams, None, 20 + idx as u64);
                let mut config = PhyConfig::new(mcs);
                config.equaliser = eq;
                let psdu = vec![0xA7u8; 96];
                let tx = transmit(&config, &psdu);
                let schedule = TagSchedule::constant(TagMode::Absent, tx.symbols.len());
                let rx = link.apply_ppdu(&tx, &schedule);
                let decoded = receive(&rx, link.noise_var());
                assert_eq!(
                    decoded.bytes, psdu,
                    "MCS {idx} via {} must decode over quiet scattering link",
                    eq.name()
                );
            }
        }
    }

    #[test]
    fn stream_count_heuristic_matches_measured_penalty() {
        // Mcs::required_snr_db budgets +3 dB per extra stream. Measure
        // the real separation cost on scattering channels: the worst
        // stream's post-equalisation SNR sits below the link's raw
        // per-antenna SNR by a penalty that must be positive (separation
        // is never free) and of the heuristic's order. (Comparing
        // against the single 1×1 pair instead would be misleading — a
        // 2×2 equaliser also buys receive diversity, so that difference
        // can go negative on fade-prone pairs.)
        let layout = SubcarrierLayout::new(Bandwidth::Mhz20);
        let mut penalties = Vec::new();
        for seed in 0..8u64 {
            let link = testbed_link(2, None, 40 + seed);
            let s2 = link
                .post_eq_snr_db(2, MimoEqualiser::Mmse, &layout)
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            penalties.push(link.snr_db() - s2);
        }
        let lo = penalties.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = penalties.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = penalties.iter().sum::<f64>() / penalties.len() as f64;
        assert!(lo > 0.0, "second stream must cost SNR, min penalty {lo} dB");
        assert!(
            mean > 1.0 && mean < 15.0,
            "mean measured penalty {mean} dB should be the +3 dB heuristic's order"
        );
        assert!(
            lo - 1.0 < 3.0 && 3.0 < hi + 1.0,
            "the +3 dB constant should sit inside the measured envelope [{lo}, {hi}]"
        );
    }

    #[test]
    fn best_mcs_goes_multi_stream_on_strong_links() {
        let link = testbed_link(3, None, 70);
        let m = link.best_mcs(3.0, MimoEqualiser::Mmse, Bandwidth::Mhz20);
        assert!(
            m.spatial_streams >= 2,
            "a ~50 dB scattering link should multiplex, picked {m:?}"
        );
        // And the pick must actually be decodable: its single-stream SNR
        // requirement clears the measured worst stream.
        let layout = SubcarrierLayout::new(Bandwidth::Mhz20);
        let snrs = link.post_eq_snr_db(m.spatial_streams, MimoEqualiser::Mmse, &layout);
        let worst = snrs.iter().cloned().fold(f64::INFINITY, f64::min);
        let base = Mcs {
            spatial_streams: 1,
            ..m
        };
        assert!(base.required_snr_db() + 3.0 <= worst);
    }

    #[test]
    fn advance_preserves_ray_power() {
        let layout = SubcarrierLayout::new(Bandwidth::Mhz20);
        let mut link = testbed_link(2, None, 80);
        let p0: f64 = link
            .response(TagMode::Absent, &layout)
            .iter()
            .map(|h| h.norm_sqr())
            .sum();
        link.advance(Duration::millis(50));
        let p1: f64 = link
            .response(TagMode::Absent, &layout)
            .iter()
            .map(|h| h.norm_sqr())
            .sum();
        // Phase random-walk moves the sum around (rays re-interfere) but
        // the per-ray powers are unchanged; totals stay the same order.
        assert!(p1 > p0 * 0.05 && p1 < p0 * 20.0);
    }
}
