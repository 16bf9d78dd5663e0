//! The legacy (non-HT) OFDM PHY — clause 17 of 802.11-2016.
//!
//! Control responses (ACKs, block ACKs) and the trigger marker frames are
//! transmitted in this format: 48 data subcarriers, 16-column interleaver,
//! rates 6–54 Mbps, 20 µs preamble. Implementing it for real lets the
//! experiment put the block ACK through an actual reverse-channel decode
//! (instead of a loss probability), and gives the marker frames a concrete
//! on-air identity.
//!
//! The chain shares every component with the HT path (scrambler, coder,
//! constellations) but uses the legacy tone plan and interleaver
//! dimensions.

use crate::complex::Complex64;
use crate::convolutional::{encode_stream, puncture};
use crate::interleaver::InterleaverDims;
use crate::mcs::{CodeRate, Modulation};
use crate::params::timing;
use crate::ppdu::{bytes_to_bits, OfdmSymbol, SymbolMapper};
use crate::receiver::RxScratch;
use crate::scrambler::Scrambler;
use std::sync::LazyLock;
use witag_sim::time::Duration;

pub use crate::airtime::LegacyRate;

/// Legacy tone plan: subcarriers −26…26 without DC; pilots at ±7, ±21.
#[derive(Debug, Clone)]
pub struct LegacyLayout {
    indices: Vec<i32>,
    data_positions: Vec<usize>,
    pilot_positions: Vec<usize>,
}

impl Default for LegacyLayout {
    fn default() -> Self {
        Self::new()
    }
}

// Backing store for [`LegacyLayout::cached`]: the clause-17 tone plan is
// a compile-time constant, built at most once per process (the builder
// otherwise only runs from tests).
static LEGACY_LAYOUT: LazyLock<LegacyLayout> = LazyLock::new(LegacyLayout::new);

impl LegacyLayout {
    /// Build the clause-17 tone plan.
    pub fn new() -> Self {
        let pilots = [-21i32, -7, 7, 21];
        let indices: Vec<i32> = (-26..=26).filter(|&k| k != 0).collect();
        let mut data_positions = Vec::new();
        let mut pilot_positions = Vec::new();
        for (pos, &k) in indices.iter().enumerate() {
            if pilots.contains(&k) {
                pilot_positions.push(pos);
            } else {
                data_positions.push(pos);
            }
        }
        LegacyLayout {
            indices,
            data_positions,
            pilot_positions,
        }
    }

    /// Process-lifetime cached tone plan (the receive chain used to
    /// rebuild the three position vectors on every call).
    pub fn cached() -> &'static LegacyLayout {
        &LEGACY_LAYOUT
    }

    /// Occupied subcarrier count (52).
    pub fn n_occupied(&self) -> usize {
        self.indices.len()
    }

    /// Data-bearing storage positions (48).
    pub fn data_positions(&self) -> &[usize] {
        &self.data_positions
    }

    /// Pilot storage positions (4).
    pub fn pilot_positions(&self) -> &[usize] {
        &self.pilot_positions
    }

    /// Baseband frequency of storage position `pos` (Hz).
    ///
    /// # Panics
    /// Panics if `pos` is not a storage position (`pos >= n_occupied()`).
    pub fn freq_offset_hz(&self, pos: usize) -> f64 {
        self.indices[pos] as f64 * 312_500.0 // lint:allow(panic_path) documented contract: pos < n_occupied()
    }
}

impl LegacyRate {
    /// Constellation for this rate.
    pub fn modulation(self) -> Modulation {
        match self {
            LegacyRate::M6 | LegacyRate::M9 => Modulation::Bpsk,
            LegacyRate::M12 | LegacyRate::M18 => Modulation::Qpsk,
            LegacyRate::M24 | LegacyRate::M36 => Modulation::Qam16,
            LegacyRate::M48 | LegacyRate::M54 => Modulation::Qam64,
        }
    }

    /// Code rate for this rate.
    pub fn code_rate(self) -> CodeRate {
        match self {
            LegacyRate::M6 | LegacyRate::M12 | LegacyRate::M24 => CodeRate::R12,
            LegacyRate::M48 => CodeRate::R23,
            LegacyRate::M9 | LegacyRate::M18 | LegacyRate::M36 | LegacyRate::M54 => CodeRate::R34,
        }
    }
}

/// A legacy PPDU in frequency-domain form (single stream).
#[derive(Debug, Clone)]
pub struct LegacyPpdu {
    /// Transmission rate.
    pub rate: LegacyRate,
    /// PSDU length (signalled in L-SIG).
    pub psdu_len: usize,
    /// Long training symbol (all-ones, for channel estimation).
    pub ltf: OfdmSymbol,
    /// DATA symbols.
    pub symbols: Vec<OfdmSymbol>,
}

impl LegacyPpdu {
    /// Airtime: 20 µs preamble + 4 µs per DATA symbol.
    pub fn airtime(&self) -> Duration {
        timing::LEGACY_PREAMBLE + Duration::micros(4) * self.symbols.len() as u64
    }
}

const SCRAMBLER_SEED: u8 = 0x2F;

/// Transmit a PSDU in the legacy format.
pub fn legacy_transmit(rate: LegacyRate, psdu: &[u8]) -> LegacyPpdu {
    assert!(!psdu.is_empty(), "PSDU must be non-empty");
    let layout = LegacyLayout::cached();
    let ndbps = rate.ndbps();
    let n_bpscs = rate.modulation().bits_per_subcarrier();
    let dims = InterleaverDims::legacy(n_bpscs);
    let n_sym = (16 + 8 * psdu.len() + 6).div_ceil(ndbps);

    let mut bits = Vec::with_capacity(n_sym * ndbps);
    bits.extend_from_slice(&[0u8; 16]);
    bits.extend_from_slice(&bytes_to_bits(psdu));
    bits.resize(n_sym * ndbps, 0);
    Scrambler::new(SCRAMBLER_SEED).apply(&mut bits);
    let tail_start = 16 + 8 * psdu.len();
    for bit in bits.iter_mut().skip(tail_start).take(6) {
        *bit = 0;
    }

    let coded = puncture(&encode_stream(&bits), rate.code_rate());
    let ncbps = dims.n_cbps;
    debug_assert_eq!(coded.len(), n_sym * ncbps);

    let mut mapper = SymbolMapper::new(
        dims,
        rate.modulation(),
        layout.n_occupied(),
        layout.data_positions(),
        layout.pilot_positions(),
    );
    let symbols = coded
        .chunks(ncbps)
        .map(|chunk| OfdmSymbol {
            streams: vec![mapper.map_stream(chunk)],
        })
        .collect();

    LegacyPpdu {
        rate,
        psdu_len: psdu.len(),
        ltf: OfdmSymbol {
            streams: vec![vec![Complex64::ONE; layout.n_occupied()]],
        },
        symbols,
    }
}

/// Receive a legacy PPDU: estimate from the LTF, equalise, decode.
///
/// This is the allocating convenience wrapper (fresh scratch, fresh
/// output); the allocation-free steady-state contract lives on
/// [`legacy_receive_many_into`] and the shared decode core.
pub fn legacy_receive(rx: &LegacyPpdu, noise_var: f64) -> Vec<u8> {
    legacy_receive_with_scratch(rx, noise_var, &mut RxScratch::new())
}

/// [`legacy_receive`] with caller-provided working memory — same contract
/// as [`crate::receiver::receive_with_scratch`] (bit-identical results,
/// allocation-free steady state). An experiment shares one scratch
/// between the HT data chain and this legacy block-ACK chain; the
/// interleaver-permutation cache keeps both dimension sets warm.
pub fn legacy_receive_with_scratch(
    rx: &LegacyPpdu,
    noise_var: f64,
    scratch: &mut RxScratch,
) -> Vec<u8> {
    let mut out = Vec::new();
    let layout = LegacyLayout::cached();
    let dims = InterleaverDims::legacy(rx.rate.modulation().bits_per_subcarrier());
    let (perms, _pilots, mut bufs) = scratch.split();
    RxScratch::perm(perms, dims);
    legacy_decode_core(rx, noise_var, layout, perms, &mut bufs, &mut out);
    out
}

/// Decode a burst of legacy PPDUs (e.g. the block-ACK responses of a
/// scheduling round) reusing one scratch, with the tone plan and
/// interleaver-permutation setup hoisted out of the per-PPDU loop. Each
/// element is bit-identical to a standalone
/// [`legacy_receive_with_scratch`] call.
pub fn legacy_receive_many_with_scratch(
    ppdus: &[LegacyPpdu],
    noise_var: f64,
    scratch: &mut RxScratch,
) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    legacy_receive_many_into(ppdus, noise_var, scratch, &mut out);
    out
}

/// [`legacy_receive_many_with_scratch`] into a caller-provided output
/// vector whose existing byte buffers are reused (allocation-free once
/// warm).
// lint:no_alloc
pub fn legacy_receive_many_into(
    ppdus: &[LegacyPpdu],
    noise_var: f64,
    scratch: &mut RxScratch,
    out: &mut Vec<Vec<u8>>,
) {
    out.truncate(ppdus.len());
    out.resize_with(ppdus.len(), Vec::new); // lint:allow(no_alloc)
    let layout = LegacyLayout::cached();
    let (perms, _pilots, mut bufs) = scratch.split();
    for rx in ppdus {
        RxScratch::perm(perms, InterleaverDims::legacy(rx.rate.modulation().bits_per_subcarrier()));
    }
    for (rx, dst) in ppdus.iter().zip(out.iter_mut()) {
        legacy_decode_core(rx, noise_var, layout, perms, &mut bufs, dst);
    }
}

/// [`legacy_receive_many_with_scratch`] where every PPDU carries its own
/// noise variance: the lockstep round driver decodes the block-ACK leg of
/// many parallel sessions in one pass over one scratch. Each element is
/// bit-identical to a standalone [`legacy_receive_with_scratch`] call
/// with that pair.
pub fn legacy_receive_many_mixed(
    ppdus: &[(&LegacyPpdu, f64)],
    scratch: &mut RxScratch,
) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    out.resize_with(ppdus.len(), Vec::new);
    let layout = LegacyLayout::cached();
    let (perms, _pilots, mut bufs) = scratch.split();
    for (rx, _) in ppdus {
        RxScratch::perm(perms, InterleaverDims::legacy(rx.rate.modulation().bits_per_subcarrier()));
    }
    for (&(rx, noise_var), dst) in ppdus.iter().zip(out.iter_mut()) {
        legacy_decode_core(rx, noise_var, layout, perms, &mut bufs, dst);
    }
    out
}

/// Shared implementation behind the singular and batched legacy receive
/// paths: the caller provides the tone plan and a pre-warmed permutation
/// cache.
// lint:no_alloc
fn legacy_decode_core(
    rx: &LegacyPpdu,
    noise_var: f64,
    layout: &LegacyLayout,
    perms: &[crate::interleaver::InterleaverPerm],
    bufs: &mut crate::receiver::RxBufs<'_>,
    out: &mut Vec<u8>,
) {
    use crate::convolutional::{depuncture_into, viterbi_decode_stream_into};
    use crate::modulation::{axis_scale, demap_symbol_into};
    use crate::ppdu::bits_to_bytes_into;

    let ndbps = rx.rate.ndbps();
    let modulation = rx.rate.modulation();
    let dims = InterleaverDims::legacy(modulation.bits_per_subcarrier());
    let h = &rx.ltf.streams[0];
    let data_pos = layout.data_positions();
    let n_data = data_pos.len();

    // The cache was warmed by the caller; `position` cannot miss.
    let perm = &perms[perms.iter().position(|p| p.dims() == dims).unwrap_or(0)]; // lint:allow(panic_path) callers warm the cache, so perms is non-empty

    // Per-PPDU hoisted channel gather and demapper scales (the estimate
    // is static across the PPDU's symbols — same arithmetic as the old
    // per-symbol loop, computed once).
    bufs.h_data.clear();
    bufs.h_data.reserve(n_data);
    bufs.demap_scales.clear();
    bufs.demap_scales.reserve(n_data);
    for &pos in data_pos {
        let hv = h[pos];
        let eff_noise = noise_var / hv.norm_sqr().max(1e-9);
        bufs.h_data.push(hv);
        bufs.demap_scales.push(axis_scale(modulation, eff_noise));
    }

    bufs.coded_llrs.clear();
    bufs.coded_llrs.reserve(rx.symbols.len() * dims.n_cbps);
    for sym in &rx.symbols {
        let raw = &sym.streams[0];
        bufs.eq.clear();
        bufs.eq.reserve(n_data);
        for (i, &pos) in data_pos.iter().enumerate() {
            bufs.eq.push(raw[pos] / bufs.h_data[i]);
        }
        bufs.llrs_tx.clear();
        demap_symbol_into(bufs.eq, modulation, bufs.demap_scales, bufs.llrs_tx);
        perm.deinterleave_append(bufs.llrs_tx, bufs.coded_llrs);
    }

    let n_total = rx.symbols.len() * ndbps;
    depuncture_into(bufs.coded_llrs, rx.rate.code_rate(), 2 * n_total, bufs.soft);
    viterbi_decode_stream_into(bufs.soft, n_total, bufs.viterbi, bufs.bits);
    Scrambler::new(SCRAMBLER_SEED).apply(bufs.bits);
    bits_to_bytes_into(&bufs.bits[16..16 + 8 * rx.psdu_len], out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use witag_sim::Rng;

    #[test]
    fn layout_counts() {
        let l = LegacyLayout::new();
        assert_eq!(l.n_occupied(), 52);
        assert_eq!(l.data_positions().len(), 48);
        assert_eq!(l.pilot_positions().len(), 4);
    }

    #[test]
    fn loopback_all_rates() {
        let mut rng = Rng::seed_from_u64(31);
        for rate in [
            LegacyRate::M6,
            LegacyRate::M9,
            LegacyRate::M12,
            LegacyRate::M18,
            LegacyRate::M24,
            LegacyRate::M36,
            LegacyRate::M48,
            LegacyRate::M54,
        ] {
            let mut psdu = vec![0u8; 32]; // block-ACK sized
            rng.fill_bytes(&mut psdu);
            let ppdu = legacy_transmit(rate, &psdu);
            assert_eq!(legacy_receive(&ppdu, 1e-6), psdu, "{rate:?}");
        }
    }

    #[test]
    fn block_ack_airtime_consistency() {
        // 32-byte BA at 24 Mbps must match the analytic airtime helper.
        let ppdu = legacy_transmit(LegacyRate::M24, &[0u8; 32]);
        assert_eq!(
            ppdu.airtime(),
            crate::airtime::block_ack_airtime(LegacyRate::M24)
        );
    }

    #[test]
    fn survives_noise_at_modest_snr() {
        let mut rng = Rng::seed_from_u64(32);
        let psdu = vec![0xB4u8; 32];
        let mut ppdu = legacy_transmit(LegacyRate::M24, &psdu);
        let noise_var: f64 = 0.005; // 23 dB SNR
        let std = (noise_var / 2.0).sqrt();
        for sym in ppdu.symbols.iter_mut().chain(core::iter::once(&mut ppdu.ltf)) {
            for pt in sym.streams[0].iter_mut() {
                *pt += c64(rng.gaussian() * std, rng.gaussian() * std);
            }
        }
        assert_eq!(legacy_receive(&ppdu, noise_var), psdu);
    }

    #[test]
    fn heavy_noise_corrupts() {
        let mut rng = Rng::seed_from_u64(33);
        let psdu = vec![0x22u8; 32];
        let mut ppdu = legacy_transmit(LegacyRate::M54, &psdu);
        let noise_var: f64 = 0.5; // 3 dB SNR, hopeless for 64-QAM
        let std = (noise_var / 2.0).sqrt();
        for sym in ppdu.symbols.iter_mut() {
            for pt in sym.streams[0].iter_mut() {
                *pt += c64(rng.gaussian() * std, rng.gaussian() * std);
            }
        }
        assert_ne!(legacy_receive(&ppdu, noise_var), psdu);
    }
}
