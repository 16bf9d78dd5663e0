//! Property-based tests for the PHY: the whole transmit chain and each
//! component must satisfy roundtrip/bijection invariants for *arbitrary*
//! inputs, not just the unit tests' examples.

use proptest::prelude::*;
use witag_phy::complex::{c64, Complex64};
use witag_phy::convolutional::{
    bits_to_llrs, decode_punctured, encode_punctured, encode_stream, viterbi_decode_stream,
    CodeRate,
};
use witag_phy::interleaver::{InterleaverDims, InterleaverPerm};
use witag_phy::mcs::{Mcs, Modulation};
use witag_phy::modulation::{demodulate_hard, modulate};
use witag_phy::params::Bandwidth;
use witag_phy::ppdu::{bits_to_bytes, bytes_to_bits, transmit, PhyConfig};
use witag_phy::receiver::receive;
use witag_phy::scrambler::Scrambler;

fn bits(n: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=1, n)
}

fn any_rate() -> impl Strategy<Value = CodeRate> {
    prop_oneof![
        Just(CodeRate::R12),
        Just(CodeRate::R23),
        Just(CodeRate::R34),
        Just(CodeRate::R56),
    ]
}

fn any_modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qpsk),
        Just(Modulation::Qam16),
        Just(Modulation::Qam64),
        Just(Modulation::Qam256),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scrambler_is_an_involution(data in bits(300), seed in 1u8..128) {
        let mut once = data.clone();
        Scrambler::new(seed).apply(&mut once);
        let mut twice = once.clone();
        Scrambler::new(seed).apply(&mut twice);
        prop_assert_eq!(twice, data);
    }

    #[test]
    fn convolutional_clean_roundtrip(data in bits(200), rate in any_rate()) {
        let tx = encode_punctured(&data, rate);
        let rx = decode_punctured(&bits_to_llrs(&tx), rate, data.len());
        prop_assert_eq!(rx, data);
    }

    #[test]
    fn stream_code_roundtrip(data in bits(150)) {
        let tx = encode_stream(&data);
        let rx = viterbi_decode_stream(&bits_to_llrs(&tx), data.len());
        prop_assert_eq!(rx, data);
    }

    #[test]
    fn viterbi_corrects_any_two_scattered_flips(
        data in bits(120),
        p1 in 0usize..100,
        gap in 30usize..120,
    ) {
        // K=7 free distance 10: any two flips >= ~7 positions apart decode.
        let mut tx = encode_punctured(&data, CodeRate::R12);
        let n = tx.len();
        let a = p1 % n;
        let b = (p1 + gap) % n;
        prop_assume!(a.abs_diff(b) > 14);
        tx[a] ^= 1;
        tx[b] ^= 1;
        let rx = decode_punctured(&bits_to_llrs(&tx), CodeRate::R12, data.len());
        prop_assert_eq!(rx, data);
    }

    #[test]
    fn interleaver_bijective_for_all_ht_dims(
        n_bpscs in prop_oneof![Just(1usize), Just(2), Just(4), Just(6), Just(8)],
        bw in prop_oneof![Just(Bandwidth::Mhz20), Just(Bandwidth::Mhz40)],
        seed in any::<u64>(),
    ) {
        let d = InterleaverDims::ht(bw, n_bpscs);
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let data: Vec<u8> = (0..d.n_cbps).map(|_| (rng.next_u64() & 1) as u8).collect();
        let perm = InterleaverPerm::new(d);
        let (mut tx, mut rx) = (Vec::new(), Vec::new());
        perm.interleave_into(&data, &mut tx);
        perm.deinterleave_into(&tx, &mut rx);
        prop_assert_eq!(rx, data);
    }

    #[test]
    fn modulation_hard_roundtrip(m in any_modulation(), seed in any::<u64>()) {
        let bpsc = m.bits_per_subcarrier();
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let data: Vec<u8> = (0..bpsc * 26).map(|_| (rng.next_u64() & 1) as u8).collect();
        let syms = modulate(&data, m);
        prop_assert_eq!(demodulate_hard(&syms, m), data);
    }

    #[test]
    fn constellation_points_bounded(m in any_modulation(), seed in any::<u64>()) {
        let bpsc = m.bits_per_subcarrier();
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let data: Vec<u8> = (0..bpsc * 8).map(|_| (rng.next_u64() & 1) as u8).collect();
        for pt in modulate(&data, m) {
            // Max |point| is the 256-QAM corner: |15+15j|/sqrt(170) ~ 1.63.
            prop_assert!(pt.abs() < 1.65, "point {pt:?} out of bounds");
        }
    }

    #[test]
    fn bytes_bits_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn loopback_psdu_roundtrip_any_mcs(
        mcs_idx in 0usize..8,
        data in proptest::collection::vec(any::<u8>(), 30..200),
    ) {
        let config = PhyConfig::new(Mcs::ht(mcs_idx));
        let ppdu = transmit(&config, &data);
        let decoded = receive(&ppdu, 1e-6);
        prop_assert_eq!(decoded.bytes, data);
    }

    #[test]
    fn complex_field_axioms(re1 in -10.0f64..10.0, im1 in -10.0f64..10.0,
                            re2 in -10.0f64..10.0, im2 in -10.0f64..10.0) {
        let a = c64(re1, im1);
        let b = c64(re2, im2);
        // Commutativity and conjugate-multiplication identity.
        prop_assert!(((a * b) - (b * a)).abs() < 1e-12);
        prop_assert!(((a + b) - (b + a)).abs() < 1e-12);
        prop_assert!(((a * a.conj()).re - a.norm_sqr()).abs() < 1e-9);
        prop_assert!((a * a.conj()).im.abs() < 1e-9);
        // Division inverts multiplication away from zero.
        if b.norm_sqr() > 1e-6 {
            prop_assert!(((a * b / b) - a).abs() < 1e-9);
        }
    }

    #[test]
    fn airtime_monotone_in_psdu_len(mcs_idx in 0usize..8, len in 30usize..1000) {
        let config = PhyConfig::new(Mcs::ht(mcs_idx));
        prop_assert!(config.airtime(len) <= config.airtime(len + 100));
        prop_assert!(config.n_symbols(len) >= 1);
    }

    #[test]
    fn receive_many_is_bit_identical_to_per_ppdu_loop(
        seed in any::<u64>(),
        mcs_list in proptest::collection::vec(0usize..16, 1..5),
        corrupt_mask in any::<u8>(),
    ) {
        // The batched burst decode must return exactly what a loop of
        // standalone receives returns — any MCS mix, clean or corrupted
        // subframes (a mid-frame phase flip is the tag's own corruption
        // mechanism and reliably kills the FCS).
        use witag_phy::receiver::{receive_many, receive_with_scratch, RxScratch};
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let noise_var: f64 = 1e-3;
        let noise_std = noise_var.sqrt();
        let burst: Vec<_> = mcs_list.iter().enumerate().map(|(i, &idx)| {
            let mut psdu = vec![0u8; 64];
            rng.fill_bytes(&mut psdu);
            let mut ppdu = transmit(&PhyConfig::new(Mcs::ht(idx)), &psdu);
            let n_sym = ppdu.symbols.len();
            let flip = corrupt_mask & (1 << (i % 8)) != 0;
            for (s, sym) in ppdu.symbols.iter_mut().enumerate() {
                let flipped = flip && s >= n_sym / 2;
                for stream in sym.streams.iter_mut() {
                    for pt in stream.iter_mut() {
                        let mut v = *pt;
                        if flipped {
                            v = Complex64::ZERO - v;
                        }
                        let re = rng.range_f64(-1.0, 1.0) * noise_std;
                        let im = rng.range_f64(-1.0, 1.0) * noise_std;
                        *pt = v + c64(re, im);
                    }
                }
            }
            ppdu
        }).collect();
        let batched = receive_many(&burst, noise_var, &mut RxScratch::new());
        for (i, (rx, b)) in burst.iter().zip(batched.iter()).enumerate() {
            let solo = receive_with_scratch(rx, noise_var, &mut RxScratch::new());
            prop_assert_eq!(&solo.bytes, &b.bytes, "subframe {} bytes diverged", i);
            prop_assert_eq!(&solo.symbol_quality, &b.symbol_quality, "subframe {} quality diverged", i);
        }
    }

    #[test]
    fn zf_weights_invert_any_well_conditioned_channel(
        seed in any::<u64>(),
        n in 1usize..=4,
    ) {
        // ZF is W = H⁻¹: for any diagonally-dominant (hence invertible)
        // channel matrix, W·H must come back to the identity.
        use witag_phy::mimo::{zf_weights, MAX_NSS};
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let mut h = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        for (k, e) in h.iter_mut().take(n * n).enumerate() {
            let diag = if k % (n + 1) == 0 { n as f64 + 1.0 } else { 0.0 };
            *e = c64(rng.gaussian() + diag, rng.gaussian());
        }
        let mut w = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        prop_assert!(zf_weights(&h, n, &mut w), "dominant matrix flagged singular");
        for i in 0..n {
            for j in 0..n {
                let mut acc = Complex64::ZERO;
                for k in 0..n {
                    acc += w[i * n + k] * h[k * n + j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((acc - c64(expect, 0.0)).abs() < 1e-9,
                    "WH[{i}][{j}] = {acc:?}");
            }
        }
    }

    #[test]
    fn mmse_collapses_to_zf_as_noise_vanishes(
        seed in any::<u64>(),
        n in 1usize..=4,
    ) {
        // At σ² → 0 the regulariser disappears and unbiased MMSE must
        // agree with ZF entry-for-entry.
        use witag_phy::mimo::{mmse_weights, zf_weights, MAX_NSS};
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let mut h = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        for (k, e) in h.iter_mut().take(n * n).enumerate() {
            let diag = if k % (n + 1) == 0 { n as f64 + 1.0 } else { 0.0 };
            *e = c64(rng.gaussian() + diag, rng.gaussian());
        }
        let mut wz = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        let mut wm = [Complex64::ZERO; MAX_NSS * MAX_NSS];
        prop_assert!(zf_weights(&h, n, &mut wz));
        prop_assert!(mmse_weights(&h, n, 1e-15, &mut wm));
        for k in 0..n * n {
            prop_assert!((wz[k] - wm[k]).abs() < 1e-6,
                "entry {k}: zf {:?} vs mmse {:?}", wz[k], wm[k]);
        }
    }

    #[test]
    fn mu_psdus_roundtrip_any_stream_count(
        nss in 1usize..=4,
        mcs_idx in 0usize..8,
        seed in any::<u64>(),
    ) {
        // The MU framing is its own loopback chain: N independent PSDUs
        // in, the same N PSDUs out of the joint-equalised decode.
        use witag_phy::mimo::{receive_mu, transmit_mu};
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let psdus: Vec<Vec<u8>> = (0..nss).map(|_| {
            let mut p = vec![0u8; 64];
            rng.fill_bytes(&mut p);
            p
        }).collect();
        let config = PhyConfig::new(Mcs::ht((nss - 1) * 8 + mcs_idx));
        let ppdu = transmit_mu(&config, &psdus);
        let decoded = receive_mu(&ppdu, 1e-6);
        prop_assert_eq!(decoded.len(), nss);
        for (i, d) in decoded.iter().enumerate() {
            prop_assert_eq!(&d.bytes, &psdus[i], "stream {} diverged", i);
        }
    }

    #[test]
    fn phase_flip_never_helps_llr_quality(seed in any::<u64>()) {
        // Flipping the channel can only shrink or scramble LLRs vs the
        // matched channel, never improve the mean |LLR| by a large factor.
        let config = PhyConfig::new(Mcs::ht(7));
        let mut rng = witag_sim::Rng::seed_from_u64(seed);
        let mut data = vec![0u8; 130];
        rng.fill_bytes(&mut data);
        let ppdu = transmit(&config, &data);
        let mut flipped = ppdu.clone();
        for sym in flipped.symbols.iter_mut() {
            for pt in sym.streams[0].iter_mut() {
                *pt = Complex64::ZERO - *pt;
            }
        }
        let clean = receive(&ppdu, 1e-4);
        let broken = receive(&flipped, 1e-4);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        prop_assert!(mean(&broken.symbol_quality) <= mean(&clean.symbol_quality) * 1.05);
    }
}
