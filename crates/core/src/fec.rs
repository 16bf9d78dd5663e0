//! Forward error correction over the tag bit-channel.
//!
//! The paper leaves error handling as future work (§4.1: "WiTAG requires
//! a mechanism to detect and correct possible errors, which is a topic of
//! future work"). This module implements a concrete instance so the
//! extension can be evaluated:
//!
//! * **Hamming(7,4)** block code — corrects any single bit error per
//!   codeword, detects doubles;
//! * a **block interleaver** across the codewords of one query, so a
//!   burst of consecutive subframe losses (one interference flash kills
//!   neighbouring subframes) lands in different codewords.
//!
//! With 62 data subframes per query, 8 interleaved codewords (56 bits)
//! carry 32 payload bits, a rate-0.52 outer code on top of the raw tag
//! channel. The `fec` benchmark compares raw vs coded error rates.

/// Encode 4 data bits into a Hamming(7,4) codeword (bits are 0/1).
///
/// Layout: `[p1, p2, d1, p3, d2, d3, d4]` (classic positions 1..7 with
/// parity at the powers of two).
pub fn hamming74_encode(data: &[u8; 4]) -> [u8; 7] {
    let [d1, d2, d3, d4] = *data;
    let p1 = d1 ^ d2 ^ d4;
    let p2 = d1 ^ d3 ^ d4;
    let p3 = d2 ^ d3 ^ d4;
    [p1, p2, d1, p3, d2, d3, d4]
}

/// Decode a Hamming(7,4) codeword, correcting up to one flipped bit.
/// Returns the 4 data bits and whether a correction was applied. Only
/// the low bit of each input byte counts, so a readout holding values
/// other than 0/1 decodes (as its low bits) instead of panicking.
pub fn hamming74_decode(cw: &[u8; 7]) -> ([u8; 4], bool) {
    let mut w = cw.map(|b| b & 1);
    // Syndrome: which parity checks fail (1-indexed position).
    let s1 = w[0] ^ w[2] ^ w[4] ^ w[6];
    let s2 = w[1] ^ w[2] ^ w[5] ^ w[6];
    let s3 = w[3] ^ w[4] ^ w[5] ^ w[6];
    let syndrome = (s1 as usize) | ((s2 as usize) << 1) | ((s3 as usize) << 2);
    let corrected = syndrome != 0;
    if corrected {
        w[syndrome - 1] ^= 1; // lint:allow(panic_path) syndrome is 3 nonzero bits: 1..=7 indexes [u8; 7]
    }
    ([w[2], w[4], w[5], w[6]], corrected)
}

/// Parameters of one query's worth of FEC.
#[derive(Debug, Clone, Copy)]
pub struct FecLayout {
    /// Number of interleaved codewords.
    pub codewords: usize,
}

impl FecLayout {
    /// The largest layout fitting `channel_bits` tag bits per query.
    pub fn fit(channel_bits: usize) -> FecLayout {
        FecLayout {
            codewords: channel_bits / 7,
        }
    }

    /// Payload bits per query under this layout.
    pub fn data_bits(&self) -> usize {
        self.codewords * 4
    }

    /// Channel (tag) bits consumed per query.
    pub fn channel_bits(&self) -> usize {
        self.codewords * 7
    }

    /// Encode payload bits into interleaved channel bits.
    ///
    /// # Panics
    /// Panics unless `data.len() == self.data_bits()`.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.data_bits(), "payload size mismatch");
        let n = self.codewords;
        let mut codewords = Vec::with_capacity(n);
        for chunk in data.chunks(4) {
            codewords.push(hamming74_encode(&[chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        // Interleave: emit bit j of every codeword before bit j+1 of any.
        let mut out = Vec::with_capacity(self.channel_bits());
        for j in 0..7 {
            for cw in &codewords {
                out.push(cw[j]);
            }
        }
        out
    }

    /// Decode interleaved channel bits back into payload bits, returning
    /// the number of codewords that needed correction.
    ///
    /// # Panics
    /// Panics unless `channel.len() == self.channel_bits()`.
    pub fn decode(&self, channel: &[u8]) -> (Vec<u8>, usize) {
        assert_eq!(channel.len(), self.channel_bits(), "channel size mismatch");
        let n = self.codewords;
        let mut corrected = 0usize;
        let mut data = Vec::with_capacity(self.data_bits());
        for i in 0..n {
            let mut cw = [0u8; 7];
            for (j, slot) in cw.iter_mut().enumerate() {
                *slot = channel[j * n + i]; // lint:allow(panic_path) j < 7, i < n, channel.len() == 7*n (checked by caller)
            }
            let (d, fixed) = hamming74_decode(&cw);
            if fixed {
                corrected += 1;
            }
            data.extend_from_slice(&d);
        }
        (data, corrected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use witag_sim::Rng;

    #[test]
    fn hamming_all_codewords_roundtrip() {
        for v in 0..16u8 {
            let data = [(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1];
            let cw = hamming74_encode(&data);
            let (decoded, corrected) = hamming74_decode(&cw);
            assert_eq!(decoded, data);
            assert!(!corrected);
        }
    }

    #[test]
    fn hamming_corrects_every_single_error() {
        for v in 0..16u8 {
            let data = [(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1];
            let cw = hamming74_encode(&data);
            for flip in 0..7 {
                let mut bad = cw;
                bad[flip] ^= 1;
                let (decoded, corrected) = hamming74_decode(&bad);
                assert_eq!(decoded, data, "flip at {flip}");
                assert!(corrected);
            }
        }
    }

    #[test]
    fn layout_fits_query() {
        let l = FecLayout::fit(62);
        assert_eq!(l.codewords, 8);
        assert_eq!(l.data_bits(), 32);
        assert_eq!(l.channel_bits(), 56);
    }

    #[test]
    fn interleaved_roundtrip() {
        let mut rng = Rng::seed_from_u64(1);
        let l = FecLayout::fit(62);
        let data: Vec<u8> = (0..l.data_bits()).map(|_| (rng.next_u64() & 1) as u8).collect();
        let channel = l.encode(&data);
        assert_eq!(channel.len(), 56);
        let (decoded, corrected) = l.decode(&channel);
        assert_eq!(decoded, data);
        assert_eq!(corrected, 0);
    }

    #[test]
    fn burst_of_losses_corrected() {
        // A burst of `codewords` consecutive channel-bit errors lands one
        // error in each codeword — all corrected.
        let mut rng = Rng::seed_from_u64(2);
        let l = FecLayout::fit(62);
        let data: Vec<u8> = (0..l.data_bits()).map(|_| (rng.next_u64() & 1) as u8).collect();
        let mut channel = l.encode(&data);
        for bit in channel.iter_mut().skip(16).take(l.codewords) {
            *bit ^= 1;
        }
        let (decoded, corrected) = l.decode(&channel);
        assert_eq!(decoded, data, "burst of {} must be healed", l.codewords);
        assert_eq!(corrected, l.codewords);
    }

    #[test]
    fn double_error_in_one_codeword_not_corrected() {
        let l = FecLayout { codewords: 1 };
        let data = vec![1u8, 0, 1, 1];
        let mut channel = l.encode(&data);
        channel[0] ^= 1;
        channel[3] ^= 1;
        let (decoded, _) = l.decode(&channel);
        assert_ne!(decoded, data, "Hamming(7,4) cannot fix double errors");
    }
}
