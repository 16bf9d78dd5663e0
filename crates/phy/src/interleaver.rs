//! 802.11 BCC block interleaver (legacy §17.3.5.7, HT §19.3.11.8.1).
//!
//! Within each OFDM symbol, coded bits are permuted twice: the first
//! permutation spreads adjacent coded bits across distant subcarriers (so
//! a narrowband fade does not wipe out a run of code bits); the second
//! rotates bits across constellation bit positions (so no code bit is
//! stuck in the least-reliable QAM bit). Deinterleaving at the receiver
//! restores code order for the Viterbi decoder.
//!
//! The interleaver matters for WiTAG fidelity: the tag's channel flip hits
//! *all* subcarriers of affected symbols, but ambient frequency-selective
//! fading hits a few — the interleaver is why low-MCS frames survive the
//! latter (no tag-bit false zeros) yet cannot survive the former.
//!
//! Column counts per the standard: 16 for the legacy 48-data-subcarrier
//! format, 13 for HT 20 MHz (52 data subcarriers), 18 for HT 40 MHz.

use crate::params::Bandwidth;

/// Interleaver dimensions for one symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleaverDims {
    /// Coded bits per symbol per stream (`N_CBPS`).
    pub n_cbps: usize,
    /// Coded bits per subcarrier (`N_BPSCS`).
    pub n_bpscs: usize,
    /// Number of columns (`N_COL`).
    pub n_col: usize,
}

impl InterleaverDims {
    /// HT dimensions for the given bandwidth and per-subcarrier bit count.
    pub fn ht(bw: Bandwidth, n_bpscs: usize) -> Self {
        let (n_col, data_sc) = match bw {
            Bandwidth::Mhz20 => (13, 52),
            Bandwidth::Mhz40 => (18, 108),
            // VHT 80 MHz: 26 columns, 234 data subcarriers.
            Bandwidth::Mhz80 => (26, 234),
        };
        InterleaverDims {
            n_cbps: data_sc * n_bpscs,
            n_bpscs,
            n_col,
        }
    }

    /// Legacy (non-HT) 48-data-subcarrier dimensions.
    pub fn legacy(n_bpscs: usize) -> Self {
        InterleaverDims {
            n_cbps: 48 * n_bpscs,
            n_bpscs,
            n_col: 16,
        }
    }
}

/// Compute the interleaver permutation for one OFDM symbol: output
/// position `perm[k]` carries input (code-order) bit `k`.
fn permutation(d: InterleaverDims) -> Vec<usize> {
    assert!(
        d.n_cbps.is_multiple_of(d.n_col),
        "N_CBPS {} must divide into {} columns",
        d.n_cbps,
        d.n_col
    );
    let n_row = d.n_cbps / d.n_col;
    let s = (d.n_bpscs / 2).max(1);
    (0..d.n_cbps)
        .map(|k| {
            // First permutation (write row-wise, read column-wise).
            let i = n_row * (k % d.n_col) + k / d.n_col;
            // Second permutation (rotation across constellation bits).
            (s * (i / s)) + (i + d.n_cbps - (d.n_col * i) / d.n_cbps) % s
        })
        // Cache build: runs once per distinct dimension set when a scratch
        // first sees it, then every decode is lookup-only.
        .collect() // lint:allow(no_alloc_transitive)
}

/// A precomputed interleaver permutation for one set of dimensions.
///
/// Computing the permutation involves a division per bit position, so
/// callers build it once (per PPDU on transmit, inside the receive
/// scratch on receive) and reuse it for every symbol. This is the only
/// way to (de)interleave.
#[derive(Debug, Clone)]
pub struct InterleaverPerm {
    dims: InterleaverDims,
    perm: Vec<usize>,
}

impl InterleaverPerm {
    /// Precompute the permutation table for `dims`.
    pub fn new(dims: InterleaverDims) -> Self {
        InterleaverPerm {
            dims,
            perm: permutation(dims),
        }
    }

    /// The dimensions this table was built for.
    pub fn dims(&self) -> InterleaverDims {
        self.dims
    }

    /// Interleave one symbol's worth of items (bits at TX) into `out`
    /// (cleared and resized first).
    ///
    /// # Panics
    /// Panics if `items.len() != dims().n_cbps`.
    // lint:no_alloc
    pub fn interleave_into<T: Copy + Default>(&self, items: &[T], out: &mut Vec<T>) {
        assert_eq!(items.len(), self.dims.n_cbps, "one full symbol at a time");
        out.clear();
        out.resize(self.dims.n_cbps, T::default());
        for (k, &p) in self.perm.iter().enumerate() {
            out[p] = items[k];
        }
    }

    /// Inverse of [`Self::interleave_into`] (LLRs at RX), writing into
    /// `out` (cleared first).
    // lint:no_alloc
    pub fn deinterleave_into<T: Copy + Default>(&self, items: &[T], out: &mut Vec<T>) {
        assert_eq!(items.len(), self.dims.n_cbps, "one full symbol at a time");
        out.clear();
        out.reserve(self.dims.n_cbps);
        for &p in self.perm.iter() {
            out.push(items[p]);
        }
    }

    /// [`Self::deinterleave_into`] that *appends* instead of clearing: the
    /// single-stream receive chain deinterleaves every symbol directly
    /// onto the end of the whole-DATA-field code stream, skipping the
    /// intermediate per-symbol buffer (and the stream-deparse copy, which
    /// is the identity for one spatial stream). Values appended are
    /// exactly those [`Self::deinterleave_into`] would produce.
    // lint:no_alloc
    pub fn deinterleave_append<T: Copy + Default>(&self, items: &[T], out: &mut Vec<T>) {
        assert_eq!(items.len(), self.dims.n_cbps, "one full symbol at a time");
        out.reserve(self.dims.n_cbps);
        let start = out.len();
        out.resize(start + self.dims.n_cbps, T::default());
        for (o, &p) in out[start..].iter_mut().zip(self.perm.iter()) {
            *o = items[p];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_dims() -> Vec<InterleaverDims> {
        let mut v = Vec::new();
        for bw in [Bandwidth::Mhz20, Bandwidth::Mhz40] {
            for n_bpscs in [1usize, 2, 4, 6, 8] {
                v.push(InterleaverDims::ht(bw, n_bpscs));
            }
        }
        for n_bpscs in [1usize, 2, 4, 6] {
            v.push(InterleaverDims::legacy(n_bpscs));
        }
        v
    }

    #[test]
    fn permutation_is_bijective() {
        for d in all_dims() {
            let perm = permutation(d);
            let mut seen = vec![false; d.n_cbps];
            for &p in &perm {
                assert!(!seen[p], "duplicate output position {p} in {d:?}");
                seen[p] = true;
            }
            assert!(seen.iter().all(|&s| s), "not a permutation: {d:?}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        for d in all_dims() {
            let perm = InterleaverPerm::new(d);
            let data: Vec<u8> = (0..d.n_cbps).map(|i| ((i * 7) % 2) as u8).collect();
            let (mut tx, mut rx) = (Vec::new(), Vec::new());
            perm.interleave_into(&data, &mut tx);
            perm.deinterleave_into(&tx, &mut rx);
            assert_eq!(rx, data, "{d:?}");
        }
    }

    #[test]
    fn ht20_dimensions() {
        let d = InterleaverDims::ht(Bandwidth::Mhz20, 4);
        assert_eq!(d.n_cbps, 208);
        assert_eq!(d.n_col, 13);
        assert_eq!(d.n_cbps / d.n_col, 16); // N_ROW = 4·N_BPSCS
    }

    #[test]
    fn adjacent_code_bits_are_spread() {
        // Consecutive code bits must land roughly a row apart in transmit
        // order (that is the point of the row/column write).
        let d = InterleaverDims::ht(Bandwidth::Mhz20, 4);
        let n_row = d.n_cbps / d.n_col;
        let perm = permutation(d);
        for k in 0..d.n_cbps - 1 {
            if k % d.n_col == d.n_col - 1 {
                continue; // row wrap
            }
            let dist = perm[k].abs_diff(perm[k + 1]);
            assert!(dist + 2 >= n_row, "bits {k},{} only {dist} apart", k + 1);
        }
    }

    #[test]
    fn burst_becomes_scattered() {
        // A contiguous 12-bit burst in *transmit* order must deinterleave
        // to non-contiguous code positions.
        let d = InterleaverDims::ht(Bandwidth::Mhz20, 2);
        let mut rx = vec![0u8; d.n_cbps];
        for slot in rx.iter_mut().skip(30).take(12) {
            *slot = 1;
        }
        let mut code_order = Vec::new();
        InterleaverPerm::new(d).deinterleave_into(&rx, &mut code_order);
        let positions: Vec<usize> = code_order
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == 1).then_some(i))
            .collect();
        let contiguous_pairs = positions.windows(2).filter(|w| w[1] - w[0] == 1).count();
        assert!(contiguous_pairs <= 4, "burst stayed contiguous: {positions:?}");
        // No run longer than a pair survives.
        let longest_run = positions
            .windows(3)
            .filter(|w| w[1] - w[0] == 1 && w[2] - w[1] == 1)
            .count();
        assert_eq!(longest_run, 0, "3-bit run survived: {positions:?}");
    }

    #[test]
    #[should_panic(expected = "one full symbol")]
    fn wrong_length_rejected() {
        let d = InterleaverDims::ht(Bandwidth::Mhz20, 1);
        InterleaverPerm::new(d).interleave_into(&[0u8; 51], &mut Vec::new());
    }
}
