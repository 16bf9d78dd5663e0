//! Property-based tests for the MAC: aggregation geometry, corruption
//! containment, block-ACK bitmap correctness — for arbitrary MPDU mixes
//! and arbitrary damage — and the wire decoders on arbitrary bytes.

use proptest::prelude::*;
use witag_crypto::with_fcs;
use witag_mac::ampdu::{aggregate, deaggregate, Mpdu};
use witag_mac::blockack::BlockAck;
use witag_mac::header::{Addr, FrameKind, MacHeader};

/// First frame-control byte of each frame kind the header parser
/// accepts (protocol version 0: QoS data, QoS null, block-ACK request,
/// block ACK). Steering a random body's first byte to one of these gets
/// it past the kind check into the field parsing.
const VALID_FC0: [u8; 4] = [0x88, 0xC8, 0x84, 0x94];

/// The header bits the wire format carries. `MacHeader::from_bytes`
/// ignores the frame-control flags other than Protected, the fragment
/// number and the QoS bits above the TID, so a re-encoded header matches
/// its source bytes only under this mask.
const HEADER_MASK: [u8; 26] = [
    0xFF, 0x40, // frame control: version, type, subtype; Protected
    0xFF, 0xFF, // duration
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // addr1
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // addr2
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // addr3
    0xF0, 0xFF, // sequence control: sequence number
    0x0F, 0x00, // QoS control: TID
];

/// The block-ACK body bits the wire format carries (FCS excluded). The
/// parser ignores the protocol version, the frame-control flags, the
/// duration, the BA-control bits below the TID and the fragment number.
const BLOCK_ACK_MASK: [u8; 28] = [
    0xFC, 0x00, // frame control: type, subtype
    0x00, 0x00, // duration
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // ra
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // ta
    0x00, 0xF0, // BA control: TID
    0xF0, 0xFF, // starting sequence control: sequence number
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // bitmap
];

/// Equal length, and equal in every bit `mask` keeps; bytes past the
/// mask's end must match exactly.
fn masked_eq(a: &[u8], b: &[u8], mask: &[u8]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).enumerate().all(|(i, (x, y))| {
            (x ^ y) & mask.get(i).copied().unwrap_or(0xFF) == 0
        })
}

/// An arbitrary byte string as a decoder sees it: optionally with its
/// first byte steered to `fc0`, optionally with a valid FCS appended.
/// Random bytes almost never pass the FCS check, so only the framed
/// variant reaches the field parsing.
fn frame(mut raw: Vec<u8>, fc0: Option<u8>, fcs: bool) -> Vec<u8> {
    if let (Some(b), Some(first)) = (fc0, raw.first_mut()) {
        *first = b;
    }
    if fcs {
        with_fcs(&raw)
    } else {
        raw
    }
}

fn mpdu(seq: u16, payload_len: usize) -> Mpdu {
    let mut h = MacHeader::qos_null(Addr::local(1), Addr::local(2), Addr::local(1), seq % 4096);
    if payload_len > 0 {
        h.kind = FrameKind::QosData;
    }
    Mpdu {
        header: h,
        payload: vec![(seq % 251) as u8; payload_len],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aggregate_extents_tile_the_psdu(
        sizes in proptest::collection::vec(0usize..600, 1..64),
    ) {
        let mpdus: Vec<Mpdu> = sizes.iter().enumerate()
            .map(|(i, &len)| mpdu(i as u16, len))
            .collect();
        let (psdu, extents) = aggregate(&mpdus);
        prop_assert_eq!(extents.len(), mpdus.len());
        prop_assert_eq!(extents[0].start, 0);
        for w in extents.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start, "extents must tile");
            prop_assert_eq!(w[0].end % 4, 0, "non-final subframes 4-byte aligned");
        }
        prop_assert_eq!(extents.last().unwrap().end, psdu.len());
    }

    #[test]
    fn clean_deaggregation_recovers_everything(
        sizes in proptest::collection::vec(0usize..600, 1..64),
    ) {
        let mpdus: Vec<Mpdu> = sizes.iter().enumerate()
            .map(|(i, &len)| mpdu(i as u16, len))
            .collect();
        let (psdu, _) = aggregate(&mpdus);
        let outcomes = deaggregate(&psdu);
        prop_assert_eq!(outcomes.len(), mpdus.len());
        for (o, m) in outcomes.iter().zip(mpdus.iter()) {
            prop_assert_eq!(o.mpdu.as_ref(), Some(m));
        }
    }

    #[test]
    fn corruption_is_contained_to_the_damaged_subframe(
        n in 2usize..32,
        victim_sel in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mpdus: Vec<Mpdu> = (0..n).map(|i| mpdu(i as u16, 20)).collect();
        let (mut psdu, extents) = aggregate(&mpdus);
        let victim = victim_sel.index(n);
        let e = extents[victim];
        // Damage the victim's MPDU body only (not its delimiter).
        for b in &mut psdu[e.mpdu_start..e.mpdu_start + e.mpdu_len] {
            *b ^= xor;
        }
        let outcomes = deaggregate(&psdu);
        prop_assert_eq!(outcomes.len(), n);
        for (i, o) in outcomes.iter().enumerate() {
            if i == victim {
                prop_assert!(o.mpdu.is_none(), "victim {i} must fail");
            } else {
                prop_assert!(o.mpdu.is_some(), "bystander {i} must survive");
            }
        }
    }

    #[test]
    fn block_ack_bitmap_matches_loss_pattern(
        losses in proptest::collection::btree_set(0usize..32, 0..16),
    ) {
        let n = 32usize;
        let mpdus: Vec<Mpdu> = (0..n).map(|i| mpdu(i as u16, 10)).collect();
        let (mut psdu, extents) = aggregate(&mpdus);
        for &l in &losses {
            let e = extents[l];
            for b in &mut psdu[e.mpdu_start..e.mpdu_start + e.mpdu_len] {
                *b ^= 0x3C;
            }
        }
        let ba = BlockAck::from_outcomes(
            Addr::local(2), Addr::local(1), 0, 0, &deaggregate(&psdu));
        for (i, bit) in ba.tag_bits(n).iter().enumerate() {
            let expect = u8::from(!losses.contains(&i));
            prop_assert_eq!(*bit, expect, "bit {}", i);
        }
    }

    #[test]
    fn block_ack_wire_roundtrip(
        bitmap in any::<u64>(),
        ssn in 0u16..4096,
        tid in 0u8..16,
    ) {
        let ba = BlockAck {
            ra: Addr::local(9),
            ta: Addr::local(7),
            tid,
            ssn,
            bitmap,
        };
        prop_assert_eq!(BlockAck::from_bytes(&ba.to_bytes()), Some(ba));
    }

    #[test]
    fn header_roundtrip(
        seq in 0u16..4096,
        tid in 0u8..16,
        duration in any::<u16>(),
        protected in any::<bool>(),
    ) {
        let h = MacHeader {
            kind: FrameKind::QosData,
            protected,
            duration,
            addr1: Addr::local(1),
            addr2: Addr::local(2),
            addr3: Addr::local(3),
            seq,
            tid,
        };
        prop_assert_eq!(MacHeader::from_bytes(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn garbage_never_panics_the_deaggregator(
        garbage in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        // Must terminate and produce no false positives that parse as
        // valid MPDUs (delimiter CRC + signature + FCS all colliding is
        // astronomically unlikely for random bytes).
        let outcomes = deaggregate(&garbage);
        for o in outcomes {
            prop_assert!(o.mpdu.is_none());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn header_from_bytes_survives_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..40),
        steer in any::<bool>(),
        kind in any::<prop::sample::Index>(),
    ) {
        let bytes = frame(raw, steer.then(|| VALID_FC0[kind.index(4)]), false);
        if let Ok(h) = MacHeader::from_bytes(&bytes) {
            let wire = h.to_bytes();
            prop_assert!(
                masked_eq(&wire, &bytes[..wire.len()], &HEADER_MASK),
                "re-encoded header {:?} differs from its source {:?}", wire, bytes
            );
            prop_assert_eq!(MacHeader::from_bytes(&wire), Ok(h));
        }
    }

    #[test]
    fn mpdu_from_bytes_survives_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..96),
        steer in any::<bool>(),
        kind in any::<prop::sample::Index>(),
        fcs in any::<bool>(),
    ) {
        let bytes = frame(raw, steer.then(|| VALID_FC0[kind.index(4)]), fcs);
        if let Some(m) = Mpdu::from_bytes(&bytes) {
            let wire = m.to_bytes();
            prop_assert!(
                wire.len() == bytes.len()
                    && masked_eq(&wire[..wire.len() - 4], &bytes[..bytes.len() - 4], &HEADER_MASK),
                "re-encoded MPDU {:?} differs from its source {:?}", wire, bytes
            );
            prop_assert_eq!(Mpdu::from_bytes(&wire), Some(m));
        }
    }

    #[test]
    fn block_ack_from_bytes_survives_arbitrary_bytes(
        raw in prop_oneof![
            proptest::collection::vec(any::<u8>(), 28),
            proptest::collection::vec(any::<u8>(), 0..40),
        ],
        steer in any::<bool>(),
        fcs in any::<bool>(),
    ) {
        let bytes = frame(raw, steer.then_some(VALID_FC0[3]), fcs);
        if let Some(ba) = BlockAck::from_bytes(&bytes) {
            let wire = ba.to_bytes();
            prop_assert!(
                wire.len() == bytes.len()
                    && masked_eq(&wire[..wire.len() - 4], &bytes[..bytes.len() - 4], &BLOCK_ACK_MASK),
                "re-encoded block ACK {:?} differs from its source {:?}", wire, bytes
            );
            prop_assert_eq!(BlockAck::from_bytes(&wire), Some(ba));
        }
    }
}
