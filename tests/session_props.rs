//! Property tests for the resilient session transport: whatever fault
//! plan the generator dreams up, the session either hands back the
//! exact bytes or fails loudly — and everything is a pure function of
//! the seeds.

mod common;

use common::{test_message, SyntheticChannel};
use proptest::prelude::*;
use witag::tagnet::{
    decode_chunk, encode_chunk, parse_base_report, run_session, SessionConfig, SessionFailure,
    SessionOutcome, CHUNK_PAYLOAD_BITS, MIN_CHANNEL_BITS,
};
use witag::FecLayout;
use witag_faults::FaultPlan;
use witag_obs::{TraceSummary, KINDS};

const CHANNEL_BITS: usize = 62;

/// A modest budget so heavy plans exercise the failure path too.
const BUDGET: usize = 1500;

fn cfg() -> SessionConfig {
    SessionConfig {
        max_rounds: BUDGET,
        ..SessionConfig::default()
    }
}

fn run(message: &[u8], plan: FaultPlan) -> (witag::tagnet::SessionReport, Vec<u8>, u64) {
    let mut ch = SyntheticChannel::new(plan, CHANNEL_BITS);
    let report =
        run_session(message, CHANNEL_BITS, &cfg(), |_q, tx| ch.round(tx)).expect("valid setup");
    let trace = ch.trace();
    (report, trace, ch.rounds())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Delivery is all-or-nothing: under ANY fault intensity the session
    /// returns the message byte-identical or an explicit failure. No
    /// silent corruption, no truncation, no reordering.
    #[test]
    fn no_silent_corruption_under_any_plan(
        seed in any::<u64>(),
        intensity in 0.0f64..1.3,
        msg_len in 0usize..192,
        msg_seed in any::<u64>(),
    ) {
        let message = test_message(msg_len, msg_seed);
        let (report, _, _) = run(&message, FaultPlan::hostile_scaled(seed, intensity));
        match report.outcome {
            SessionOutcome::Delivered(bytes) => prop_assert_eq!(bytes, message),
            SessionOutcome::Failed(
                SessionFailure::BudgetExhausted | SessionFailure::CrcMismatch,
            ) => {}
        }
        prop_assert!(report.stats.rounds <= BUDGET);
    }

    /// The whole stack — fault models, channel noise, session control
    /// loop — replays bit-identically from the seeds: same outcome,
    /// same statistics, same per-round fault trace.
    #[test]
    fn same_seed_same_trace_same_outcome(
        seed in any::<u64>(),
        intensity in 0.0f64..1.2,
        msg_len in 1usize..128,
        msg_seed in any::<u64>(),
    ) {
        let message = test_message(msg_len, msg_seed);
        let (ra, ta, na) = run(&message, FaultPlan::hostile_scaled(seed, intensity));
        let (rb, tb, nb) = run(&message, FaultPlan::hostile_scaled(seed, intensity));
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(ta, tb);
        prop_assert_eq!(na, nb);
    }

    /// A quiet plan (intensity zero) must never fail: the fault layer
    /// at rest costs nothing but the ambient channel noise.
    #[test]
    fn zero_intensity_always_delivers(
        seed in any::<u64>(),
        msg_len in 0usize..96,
        msg_seed in any::<u64>(),
    ) {
        let message = test_message(msg_len, msg_seed);
        let (report, _, _) = run(&message, FaultPlan::hostile_scaled(seed, 0.0));
        match report.outcome {
            SessionOutcome::Delivered(bytes) => prop_assert_eq!(bytes, message),
            other => prop_assert!(false, "quiet plan must deliver, got {:?}", other),
        }
    }
}

/// Derive a deterministic 20-bit chunk payload from a compact seed (the
/// proptest shim has no vec strategy; a u32 carries more than enough
/// entropy for 20 bits).
fn chunk_payload(bits: u32) -> Vec<u8> {
    (0..CHUNK_PAYLOAD_BITS)
        .map(|i| ((bits >> i) & 1) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `encode_chunk` → `decode_chunk` round-trips seq and payload for
    /// every per-query capacity the transport accepts.
    #[test]
    fn chunk_roundtrips_for_all_transport_capacities(
        seq in 0u8..16,
        payload_bits in any::<u32>(),
        channel_bits in MIN_CHANNEL_BITS..201usize,
    ) {
        let payload = chunk_payload(payload_bits);
        let encoded = encode_chunk(seq, &payload, channel_bits).expect("capacity checked");
        prop_assert_eq!(encoded.len(), channel_bits, "idle-padded to capacity");
        prop_assert_eq!(decode_chunk(&encoded, channel_bits), Some((seq, payload)));
    }

    /// One flipped bit anywhere — FEC region or idle pad — is absorbed:
    /// Hamming(7,4) corrects a single error per codeword and the pad is
    /// never inspected.
    #[test]
    fn single_bit_flip_is_corrected(
        seq in 0u8..16,
        payload_bits in any::<u32>(),
        channel_bits in MIN_CHANNEL_BITS..201usize,
        flip in any::<usize>(),
    ) {
        let payload = chunk_payload(payload_bits);
        let mut encoded = encode_chunk(seq, &payload, channel_bits).expect("capacity checked");
        let pos = flip % encoded.len();
        encoded[pos] ^= 1;
        prop_assert_eq!(decode_chunk(&encoded, channel_bits), Some((seq, payload)));
    }

    /// Anything shorter than the FEC region is rejected outright — a
    /// truncated readout can never masquerade as a chunk.
    #[test]
    fn truncated_chunks_are_rejected(
        seq in 0u8..16,
        payload_bits in any::<u32>(),
        channel_bits in MIN_CHANNEL_BITS..201usize,
        keep_frac in 0.0f64..1.0,
    ) {
        let payload = chunk_payload(payload_bits);
        let encoded = encode_chunk(seq, &payload, channel_bits).expect("capacity checked");
        let fec_bits = FecLayout::fit(channel_bits).channel_bits();
        let keep = ((fec_bits - 1) as f64 * keep_frac) as usize;
        prop_assert_eq!(decode_chunk(&encoded[..keep], channel_bits), None);
    }

    /// Heavy damage — the leading half of the FEC region flipped — can
    /// never decode back to the original chunk: the interleaver puts ≥3
    /// of those flips in every codeword, beyond any Hamming correction,
    /// so either the CRC kills it or the decoded bits differ.
    #[test]
    fn heavy_damage_never_decodes_to_the_original(
        seq in 0u8..16,
        payload_bits in any::<u32>(),
        channel_bits in MIN_CHANNEL_BITS..201usize,
    ) {
        let payload = chunk_payload(payload_bits);
        let mut encoded = encode_chunk(seq, &payload, channel_bits).expect("capacity checked");
        let fec_bits = FecLayout::fit(channel_bits).channel_bits();
        for b in encoded.iter_mut().take(fec_bits.div_ceil(2)) {
            *b ^= 1;
        }
        prop_assert_ne!(decode_chunk(&encoded, channel_bits), Some((seq, payload)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse_base_report` takes whatever a decoded chunk carries: any
    /// payload length and any byte values must come back as a verdict,
    /// never a panic, and anything shorter than a base report is `None`.
    #[test]
    fn base_report_parser_survives_arbitrary_payloads(
        seq in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let parsed = parse_base_report(seq, &payload);
        if payload.len() < CHUNK_PAYLOAD_BITS {
            prop_assert_eq!(parsed, None);
        }
        if let Some(base) = parsed {
            prop_assert_eq!(seq as usize, base % 16, "seq must echo the base");
        }
    }

    /// `decode_chunk` on an arbitrary readout — any length, any bytes
    /// (not only 0/1), any claimed capacity (including ones no layout
    /// can fit) — returns `None` or a well-formed chunk, never a panic.
    #[test]
    fn chunk_decoder_survives_arbitrary_readouts(
        bits in prop::collection::vec(any::<u8>(), 0..256),
        channel_bits in 0usize..320,
        wild_channel_bits in any::<usize>(),
    ) {
        for cb in [channel_bits, wild_channel_bits] {
            if let Some((seq, payload)) = decode_chunk(&bits, cb) {
                prop_assert!(seq < 16, "seq {} is wider than its field", seq);
                prop_assert_eq!(payload.len(), CHUNK_PAYLOAD_BITS);
            }
        }
    }
}

/// Every key `TraceSummary::ingest_line` reads, so generated lines hit
/// the accumulating branches rather than only the malformed path.
const TRACE_KEYS: [&str; 19] = [
    "schema",
    "kind",
    "bits",
    "bit_errors",
    "airtime_us",
    "mask",
    "queries",
    "idle_rounds",
    "retransmissions",
    "resyncs",
    "payload_bits",
    "rounds",
    "latency_us",
    "llr_mean",
    "llr_min",
    "llr_max",
    "triggered",
    "ba_lost",
    "delivered",
];

/// One JSON-ish trace line from raw draws: a kind (known or not) picked
/// by `draw`, then one field per `(key, value)` pair whose value is a
/// number at the extremes of `u64`, a boolean, a float or arbitrary
/// bytes. One line in four is truncated at a random byte, so partial
/// lines are covered too.
fn trace_line(draw: u64, keys: &[u64], values: &[u64], junk: &[u8]) -> String {
    let kind = KINDS
        .get(draw as usize % (KINDS.len() + 1))
        .copied()
        .unwrap_or("from_the_future");
    let junk = String::from_utf8_lossy(junk);
    let mut line = format!("{{\"kind\":\"{kind}\"");
    for (&key, &value) in keys.iter().zip(values) {
        let key = TRACE_KEYS[key as usize % TRACE_KEYS.len()];
        let value = match value % 6 {
            0 => u64::MAX.to_string(),
            1 => (value >> 3).to_string(),
            2 => (value & 8 != 0).to_string(),
            3 => format!("{:e}", f64::from_bits(value)),
            4 => format!("\"{junk}\""),
            _ => junk.to_string(),
        };
        line.push_str(&format!(",\"{key}\":{value}"));
    }
    line.push('}');
    let mangle = draw >> 8;
    if mangle.is_multiple_of(4) {
        let cut = (mangle / 4) as usize % (line.len() + 1);
        let cut = (0..=cut)
            .rev()
            .find(|&i| line.is_char_boundary(i))
            .unwrap_or(0);
        line.truncate(cut);
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `TraceSummary::ingest_line` reads untrusted trace files (`witag-cli
    /// report`): any sequence of lines — extreme `u64` fields repeated
    /// until a running total would overflow, wrong-typed values, unknown
    /// kinds, truncated lines, arbitrary bytes — aggregates and renders
    /// without a panic.
    #[test]
    fn trace_summary_survives_arbitrary_lines(
        draws in prop::collection::vec(any::<u64>(), 1..12),
        keys in prop::collection::vec(any::<u64>(), 0..24),
        values in prop::collection::vec(any::<u64>(), 0..24),
        junk in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut s = TraceSummary::default();
        let mut lines = 0u64;
        for &draw in &draws {
            let line = trace_line(draw, &keys, &values, &junk);
            // Twice, so every extreme field is summed with itself.
            s.ingest_line(&line);
            s.ingest_line(&line);
            lines += 2;
        }
        s.ingest_line(&String::from_utf8_lossy(&junk));
        lines += 1;
        prop_assert!(s.events() + s.unknown() <= lines);
        prop_assert!(s.render().starts_with("trace summary"));
    }
}
