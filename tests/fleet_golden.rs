//! Fleet-engine golden digests.
//!
//! Every scheduling policy × both session transports × three link
//! conditions (clean, duty-cycled, hostile faults on alternating links),
//! plus one 500-tag duty-cycled fountain fleet whose cooldown churn
//! exercises the servable-set bookkeeping at scale. Each case pins two
//! FNV-1a digests: the `net.*` trace exactly as the JSONL writer would
//! serialise it, and an explicit serialisation of the `FleetReport`
//! (header fields plus every per-tag outcome). Any change to a pick, an
//! RNG draw, a report field or a trace byte moves a digest; an engine
//! refactor that claims byte-identity must leave all of them alone.

use witag_faults::FaultPlan;
use witag_net::{run_fleet, FleetConfig, FleetReport, SchedulerKind, Transport};
use witag_obs::BufferRecorder;
use witag_sim::time::Duration;

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The trace bytes the JSONL writer would produce.
fn trace_bytes(buf: &BufferRecorder) -> String {
    let mut out = String::new();
    for e in buf.events() {
        e.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// A field-by-field text form of the report: integers only (durations
/// in nanoseconds), one line per tag, so the digest does not depend on
/// `Debug` formatting.
fn report_bytes(rep: &FleetReport) -> String {
    let mut out = format!(
        "{} {} {} {} {}\n",
        rep.scheduler.name(),
        rep.clients,
        rep.elapsed.as_nanos(),
        rep.grants,
        rep.collisions
    );
    for t in &rep.tags {
        out.push_str(&format!(
            "{} {} {} {} {} {} {} {} {}\n",
            t.tag,
            t.client,
            t.delivered as u8,
            t.latency.map_or(-1, |d| d.as_nanos() as i128),
            t.rounds,
            t.airtime.as_nanos(),
            t.payload_bits,
            t.message_bits,
            t.deadline_met as u8
        ));
    }
    out
}

#[derive(Clone, Copy, Debug)]
enum Condition {
    Clean,
    Duty,
    Hostile,
}

const POLICIES: [SchedulerKind; 5] = [
    SchedulerKind::Rr,
    SchedulerKind::Fair,
    SchedulerKind::Edf,
    SchedulerKind::Serial,
    SchedulerKind::Pred,
];

const TRANSPORTS: [Transport; 2] = [Transport::Arq, Transport::Fountain];

/// A contended 2-client × 9-tag fleet under one link condition.
fn matrix_fleet(kind: SchedulerKind, transport: Transport, cond: Condition) -> FleetConfig {
    let seed = 0x5EED;
    let cfg = FleetConfig::inventory(2, 9, kind, Duration::secs(3), seed).with_transport(transport);
    match cond {
        Condition::Clean => cfg,
        Condition::Duty => cfg.with_duty_cycle(Duration::secs(2), 0.25),
        Condition::Hostile => {
            let mut cfg = cfg;
            for (i, p) in cfg.profiles.iter_mut().enumerate() {
                if i % 2 == 0 {
                    p.faults = Some(FaultPlan::hostile_scaled(seed ^ i as u64, 0.5));
                }
            }
            cfg
        }
    }
}

/// Run one fleet; returns (trace digest, report digest).
fn digests(cfg: &FleetConfig) -> (u64, u64) {
    let mut buf = BufferRecorder::new();
    let rep = run_fleet(cfg, &mut buf).expect("valid fleet");
    (
        fnv1a(trace_bytes(&buf).as_bytes()),
        fnv1a(report_bytes(&rep).as_bytes()),
    )
}

/// Check one condition's 10 cases against `want` (policy-major, ARQ
/// before fountain); on mismatch, print the whole actual table so a
/// deliberate behaviour change can re-pin it in one step.
fn check_matrix(cond: Condition, want: &[(u64, u64); 10]) {
    let mut got = Vec::new();
    for kind in POLICIES {
        for transport in TRANSPORTS {
            got.push(digests(&matrix_fleet(kind, transport, cond)));
        }
    }
    if got != want {
        let table: Vec<String> = got
            .iter()
            .map(|(t, r)| format!("        (0x{t:016x}, 0x{r:016x}),"))
            .collect();
        panic!(
            "{cond:?} fleet digests moved; actual table:\n{}",
            table.join("\n")
        );
    }
}

#[test]
fn clean_matrix_digests_are_pinned() {
    check_matrix(Condition::Clean, &CLEAN);
}

#[test]
fn duty_cycled_matrix_digests_are_pinned() {
    check_matrix(Condition::Duty, &DUTY);
}

#[test]
fn hostile_matrix_digests_are_pinned() {
    check_matrix(Condition::Hostile, &HOSTILE);
}

#[test]
fn large_duty_cycled_fountain_fleet_digest_is_pinned() {
    // 500 duty-cycled tags across 4 clients: at any instant most are
    // asleep and cycling through cooldowns, so tags leave and re-enter
    // the servable sets thousands of times, and dozens of sessions
    // complete and leave them for good.
    let cfg = FleetConfig::inventory(4, 500, SchedulerKind::Fair, Duration::secs(30), 0x1A46E)
        .with_transport(Transport::Fountain)
        .with_duty_cycle(Duration::secs(2), 0.25);
    let got = digests(&cfg);
    assert_eq!(
        got, LARGE,
        "large fleet digests moved; actual (0x{:016x}, 0x{:016x})",
        got.0, got.1
    );
}

// (trace, report) digests, policy-major in POLICIES order, ARQ then
// fountain for each policy.
const CLEAN: [(u64, u64); 10] = [
    (0xe82e70a0ab505a08, 0x4d92437aa8edb5da),
    (0xb9948566f8ad8df9, 0x43412e20597fdabe),
    (0xdb1cdcf4445e1df8, 0x2de4c1d8a95c672c),
    (0xb1cdaeeaadeebb31, 0xf0385bb2413e0e41),
    (0x66432a7a3800975c, 0xadc1fc08060a8d2d),
    (0x8e6dee576f96450f, 0x7a00fb63bb72d3e5),
    (0x66432a7a3800975c, 0xdd8932c1f2bb829a),
    (0x8e6dee576f96450f, 0x464cf06078f09712),
    (0x5dbda49f583c9b64, 0x3254ca52df3589b3),
    (0x1c8722420ca2ff46, 0x6975c7ea6b648590),
];
const DUTY: [(u64, u64); 10] = [
    (0x4f1203b84709c501, 0xc55ccc5f797000ae),
    (0x7402a910e51a30ff, 0x92bcbc737528584c),
    (0x30b470e029a751ad, 0x3e58b317b10bbd7f),
    (0x99ff520a9e17bba8, 0x6c92a252eb74af60),
    (0xbb0ec92ff630b249, 0xcc8da9241c396b1e),
    (0xf0708902e7cff5c4, 0xb75d7aa47412d43b),
    (0xe68731b60d3b41ad, 0x88edacbe0dc36569),
    (0x9ff891743d06fce4, 0xe3d7b166cf817e29),
    (0x4aab9971ca981af0, 0x952ec018c867d36e),
    (0x8b719c1310500b84, 0xab8f718a1e2982cb),
];
const HOSTILE: [(u64, u64); 10] = [
    (0x15e583b4e926e2be, 0x073337c5c8dad809),
    (0x6da170098ac21995, 0x84a9c9e0001dd35d),
    (0x49e1ddd14ca9fb0b, 0x33421237f4b9a927),
    (0x8ca645496a9ff36d, 0x0125e6d95408adda),
    (0x532ecbaeb009611b, 0x40e3bc3de33a50dc),
    (0x39df70a9954b40bd, 0x920798a7cba37b78),
    (0xc0276d86eba8dd1b, 0xad97bd4dbfa9b0c4),
    (0xb48956c34e5cab25, 0x2ade25c10f594887),
    (0x4285c63254c3624c, 0x9b1c47f0e4e8526c),
    (0x5bd6ee942402771d, 0xddfa077bee01ebcb),
];
const LARGE: (u64, u64) = (0xb44b777bed325a33, 0xf0c7e0a3a9abf86d);
