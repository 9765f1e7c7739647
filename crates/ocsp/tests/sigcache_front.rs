//! Property test for the signature-verification memo and its front:
//! any sequence of cached validations returns exactly what uncached
//! validation returns, and `ocsp.validate.sigcache.{hit,miss}` match a
//! reference model in which a call hits exactly when its (issuer, body)
//! pair reached the signature stage before.

use asn1::Time;
use mustaple_ocsp::{
    validate_response, validate_response_cached, CertId, MalformMode, OcspRequest, OcspResponse,
    Responder, ResponderProfile, ResponseStatus, SigVerifyCache, ValidationConfig,
};
use pki::{Certificate, CertificateAuthority, IssueParams, IssuerHashes, Serial};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::cell::OnceCell;
use std::collections::BTreeSet;

fn t0() -> Time {
    Time::from_civil(2018, 5, 1, 0, 0, 0)
}

/// Body kinds, one responder profile each (the last signs through a
/// delegated OCSP signer).
const KINDS: usize = 9;

/// Two issuers, the serials probed, and the response bodies, indexed
/// `[issuer][serial][kind][production time]`, plus one error-status
/// body.
struct Env {
    issuers: Vec<Certificate>,
    serials: Vec<Serial>,
    bodies: Vec<Vec<Vec<[Vec<u8>; 2]>>>,
    error_body: Vec<u8>,
}

thread_local! {
    static ENV: OnceCell<Env> = const { OnceCell::new() };
}

fn profile(kind: usize) -> ResponderProfile {
    let healthy = ResponderProfile::healthy();
    match kind {
        0 | 8 => healthy,
        1 => healthy.validity(7_200),
        2 => healthy.blank_next_update(),
        3 => healthy.malformed(MalformMode::TruncatedDer),
        4 => healthy.malformed(MalformMode::LiteralZero),
        5 => healthy.wrong_serial(),
        6 => healthy.corrupt_signature(),
        _ => healthy.extra_serials(3),
    }
}

fn build_env() -> Env {
    let mut rng = StdRng::seed_from_u64(0xF207);
    let mut cas = vec![
        CertificateAuthority::new_root(&mut rng, "A", "A Root", "a.test", t0()),
        CertificateAuthority::new_root(&mut rng, "B", "B Root", "b.test", t0()),
    ];
    let leaf = cas[0].issue(&mut rng, &IssueParams::new("leaf.example", t0()));
    // 0x1001, 0x1021 and 0x1041 share one front set of two slots (its
    // index is the serial's last byte modulo the set count, 8), so they
    // evict each other; 0x2002 lands elsewhere.
    let serials = vec![
        leaf.serial().clone(),
        Serial::from_u64(0x1001),
        Serial::from_u64(0x1021),
        Serial::from_u64(0x1041),
        Serial::from_u64(0x2002),
    ];
    let mut bodies = Vec::new();
    for ca in &mut cas {
        let (signer, signer_key) = ca.issue_ocsp_signer(&mut rng, t0());
        let mut per_serial = Vec::new();
        for serial in &serials {
            let request =
                OcspRequest::single(CertId::for_serial(serial.clone(), ca.issuer_hashes()));
            let per_kind = (0..KINDS)
                .map(|kind| {
                    let mut responder = if kind == KINDS - 1 {
                        Responder::with_delegated_signer(
                            "u",
                            profile(kind),
                            signer.clone(),
                            signer_key.clone(),
                        )
                    } else {
                        Responder::new("u", profile(kind))
                    };
                    [t0(), t0() + 3_600].map(|at| responder.handle(ca, &request, at))
                })
                .collect();
            per_serial.push(per_kind);
        }
        bodies.push(per_serial);
    }
    Env {
        issuers: cas.iter().map(|ca| ca.certificate().clone()).collect(),
        serials,
        bodies,
        error_body: OcspResponse::error(ResponseStatus::Unauthorized).to_der(),
    }
}

/// Whether uncached validation of `body` for `serial` reaches the
/// signature stage: it decodes, is `successful`, carries a payload and
/// answers `serial`.
fn reaches_signature_stage(body: &[u8], serial: &Serial) -> bool {
    OcspResponse::from_der(body).is_ok_and(|response| {
        response.status == ResponseStatus::Successful
            && response.basic.is_some_and(|basic| {
                basic
                    .responses
                    .iter()
                    .any(|sr| sr.cert_id.serial == *serial)
            })
    })
}

/// What one call validates: (producing issuer, serial, kind, production
/// time) of the body (kind `KINDS` is the error-status body), and the
/// issuer it is validated against.
type Probe = ((usize, usize, usize, usize), usize);

/// One call: 0–1 draw a fresh probe, 2 repeats the previous one, 3 the
/// one before it (so probes alternate and colliding serials evict each
/// other); then a receive-time offset from `t0` and the clock model.
type Call = (u8, Probe, (i64, bool, bool));

fn arb_call() -> impl Strategy<Value = Call> {
    (
        0u8..4,
        (
            (0usize..2, 0usize..5, 0usize..KINDS + 1, 0usize..2),
            0usize..2,
        ),
        (-2i64 * 3_600..9 * 86_400, any::<bool>(), any::<bool>()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_validation_equals_uncached_and_counts_exactly(
        calls in proptest::collection::vec(arb_call(), 1..48),
    ) {
        ENV.with(|cell| {
            let env = cell.get_or_init(build_env);
            let mut reg = telemetry::Registry::new();
            let mut cache = SigVerifyCache::new();
            let mut seen: BTreeSet<(usize, Vec<u8>)> = BTreeSet::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            let mut history: Vec<Probe> = Vec::new();
            for (mode, fresh, (offset, slow_clock, strict)) in calls {
                let probe = match mode {
                    2 | 3 if history.len() >= usize::from(mode) - 1 => {
                        history[history.len() + 1 - usize::from(mode)]
                    }
                    _ => fresh,
                };
                history.push(probe);
                let ((producer, serial_idx, kind, time), issuer_idx) = probe;
                let body = match kind {
                    KINDS => &env.error_body,
                    _ => &env.bodies[producer][serial_idx][kind][time],
                };
                let issuer = &env.issuers[issuer_idx];
                let cert_id =
                    CertId::for_serial(env.serials[serial_idx].clone(), &IssuerHashes::of(issuer));
                let at = t0() + offset;
                let config = ValidationConfig {
                    clock_skew: if slow_clock { -30 } else { 0 },
                    require_next_update: strict,
                };
                let cached = validate_response_cached(
                    &mut reg, "scan.test.validate", &mut cache, body, &cert_id, issuer, at, config,
                );
                let plain = validate_response(body, &cert_id, issuer, at, config);
                prop_assert_eq!(&cached, &plain);

                if reaches_signature_stage(body, &cert_id.serial) {
                    if seen.insert((issuer_idx, body.clone())) {
                        misses += 1;
                    } else {
                        hits += 1;
                    }
                }
                prop_assert_eq!(reg.counter("ocsp.validate.sigcache", "hit"), hits);
                prop_assert_eq!(reg.counter("ocsp.validate.sigcache", "miss"), misses);
                prop_assert_eq!(cache.len(), seen.len());
            }
            Ok(())
        })?;
    }
}
