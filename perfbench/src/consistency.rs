//! The `consistency` workload: the CRL↔OCSP consistency study over the
//! `figures` ecosystem with its revoked pool enlarged to
//! [`REVOKED_POOL`] certificates, on a 2-worker executor.
//!
//! Every check is a distinct revoked serial: a responder sign, a
//! signature-memo miss with a full RSA verify, after one signed CRL
//! fetch and parse per operator. It uses the responder and validator
//! layers the opposite way to `hourly` (always miss, never hit).

use crate::asn1::Time;
use crate::ecosystem::{EcosystemConfig, LiveEcosystem};
use crate::hourly::{carries_signature, responder_cache, sigcache_counts, ReplayCounts};
use crate::netsim::{HttpOutcome, Region, World};
use crate::ocsp::{validate_response_cached, OcspRequest, SigVerifyCache, ValidationConfig};
use crate::pki::Crl;
use crate::report::Outcome;
use crate::scanner::{ConsistencyStudy, ConsistencySummary, Executor};
use crate::telemetry::catalog;
use crate::trace::Tracer;
use crate::{Options, Scale};
use std::collections::HashMap;

/// Revoked certificates in the pool at `figures` scale.
pub const REVOKED_POOL: usize = 10_000;

/// Keep spans for every this-many-th check of the traced replay.
const SPAN_SAMPLE_EVERY: u64 = 100;

/// The study's vantage point.
const VANTAGE: Region = Region::Virginia;

/// The workload's ecosystem configuration.
pub fn config(scale: Scale, seed: u64) -> EcosystemConfig {
    match scale {
        Scale::Figures => {
            let mut config = EcosystemConfig::figures().with_seed(seed);
            config.revoked_pool = REVOKED_POOL;
            config
        }
        Scale::Tiny => EcosystemConfig::tiny().with_seed(seed),
    }
}

/// The study instant, as the full study runs it (the paper's May 1st).
pub fn study_time(eco: &LiveEcosystem) -> Time {
    eco.config.campaign_start + 6 * 86_400
}

/// Run the workload.
pub fn run(opts: &Options) -> Outcome {
    if opts.trace {
        traced(opts)
    } else {
        end_to_end(opts)
    }
}

fn study(eco: &LiveEcosystem, executor: &Executor) -> ConsistencySummary {
    ConsistencyStudy::run_with(eco, study_time(eco), VANTAGE, executor)
}

fn end_to_end(opts: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let (eco, setup) =
        crate::timed_setup(opts.seed, |seed| crate::generate(&config(opts.scale, seed)));
    let executor = crate::executor();

    let mut first: Option<ConsistencySummary> = None;
    let mut checks = 0u64;
    let walls = crate::timed_passes(
        opts.duration(),
        2,
        || study(&eco, &executor),
        |summary| {
            checks = summary.requests;
            let ok = first.as_ref().is_none_or(|first| *first == summary);
            outcome.check(
                summary.requests,
                if ok { 0 } else { summary.requests },
                "a 2-worker pass differed from the first",
            );
            first.get_or_insert(summary);
        },
    );
    // Outside the timed interval: the serial study must agree.
    let serial = study(&eco, &Executor::serial());
    let ok = first.as_ref() == Some(&serial);
    outcome.check(
        serial.requests,
        if ok { 0 } else { serial.requests },
        "the serial summary differs from the 2-worker summary",
    );
    crate::scan_metrics(&mut outcome, &setup, &walls, checks, "revocation checks");
    outcome
}

fn traced(opts: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let config = config(opts.scale, opts.seed);
    let eco = crate::generate(&config);

    let mut walls = crate::TracedWalls::default();
    let mut tracer = Tracer::new(SPAN_SAMPLE_EVERY);
    let mut bodies = Vec::new();
    let mut serial = None;
    let mut counts = ReplayCounts::default();
    for round in 0..crate::TRACED_ROUNDS {
        let (parallel, wall) = crate::timed(|| study(&eco, &crate::executor()));
        walls.parallel.push(wall);
        // The serial pass runs right before the replays it is compared with.
        let (this, wall) = crate::timed(|| study(&eco, &Executor::serial()));
        walls.serial.push(wall);
        let ok = this == parallel;
        outcome.check(
            this.requests,
            if ok { 0 } else { this.requests },
            "the serial summary differs from the 2-worker summary",
        );
        let (_, wall) = crate::timed(|| replay(&eco, 0, &mut Tracer::disabled(), None));
        walls.untraced.push(wall);
        let keep = (round == 0).then_some(&mut bodies);
        let op_base = round as u64 * this.requests;
        let (replayed, wall) =
            crate::counting_allocs(|| crate::timed(|| replay(&eco, op_base, &mut tracer, keep)));
        walls.traced.push(wall);
        counts = replayed;
        serial.get_or_insert(this);
    }
    crate::counting_allocs(|| crate::time_decodes(&mut tracer, &bodies));

    let serial = serial.expect("at least one round");
    let ops = serial.requests;
    if counts.ops != ops {
        outcome.note(format!(
            "LEDGER WARNING: the replay made {} checks, the study {ops}",
            counts.ops
        ));
    }
    let reg = &serial.telemetry;
    let (hit, signs) = responder_cache(reg);
    let (memo_hit, memo_miss) = sigcache_counts(reg);
    let crl_fetches = reg.counter_total(catalog::SCAN_CONSISTENCY_CRL_FETCH);
    let residual = crate::ledger(
        &mut outcome,
        &tracer,
        crate::TRACED_ROUNDS as u64 * ops,
        walls.serial_ns_per_op(ops),
        &["asn1.response_decode"],
    );
    let all_signs = signs + counts.uncached_signed + crl_fetches;
    let counters: u64 = reg.counters().map(|(_, _, v)| v).sum();
    let mut values = crate::layer_values(&tracer);
    values.extend([
        (
            "ocsp.responder.hit_ratio",
            crate::ratio(hit, hit + signs),
            "hit / (hit + miss + window_sign)".into(),
        ),
        (
            "ocsp.sigcache.hit_ratio",
            crate::ratio(memo_hit, memo_hit + memo_miss),
            "hit / (hit + miss)".into(),
        ),
        (
            "simcrypto.signs_per_op",
            crate::ratio(all_signs, ops),
            format!("{all_signs} signs (responses and CRLs) over {ops} checks"),
        ),
        (
            "simcrypto.verifies_per_op",
            crate::ratio(memo_miss, ops),
            "signature-memo misses per check".into(),
        ),
        (
            "telemetry.incr_per_op",
            crate::ratio(counters, ops),
            "counter-total delta per check".into(),
        ),
        (
            "scanner.residual_ns",
            residual,
            "serial cost per check minus replayed layers".into(),
        ),
        (
            "scanner.executor.speedup",
            walls.speedup(),
            walls.speedup_basis(),
        ),
        (
            "trace.overhead_frac",
            walls.overhead(),
            walls.overhead_basis(),
        ),
    ]);
    crate::per_layer_metrics(&mut outcome, values);
    crate::write_trace(&mut outcome, opts, &tracer);
    outcome
}

/// Replay the study serially, operator by operator as its shards do:
/// fetch and parse each distinct CRL once, then send one OCSP request
/// per revoked serial the CRL lists, and validate the answer. Times
/// each `World::http_post`, `Crl::from_der` and
/// `validate_response_cached` call. Checks are numbered from `op_base`;
/// every answer body goes to `bodies`.
fn replay(
    eco: &LiveEcosystem,
    op_base: u64,
    tracer: &mut Tracer,
    mut bodies: Option<&mut Vec<Vec<u8>>>,
) -> ReplayCounts {
    let at = study_time(eco);
    let topo = eco.build_topology();
    let mut counts = ReplayCounts::default();
    for operator in 0..eco.operators.len() {
        let targets: Vec<usize> = (0..eco.revoked.len())
            .filter(|&i| eco.revoked[i].operator == operator)
            .collect();
        let mut world = World::from_topology(topo.clone());
        let mut sigcache = SigVerifyCache::new();
        let mut crls: HashMap<&str, Option<Crl>> = HashMap::new();
        for &idx in &targets {
            let url = eco.revoked[idx].crl_url.as_str();
            if crls.contains_key(url) {
                continue;
            }
            let from = tracer.stamp();
            let outcome = world.http_post(VANTAGE, url, b"", at).outcome;
            tracer.finish("netsim.http_post.crl", op_base + counts.ops, None, from);
            let parsed = match outcome {
                HttpOutcome::Ok(body) => {
                    let from = tracer.stamp();
                    let parsed = Crl::from_der(&body).ok();
                    tracer.finish("pki.crl_decode", op_base + counts.ops, None, from);
                    parsed
                }
                _ => None,
            };
            crls.insert(url, parsed);
        }
        for &idx in &targets {
            let target = &eco.revoked[idx];
            let Some(Some(crl)) = crls.get(target.crl_url.as_str()) else {
                continue;
            };
            if crl.find(&target.serial).is_none() {
                continue;
            }
            let op = op_base + counts.ops;
            counts.ops += 1;
            let span = tracer.open("consistency.check", op);
            let request = OcspRequest::single(target.cert_id.clone()).to_der();

            let before = responder_cache(world.telemetry());
            let from = tracer.stamp();
            let result = world.http_post(VANTAGE, &target.url, &request, at);
            let to = tracer.stamp();
            let HttpOutcome::Ok(body) = result.outcome else {
                tracer.record("netsim.http_post.fail", op, span, from, to);
                tracer.close(span);
                continue;
            };
            let layer = match responder_cache(world.telemetry()) {
                after if after.0 > before.0 => "netsim.http_post.hit",
                after if after.1 > before.1 => "netsim.http_post.sign",
                _ => {
                    counts.uncached_signed += u64::from(carries_signature(&body));
                    "netsim.http_post.uncached"
                }
            };
            tracer.record(layer, op, span, from, to);
            if let Some(bodies) = bodies.as_mut() {
                bodies.push(body.clone());
            }

            let before = sigcache_counts(world.telemetry());
            let from = tracer.stamp();
            let validated = validate_response_cached(
                world.telemetry_mut(),
                catalog::SCAN_CONSISTENCY_VALIDATE,
                &mut sigcache,
                &body,
                &target.cert_id,
                eco.issuer_of(target.operator),
                at,
                ValidationConfig::default(),
            );
            let to = tracer.stamp();
            std::hint::black_box(validated.is_ok());
            let layer = match sigcache_counts(world.telemetry()) {
                after if after.0 > before.0 => "ocsp.validate.hit",
                after if after.1 > before.1 => "ocsp.validate.miss",
                _ => "ocsp.validate.unsigned",
            };
            tracer.record(layer, op, span, from, to);
            tracer.close(span);
        }
    }
    counts
}
