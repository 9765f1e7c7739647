//! The `hourly` workload: the hourly OCSP campaign over the `figures`
//! ecosystem on a 2-worker executor, default engine and chunking.
//!
//! The ecosystem is the full `figures` one (110 responders, 220 scan
//! targets, the same outage calendar); only the campaign window is cut
//! to its first [`CAMPAIGN_DAYS`] days, so one pass takes seconds and a
//! run can time several. Nine in ten probes hit the responder cache and
//! the signature memo, so the per-probe hit-path overhead dominates.

use crate::ecosystem::{EcosystemConfig, LiveEcosystem};
use crate::netsim::{HttpOutcome, Region, World};
use crate::ocsp::{
    validate_response_cached, OcspRequest, OcspResponse, SigVerifyCache, ValidationConfig,
};
use crate::report::Outcome;
use crate::scanner::{Executor, HourlyCampaign, HourlyDataset};
use crate::telemetry::{catalog, Registry};
use crate::trace::Tracer;
use crate::{Options, Scale};

/// Days of the campaign window a pass scans.
pub const CAMPAIGN_DAYS: i64 = 12;

/// Keep spans for every this-many-th probe of the traced replay.
const SPAN_SAMPLE_EVERY: u64 = 1_000;

/// Time `OcspResponse::from_der` on every this-many-th successful body.
const DECODE_SAMPLE_EVERY: u64 = 8;

/// The `scan.hourly.*` rows of a `figures`-scale pass at the default
/// seed, in `results/telemetry.csv` format.
const GOLDEN_SEED: u64 = 2018;
const GOLDEN_ROWS: &str = include_str!("../expected/hourly-seed2018.csv");

/// The workload's ecosystem configuration.
pub fn config(scale: Scale, seed: u64) -> EcosystemConfig {
    match scale {
        Scale::Figures => {
            let mut config = EcosystemConfig::figures().with_seed(seed);
            config.campaign_end = config.campaign_start + CAMPAIGN_DAYS * 86_400;
            config
        }
        Scale::Tiny => EcosystemConfig::tiny().with_seed(seed),
    }
}

/// Probes one pass must send: rounds × vantage points × targets.
pub fn expected_requests(eco: &LiveEcosystem) -> u64 {
    (eco.config.scan_rounds() * Region::VANTAGE_POINTS.len() * eco.scan_targets.len()) as u64
}

/// The `scan.hourly.*` counter rows of a registry, as `telemetry.csv`
/// prints them.
pub fn hourly_rows(reg: &Registry) -> String {
    reg.counters()
        .filter(|(metric, _, _)| metric.starts_with("scan.hourly."))
        .map(|(metric, label, value)| format!("counter,{metric},{label},{value}\n"))
        .collect()
}

/// Run the workload.
pub fn run(opts: &Options) -> Outcome {
    if opts.trace {
        traced(opts)
    } else {
        end_to_end(opts)
    }
}

fn end_to_end(opts: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let (eco, setup) =
        crate::timed_setup(opts.seed, |seed| crate::generate(&config(opts.scale, seed)));
    let executor = crate::executor();
    let expected = expected_requests(&eco);
    let golden = (opts.scale == Scale::Figures && opts.seed == GOLDEN_SEED).then_some(GOLDEN_ROWS);

    let mut first: Option<HourlyDataset> = None;
    let walls = crate::timed_passes(
        opts.duration(),
        2,
        || HourlyCampaign::new(&eco).run_with(&executor),
        |dataset| {
            let ok = match &first {
                None => {
                    let ok = dataset.requests == expected
                        && golden.is_none_or(|rows| hourly_rows(&dataset.telemetry) == rows);
                    first = Some(dataset);
                    ok
                }
                Some(first) => same_campaign(first, &dataset),
            };
            outcome.check(
                expected,
                if ok { 0 } else { expected },
                "a pass sent the wrong probe count, left the golden rows, or differed from the first",
            );
        },
    );
    if golden.is_some() {
        outcome.note(format!(
            "checked: scan.hourly.* rows equal perfbench/expected/hourly-seed{GOLDEN_SEED}.csv"
        ));
    }
    crate::scan_metrics(&mut outcome, &setup, &walls, expected, "probes");
    outcome
}

fn same_campaign(a: &HourlyDataset, b: &HourlyDataset) -> bool {
    a.requests == b.requests && a.responders == b.responders && a.telemetry == b.telemetry
}

fn traced(opts: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let config = config(opts.scale, opts.seed);
    let eco = crate::generate(&config);
    let expected = expected_requests(&eco);

    let mut walls = crate::TracedWalls::default();
    let mut tracer = Tracer::new(SPAN_SAMPLE_EVERY);
    let mut bodies = Vec::new();
    let mut serial = None;
    let mut counts = ReplayCounts::default();
    for round in 0..crate::TRACED_ROUNDS {
        let (parallel, wall) =
            crate::timed(|| HourlyCampaign::new(&eco).run_with(&crate::executor()));
        walls.parallel.push(wall);
        // The serial pass runs right before the replays it is compared with.
        let (this, wall) = crate::timed(|| HourlyCampaign::new(&eco).run_with(&Executor::serial()));
        walls.serial.push(wall);
        let ok = this.requests == expected && same_campaign(&this, &parallel);
        outcome.check(
            expected,
            if ok { 0 } else { expected },
            "the serial campaign's reports and registry differ from the 2-worker run's",
        );
        drop(parallel);
        let (_, wall) = crate::timed(|| replay(&eco, 0, &mut Tracer::disabled(), None));
        walls.untraced.push(wall);
        let keep = (round == 0).then_some(&mut bodies);
        let op_base = round as u64 * expected;
        let (replayed, wall) =
            crate::counting_allocs(|| crate::timed(|| replay(&eco, op_base, &mut tracer, keep)));
        walls.traced.push(wall);
        counts = replayed;
        serial.get_or_insert(this);
    }
    crate::counting_allocs(|| crate::time_decodes(&mut tracer, &bodies));

    let serial = serial.expect("at least one round");
    let ops = serial.requests;
    let reg = &serial.telemetry;
    let cache = |label| reg.counter(catalog::OCSP_RESPONDER_CACHE, label);
    let memo = |label| reg.counter(catalog::OCSP_VALIDATE_SIGCACHE, label);
    check_replay(&mut outcome, &tracer, reg, ops, counts.ops);

    let rounds = crate::TRACED_ROUNDS as u64;
    let residual = crate::ledger(
        &mut outcome,
        &tracer,
        rounds * ops,
        walls.serial_ns_per_op(ops),
        &["asn1.response_decode"],
    );
    let signs = cache("miss") + cache("window_sign") + counts.uncached_signed;
    let counters: u64 = reg.counters().map(|(_, _, v)| v).sum();
    let mut values = crate::layer_values(&tracer);
    values.extend([
        (
            "ocsp.responder.hit_ratio",
            crate::ratio(
                cache("hit"),
                cache("hit") + cache("miss") + cache("window_sign"),
            ),
            "hit / (hit + miss + window_sign)".into(),
        ),
        (
            "ocsp.sigcache.hit_ratio",
            crate::ratio(memo("hit"), memo("hit") + memo("miss")),
            "hit / (hit + miss)".into(),
        ),
        (
            "simcrypto.signs_per_op",
            crate::ratio(signs, ops),
            format!("{signs} signs over {ops} probes"),
        ),
        (
            "simcrypto.verifies_per_op",
            crate::ratio(memo("miss"), ops),
            "signature-memo misses per probe".into(),
        ),
        (
            "telemetry.incr_per_op",
            crate::ratio(counters, ops),
            "counter-total delta per probe".into(),
        ),
        (
            "scanner.residual_ns",
            residual,
            "serial cost per probe minus replayed layers".into(),
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

/// What a replay counted besides the tracer's totals.
#[derive(Debug, Default)]
pub(crate) struct ReplayCounts {
    /// Operations replayed.
    pub(crate) ops: u64,
    /// Fault-profile responses (never cached) that carried a signature.
    pub(crate) uncached_signed: u64,
}

/// Replay the campaign's probe sequence serially — responder by
/// responder, round by round, vantage point by vantage point, target by
/// target, one `World` and signature memo per responder — timing each
/// `World::http_post` and `validate_response_cached` call. Each call is
/// classified by which counter it moved: `ocsp.responder.cache`
/// `hit` or `miss`/`window_sign` (a sign), neither (a fault profile's
/// uncached answer), or a transport failure; and the memo's `hit` or
/// `miss` (or neither, when validation stopped before the signature).
/// Operations are numbered from `op_base`; every
/// [`DECODE_SAMPLE_EVERY`]-th successful body goes to `bodies`.
fn replay(
    eco: &LiveEcosystem,
    op_base: u64,
    tracer: &mut Tracer,
    mut bodies: Option<&mut Vec<Vec<u8>>>,
) -> ReplayCounts {
    let config = &eco.config;
    let topo = eco.build_topology();
    let requests: Vec<Vec<u8>> = eco
        .scan_targets
        .iter()
        .map(|t| OcspRequest::single(t.cert_id.clone()).to_der())
        .collect();
    let mut counts = ReplayCounts::default();
    for (shard, host) in eco.responders.iter().enumerate() {
        let targets: Vec<usize> = (0..eco.scan_targets.len())
            .filter(|&i| eco.scan_targets[i].responder == shard)
            .collect();
        let offset = (crate::fnv1a(host.hostname.as_bytes()) % config.scan_interval as u64) as i64;
        let mut world = World::from_topology(topo.clone());
        let mut sigcache = SigVerifyCache::new();
        for round in 0..config.scan_rounds() {
            let t = config.campaign_start + round as i64 * config.scan_interval + offset;
            for &region in &Region::VANTAGE_POINTS {
                for &idx in &targets {
                    let target = &eco.scan_targets[idx];
                    let op = op_base + counts.ops;
                    counts.ops += 1;
                    let span = tracer.open("hourly.probe", op);

                    let before = responder_cache(world.telemetry());
                    let from = tracer.stamp();
                    let result = world.http_post(region, &target.url, &requests[idx], t);
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
                    if let Some(bodies) = bodies
                        .as_mut()
                        .filter(|_| op.is_multiple_of(DECODE_SAMPLE_EVERY))
                    {
                        bodies.push(body.clone());
                    }

                    let before = sigcache_counts(world.telemetry());
                    let from = tracer.stamp();
                    let validated = validate_response_cached(
                        world.telemetry_mut(),
                        catalog::SCAN_HOURLY_VALIDATE,
                        &mut sigcache,
                        &body,
                        &target.cert_id,
                        eco.issuer_of(target.operator),
                        t,
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
        }
    }
    counts
}

/// `(hit, miss + window_sign)` of the responder cache.
pub(crate) fn responder_cache(reg: &Registry) -> (u64, u64) {
    let c = |label| reg.counter(catalog::OCSP_RESPONDER_CACHE, label);
    (c("hit"), c("miss") + c("window_sign"))
}

/// `(hit, miss)` of the signature memo.
pub(crate) fn sigcache_counts(reg: &Registry) -> (u64, u64) {
    let c = |label| reg.counter(catalog::OCSP_VALIDATE_SIGCACHE, label);
    (c("hit"), c("miss"))
}

/// Whether an uncached responder body was signed: it decodes to a
/// response with a signed payload, or it is DER cut short (the
/// truncating fault signs, then truncates).
pub(crate) fn carries_signature(body: &[u8]) -> bool {
    match OcspResponse::from_der(body) {
        Ok(response) => response.basic.is_some(),
        Err(_) => body.first() == Some(&0x30),
    }
}

/// The replay must see the campaign's own cache events, or its ledger
/// describes a different workload.
/// Each traced round replays once, so the tracer holds
/// `TRACED_ROUNDS` times the campaign's counts.
fn check_replay(outcome: &mut Outcome, tracer: &Tracer, reg: &Registry, ops: u64, replay_ops: u64) {
    let rounds = crate::TRACED_ROUNDS as u64;
    let (hit, signs) = responder_cache(reg);
    let (memo_hit, memo_miss) = sigcache_counts(reg);
    let seen = (
        replay_ops,
        tracer.layer("netsim.http_post.hit").calls,
        tracer.layer("netsim.http_post.sign").calls,
        tracer.layer("ocsp.validate.hit").calls,
        tracer.layer("ocsp.validate.miss").calls,
    );
    let expected = (
        ops,
        rounds * hit,
        rounds * signs,
        rounds * memo_hit,
        rounds * memo_miss,
    );
    if seen != expected {
        outcome.note(format!(
            "LEDGER WARNING: replay saw (ops, hit, sign, memo hit, memo miss) = {seen:?}, \
             {rounds} replays of the campaign should see {expected:?}"
        ));
    }
}
