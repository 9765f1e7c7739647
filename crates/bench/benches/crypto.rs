//! Microbenchmarks of the cryptographic substrate, including the
//! CRT-vs-plain signing ablation that justified the KeyPair layout, the
//! schoolbook-vs-Montgomery modexp comparison behind the scan hot path,
//! the responder's signed-response cache (cold sign vs cached hit), and
//! the client's signature memo (memo hit vs full validation) with the
//! CertID issuer check it relies on.
//!
//! A positional argument filters by name:
//! `cargo bench --bench crypto -- validate/`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ocsp::{
    validate_response_cached, CertId, OcspRequest, Responder, ResponderProfile, SigVerifyCache,
    ValidationConfig,
};
use pki::{CertificateAuthority, IssueParams};
use rand::{rngs::StdRng, Rng, SeedableRng};
use simcrypto::{sha256, BigUint, KeyPair};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        group.bench_function(format!("{size}B"), |b| {
            b.iter(|| sha256(std::hint::black_box(&data)))
        });
    }
    group.finish();
}

fn bench_rsa(c: &mut Criterion) {
    let mut group = c.benchmark_group("rsa");
    for bits in [384usize, 512, 768] {
        let kp = KeyPair::generate(&mut StdRng::seed_from_u64(1), bits);
        let msg = b"a typical ocsp response data blob";
        let sig = kp.sign(msg);
        group.bench_function(format!("sign-crt-{bits}"), |b| {
            b.iter(|| kp.sign(std::hint::black_box(msg)))
        });
        group.bench_function(format!("sign-plain-{bits}"), |b| {
            b.iter(|| kp.sign_without_crt(std::hint::black_box(msg)))
        });
        group.bench_function(format!("verify-{bits}"), |b| {
            b.iter(|| kp.public().verify(std::hint::black_box(msg), &sig).unwrap())
        });
    }
    group.bench_function("keygen-384", |b| {
        let mut seed = 0u64;
        b.iter_batched(
            || {
                seed += 1;
                StdRng::seed_from_u64(seed)
            },
            |mut rng| KeyPair::generate(&mut rng, 384),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The modexp ablation behind the scan hot path: LSB-first schoolbook
/// square-and-multiply vs 4-bit windowed Montgomery (CIOS). Every RSA
/// sign/verify in the study funnels through `modpow`.
fn bench_modexp(c: &mut Criterion) {
    let mut group = c.benchmark_group("modexp");
    for bits in [384usize, 512, 768] {
        let mut rng = StdRng::seed_from_u64(0xE0D * bits as u64);
        let bytes = bits / 8;
        let rand_int = |rng: &mut StdRng, len: usize| {
            let mut buf = vec![0u8; len];
            rng.fill(&mut buf[..]);
            BigUint::from_be_bytes(&buf)
        };
        let base = rand_int(&mut rng, bytes);
        let exp = rand_int(&mut rng, bytes);
        let mut m_bytes = vec![0u8; bytes];
        rng.fill(&mut m_bytes[..]);
        m_bytes[0] |= 0x80; // full width
        m_bytes[bytes - 1] |= 0x01; // odd: the Montgomery-eligible case
        let m = BigUint::from_be_bytes(&m_bytes);
        group.bench_function(format!("schoolbook-{bits}"), |b| {
            b.iter(|| std::hint::black_box(&base).modpow_schoolbook(std::hint::black_box(&exp), &m))
        });
        group.bench_function(format!("montgomery-{bits}"), |b| {
            b.iter(|| std::hint::black_box(&base).modpow(std::hint::black_box(&exp), &m))
        });
    }
    group.finish();
}

/// The responder's signed-response cache: a cold `handle_with` pays a
/// full RSA sign; a warm one serves cached DER. The gap is the per-probe
/// saving the hourly campaign collects on every repeat probe of a
/// (serial, window).
fn bench_responder_cache(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x0C5);
    let now = asn1::Time::from_civil(2018, 5, 1, 10, 30, 0);
    let mut ca = CertificateAuthority::new_root(&mut rng, "CA", "Root", "ca.test", now);
    let leaf = ca.issue(&mut rng, &IssueParams::new("site.example", now));
    let id = CertId::for_certificate(&leaf, ca.certificate());
    let req = OcspRequest::single(id);
    let profile = ResponderProfile::healthy()
        .pre_generated(7_200)
        .validity(7_200);
    let mut reg = telemetry::Registry::new();

    let mut group = c.benchmark_group("responder");
    group.bench_function("handle-cold", |b| {
        b.iter_batched(
            || Responder::new("http://ocsp.ca.test/", profile.clone()),
            |mut responder| responder.handle_with(&ca, &req, now, &mut reg),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("handle-cache-hit", |b| {
        let mut responder = Responder::new("http://ocsp.ca.test/", profile.clone());
        responder.handle_with(&ca, &req, now, &mut reg); // prime the window
        b.iter(|| responder.handle_with(&ca, &req, now, &mut reg))
    });
    group.finish();
}

/// Client-side validation of one signed body: `memo-hit` repeats a
/// probe the signature memo has seen (the six-vantage-point repeat of
/// the hourly campaign), `miss` validates it against a fresh memo
/// (decode, digest, RSA verify). `certid/matches-issuer` is the
/// responder's per-request issuer check, served from the issuer's
/// memoized hashes.
fn bench_validate(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x7A1);
    let now = asn1::Time::from_civil(2018, 5, 1, 10, 30, 0);
    let mut ca = CertificateAuthority::new_root(&mut rng, "CA", "Root", "ca.test", now);
    let leaf = ca.issue(&mut rng, &IssueParams::new("site.example", now));
    let id = CertId::for_certificate(&leaf, ca.certificate());
    let body = Responder::new("http://ocsp.ca.test/", ResponderProfile::healthy()).handle(
        &ca,
        &OcspRequest::single(id.clone()),
        now,
    );
    let mut reg = telemetry::Registry::new();
    let mut validate = |cache: &mut SigVerifyCache| {
        validate_response_cached(
            &mut reg,
            "bench.validate",
            cache,
            std::hint::black_box(&body),
            &id,
            ca.certificate(),
            now,
            ValidationConfig::default(),
        )
        .is_ok()
    };

    let mut group = c.benchmark_group("validate");
    group.bench_function("memo-hit", |b| {
        let mut cache = SigVerifyCache::new();
        validate(&mut cache); // prime the memo
        b.iter(|| validate(&mut cache))
    });
    group.bench_function("miss", |b| {
        b.iter_batched(
            SigVerifyCache::new,
            |mut cache| validate(&mut cache),
            BatchSize::SmallInput,
        )
    });
    group.finish();

    let mut group = c.benchmark_group("certid");
    group.bench_function("matches-issuer", |b| {
        b.iter(|| std::hint::black_box(&id).matches_hashes(ca.issuer_hashes()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sha256, bench_rsa, bench_modexp, bench_responder_cache, bench_validate
}
criterion_main!(benches);
