//! The `ocspd-serve` workload: the `ocspd serve` daemon as a child
//! process on loopback, one connection per request (`Connection:
//! close`, the daemon's only mode), one client thread with one
//! connection at a time. Every [`MALFORMED_EVERY`]-th body is garbage,
//! as `RequestPlan::malformed_every` makes it, so the malformed-request
//! path runs too.
//!
//! The measured interval has two phases: an open loop at the fixed
//! [`OPEN_LOOP_RATE`] for two thirds of it, which gives latency timed
//! from each request's due time, then a closed loop (the next request
//! leaves when the previous answer is in), which gives capacity. The
//! client closes every connection with a reset, so no run leaves
//! TIME_WAIT sockets behind for the next.

use crate::asn1::Time;
use crate::ocsp::{
    validate_response, CertId, CertStatus, OcspRequest, OcspResponse, ResponseStatus,
    ValidationConfig,
};
use crate::pki::{Certificate, CertificateAuthority, IssueParams};
use crate::rand::{rngs::StdRng, SeedableRng};
use crate::report::Outcome;
use crate::stats::{self, Schedule};
use crate::trace::Tracer;
use crate::Options;
use mustaple_ocspd::{
    client, HttpRequest, HttpResponse, OcspService, RequestPlan, CAMPAIGN_EPOCH_UNIX,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered rate of the open-loop phase, requests per second. Fixed (not
/// derived from the host): the unchanged daemon serves ~15,000 requests
/// per second in the closed loop, so this is under a tenth of its
/// capacity.
pub const OPEN_LOOP_RATE: f64 = 1_000.0;

/// Every this-many-th request body is garbage (2 %).
pub const MALFORMED_EVERY: u64 = 50;

/// The closed loop's rate is the median over windows this long, so a
/// short stall of the shared host spoils one window, not the result.
const CLOSED_WINDOW: Duration = Duration::from_millis(500);

/// Time `OcspResponse::from_der` on every this-many-th replayed body.
const DECODE_SAMPLE_EVERY: u64 = 8;

/// Keep spans for every this-many-th replayed request.
const SPAN_SAMPLE_EVERY: u64 = 100;

/// Daemon start-ups per run (`setup_s` is their median). A start-up
/// takes milliseconds, so many more of them than the scans' set-ups
/// steady the median.
const SETUP_REPS: usize = 41;

/// The open loop's share of the measured interval; the closed loop, which
/// gives the gated metrics, gets the rest.
const OPEN_SHARE: f64 = 1.0 / 3.0;

/// The open- and closed-loop budgets of one run.
fn phases(opts: &Options) -> (Duration, Duration) {
    let open = opts.duration().mul_f64(OPEN_SHARE);
    (open, opts.duration() - open)
}

/// A running `ocspd serve` child. Dropping it kills the process and
/// waits for it.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    // Held open so the daemon's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Start `ocspd serve --seed <seed>` on an ephemeral loopback port
    /// and read the address it prints.
    fn spawn(bin: &Path, seed: u64) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            _stdout: stdout,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            _ => Err(format!("ocspd did not print its address (got {line:?})")),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The exact bytes `ocspd::client::post` sends for one request.
fn request_bytes(addr: &SocketAddr, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "POST /ocsp HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/ocsp-request\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// One finished exchange.
struct Exchange {
    status: u16,
    body: Vec<u8>,
    connect: Duration,
    /// Connect to the response's last byte.
    total: Duration,
}

/// Connect, send one request, read the whole response, then close the
/// connection with [`close_with_reset`] (not timed).
fn exchange(addr: &SocketAddr, request: &[u8]) -> std::io::Result<Exchange> {
    let started = crate::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect = started.elapsed();
    stream.write_all(request)?;
    let response = HttpResponse::read_from(&mut BufReader::new(&stream))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let total = started.elapsed();
    close_with_reset(stream);
    Ok(Exchange {
        status: response.status,
        body: response.body,
        connect,
        total,
    })
}

/// Close `stream` with a reset (`SO_LINGER` 0) instead of a FIN, after
/// the whole response is in. An orderly close leaves a TIME_WAIT socket
/// on the daemon's or the client's side, which one depending on who
/// closes first; tens of thousands of requests a second fill the
/// kernel's TIME_WAIT table within seconds, and then connection set-up
/// cost follows the table's state, not the daemon, from run to run.
#[cfg(target_os = "linux")]
fn close_with_reset(stream: TcpStream) {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct Linger {
        l_onoff: c_int,
        l_linger: c_int,
    }
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    const SOL_SOCKET: c_int = 1;
    const SO_LINGER: c_int = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor is `stream`'s own open socket, and the
    // option value points at a live `struct linger` of the given size.
    // If the call fails the close below is an orderly one.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        );
    }
    drop(stream);
}

#[cfg(not(target_os = "linux"))]
fn close_with_reset(stream: TcpStream) {
    drop(stream);
}

/// The two request bodies of the mix and their wire bytes.
struct Mix {
    plan: RequestPlan,
    canonical: Vec<u8>,
    wire_ok: Vec<u8>,
    wire_garbage: Vec<u8>,
}

impl Mix {
    fn new(seed: u64, addr: &SocketAddr) -> Mix {
        let plan = RequestPlan {
            total: u64::MAX,
            malformed_every: MALFORMED_EVERY,
        };
        let canonical = OcspService::new(seed).canonical_request();
        // `RequestPlan::body` makes every `malformed_every`-th body garbage.
        let garbage = plan.body(MALFORMED_EVERY - 1, &canonical);
        Mix {
            plan,
            wire_ok: request_bytes(addr, &canonical),
            wire_garbage: request_bytes(addr, &garbage),
            canonical,
        }
    }

    fn is_garbage(&self, i: u64) -> bool {
        self.plan.body(i, &self.canonical) != self.canonical
    }

    fn wire(&self, i: u64) -> &[u8] {
        if self.is_garbage(i) {
            &self.wire_garbage
        } else {
            &self.wire_ok
        }
    }
}

/// Distinct response bodies seen, with how many requests got each.
/// Consecutive answers are mostly identical (the daemon re-signs once
/// per window), so a body is compared with the previous one before it
/// is hashed.
#[derive(Default)]
struct Bodies {
    counts: HashMap<Vec<u8>, u64>,
    last: Vec<u8>,
    last_count: u64,
}

impl Bodies {
    fn add(&mut self, body: Vec<u8>) {
        if body == self.last {
            self.last_count += 1;
            return;
        }
        self.flush();
        self.last = body;
        self.last_count = 1;
    }

    fn flush(&mut self) {
        if self.last_count > 0 {
            *self
                .counts
                .entry(std::mem::take(&mut self.last))
                .or_default() += self.last_count;
            self.last_count = 0;
        }
    }

    fn into_counts(mut self) -> HashMap<Vec<u8>, u64> {
        self.flush();
        self.counts
    }
}

/// Everything the client saw.
#[derive(Default)]
struct Client {
    sent: u64,
    refused: u64,
    canonical: Bodies,
    garbage: Bodies,
    connect_us: Vec<f64>,
    exchange_us: Vec<f64>,
}

impl Client {
    /// Send request number `sent` of the mix; returns whether an answer
    /// arrived.
    fn send(&mut self, mix: &Mix, addr: &SocketAddr) -> bool {
        let i = self.sent;
        self.sent += 1;
        match exchange(addr, mix.wire(i)) {
            Ok(ex) if ex.status == 200 && !ex.body.is_empty() => {
                self.exchange_us.push(ex.total.as_secs_f64() * 1e6);
                self.connect_us.push(ex.connect.as_secs_f64() * 1e6);
                if mix.is_garbage(i) {
                    self.garbage.add(ex.body);
                } else {
                    self.canonical.add(ex.body);
                }
                true
            }
            _ => {
                self.refused += 1;
                false
            }
        }
    }
}

/// Spawn the daemon and send canonical requests until one gets a 200.
fn start(
    bin: &Path,
    seed: u64,
    client: &mut Client,
    deadline: Duration,
) -> Result<(Daemon, Mix), String> {
    let daemon = Daemon::spawn(bin, seed)?;
    let mix = Mix::new(seed, &daemon.addr);
    let started = crate::now();
    while !client.send(&mix, &daemon.addr) {
        if started.elapsed() > deadline {
            return Err("ocspd never answered 200".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((daemon, mix))
}

/// Closed loop for `budget`, in windows of [`CLOSED_WINDOW`]: each
/// window's served requests per second, and the requests sent.
fn closed_loop(
    client: &mut Client,
    mix: &Mix,
    addr: &SocketAddr,
    budget: Duration,
) -> (Vec<f64>, u64) {
    let before = client.sent;
    let started = crate::now();
    let mut rates = Vec::new();
    while started.elapsed() < budget {
        let window = crate::now();
        let mut served = 0u64;
        while window.elapsed() < CLOSED_WINDOW {
            served += u64::from(client.send(mix, addr));
        }
        rates.push(served as f64 / window.elapsed().as_secs_f64());
    }
    (rates, client.sent - before)
}

/// Open-loop latencies from due time, and how late each request left.
struct OpenLoop {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
}

/// Offer [`OPEN_LOOP_RATE`] for `budget`, one connection at a time.
fn open_loop(client: &mut Client, mix: &Mix, addr: &SocketAddr, budget: Duration) -> OpenLoop {
    let start = crate::now();
    let schedule = Schedule::new(start, OPEN_LOOP_RATE);
    let mut out = OpenLoop {
        latency_us: Vec::new(),
        late_us: Vec::new(),
    };
    for k in 0.. {
        let due = schedule.due(k);
        if due - start >= budget {
            break;
        }
        wait_until(due);
        let sent = crate::now();
        let answered = client.send(mix, addr);
        let done = crate::now();
        out.late_us.push(stats::late_us(due, sent));
        // A refused request misses every latency limit.
        out.latency_us.push(if answered {
            stats::latency_from_due_us(due, done)
        } else {
            f64::INFINITY
        });
    }
    out
}

/// Spin until `due`: on a virtual machine a sleeping thread can wake
/// milliseconds late, which would be charged to the daemon.
fn wait_until(due: Instant) {
    while crate::now() < due {
        std::hint::spin_loop();
    }
}

/// The daemon's fixture, rebuilt from the seed exactly as
/// `OcspService::new` builds it: its issuer and the leaf's `CertId`.
fn fixture(seed: u64) -> (Certificate, CertId) {
    let epoch = Time::from_unix(CAMPAIGN_EPOCH_UNIX);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ca = CertificateAuthority::new_root(&mut rng, "Live CA", "Root", "ca.test", epoch);
    let leaf = ca.issue(&mut rng, &IssueParams::new("site.example", epoch));
    let cert_id = CertId::for_certificate(&leaf, ca.certificate());
    (ca.certificate().clone(), cert_id)
}

/// What the answer checks covered.
#[derive(Debug, Default)]
struct Checked {
    canonical_bodies: usize,
    canonical: u64,
    garbage_bodies: usize,
    garbage: u64,
}

/// Check every answer one daemon gave, after it stopped: each distinct
/// canonical body must validate against the fixture's issuer (as `Good`,
/// at its own `producedAt`), each garbage body must be
/// `malformedRequest`, and every request must have been answered.
fn check(
    outcome: &mut Outcome,
    tracer: &mut Tracer,
    seed: u64,
    mix: &Mix,
    client: Client,
    checked: &mut Checked,
) {
    let (issuer, cert_id) = fixture(seed);
    let fixture_ok = OcspRequest::single(cert_id.clone()).to_der() == mix.canonical;
    if !fixture_ok {
        outcome.note(format!(
            "CHECK: the fixture rebuilt for seed {seed} does not match the daemon's canonical request"
        ));
    }
    outcome.check(
        client.refused,
        client.refused,
        "requests refused, failed or answered non-200",
    );

    let canonical = client.canonical.into_counts();
    let mut bad = 0;
    let mut total = 0;
    for (i, (body, count)) in canonical.iter().enumerate() {
        total += count;
        let from = tracer.stamp();
        let valid = OcspResponse::from_der(body)
            .ok()
            .and_then(|r| r.basic)
            .is_some_and(|basic| {
                validate_response(
                    body,
                    &cert_id,
                    &issuer,
                    basic.produced_at,
                    ValidationConfig::default(),
                )
                .is_ok_and(|v| v.status == CertStatus::Good)
            });
        tracer.finish("ocsp.validate.miss", i as u64, None, from);
        if !(valid && fixture_ok) {
            bad += count;
        }
    }
    outcome.check(
        total,
        bad,
        "a canonical response did not validate against the fixture's issuer",
    );
    checked.canonical_bodies += canonical.len();
    checked.canonical += total;

    let garbage = client.garbage.into_counts();
    let mut bad = 0;
    let mut total = 0;
    for (body, count) in &garbage {
        total += count;
        let malformed = OcspResponse::from_der(body)
            .is_ok_and(|r| r.status == ResponseStatus::MalformedRequest);
        if !malformed {
            bad += count;
        }
    }
    outcome.check(
        total,
        bad,
        "a garbage request was not answered malformedRequest",
    );
    checked.garbage_bodies += garbage.len();
    checked.garbage += total;
}

impl Checked {
    fn note(&self, outcome: &mut Outcome) {
        outcome.note(format!(
            "checked: {} distinct canonical bodies validate for {} requests; \
             {} distinct garbage bodies are malformedRequest for {} requests",
            self.canonical_bodies, self.canonical, self.garbage_bodies, self.garbage
        ));
    }
}

/// How long to wait for a starting daemon's first 200.
const START_DEADLINE: Duration = Duration::from_secs(30);

/// Run the workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        return traced(opts);
    }
    let mut outcome = Outcome::default();
    let mut checked = Checked::default();

    // Each start-up over its own derived seed: the daemon generates its
    // keys from the seed, and how long that takes depends on the seed.
    let mut setup = Vec::new();
    for seed in crate::derived_seeds(opts.seed, SETUP_REPS) {
        let mut client = Client::default();
        let started = crate::now();
        let (daemon, mix) = start(&opts.ocspd, seed, &mut client, START_DEADLINE)?;
        setup.push(started.elapsed().as_secs_f64());
        drop(daemon);
        check(
            &mut outcome,
            &mut Tracer::disabled(),
            seed,
            &mix,
            client,
            &mut checked,
        );
    }

    let (open_budget, closed_budget) = phases(opts);
    let mut client = Client::default();
    let (daemon, mix) = start(&opts.ocspd, opts.seed, &mut client, START_DEADLINE)?;
    let open = open_loop(&mut client, &mix, &daemon.addr, open_budget);
    // The daemon keeps state per request served, so its peak memory is
    // read after the open loop's fixed request count, not after a closed
    // loop whose count follows the host's speed.
    let rss = crate::peak_rss_mb(&daemon.pid())?;
    client.exchange_us.clear();
    let (rates, closed_n) = closed_loop(&mut client, &mix, &daemon.addr, closed_budget);
    let exchange_us = std::mem::take(&mut client.exchange_us);
    drop(daemon);
    check(
        &mut outcome,
        &mut Tracer::disabled(),
        opts.seed,
        &mix,
        client,
        &mut checked,
    );
    checked.note(&mut outcome);

    // The gated latency comes from the closed loop, where each request is
    // due the moment the previous answer arrives, so it is timed from its
    // due time too. The open loop's latency is printed but not gated: on a
    // 2-vCPU virtual machine the quartile spread of its median over ten
    // seeds was a fifth to a third of the median, the closed loop's about
    // a tenth.
    let n = exchange_us.len();
    let q = |v: &[f64], q: f64| stats::percentile(v, q).unwrap_or(0.0);
    outcome.metric(
        "setup_s",
        "s",
        stats::median(&setup).unwrap_or(0.0),
        format!(
            "daemon spawn until the first 200, median of {} seeds",
            setup.len()
        ),
    );
    outcome.metric(
        "ops_per_s",
        "ops/s",
        stats::median(&rates).unwrap_or(0.0),
        format!(
            "served requests/s, closed loop, 1 client, median of {} windows of {CLOSED_WINDOW:?}, \
             {closed_n} requests",
            rates.len()
        ),
    );
    outcome.metric(
        "latency_p50_us",
        "us",
        q(&exchange_us, 0.5),
        format!("closed loop, connect to last byte, n={n}"),
    );
    outcome.metric(
        "latency_p99_us",
        "us",
        q(&exchange_us, 0.99),
        format!(
            "closed loop, connect to last byte, n={n}, {} samples beyond",
            stats::samples_beyond(n, 0.99)
        ),
    );
    outcome.metric(
        "peak_rss_mb",
        "MB",
        rss,
        format!(
            "VmHWM of the ocspd process after the open loop's {} requests",
            open.latency_us.len()
        ),
    );
    let (latency_us, late_us) = (&open.latency_us, &open.late_us);
    outcome.note(format!(
        "open loop at {OPEN_LOOP_RATE} req/s (not gated), n={}: latency from due time \
         p50/p90/p99/max {:.1}/{:.1}/{:.1}/{:.1} us; generator late p50/p99/max {:.1}/{:.1}/{:.1} us",
        latency_us.len(),
        q(latency_us, 0.5),
        q(latency_us, 0.9),
        q(latency_us, 0.99),
        q(latency_us, 1.0),
        q(late_us, 0.5),
        q(late_us, 0.99),
        q(late_us, 1.0),
    ));
    Ok(outcome)
}

fn traced(opts: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut client = Client::default();
    let (daemon, mix) = start(&opts.ocspd, opts.seed, &mut client, START_DEADLINE)?;
    let (open, closed) = phases(opts);
    let open = open_loop(&mut client, &mix, &daemon.addr, open);
    client.connect_us.clear();
    client.exchange_us.clear();
    let (_, closed_n) = closed_loop(&mut client, &mix, &daemon.addr, closed);
    let connect_p50 = stats::median(&client.connect_us).unwrap_or(0.0);
    let connect_p99 = stats::percentile(&client.connect_us, 0.99).unwrap_or(0.0);
    let exchange_p50 = stats::median(&client.exchange_us).unwrap_or(0.0);
    let scrape = client::get(&daemon.addr.to_string(), "/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))
        .and_then(|(status, body)| match status {
            200 => Ok(String::from_utf8_lossy(&body).into_owned()),
            other => Err(format!("GET /metrics: status {other}")),
        })?;
    drop(daemon);
    let counters = scrape_counters(&scrape);
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let sent = client.sent;

    // The same request mix, in-process: parse and handle timed per call.
    let mut walls = crate::TracedWalls::default();
    let mut tracer = Tracer::new(SPAN_SAMPLE_EVERY);
    let mut bodies = Vec::new();
    for round in 0..crate::TRACED_ROUNDS as u64 {
        let mut service = OcspService::new(opts.seed);
        let (_, wall) =
            crate::timed(|| replay(&mix, sent, 0, &mut service, &mut Tracer::disabled(), None));
        walls.untraced.push(wall);
        let mut service = OcspService::new(opts.seed);
        let keep = (round == 0).then_some(&mut bodies);
        let (_, wall) = crate::counting_allocs(|| {
            crate::timed(|| replay(&mix, sent, round * sent, &mut service, &mut tracer, keep))
        });
        walls.traced.push(wall);
    }
    crate::counting_allocs(|| {
        crate::time_decodes(&mut tracer, &bodies);
        let mut checked = Checked::default();
        check(
            &mut outcome,
            &mut tracer,
            opts.seed,
            &mix,
            client,
            &mut checked,
        );
        checked.note(&mut outcome);
    });

    let t = |name: &str| tracer.layer(name);
    let parse_us = t("ocspd.http.parse").ns_per_call() / 1e3;
    let handle_us = t("ocspd.service.handle").ns_per_call() / 1e3;
    let residual = exchange_p50 - connect_p50 - parse_us - handle_us;
    outcome.note(format!(
        "ledger: closed-loop exchange p50 {exchange_p50:.1} us = connect p50 {connect_p50:.1} \
         + parse {parse_us:.2} + handle {handle_us:.2} + residual {residual:.1} (over {closed_n} requests)"
    ));
    let hits = counter("ocsp_responder_cache{label=\"hit\"}");
    let signs = counter("ocsp_responder_cache{label=\"miss\"}")
        + counter("ocsp_responder_cache{label=\"window_sign\"}");
    let requests =
        counter("ocspd_requests{label=\"ok\"}") + counter("ocspd_requests{label=\"malformed\"}");
    let total: u64 = counters.values().sum();
    let mut values = crate::layer_values(&tracer);
    values.extend([
        (
            "ocsp.responder.hit_ratio",
            crate::ratio(hits, hits + signs),
            "from a /metrics scrape".into(),
        ),
        (
            "simcrypto.signs_per_op",
            crate::ratio(signs, requests),
            "from a /metrics scrape".into(),
        ),
        (
            "telemetry.incr_per_op",
            crate::ratio(total, requests),
            "counter total of a /metrics scrape per request".into(),
        ),
        (
            "tcp.connect.p50_us",
            connect_p50,
            format!("closed loop, n={closed_n}"),
        ),
        (
            "tcp.connect.p99_us",
            connect_p99,
            format!("closed loop, n={closed_n}"),
        ),
        (
            "tcp.residual_us",
            residual,
            "exchange p50 - connect p50 - parse - handle".into(),
        ),
        (
            "loadgen.late.p99_us",
            stats::percentile(&open.late_us, 0.99).unwrap_or(0.0),
            format!("open loop, n={}", open.late_us.len()),
        ),
        (
            "trace.overhead_frac",
            walls.overhead(),
            walls.overhead_basis(),
        ),
    ]);
    crate::per_layer_metrics(&mut outcome, values);
    crate::write_trace(&mut outcome, opts, &tracer);
    Ok(outcome)
}

/// Replay `n` requests of the mix through `service` in-process:
/// `HttpRequest::read_from` on the wire bytes, then
/// `OcspService::handle`. Requests are numbered from `op_base`; every
/// [`DECODE_SAMPLE_EVERY`]-th answer body goes to `bodies`.
fn replay(
    mix: &Mix,
    n: u64,
    op_base: u64,
    service: &mut OcspService,
    tracer: &mut Tracer,
    mut bodies: Option<&mut Vec<Vec<u8>>>,
) {
    for i in 0..n {
        let op = op_base + i;
        let span = tracer.open("serve.request", op);
        let mut wire = mix.wire(i);
        let from = tracer.stamp();
        let request = HttpRequest::read_from(&mut wire);
        tracer.finish("ocspd.http.parse", op, span, from);
        let Ok(request) = request else {
            tracer.close(span);
            continue;
        };
        let from = tracer.stamp();
        let response = service.handle(&request);
        tracer.finish("ocspd.service.handle", op, span, from);
        std::hint::black_box(&response);
        if let Some(bodies) = bodies
            .as_mut()
            .filter(|_| i.is_multiple_of(DECODE_SAMPLE_EVERY))
        {
            bodies.push(response.body);
        }
        tracer.close(span);
    }
}

/// Counter samples of a Prometheus exposition (`name{labels}` → value),
/// up to the ungated gauge section.
fn scrape_counters(text: &str) -> HashMap<String, u64> {
    let mut counter_families = Vec::new();
    let mut out = HashMap::new();
    for line in text.lines() {
        if line == crate::telemetry::prom::GAUGE_SECTION_MARKER {
            break;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some(family) = rest.strip_suffix(" counter") {
                counter_families.push(family.to_owned());
            }
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let family = series.split('{').next().unwrap_or(series);
        if counter_families.iter().any(|f| f == family) {
            if let Ok(v) = value.parse::<u64>() {
                out.insert(series.to_owned(), v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_counters_reads_counter_families_only() {
        let text = "# TYPE a counter\na{label=\"x\"} 3\na{label=\"y\"} 4\n# TYPE h histogram\nh_count 9\n\
                    # --- operational gauges (excluded from determinism gating) ---\n# TYPE g counter\ng 1\n";
        let c = scrape_counters(text);
        assert_eq!(c.len(), 2);
        assert_eq!(c["a{label=\"y\"}"], 4);
    }

    #[test]
    fn the_mix_is_two_percent_garbage() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mix = Mix::new(1, &addr);
        let garbage = (0..1_000).filter(|&i| mix.is_garbage(i)).count();
        assert_eq!(garbage, 20);
        assert!(mix.is_garbage(MALFORMED_EVERY - 1));
        assert_ne!(mix.wire_garbage, mix.wire_ok);
    }

    #[test]
    fn the_rebuilt_fixture_matches_the_service() {
        let (_, cert_id) = fixture(11);
        assert_eq!(
            OcspRequest::single(cert_id).to_der(),
            OcspService::new(11).canonical_request()
        );
    }

    #[test]
    fn bodies_count_repeats_without_rehashing() {
        let mut b = Bodies::default();
        for body in [b"a".to_vec(), b"a".to_vec(), b"b".to_vec(), b"a".to_vec()] {
            b.add(body);
        }
        let counts = b.into_counts();
        assert_eq!(counts[&b"a".to_vec()], 3);
        assert_eq!(counts[&b"b".to_vec()], 1);
    }
}
