//! A repeatable benchmark for the scan and serve paths.
//!
//! Three workloads run against the public API of the repository's
//! crates:
//!
//! * [`hourly`] — the hourly OCSP campaign over the `figures`
//!   ecosystem (responder-cache and signature-memo hits dominate);
//! * [`consistency`] — the CRL↔OCSP consistency study over an enlarged
//!   revoked pool (every check signs, misses the memo and verifies);
//! * [`serve`] — the `ocspd serve` daemon as a child process on
//!   loopback, first in an open loop, then in a closed loop.
//!
//! An end-to-end run (`--trace 0`) reports throughput, latency, set-up
//! time and peak memory. A traced run (`--trace 1`, the
//! `perfbench-traced` binary with the counting allocator) replays each
//! workload serially, timing every call into a layer, and reports the
//! per-layer ledger. Every run checks the program's outputs outside the
//! timed interval.

// The repository's crates, which the modules below reach as
// `crate::<name>`. `detlint` walks this directory as part of the
// umbrella package, whose manifest lists them as dev-dependencies only;
// this package's own manifest lists them as dependencies.
// detlint::allow(layering): a dependency in perfbench/Cargo.toml
pub use asn1;
// detlint::allow(layering): a dependency in perfbench/Cargo.toml
pub use ecosystem;
// detlint::allow(layering): a dependency in perfbench/Cargo.toml
pub use memprof;
// detlint::allow(layering): a dependency in perfbench/Cargo.toml
pub use netsim;
// detlint::allow(layering): a dependency in perfbench/Cargo.toml
pub use ocsp;
// detlint::allow(layering): a dependency in perfbench/Cargo.toml
pub use pki;
// detlint::allow(layering): a dependency in perfbench/Cargo.toml
pub use rand;
// detlint::allow(layering): a dependency in perfbench/Cargo.toml
pub use scanner;
// detlint::allow(layering): a dependency in perfbench/Cargo.toml
pub use telemetry;

pub mod consistency;
pub mod hourly;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use report::Outcome;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The benchmark's one wall-clock read: every timing goes through here.
pub fn now() -> Instant {
    // detlint::allow(wall-clock): the benchmark measures wall time; no program output depends on it
    Instant::now()
}

/// Workers of the scan executor: fixed, never taken from
/// `available_parallelism`, so the load fits a 2-CPU shared host.
pub const EXECUTOR_WORKERS: usize = 2;

/// Set-up repetitions per scan run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Input size: `figures` for measurement, `tiny` for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Figures,
    /// Seconds-long smoke runs exercising every code path.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed the workload's inputs derive from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Per-layer (traced) run instead of an end-to-end one.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Where traced runs write their spans and layer totals.
    pub out_dir: PathBuf,
    /// The `ocspd` binary for the serve workload.
    pub ocspd: PathBuf,
}

impl Options {
    /// Parse `--workload W --seed N --seconds S --trace 0|1
    /// [--scale figures|tiny] [--out DIR] [--ocspd PATH]`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workload: String::new(),
            seed: 2018,
            seconds: 30.0,
            trace: false,
            scale: Scale::Figures,
            out_dir: PathBuf::from("perfbench/out"),
            ocspd: default_ocspd(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => opts.workload = value.clone(),
                "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                        return Err(bad("expected a positive number"));
                    }
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                "--scale" => {
                    opts.scale = match value.as_str() {
                        "figures" => Scale::Figures,
                        "tiny" => Scale::Tiny,
                        _ => return Err(bad("expected figures or tiny")),
                    }
                }
                "--out" => opts.out_dir = PathBuf::from(value),
                "--ocspd" => opts.ocspd = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&opts.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                opts.workload
            ));
        }
        Ok(opts)
    }

    /// The measured interval.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Where this run's trace files go.
    pub fn trace_dir(&self) -> PathBuf {
        self.out_dir
            .join(&self.workload)
            .join(format!("seed-{}", self.seed))
    }
}

/// The workload names, as in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 3] = ["hourly", "consistency", "ocspd-serve"];

/// `ocspd` next to the running benchmark binary (both come from the
/// same build).
fn default_ocspd() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("ocspd")))
        .unwrap_or_else(|| PathBuf::from("ocspd"))
}

/// The binaries' entry point. `traced_binary` says whether the counting
/// allocator is installed; traced runs need it and end-to-end runs must
/// not have it.
pub fn main_with(traced_binary: bool) -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Options::parse(&args).and_then(|opts| {
        if opts.trace != traced_binary {
            return Err(format!(
                "--trace {} needs the {} binary",
                opts.trace as u8,
                if opts.trace {
                    "perfbench-traced"
                } else {
                    "perfbench"
                }
            ));
        }
        run(&opts).map(|outcome| (opts, outcome))
    });
    match result {
        Ok((opts, outcome)) => {
            print!("{}", outcome.render_text(&opts.workload));
            println!("{}", outcome.render_json());
            std::process::ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut outcome = match opts.workload.as_str() {
        "hourly" => hourly::run(opts),
        "consistency" => consistency::run(opts),
        "ocspd-serve" => serve::run(opts)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    outcome.notes.insert(0, load_context(opts));
    Ok(outcome)
}

/// What the load was sized against, printed with every result.
fn load_context(opts: &Options) -> String {
    // The host's CPUs, not just those this process may use.
    let nproc = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    });
    let load = match opts.workload.as_str() {
        "ocspd-serve" => {
            "ocspd child process, 1 client thread, 1 connection at a time, loopback".to_owned()
        }
        _ => format!("{EXECUTOR_WORKERS} executor workers (set explicitly), in-process"),
    };
    let cpus = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "?".to_owned());
    format!(
        "load: nproc={nproc}; cpus allowed {cpus}; {load}; seed={}; seconds={}; trace={}; scale={:?}",
        opts.seed, opts.seconds, opts.trace as u8, opts.scale
    )
}

/// The 2-worker executor every end-to-end scan pass uses.
pub fn executor() -> scanner::Executor {
    scanner::Executor::new(NonZeroUsize::new(EXECUTOR_WORKERS))
}

/// Peak resident set of process `pid` (`"self"` for this one), MB, from
/// `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// `n` seeds for one run's repeated set-ups: `n - 1` derived from
/// `seed`, then `seed` itself last. Set-up cost depends on the seed (key
/// generation searches for primes), so set-ups over several seeds make
/// `setup_s` depend less on which seed a run was given.
pub fn derived_seeds(seed: u64, n: usize) -> Vec<u64> {
    (1..n as u64)
        .map(|k| seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .chain([seed])
        .collect()
}

/// Time `SETUP_REPS` set-ups, over [`derived_seeds`] of `seed`, and keep
/// the last one's result (the one for `seed`); returns it with the
/// set-up times in seconds.
pub fn timed_setup<T>(seed: u64, mut setup: impl FnMut(u64) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for seed in derived_seeds(seed, SETUP_REPS) {
        // Drop the previous result first so peak memory holds one copy.
        drop(last.take());
        let started = now();
        last = Some(setup(seed));
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Run timed passes until `budget` has elapsed (at least `min_passes`),
/// handing each pass's result to `keep` outside the timed interval.
/// Returns each pass's wall time in seconds.
pub fn timed_passes<T>(
    budget: Duration,
    min_passes: usize,
    mut pass: impl FnMut() -> T,
    mut keep: impl FnMut(T),
) -> Vec<f64> {
    let mut walls = Vec::new();
    let mut measured = Duration::ZERO;
    while walls.len() < min_passes || measured < budget {
        let started = now();
        let result = pass();
        let wall = started.elapsed();
        measured += wall;
        walls.push(wall.as_secs_f64());
        keep(result);
    }
    walls
}

/// A scan workload's set-up: generate the ecosystem and build its
/// topology once (each pass builds its own; this one is timed and
/// dropped).
pub fn generate(config: &ecosystem::EcosystemConfig) -> ecosystem::LiveEcosystem {
    let eco = ecosystem::LiveEcosystem::generate(config.clone());
    drop(eco.build_topology());
    eco
}

/// The end-to-end metrics of a scan workload: `ops` operations per pass.
pub fn scan_metrics(outcome: &mut Outcome, setup: &[f64], walls: &[f64], ops: u64, what: &str) {
    let n = walls.len();
    let rates: Vec<f64> = walls.iter().map(|w| ops as f64 / w).collect();
    let pass_us: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
    outcome.metric(
        "setup_s",
        "s",
        stats::median(setup).unwrap_or(0.0),
        format!("median of {} set-ups", setup.len()),
    );
    outcome.metric(
        "ops_per_s",
        "ops/s",
        stats::median(&rates).unwrap_or(0.0),
        format!("{what}/s, median of {n} passes of {ops}"),
    );
    outcome.metric(
        "latency_p50_us",
        "us",
        stats::median(&pass_us).unwrap_or(0.0),
        format!("wall time of one whole pass, median of {n}"),
    );
    outcome.metric(
        "latency_p99_us",
        "us",
        stats::percentile(&pass_us, 0.99).unwrap_or(0.0),
        format!("wall time of one whole pass, nearest-rank p99 of {n} (the slowest)"),
    );
    outcome.metric(
        "peak_rss_mb",
        "MB",
        peak_rss_mb("self").unwrap_or(0.0),
        "VmHWM of the benchmark process".into(),
    );
}

/// The per-layer metric names, in `BENCHMARK.json` order. Every traced
/// run prints each of them; a layer the workload does not exercise
/// reads 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("netsim.http_post.hit.ns", "ns"),
    ("netsim.http_post.hit.allocs", "count"),
    ("netsim.http_post.sign.ns", "ns"),
    ("netsim.http_post.sign.allocs", "count"),
    ("netsim.http_post.uncached.ns", "ns"),
    ("netsim.http_post.fail.ns", "ns"),
    ("netsim.http_post.crl.ns", "ns"),
    ("pki.crl_decode.ns", "ns"),
    ("ocsp.validate.hit.ns", "ns"),
    ("ocsp.validate.hit.allocs", "count"),
    ("ocsp.validate.miss.ns", "ns"),
    ("ocsp.validate.miss.allocs", "count"),
    ("asn1.response_decode.ns", "ns"),
    ("ocsp.responder.hit_ratio", "ratio"),
    ("ocsp.sigcache.hit_ratio", "ratio"),
    ("simcrypto.signs_per_op", "count"),
    ("simcrypto.verifies_per_op", "count"),
    ("telemetry.incr_per_op", "count"),
    ("scanner.residual_ns", "ns"),
    ("scanner.executor.speedup", "x"),
    ("ocspd.http.parse.ns", "ns"),
    ("ocspd.service.handle.ns", "ns"),
    ("ocspd.service.handle.allocs", "count"),
    ("tcp.connect.p50_us", "us"),
    ("tcp.connect.p99_us", "us"),
    ("tcp.residual_us", "us"),
    ("loadgen.late.p99_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// The `<layer>.ns` and `<layer>.allocs` metrics of every layer the
/// tracer saw calls into: mean time and allocations per call.
pub fn layer_values(tracer: &trace::Tracer) -> Vec<(&'static str, f64, String)> {
    PER_LAYER
        .iter()
        .filter_map(|&(name, _)| {
            let (layer, per_call): (&str, fn(&trace::LayerTotals) -> f64) =
                if let Some(layer) = name.strip_suffix(".ns") {
                    (layer, trace::LayerTotals::ns_per_call)
                } else {
                    (
                        name.strip_suffix(".allocs")?,
                        trace::LayerTotals::allocs_per_call,
                    )
                };
            let totals = tracer.layer(layer);
            (totals.calls > 0).then(|| (name, per_call(&totals), format!("{} calls", totals.calls)))
        })
        .collect()
}

/// Fill in every per-layer metric from `values` (name → value, basis),
/// in [`PER_LAYER`] order, with 0 for the layers this workload does not
/// exercise.
pub fn per_layer_metrics(outcome: &mut Outcome, values: Vec<(&'static str, f64, String)>) {
    for (name, unit) in PER_LAYER {
        let found = values.iter().find(|(n, _, _)| *n == name);
        let (value, basis) = match found {
            Some((_, v, b)) => (*v, b.clone()),
            None => (0.0, "not exercised by this workload".to_owned()),
        };
        outcome.metric(name, unit, value, basis);
    }
    for (name, _, _) in &values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not in PER_LAYER"
        );
    }
}

/// Print the per-layer ledger of a traced scan run and return its
/// residual: `end_to_end_ns_per_op` (the serial pass's wall time per
/// operation) split into every replayed layer's per-op cost plus the
/// residual the replay does not cover. Layers named in `nested` were
/// timed inside another layer or separately, so they are listed but not
/// added up.
pub fn ledger(
    outcome: &mut Outcome,
    tracer: &trace::Tracer,
    ops: u64,
    end_to_end_ns_per_op: f64,
    nested: &[&str],
) -> f64 {
    let rows: Vec<(&str, trace::LayerTotals)> = tracer
        .layers()
        .filter(|(name, _)| !nested.contains(name))
        .collect();
    let totals: Vec<f64> = rows.iter().map(|(_, t)| t.ns as f64).collect();
    let residual = stats::residual_ns(end_to_end_ns_per_op, &totals, ops);
    outcome.note(format!(
        "ledger: serial cost per op {end_to_end_ns_per_op:.1} ns over {ops} ops = layers + residual"
    ));
    let share = |ns: f64| 100.0 * ns / end_to_end_ns_per_op;
    for (name, t) in &rows {
        let per_op = t.ns as f64 / ops.max(1) as f64;
        outcome.note(format!(
            "  {name:<28} {per_op:>10.1} ns/op {:>5.1}%  ({} calls, {:.1} ns/call, {:.2} allocs/call)",
            share(per_op),
            t.calls,
            t.ns_per_call(),
            t.allocs_per_call()
        ));
    }
    outcome.note(format!(
        "  {:<28} {residual:>10.1} ns/op {:>5.1}%",
        "residual",
        share(residual)
    ));
    for name in nested {
        let t = tracer.layer(name);
        outcome.note(format!(
            "  (not added) {name}: {} calls, {:.1} ns/call, {:.2} allocs/call",
            t.calls,
            t.ns_per_call(),
            t.allocs_per_call()
        ));
    }
    residual
}

/// Write a traced run's spans and layer totals under the run's trace
/// directory and say where they went.
pub fn write_trace(outcome: &mut Outcome, opts: &Options, tracer: &trace::Tracer) {
    let dir = opts.trace_dir();
    match tracer.write(&dir) {
        Ok(()) => outcome.note(format!(
            "trace: {} sampled spans and per-layer totals written to {}",
            tracer.spans().len(),
            dir.display()
        )),
        Err(e) => outcome.note(format!("trace: writing {} failed: {e}", dir.display())),
    }
}

/// Rounds of a traced run. Each round runs, back to back, a 2-worker
/// pass, a serial pass, an untraced replay and a traced replay, so slow
/// drifts of a shared host hit all four alike; the ledger uses the sums.
pub const TRACED_ROUNDS: usize = 3;

/// Time one call, seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = now();
    let result = f();
    (result, started.elapsed().as_secs_f64())
}

/// Wall times of a traced run's rounds, seconds.
#[derive(Debug, Default)]
pub struct TracedWalls {
    /// 2-worker passes (scans only).
    pub parallel: Vec<f64>,
    /// Serial passes (scans only).
    pub serial: Vec<f64>,
    /// Replays with the recorder off.
    pub untraced: Vec<f64>,
    /// Replays with the recorder on.
    pub traced: Vec<f64>,
}

impl TracedWalls {
    /// Serial wall over 2-worker wall, by medians.
    pub fn speedup(&self) -> f64 {
        let m = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        m(&self.serial) / m(&self.parallel)
    }

    /// How [`TracedWalls::speedup`] was taken.
    pub fn speedup_basis(&self) -> String {
        format!(
            "median serial {:.3} s / median 2-worker {:.3} s over {} rounds",
            stats::median(&self.serial).unwrap_or(0.0),
            stats::median(&self.parallel).unwrap_or(0.0),
            self.serial.len()
        )
    }

    /// Traced over untraced replay time, minus one.
    pub fn overhead(&self) -> f64 {
        self.traced.iter().sum::<f64>() / self.untraced.iter().sum::<f64>() - 1.0
    }

    /// How [`TracedWalls::overhead`] was taken.
    pub fn overhead_basis(&self) -> String {
        format!(
            "traced replays {:.3} s vs untraced {:.3} s over {} rounds",
            self.traced.iter().sum::<f64>(),
            self.untraced.iter().sum::<f64>(),
            self.traced.len()
        )
    }

    /// Mean serial cost per operation, ns, for `ops` operations a pass.
    pub fn serial_ns_per_op(&self, ops: u64) -> f64 {
        self.serial.iter().sum::<f64>() * 1e9 / (ops.max(1) * self.serial.len() as u64) as f64
    }
}

/// Whether the `perfbench-traced` binary's allocator counts allocations.
/// Off by default, so the passes a traced run compares (serial against
/// two workers) do not contend on the counters; on only around the
/// traced replays.
pub static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);

/// Run `f` with allocation counting on (a no-op in the `perfbench`
/// binary, whose allocator never counts).
pub fn counting_allocs<R>(f: impl FnOnce() -> R) -> R {
    COUNT_ALLOCS.store(true, Ordering::SeqCst);
    let result = f();
    COUNT_ALLOCS.store(false, Ordering::SeqCst);
    result
}

/// Time `OcspResponse::from_der` on each body, as the
/// `asn1.response_decode` layer (no spans: it runs outside any op).
pub fn time_decodes(tracer: &mut trace::Tracer, bodies: &[Vec<u8>]) {
    for (i, body) in bodies.iter().enumerate() {
        let from = tracer.stamp();
        let decoded = ocsp::OcspResponse::from_der(std::hint::black_box(body));
        tracer.finish("asn1.response_decode", i as u64, None, from);
        std::hint::black_box(decoded.is_ok());
    }
}

/// `num / den`, 0 for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// FNV-1a, as the hourly campaign uses it to stagger each responder's
/// probes within the scan interval.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = Options::parse(&args("--workload hourly --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(o.workload, "hourly");
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, 10.0);
        assert!(o.trace);
        assert_eq!(o.scale, Scale::Figures);
        assert!(Options::parse(&args("--workload nope")).is_err());
        assert!(Options::parse(&args("--workload hourly --trace 2")).is_err());
        assert!(Options::parse(&args("--workload hourly --seconds")).is_err());
        assert!(Options::parse(&args("--workload hourly --seconds 0")).is_err());
    }

    #[test]
    fn set_ups_end_with_the_run_seed() {
        let seeds = derived_seeds(7, 3);
        assert_eq!(seeds.len(), 3);
        assert_eq!(seeds[2], 7);
        assert!(seeds[0] != seeds[1] && seeds[0] != 7 && seeds[1] != 7);
        let (kept, times) = timed_setup(7, |seed| seed);
        assert_eq!((kept, times.len()), (7, SETUP_REPS));
    }

    #[test]
    fn passes_run_until_the_budget_and_the_minimum() {
        let mut kept = 0;
        let walls = timed_passes(Duration::ZERO, 3, || 1, |x| kept += x);
        assert_eq!(walls.len(), 3);
        assert_eq!(kept, 3);
    }

    #[test]
    fn every_traced_run_prints_every_per_layer_metric() {
        let mut o = Outcome::default();
        per_layer_metrics(&mut o, vec![("trace.overhead_frac", 0.05, "x".into())]);
        assert_eq!(o.metrics.len(), PER_LAYER.len());
        let m = o
            .metrics
            .iter()
            .find(|m| m.name == "trace.overhead_frac")
            .unwrap();
        assert_eq!(m.value, 0.05);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
