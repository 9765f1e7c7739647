//! Tiny-scale smoke runs of all three workloads, end-to-end and traced,
//! through the library entry point; plus an ignored full-scale check of
//! the hourly campaign against the committed `results/telemetry.csv`.
//!
//! `cargo test --release -- --ignored` runs the full-scale check (a
//! 2,090,880-probe campaign, about a minute on 2 CPUs).

use mustaple_perfbench::{hourly, run, Options, Scale, PER_LAYER};
use std::path::PathBuf;

const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "latency_p50_us",
    "latency_p99_us",
    "peak_rss_mb",
];

fn smoke(workload: &str, trace: bool) {
    let args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.5",
        "--trace",
        if trace { "1" } else { "0" },
        "--scale",
        "tiny",
        "--out",
        env!("CARGO_TARGET_TMPDIR"),
        "--ocspd",
        env!("CARGO_BIN_EXE_ocspd"),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let opts = Options::parse(&args).expect("valid smoke arguments");
    assert_eq!(opts.scale, Scale::Tiny);
    let outcome = run(&opts).expect("the smoke run completes");
    let text = outcome.render_text(workload);
    assert!(outcome.attempted > 0, "{text}");
    assert_eq!(outcome.failed, 0, "{text}");
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    if trace {
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{text}");
        assert!(opts.trace_dir().join("spans.jsonl").exists());
        assert!(opts.trace_dir().join("layers.json").exists());
    } else {
        assert_eq!(names, END_TO_END, "{text}");
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{} must never be 0: {text}", m.name);
        }
    }
    let json = outcome.render_json();
    assert!(json.starts_with("{\"correct\": true, "), "{json}");
}

#[test]
fn hourly_end_to_end() {
    smoke("hourly", false);
}

#[test]
fn hourly_traced() {
    smoke("hourly", true);
}

#[test]
fn consistency_end_to_end() {
    smoke("consistency", false);
}

#[test]
fn consistency_traced() {
    smoke("consistency", true);
}

#[test]
fn ocspd_serve_end_to_end() {
    smoke("ocspd-serve", false);
}

#[test]
fn ocspd_serve_traced() {
    smoke("ocspd-serve", true);
}

/// The `scan.hourly.*` rows of the full `figures` campaign (the whole
/// window, not the benchmark's 12 days) equal the committed
/// `results/telemetry.csv` rows.
#[test]
#[ignore = "a full figures-scale campaign; run with --release -- --ignored"]
fn full_figures_campaign_matches_committed_telemetry() {
    let eco = ecosystem::LiveEcosystem::generate(ecosystem::EcosystemConfig::figures());
    let dataset = scanner::HourlyCampaign::new(&eco).run_with(&mustaple_perfbench::executor());
    assert_eq!(dataset.requests, 2_090_880);
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../results/telemetry.csv");
    let committed = std::fs::read_to_string(&committed).expect("results/telemetry.csv");
    let rows: String = committed
        .lines()
        .filter(|l| l.starts_with("counter,scan.hourly."))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(hourly::hourly_rows(&dataset.telemetry), rows);
}
