//! The benchmark's arithmetic: percentiles, the per-layer ledger's
//! residual, and open-loop lateness. Kept free of I/O so the unit tests
//! below pin every formula the reports rely on.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of `values` (`q` in `0.0..=1.0`): the smallest
/// sample with at least `q` of the samples at or below it. `None` for an
/// empty slice. With fewer than `1 / (1 - q)` samples this is the maximum.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median, as the mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// How many samples lie strictly above the nearest-rank `q` percentile —
/// the guide for which percentile a sample can support (at least ten).
pub fn samples_beyond(count: usize, q: f64) -> usize {
    let rank = (q * count as f64).ceil() as usize;
    count.saturating_sub(rank.max(1))
}

/// The residual of a ledger: end-to-end cost per operation minus the
/// replayed layers' total times spread over the same operations. By
/// construction the layers' per-op costs plus this residual equal
/// `end_to_end_ns_per_op`.
pub fn residual_ns(end_to_end_ns_per_op: f64, layer_totals_ns: &[f64], ops: u64) -> f64 {
    end_to_end_ns_per_op - layer_totals_ns.iter().sum::<f64>() / ops.max(1) as f64
}

/// An open-loop schedule: request `i` is due `i / rate` seconds after
/// `start`, whether or not earlier requests have finished.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// A schedule of `rate_per_s` requests per second from `start`.
    pub fn new(start: Instant, rate_per_s: f64) -> Schedule {
        assert!(rate_per_s > 0.0, "an open loop needs a positive rate");
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        let i = u32::try_from(i).expect("an open-loop phase sends fewer than 2^32 requests");
        self.start + self.interval * i
    }
}

/// How late a request was sent, µs: zero when sent at or before its due
/// time.
pub fn late_us(due: Instant, sent: Instant) -> f64 {
    sent.saturating_duration_since(due).as_secs_f64() * 1e6
}

/// Open-loop latency, µs: from when the request was *due* (not when it
/// was sent) to its completion, so a stall also charges the requests
/// queued behind it.
pub fn latency_from_due_us(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // Unsorted input, few samples: p99 is the maximum.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn samples_beyond_the_percentile() {
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(3, 0.99), 0);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn ledger_layers_plus_residual_equal_the_total() {
        // 90 calls of 10 ns and 10 calls of 500 ns over 100 operations.
        let layers = [900.0, 5_000.0];
        let ops = 100;
        let total = 80.0;
        let residual = residual_ns(total, &layers, ops);
        assert_eq!(residual, 80.0 - 9.0 - 50.0);
        let sum: f64 = layers.iter().map(|ns| ns / ops as f64).sum::<f64>() + residual;
        assert!((sum - total).abs() < 1e-9);
    }

    #[test]
    fn residual_can_be_negative_when_layers_overrun() {
        assert_eq!(residual_ns(150.0, &[200.0], 1), -50.0);
    }

    #[test]
    fn schedule_and_lateness() {
        let start = crate::now();
        let s = Schedule::new(start, 2_000.0);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(4) - start, Duration::from_millis(2));
        // Sent early (waited for the due time): not late.
        assert_eq!(late_us(s.due(4), start), 0.0);
        let sent = s.due(4) + Duration::from_micros(30);
        assert!((late_us(s.due(4), sent) - 30.0).abs() < 1e-6);
        // Latency counts from the due time, including the lateness.
        let done = sent + Duration::from_micros(100);
        assert!((latency_from_due_us(s.due(4), done) - 130.0).abs() < 1e-6);
    }
}
