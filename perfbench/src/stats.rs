//! Percentiles, the tail rule, and the open-loop latency bookkeeping.

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile reported for `n` samples: the highest whole
/// percentile that leaves at least [`TAIL_BEYOND`] samples above its
/// nearest-rank position, capped at p99 and never below the median
/// (with fewer than 20 samples no higher percentile is supported).
pub fn tail_percentile(n: usize) -> f64 {
    if n <= 2 * TAIL_BEYOND {
        return 50.0;
    }
    let p = (100 * (n - TAIL_BEYOND)) / n;
    (p as f64).clamp(50.0, 99.0)
}

/// Median and tail of one class of latencies.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

/// Summarises a class; `None` when it has no samples.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len());
    Some(Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail: percentile(&sorted, tail_pct),
        tail_pct,
    })
}

/// One request of an open loop, in seconds since the schedule's start:
/// when it was due, when the generator actually sent it, and when its
/// answer was complete. `answered` is false for errors, `busy`
/// refusals, wrong answers and transport failures.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopSample {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub answered: bool,
}

impl OpenLoopSample {
    /// Latency from the due time, so a stall that delays the sender
    /// counts against every request queued behind it.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }

    /// Whether the request met `limit_ms`. A failed or refused request
    /// misses every limit, however fast it came back.
    pub fn within(&self, limit_ms: f64) -> bool {
        self.answered && self.latency_ms() <= limit_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 21..5000 {
            let p = tail_percentile(n);
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_BEYOND, "n={n}: p{p} leaves {}", n - rank);
            if p < 99.0 {
                // One percent higher would leave fewer than ten.
                let higher = (((p + 1.0) / 100.0) * n as f64).ceil() as usize;
                assert!(n - higher < TAIL_BEYOND, "n={n}: p{p} is not the highest");
            }
        }
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(15), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn failures_and_refusals_miss_the_limit() {
        let fast_failure = OpenLoopSample {
            due: 0.0,
            sent: 0.0,
            done: 0.001,
            answered: false,
        };
        assert!(!fast_failure.within(100.0));
        let ok = OpenLoopSample {
            answered: true,
            ..fast_failure
        };
        assert!(ok.within(100.0));
        assert!(!ok.within(0.5));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due at 1.0 s, sent 30 ms late, answered 5 ms after sending.
        let s = OpenLoopSample {
            due: 1.0,
            sent: 1.030,
            done: 1.035,
            answered: true,
        };
        assert!((s.latency_ms() - 35.0).abs() < 1e-9);
        assert!((s.lateness_ms() - 30.0).abs() < 1e-9);
        assert!(
            !s.within(10.0),
            "the generator's stall counts against the request"
        );
    }

    #[test]
    fn summaries_report_the_rule_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&xs).expect("samples");
        assert_eq!((s.n, s.p50, s.tail, s.tail_pct), (100, 50.0, 90.0, 90.0));
        assert!(summarize(&[]).is_none());
    }
}
