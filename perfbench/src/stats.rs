//! Summaries, the tail-percentile sample rule, and failure accounting.

/// Fewest samples that must lie strictly beyond a reported percentile.
const TAIL_SAMPLES: usize = 10;

/// Nearest rank of percentile `p` among `n` samples, if at least
/// [`TAIL_SAMPLES`] samples lie beyond it.
fn supported_rank(n: usize, p: f64) -> Option<usize> {
    assert!(
        p > 0.0 && p < 100.0,
        "percentile must be in (0, 100), got {p}"
    );
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (n - rank >= TAIL_SAMPLES).then_some(rank)
}

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it. A tail percentile read
/// from a handful of samples is one outlier, not a distribution.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = supported_rank(samples.len(), p)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Percentile `p` of each run of `window` consecutive samples (a short
/// tail joins the last window), then the median across windows. A burst of
/// interference moves one window's tail, not the reported one. `None` when
/// there is no full window or a window cannot support `p`.
pub fn windowed_percentile(samples: &[f64], p: f64, window: usize) -> Option<f64> {
    let windows = samples.len() / window;
    if windows == 0 {
        return None;
    }
    let per_window = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * window
            };
            percentile(&samples[w * window..end], p)
        })
        .collect::<Option<Vec<f64>>>()?;
    Some(median(&per_window))
}

/// Median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Min, median and max of a metric's repeated measurements in one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(samples),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
        }
    }

    /// A metric measured once.
    pub fn single(v: f64) -> Summary {
        Summary::of(&[v])
    }
}

/// Operations attempted in a timed phase and the ways they can fail. Every
/// failure class is counted separately so a nonzero `failed` says why.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Decisions asked for, rewards sent, or evaluation passes run.
    pub attempted: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Error responses, rejected reward joins, or failed calls.
    pub errored: u64,
    /// Corrupt frames and protocol errors on the wire.
    pub protocol: u64,
    /// Records the log queue dropped.
    pub dropped: u64,
    /// Records quarantined, at run time or by recovery.
    pub quarantined: u64,
    /// Decisions that were served but not recovered from the segments
    /// with the action and propensity their caller received.
    pub unrecovered: u64,
}

impl Ledger {
    pub fn failed(&self) -> u64 {
        self.shed
            + self.errored
            + self.protocol
            + self.dropped
            + self.quarantined
            + self.unrecovered
    }

    /// Failed operations over attempted operations.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed() as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(250), 90.0), Some(225.0));
    }

    #[test]
    fn p50_is_the_nearest_rank_median() {
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        let mut shuffled = ramp(41);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 50.0), Some(21.0));
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // Three windows of 100; the middle one is slow throughout.
        let mut samples = ramp(100);
        samples.extend(ramp(100).iter().map(|v| v * 10.0));
        samples.extend(ramp(100));
        assert_eq!(windowed_percentile(&samples, 90.0, 100), Some(90.0));
        assert_eq!(windowed_percentile(&samples, 50.0, 100), Some(50.0));
    }

    #[test]
    fn windowed_percentile_needs_a_full_window_and_merges_the_tail() {
        assert_eq!(windowed_percentile(&ramp(99), 90.0, 100), None);
        // 150 samples: one window holding all of them.
        assert_eq!(windowed_percentile(&ramp(150), 90.0, 100), Some(135.0));
        // A window too small for p90 is refused, not guessed.
        assert_eq!(windowed_percentile(&ramp(50), 90.0, 50), None);
    }

    #[test]
    fn failed_share_counts_every_failure_class() {
        let mut l = Ledger {
            attempted: 1000,
            ..Ledger::default()
        };
        assert_eq!(l.failed_share(), 0.0);
        l.shed = 1;
        l.errored = 2;
        l.protocol = 3;
        l.dropped = 4;
        l.quarantined = 5;
        l.unrecovered = 5;
        assert_eq!(l.failed(), 20);
        assert!((l.failed_share() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn nothing_attempted_is_a_total_failure() {
        assert_eq!(Ledger::default().failed_share(), 1.0);
    }

    #[test]
    fn summary_reports_min_median_max() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 2.5, 10.0, 4));
    }
}
