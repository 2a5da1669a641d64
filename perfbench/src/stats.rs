//! The benchmark's own accounting: percentiles, the tail percentile, the
//! failure ratio and response normalisation. Kept free of I/O so each rule is
//! unit-tested on its own.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between the
/// two nearest ranks. `samples` need not be sorted.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, `100 × (n − 10) / n`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly greater than `value`'s rank (always 10 when defined).
    pub beyond: usize,
}

/// The tail of `samples`, or `None` with fewer than `TAIL_BEYOND + 1`
/// samples (no sample has ten others beyond it).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        value: sorted[rank],
        beyond: n - 1 - rank,
    })
}

/// How one attempted job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer matched the expected output.
    Ok,
    /// Answered, but the answer differs from the expected output.
    Wrong,
    /// Answered with a typed error where success was expected.
    Refused,
    /// Answered with a typed `timeout` error.
    TimedOut,
    /// Never answered (the server died or the run ended first).
    Unanswered,
}

/// Attempted and failed job counts, where every outcome but `Ok` fails.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        if *outcome != Outcome::Ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of attempted jobs that failed (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Classifies one serve response line against the expected one. Both sides
/// are normalised first; an error response is a timeout or a refusal.
pub fn classify(expected: &str, actual: Option<&str>) -> Outcome {
    let Some(actual) = actual else {
        return Outcome::Unanswered;
    };
    if normalise(actual) == normalise(expected) {
        return Outcome::Ok;
    }
    if actual.contains(r#""ok": false"#) {
        if actual.contains(r#""kind": "timeout""#) {
            Outcome::TimedOut
        } else {
            Outcome::Refused
        }
    } else {
        Outcome::Wrong
    }
}

/// The one field whose value legitimately differs between two runs of the
/// same request: the generator's wall-clock time.
const VOLATILE_KEY: &str = "\"elapsed_s\": ";

/// Replaces the numeric value of every `"elapsed_s"` key with `0` and leaves
/// every other byte unchanged.
pub fn normalise(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(VOLATILE_KEY) {
        let value_start = at + VOLATILE_KEY.len();
        out.push_str(&rest[..value_start]);
        let tail = &rest[value_start..];
        let value_len = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(tail.len());
        if value_len == 0 {
            // Not a number (a string value, say): keep it verbatim.
        } else {
            out.push('0');
        }
        rest = &tail[value_len..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let tail = tail(&samples).unwrap();
        assert_eq!(tail.value, 90.0);
        assert_eq!(tail.beyond, 10);
        assert_eq!(samples.iter().filter(|&&s| s > tail.value).count(), 10);
        assert!((tail.percentile - 90.0).abs() < 1e-9);
    }

    #[test]
    fn tail_moves_up_with_more_samples() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let tail = tail(&samples).unwrap();
        assert_eq!(samples.iter().filter(|&&s| s > tail.value).count(), 10);
        assert!((tail.percentile - 99.0).abs() < 1e-9);
    }

    #[test]
    fn tail_is_undefined_below_eleven_samples() {
        assert!(tail(&[1.0; 10]).is_none());
        let eleven = tail(&[5.0; 11]).unwrap();
        assert_eq!(eleven.value, 5.0);
        assert_eq!(eleven.beyond, 10);
    }

    #[test]
    fn failed_ratio_counts_refusals_timeouts_and_silence() {
        let expected = r#"{"seq": 0, "ok": true, "op": "coverage", "report": {"covered": 3}}"#;
        let refused = r#"{"seq": 0, "ok": false, "op": "coverage", "error": {"kind": "simulation", "message": "x"}}"#;
        let timeout = r#"{"seq": 0, "ok": false, "error": {"kind": "timeout", "message": "late"}}"#;
        let wrong = r#"{"seq": 0, "ok": true, "op": "coverage", "report": {"covered": 2}}"#;
        let outcomes = [
            classify(expected, Some(expected)),
            classify(expected, Some(refused)),
            classify(expected, Some(timeout)),
            classify(expected, Some(wrong)),
            classify(expected, None),
        ];
        assert_eq!(
            outcomes,
            [
                Outcome::Ok,
                Outcome::Refused,
                Outcome::TimedOut,
                Outcome::Wrong,
                Outcome::Unanswered
            ]
        );
        let mut tally = Tally::default();
        for outcome in &outcomes {
            tally.record(outcome);
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 4
            }
        );
        assert!((tally.failed_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }

    #[test]
    fn normalisation_strips_only_elapsed_s() {
        let line =
            r#"{"report": "generation", "complexity": 29, "elapsed_s": 0.153, "iterations": 4}"#;
        assert_eq!(
            normalise(line),
            r#"{"report": "generation", "complexity": 29, "elapsed_s": 0, "iterations": 4}"#
        );
        let later =
            r#"{"report": "generation", "complexity": 29, "elapsed_s": 1.5e-3, "iterations": 4}"#;
        assert_eq!(normalise(line), normalise(later));
        // Any other difference survives normalisation.
        let other =
            r#"{"report": "generation", "complexity": 30, "elapsed_s": 0.153, "iterations": 4}"#;
        assert_ne!(normalise(line), normalise(other));
        for untouched in [
            r#"{"elapsed_ms": 3, "seq": 1}"#,
            r#"{"name": "elapsed_s", "x_elapsed_s": 2}"#,
            r#"{"elapsed_s": "n/a"}"#,
        ] {
            assert_eq!(normalise(untouched), untouched);
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), 2.5);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 4.0);
        assert_eq!(quantile(&samples, 0.25), 1.75);
    }
}
