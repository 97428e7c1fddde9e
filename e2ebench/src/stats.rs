//! Sample statistics and the per-phase operation accounting.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `samples` by nearest rank; `None` when
/// there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Attempted / succeeded / failed counts of one operation type.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
}

/// Every operation the benchmark sends, by `(phase, operation)`.
/// Retryable `busy`, quota and queue-full rejections are failures like
/// any other: nothing is retried.
#[derive(Debug, Clone, Default)]
pub struct Acct {
    pub ops: BTreeMap<(String, &'static str), Counts>,
    /// Output checks that found a wrong answer.
    pub mismatches: u64,
    /// The first few failures, for the record.
    pub first_errors: Vec<String>,
}

impl Acct {
    pub fn note<T, E: std::fmt::Display>(
        &mut self,
        phase: &str,
        op: &'static str,
        result: &Result<T, E>,
    ) {
        let c = self.ops.entry((phase.to_owned(), op)).or_default();
        c.attempted += 1;
        match result {
            Ok(_) => c.succeeded += 1,
            Err(e) => {
                c.failed += 1;
                if self.first_errors.len() < 8 {
                    self.first_errors.push(format!("{phase}/{op}: {e}"));
                }
            }
        }
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.first_errors.len() < 8 {
            self.first_errors.push(what);
        }
    }

    pub fn merge(&mut self, other: Acct) {
        for (key, c) in other.ops {
            let mine = self.ops.entry(key).or_default();
            mine.attempted += c.attempted;
            mine.succeeded += c.succeeded;
            mine.failed += c.failed;
        }
        self.mismatches += other.mismatches;
        for e in other.first_errors {
            if self.first_errors.len() < 8 {
                self.first_errors.push(e);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|c| c.failed).sum()
    }

    /// Failed, refused or wrong, over attempted.
    pub fn error_rate(&self) -> f64 {
        (self.failed() + self.mismatches) as f64 / self.attempted().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
