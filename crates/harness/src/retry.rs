//! Retry policy: bounded attempts with exponential backoff.

use std::time::Duration;

/// Bounded retries with exponential backoff.
///
/// A job gets at most `max_attempts` executions. After the `n`-th failed
/// attempt (1-based), the next attempt becomes eligible after
/// `base_delay * multiplier^(n-1)`, capped at `max_delay`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total executions allowed per job (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Growth factor per subsequent retry.
    pub multiplier: f64,
    /// Upper bound on any single backoff delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(500),
            multiplier: 2.0,
            max_delay: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// A policy with no retries at all.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff to wait after `failures` failed attempts, or `None` when
    /// the attempt budget is exhausted and the job must be declared
    /// permanently failed.
    pub fn delay_after(&self, failures: u32) -> Option<Duration> {
        if failures == 0 || failures >= self.max_attempts {
            return None;
        }
        let factor = self
            .multiplier
            .max(1.0)
            .powi(failures.saturating_sub(1) as i32);
        let delay = self.base_delay.as_secs_f64() * factor;
        Some(self.max_delay.min(Duration::from_secs_f64(delay)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(100),
            multiplier: 2.0,
            max_delay: Duration::from_millis(350),
        };
        assert_eq!(policy.delay_after(1), Some(Duration::from_millis(100)));
        assert_eq!(policy.delay_after(2), Some(Duration::from_millis(200)));
        // 400ms hits the cap.
        assert_eq!(policy.delay_after(3), Some(Duration::from_millis(350)));
        assert_eq!(policy.delay_after(4), Some(Duration::from_millis(350)));
        // Budget exhausted.
        assert_eq!(policy.delay_after(5), None);
        assert_eq!(policy.delay_after(99), None);
    }

    #[test]
    fn no_retry_policy_never_delays() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.delay_after(1), None);
    }

    #[test]
    fn zero_failures_is_not_a_retry() {
        assert_eq!(RetryPolicy::default().delay_after(0), None);
    }
}
