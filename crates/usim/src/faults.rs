//! Seeded fault injection at the service boundary: transient errors,
//! latency spikes and a deterministic retry policy.
//!
//! The paper's generator reproduces *healthy* file-system behaviour; real
//! services spend their interesting life under faults and overload. This
//! module adds a [`FaultSpec`] to the run configuration: each operation's
//! service traversal can suffer a seeded latency spike, and each attempt
//! can fail transiently and be retried under a [`RetryPolicy`] with
//! exponential backoff and decorrelated jitter. Every random decision is
//! drawn from the issuing user's own PRNG stream, so a faulted run remains
//! a pure function of (spec, seed) — the contract the fault-equivalence
//! suite pins.
//!
//! Faults model the *timing and outcome* of a call, not its semantics: the
//! synthetic file system executes the call's effect at issue time either
//! way, so an aborted operation is one whose latency budget was spent on
//! failed attempts — its retries and final disposition are recorded
//! first-class on the [`OpRecord`](crate::OpRecord) (`retries`, `aborted`)
//! and aggregated by [`SummarySink`](crate::SummarySink).
//!
//! The disabled default draws **nothing** from any PRNG, which is what
//! keeps `FaultSpec::default()` runs byte-identical to pre-fault behaviour.

use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Probabilities are expressed in parts per million, keeping the spec
/// integral (hashable, `Eq`, no float-rounding drift across platforms).
pub const PPM_SCALE: u64 = 1_000_000;

/// Deterministic retry schedule for transiently failed attempts:
/// exponential backoff with decorrelated jitter (each backoff is drawn
/// uniformly from `[base, 3 × previous]`, clamped to `max`), the schedule
/// most load generators converge on because it spreads synchronized
/// retries apart. The jitter draw comes from the issuing user's PRNG, so
/// the schedule is replayed exactly for a given (spec, seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts allowed per operation, including the first (≥ 1).
    /// An attempt budget of 1 means a transient fault aborts immediately.
    pub max_attempts: u32,
    /// Smallest backoff before a retry, µs.
    pub base_backoff_micros: u64,
    /// Cap on any single backoff, µs.
    pub max_backoff_micros: u64,
}

impl Default for RetryPolicy {
    /// Four attempts (three retries), 1 ms base, 64 ms cap.
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_micros: 1_000,
            max_backoff_micros: 64_000,
        }
    }
}

impl RetryPolicy {
    /// The backoff before the next attempt, given the previous backoff
    /// (pass `0` before the first retry). Decorrelated jitter: uniform in
    /// `[base, max(3 × prev, base + 1))`, clamped to `max_backoff_micros`.
    pub fn backoff(&self, prev: u64, rng: &mut dyn RngCore) -> u64 {
        let base = self.base_backoff_micros.max(1);
        let hi = prev.saturating_mul(3).max(base + 1);
        let draw = base + rng.next_u64() % (hi - base);
        draw.min(self.max_backoff_micros.max(base))
    }
}

/// Seeded fault model applied at the service boundary of every operation.
///
/// The default is fully disabled (zero rates) and — crucially — draws no
/// random values at all, so a spec without a `faults` section replays the
/// historical byte stream exactly. Serialized specs omit nothing: the
/// field is `#[serde(default)]` wherever it appears, so every existing
/// spec file parses unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Probability that one *attempt* fails transiently, parts per
    /// million (0 = never, 1 000 000 = always).
    #[serde(default)]
    pub fault_ppm: u32,
    /// Probability that an operation's first attempt suffers a latency
    /// spike, parts per million.
    #[serde(default)]
    pub spike_ppm: u32,
    /// Added latency of a spike, µs (0 disables spikes regardless of
    /// `spike_ppm`).
    #[serde(default)]
    pub spike_micros: u64,
    /// Retry schedule for transiently failed attempts.
    #[serde(default)]
    pub retry: RetryPolicy,
}

impl FaultSpec {
    /// Whether any fault mechanism can fire. When this is `false` the
    /// driver takes the exact pre-fault code path and consumes no PRNG
    /// values.
    pub fn enabled(&self) -> bool {
        self.fault_ppm > 0 || (self.spike_ppm > 0 && self.spike_micros > 0)
    }

    /// Validates rates and the retry budget.
    ///
    /// # Errors
    ///
    /// Returns [`UsimError::BadCount`](crate::UsimError) when a rate
    /// exceeds one million ppm or the attempt budget is zero.
    pub fn validate(&self) -> Result<(), crate::UsimError> {
        if u64::from(self.fault_ppm) > PPM_SCALE {
            return Err(crate::UsimError::BadCount { name: "fault_ppm" });
        }
        if u64::from(self.spike_ppm) > PPM_SCALE {
            return Err(crate::UsimError::BadCount { name: "spike_ppm" });
        }
        if self.max_attempts() == 0 {
            return Err(crate::UsimError::BadCount {
                name: "retry.max_attempts",
            });
        }
        Ok(())
    }

    /// The retry budget (total attempts per operation).
    pub fn max_attempts(&self) -> u32 {
        self.retry.max_attempts
    }

    /// Draws whether this attempt fails transiently. Consumes one PRNG
    /// value when `fault_ppm > 0`, none otherwise.
    pub(crate) fn sample_fault(&self, rng: &mut dyn RngCore) -> bool {
        self.fault_ppm > 0 && rng.next_u64() % PPM_SCALE < u64::from(self.fault_ppm)
    }

    /// Draws the spike latency for an operation's first attempt: `Some`
    /// when the spike fires. Consumes one PRNG value when spikes are
    /// configured, none otherwise.
    pub(crate) fn sample_spike(&self, rng: &mut dyn RngCore) -> Option<u64> {
        if self.spike_ppm == 0 || self.spike_micros == 0 {
            return None;
        }
        (rng.next_u64() % PPM_SCALE < u64::from(self.spike_ppm)).then_some(self.spike_micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_is_disabled_and_draws_nothing() {
        let spec = FaultSpec::default();
        assert!(!spec.enabled());
        assert!(spec.validate().is_ok());
        // Disabled sampling consumes no PRNG values: two rngs stay in
        // lockstep across sample calls.
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            assert!(!spec.sample_fault(&mut a));
            assert_eq!(spec.sample_spike(&mut a), None);
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn spike_requires_both_rate_and_magnitude() {
        let mut spec = FaultSpec {
            spike_ppm: PPM_SCALE as u32,
            ..FaultSpec::default()
        };
        assert!(!spec.enabled());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(spec.sample_spike(&mut rng), None);
        spec.spike_micros = 500;
        assert!(spec.enabled());
        assert_eq!(spec.sample_spike(&mut rng), Some(500));
    }

    #[test]
    fn certain_fault_always_fires() {
        let spec = FaultSpec {
            fault_ppm: PPM_SCALE as u32,
            ..FaultSpec::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            assert!(spec.sample_fault(&mut rng));
        }
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let bad_rate = FaultSpec {
            fault_ppm: PPM_SCALE as u32 + 1,
            ..FaultSpec::default()
        };
        assert!(bad_rate.validate().is_err());
        let no_budget = FaultSpec {
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..FaultSpec::default()
        };
        assert!(no_budget.validate().is_err());
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff_micros: 100,
            max_backoff_micros: 1_000,
        };
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut prev = 0;
        for _ in 0..20 {
            let ours = policy.backoff(prev, &mut a);
            assert_eq!(ours, policy.backoff(prev, &mut b), "same seed, same draw");
            assert!((100..=1_000).contains(&ours), "backoff {ours} out of range");
            prev = ours;
        }
    }

    #[test]
    fn backoff_grows_toward_the_cap() {
        // With decorrelated jitter the expected backoff grows until the
        // cap dominates; check the reachable range widens with prev.
        let policy = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(9);
        let first = policy.backoff(0, &mut rng);
        assert!(first >= policy.base_backoff_micros);
        let capped = policy.backoff(u64::MAX, &mut rng);
        assert!(capped <= policy.max_backoff_micros);
    }

    #[test]
    fn serde_round_trips_and_missing_section_defaults() {
        let spec = FaultSpec {
            fault_ppm: 50_000,
            spike_ppm: 10_000,
            spike_micros: 30_000,
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_micros: 500,
                max_backoff_micros: 8_000,
            },
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // An empty object is the disabled default — the back-compat hinge
        // for every pre-fault spec file.
        let empty: FaultSpec = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, FaultSpec::default());
        assert!(!empty.enabled());
    }
}
