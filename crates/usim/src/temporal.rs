//! Time-varying user behaviour — the Section 6.2 extensions.
//!
//! The paper's model is stationary and lists two refinements as future
//! work: "to simulate time-varying user behavior, such as transitions
//! between CPU-bound and I/O-bound phases, a Markov process model can be
//! used", and "from a previous study \[CS85\], we know that the distribution
//! of inter-login times varies depending on time of day". This module
//! implements both:
//!
//! * [`PhaseModel`] — a discrete-time Markov chain over behavioural phases;
//!   each phase scales the user's think time (an I/O-bound phase has scale
//!   < 1, a CPU-bound phase > 1). The chain steps once per completed
//!   operation.
//! * [`DiurnalProfile`] — 24 hourly factors applied to inter-login
//!   (inter-session) times, so simulated days have busy and quiet hours.

use crate::UsimError;
use serde::{Deserialize, Serialize};

/// One behavioural phase of a [`PhaseModel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseState {
    /// Display name ("I/O-bound", "CPU-bound", …).
    pub name: String,
    /// Multiplier applied to sampled think times while in this phase.
    pub think_scale: f64,
}

/// A discrete-time Markov chain over behavioural phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseModel {
    states: Vec<PhaseState>,
    /// Row-stochastic transition matrix; `transitions[i][j]` is the
    /// probability of moving from phase `i` to phase `j` after one
    /// operation.
    transitions: Vec<Vec<f64>>,
}

impl PhaseModel {
    /// Creates a phase model.
    ///
    /// # Errors
    ///
    /// Returns [`UsimError::BadProbability`] when the matrix is not square
    /// over the states, a row does not sum to one (±1e-6), an entry is
    /// negative, or a scale is negative/non-finite.
    pub fn new(states: Vec<PhaseState>, transitions: Vec<Vec<f64>>) -> Result<Self, UsimError> {
        if states.is_empty() {
            return Err(UsimError::BadProbability {
                name: "phase_states",
                value: 0.0,
            });
        }
        if transitions.len() != states.len() {
            return Err(UsimError::BadProbability {
                name: "transition_rows",
                value: transitions.len() as f64,
            });
        }
        for state in &states {
            if !(state.think_scale.is_finite() && state.think_scale >= 0.0) {
                return Err(UsimError::BadProbability {
                    name: "think_scale",
                    value: state.think_scale,
                });
            }
        }
        for row in &transitions {
            if row.len() != states.len() {
                return Err(UsimError::BadProbability {
                    name: "transition_cols",
                    value: row.len() as f64,
                });
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-6 || row.iter().any(|&p| p < 0.0) {
                return Err(UsimError::BadProbability {
                    name: "transition_row_sum",
                    value: sum,
                });
            }
        }
        Ok(Self {
            states,
            transitions,
        })
    }

    /// The classic two-phase I/O-bound / CPU-bound model: in the I/O phase
    /// think time shrinks by `io_scale`, in the CPU phase it grows by
    /// `cpu_scale`; `persistence` is the probability of staying in the
    /// current phase each step.
    ///
    /// # Errors
    ///
    /// Returns [`UsimError::BadProbability`] for `persistence` outside
    /// `[0, 1]` or non-positive scales.
    pub fn io_cpu(io_scale: f64, cpu_scale: f64, persistence: f64) -> Result<Self, UsimError> {
        if !(0.0..=1.0).contains(&persistence) {
            return Err(UsimError::BadProbability {
                name: "persistence",
                value: persistence,
            });
        }
        Self::new(
            vec![
                PhaseState {
                    name: "I/O-bound".into(),
                    think_scale: io_scale,
                },
                PhaseState {
                    name: "CPU-bound".into(),
                    think_scale: cpu_scale,
                },
            ],
            vec![
                vec![persistence, 1.0 - persistence],
                vec![1.0 - persistence, persistence],
            ],
        )
    }

    /// Steps the chain: given the current state and a uniform draw `u` in
    /// `[0, 1)`, returns the next state index.
    pub fn step(&self, current: usize, u: f64) -> usize {
        let row = &self.transitions[current.min(self.states.len() - 1)];
        let mut acc = 0.0;
        for (next, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                return next;
            }
        }
        row.len() - 1
    }

    /// The think-time multiplier of a state.
    pub fn scale(&self, state: usize) -> f64 {
        self.states[state.min(self.states.len() - 1)].think_scale
    }
}

/// 24 hourly activity factors applied to inter-login times.
///
/// A factor above 1 stretches the gap between sessions (a quiet hour);
/// below 1 compresses it (a busy hour).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalProfile {
    hourly: Vec<f64>,
}

impl DiurnalProfile {
    /// Creates a profile from 24 positive hourly factors (index 0 = the
    /// hour starting at simulated time zero).
    ///
    /// # Errors
    ///
    /// Returns [`UsimError::BadProbability`] unless exactly 24 finite,
    /// positive factors are supplied.
    pub fn new(hourly: Vec<f64>) -> Result<Self, UsimError> {
        if hourly.len() != 24 {
            return Err(UsimError::BadProbability {
                name: "hourly_factors",
                value: hourly.len() as f64,
            });
        }
        if hourly.iter().any(|&f| !f.is_finite() || f <= 0.0) {
            return Err(UsimError::BadProbability {
                name: "hourly_factor",
                value: -1.0,
            });
        }
        Ok(Self { hourly })
    }

    /// A campus-lab shape after \[CS85\]: quiet nights (large factors),
    /// a busy afternoon and evening.
    pub fn university_lab() -> Self {
        let hourly = vec![
            6.0, 8.0, 10.0, 10.0, 10.0, 8.0, // 00-05: night
            4.0, 2.0, 1.2, 1.0, 0.9, 0.8, // 06-11: morning ramp
            0.8, 0.7, 0.6, 0.6, 0.7, 0.8, // 12-17: afternoon peak
            0.9, 0.8, 0.9, 1.5, 3.0, 5.0, // 18-23: evening tail-off
        ];
        Self { hourly }
    }

    /// The factor in effect at simulated time `micros`.
    pub(crate) fn factor_at(&self, micros: u64) -> f64 {
        const HOUR_US: u64 = 3_600_000_000;
        let hour = (micros / HOUR_US) % 24;
        self.hourly[hour as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_model_validation() {
        assert!(PhaseModel::new(vec![], vec![]).is_err());
        let states = vec![
            PhaseState {
                name: "a".into(),
                think_scale: 1.0,
            },
            PhaseState {
                name: "b".into(),
                think_scale: 2.0,
            },
        ];
        // Wrong row count.
        assert!(PhaseModel::new(states.clone(), vec![vec![1.0, 0.0]]).is_err());
        // Row does not sum to 1.
        assert!(PhaseModel::new(states.clone(), vec![vec![0.5, 0.4], vec![0.0, 1.0]]).is_err());
        // Negative scale.
        let bad = vec![PhaseState {
            name: "x".into(),
            think_scale: -1.0,
        }];
        assert!(PhaseModel::new(bad, vec![vec![1.0]]).is_err());
        // Valid.
        assert!(PhaseModel::new(states, vec![vec![0.9, 0.1], vec![0.1, 0.9]]).is_ok());
    }

    #[test]
    fn io_cpu_helper() {
        let m = PhaseModel::io_cpu(0.2, 5.0, 0.9).unwrap();
        assert!((m.scale(0) - 0.2).abs() < 1e-12);
        assert!((m.scale(1) - 5.0).abs() < 1e-12);
        assert!(PhaseModel::io_cpu(0.2, 5.0, 1.5).is_err());
    }

    #[test]
    fn stepping_follows_probabilities() {
        let m = PhaseModel::io_cpu(0.5, 2.0, 0.8).unwrap();
        // Row 0 = [0.8, 0.2]: u < 0.8 stays in 0, otherwise moves to 1.
        assert_eq!(m.step(0, 0.5), 0);
        assert_eq!(m.step(0, 0.85), 1);
        // Row 1 = [0.2, 0.8]: u < 0.2 moves to 0, otherwise stays in 1.
        assert_eq!(m.step(1, 0.1), 0);
        assert_eq!(m.step(1, 0.95), 1);
        // Out-of-range current state clamps to the last row.
        assert_eq!(m.step(99, 0.1), 0);
    }

    #[test]
    fn chain_reaches_stationarity() {
        let m = PhaseModel::io_cpu(1.0, 1.0, 0.7).unwrap();
        // Symmetric chain: long-run occupancy ~50/50.
        let mut state = 0;
        let mut in_zero = 0;
        let mut u = 0.123f64;
        for _ in 0..100_000 {
            u = (u * 69_069.0 + 0.01) % 1.0; // cheap deterministic stream
            state = m.step(state, u);
            if state == 0 {
                in_zero += 1;
            }
        }
        let frac = in_zero as f64 / 100_000.0;
        assert!((frac - 0.5).abs() < 0.05, "occupancy {frac}");
    }

    #[test]
    fn diurnal_validation_and_lookup() {
        assert!(DiurnalProfile::new(vec![1.0; 23]).is_err());
        assert!(DiurnalProfile::new(vec![0.0; 24]).is_err());
        let p = DiurnalProfile::university_lab();
        const HOUR_US: u64 = 3_600_000_000;
        assert!((p.factor_at(0) - 6.0).abs() < 1e-12);
        assert!((p.factor_at(14 * HOUR_US) - 0.6).abs() < 1e-12);
        // Wraps at 24h.
        assert!((p.factor_at(24 * HOUR_US) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip() {
        let m = PhaseModel::io_cpu(0.3, 4.0, 0.85).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: PhaseModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
        let d = DiurnalProfile::university_lab();
        let json = serde_json::to_string(&d).unwrap();
        let back: DiurnalProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
