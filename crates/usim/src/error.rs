use std::fmt;
use uswg_distr::DistrError;
use uswg_vfs::FsError;

/// Errors from building or running the User Simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum UsimError {
    /// The population has no user types.
    EmptyPopulation,
    /// User-type fractions must be positive and sum to one.
    BadFractions {
        /// The offending sum.
        sum: f64,
    },
    /// A user type has no category usages.
    EmptyUserType {
        /// The user type's name.
        name: String,
    },
    /// A probability parameter was outside `[0, 1]`.
    BadProbability {
        /// Name of the parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A run-configuration count was zero.
    BadCount {
        /// Name of the parameter.
        name: &'static str,
    },
    /// A run-configuration count was above its limit.
    TooLarge {
        /// Name of the parameter.
        name: &'static str,
        /// The offending value.
        value: usize,
        /// The largest value accepted.
        max: usize,
    },
    /// The requested population does not fit the user arena's packed
    /// per-user ids (`u32`).
    PopulationTooLarge {
        /// The requested user count.
        n_users: usize,
    },
    /// `run.shards` asked for more than one shard. A run is one
    /// simulation against one contended server; splitting it K ways gave
    /// each shard its own copy of the servers and divided response times by
    /// about K, so only `null` and 1 are accepted.
    ShardsRetired {
        /// The requested shard count.
        shards: usize,
    },
    /// A distribution could not be instantiated or tabulated.
    Distribution(DistrError),
    /// The file system rejected an operation the simulator cannot skip.
    FileSystem(FsError),
    /// The simulated clock reached its limit (`SimTime::MAX`, ~584,542
    /// years): a think time, gap or delay overflowed, and since every time
    /// addition saturates, every response after it would read 0.
    ClockOverflow,
}

impl fmt::Display for UsimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsimError::EmptyPopulation => write!(f, "population has no user types"),
            UsimError::BadFractions { sum } => {
                write!(f, "user-type fractions must sum to 1 (sum = {sum})")
            }
            UsimError::EmptyUserType { name } => {
                write!(f, "user type `{name}` has no category usages")
            }
            UsimError::BadProbability { name, value } => {
                write!(f, "probability `{name}` outside [0, 1] (got {value})")
            }
            UsimError::BadCount { name } => write!(f, "count `{name}` must be positive"),
            UsimError::TooLarge { name, value, max } => {
                write!(f, "count `{name}` of {value} exceeds the limit of {max}")
            }
            UsimError::PopulationTooLarge { n_users } => write!(
                f,
                "population of {n_users} users exceeds the arena limit of 2^32 - 1"
            ),
            UsimError::ShardsRetired { shards } => write!(
                f,
                "sharded runs were removed: each of the {shards} shards simulated its own \
                 copy of the servers, dividing response times by about {shards} \
                 (a shard count of 1 is accepted and changes nothing)"
            ),
            UsimError::Distribution(e) => write!(f, "distribution: {e}"),
            UsimError::FileSystem(e) => write!(f, "file system: {e}"),
            UsimError::ClockOverflow => write!(
                f,
                "simulated clock overflow: a delay pushed it past 2^64 - 1 µs \
                 (check think times, gaps and fault delays)"
            ),
        }
    }
}

impl std::error::Error for UsimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UsimError::Distribution(e) => Some(e),
            UsimError::FileSystem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DistrError> for UsimError {
    fn from(e: DistrError) -> Self {
        UsimError::Distribution(e)
    }
}

impl From<FsError> for UsimError {
    fn from(e: FsError) -> Self {
        UsimError::FileSystem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(UsimError::EmptyPopulation
            .to_string()
            .contains("no user types"));
        assert!(UsimError::BadFractions { sum: 0.5 }
            .to_string()
            .contains("0.5"));
        let e: UsimError = FsError::NoSpace.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
