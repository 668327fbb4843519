use std::fmt;
use uswg_distr::DistrError;
use uswg_fsc::FscError;
use uswg_usim::UsimError;
use uswg_vfs::{ConfigError, FsError};

/// Unified error of the workload-generator facade.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Distribution engine error.
    Distribution(DistrError),
    /// File System Creator error.
    Creator(FscError),
    /// User Simulator error.
    Simulator(UsimError),
    /// File system error.
    FileSystem(FsError),
    /// A spec's `vfs` geometry that no file system can be built on.
    Geometry(ConfigError),
    /// Workload specification serialization problem.
    Spec(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Distribution(e) => write!(f, "distribution: {e}"),
            CoreError::Creator(e) => write!(f, "file system creator: {e}"),
            CoreError::Simulator(e) => write!(f, "user simulator: {e}"),
            CoreError::FileSystem(e) => write!(f, "file system: {e}"),
            CoreError::Geometry(e) => write!(f, "file system geometry: {e}"),
            CoreError::Spec(msg) => write!(f, "workload spec: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Distribution(e) => Some(e),
            CoreError::Creator(e) => Some(e),
            CoreError::Simulator(e) => Some(e),
            CoreError::FileSystem(e) => Some(e),
            CoreError::Geometry(e) => Some(e),
            CoreError::Spec(_) => None,
        }
    }
}

impl From<DistrError> for CoreError {
    fn from(e: DistrError) -> Self {
        CoreError::Distribution(e)
    }
}

impl From<FscError> for CoreError {
    fn from(e: FscError) -> Self {
        CoreError::Creator(e)
    }
}

impl From<UsimError> for CoreError {
    fn from(e: UsimError) -> Self {
        CoreError::Simulator(e)
    }
}

impl From<FsError> for CoreError {
    fn from(e: FsError) -> Self {
        CoreError::FileSystem(e)
    }
}

impl From<serde_json::Error> for CoreError {
    fn from(e: serde_json::Error) -> Self {
        CoreError::Spec(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = DistrError::Empty.into();
        assert!(e.to_string().starts_with("distribution"));
        assert!(std::error::Error::source(&e).is_some());
        let e: CoreError = FsError::NoSpace.into();
        assert!(e.to_string().contains("ENOSPC"));
        let e: CoreError = UsimError::EmptyPopulation.into();
        assert!(e.to_string().contains("user simulator"));
        let e: CoreError = FscError::EmptySpec.into();
        assert!(e.to_string().contains("creator"));
    }
}
