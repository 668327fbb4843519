use std::fmt;
use uswg_distr::DistrError;
use uswg_vfs::FsError;

/// Errors from building the synthetic file system.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FscError {
    /// The specification has no categories.
    EmptySpec,
    /// Category fractions must be positive and sum to one.
    BadFractions {
        /// The offending sum.
        sum: f64,
    },
    /// A count parameter was zero or out of range.
    BadCount {
        /// Name of the parameter.
        name: &'static str,
        /// The offending value.
        value: u64,
    },
    /// An alias table was given unusable weights.
    BadWeights {
        /// Why the weights were rejected.
        reason: &'static str,
    },
    /// A file-popularity policy has an unusable parameter (e.g. a Zipf
    /// exponent whose weights would overflow).
    BadPopularity {
        /// Why the policy was rejected.
        reason: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The population needs more inodes than the file system has left.
    /// Raised before anything is created.
    InodeDemand {
        /// Inodes the build would allocate.
        demand: u64,
        /// Inodes the file system has free.
        available: u64,
        /// The file system's `vfs.max_inodes`.
        limit: u64,
    },
    /// The file system has freed inode numbers or already holds homes, so
    /// the numbers a build reserves for the homes would not be the ones a
    /// build that created every home would have handed out. Raised before
    /// anything is created.
    NotFresh {
        /// Freed inode numbers the file system hands out again.
        freed: u64,
        /// Homes reserved, plus entries of `/u` and `/tmp`.
        homes: u64,
    },
    /// The population has more files, or can be handed higher inode
    /// numbers, than the catalog's `u32`s hold. Raised before anything is
    /// created.
    CatalogDemand {
        /// Files the build would catalog.
        files: u64,
        /// The highest inode number the build could hand out.
        highest_ino: u64,
    },
    /// Memory for a table the population needs could not be reserved.
    /// Raised before anything is created.
    Reserve {
        /// The table.
        table: &'static str,
        /// Bytes the population needs in it.
        bytes: u64,
    },
    /// A size distribution could not be instantiated.
    Distribution(DistrError),
    /// The underlying file system rejected an operation (usually `ENOSPC`).
    FileSystem(FsError),
}

impl fmt::Display for FscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FscError::EmptySpec => write!(f, "file system spec has no categories"),
            FscError::BadFractions { sum } => {
                write!(f, "category fractions must sum to 1 (sum = {sum})")
            }
            FscError::BadCount { name, value } => {
                write!(f, "count parameter `{name}` out of range (got {value})")
            }
            FscError::BadWeights { reason } => write!(f, "alias table weights: {reason}"),
            FscError::BadPopularity { reason, value } => {
                write!(f, "file-popularity policy: {reason} (got {value})")
            }
            FscError::InodeDemand {
                demand,
                available,
                limit,
            } => write!(
                f,
                "the population needs {demand} inodes but `vfs.max_inodes` is {limit} \
                 ({available} free): raise vfs.max_inodes or shrink the population"
            ),
            FscError::NotFresh { freed, homes } => write!(
                f,
                "the file system has {freed} freed inode numbers and holds {homes} homes: \
                 build into a fresh file system"
            ),
            FscError::CatalogDemand { files, highest_ino } => write!(
                f,
                "the population is {files} files with inode numbers up to {highest_ino}, and \
                 a file catalog holds at most {} of either: shrink the population",
                u32::MAX
            ),
            FscError::Reserve { table, bytes } => write!(
                f,
                "cannot reserve {bytes} bytes for the {table}: shrink the population"
            ),
            FscError::Distribution(e) => write!(f, "size distribution: {e}"),
            FscError::FileSystem(e) => write!(f, "file system: {e}"),
        }
    }
}

impl std::error::Error for FscError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FscError::Distribution(e) => Some(e),
            FscError::FileSystem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DistrError> for FscError {
    fn from(e: DistrError) -> Self {
        FscError::Distribution(e)
    }
}

impl From<FsError> for FscError {
    fn from(e: FsError) -> Self {
        FscError::FileSystem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = FscError::Distribution(DistrError::Empty);
        assert!(e.to_string().contains("size distribution"));
        assert!(std::error::Error::source(&e).is_some());
        let e = FscError::FileSystem(FsError::NoSpace);
        assert!(e.to_string().contains("ENOSPC"));
        assert!(FscError::EmptySpec.to_string().contains("no categories"));
        let e = FscError::InodeDemand {
            demand: 5_200_124,
            available: 65_535,
            limit: 65_536,
        };
        for part in ["vfs.max_inodes", "5200124", "65536", "65535"] {
            assert!(e.to_string().contains(part), "{e}");
        }
    }

    #[test]
    fn conversions() {
        let _: FscError = DistrError::Empty.into();
        let _: FscError = FsError::NotFound.into();
    }
}
