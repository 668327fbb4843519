use std::fmt;

/// Errno-style errors returned by the file-system system calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FsError {
    /// A path component does not exist (`ENOENT`).
    NotFound,
    /// A non-final path component is not a directory (`ENOTDIR`).
    NotADirectory,
    /// The operation needs a regular file but got a directory (`EISDIR`).
    IsADirectory,
    /// Making an object at a name that is taken (`EEXIST`).
    AlreadyExists,
    /// The file descriptor is not open (`EBADF`).
    BadFd,
    /// The descriptor is open but not for the requested access (`EBADF`).
    BadAccessMode,
    /// The per-process descriptor table is full (`EMFILE`).
    TooManyOpenFiles,
    /// The block store or inode table is exhausted (`ENOSPC`).
    NoSpace,
    /// A path component exceeds the name length limit (`ENAMETOOLONG`).
    NameTooLong,
    /// A malformed argument: empty path, relative path, bad seek (`EINVAL`).
    InvalidArgument,
    /// Reserving homes on a table that hands out freed numbers or already
    /// holds homes (`EBUSY`).
    Busy,
    /// A write would exceed the maximum file size (`EFBIG`).
    FileTooLarge,
}

impl FsError {
    /// The closest classic UNIX errno name, for logs and reports.
    pub(crate) fn errno_name(self) -> &'static str {
        match self {
            FsError::NotFound => "ENOENT",
            FsError::NotADirectory => "ENOTDIR",
            FsError::IsADirectory => "EISDIR",
            FsError::AlreadyExists => "EEXIST",
            FsError::BadFd | FsError::BadAccessMode => "EBADF",
            FsError::TooManyOpenFiles => "EMFILE",
            FsError::NoSpace => "ENOSPC",
            FsError::NameTooLong => "ENAMETOOLONG",
            FsError::InvalidArgument => "EINVAL",
            FsError::Busy => "EBUSY",
            FsError::FileTooLarge => "EFBIG",
        }
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            FsError::NotFound => "no such file or directory",
            FsError::NotADirectory => "not a directory",
            FsError::IsADirectory => "is a directory",
            FsError::AlreadyExists => "file exists",
            FsError::BadFd => "bad file descriptor",
            FsError::BadAccessMode => "file not open for requested access",
            FsError::TooManyOpenFiles => "too many open files",
            FsError::NoSpace => "no space left on device",
            FsError::NameTooLong => "file name too long",
            FsError::InvalidArgument => "invalid argument",
            FsError::Busy => "device or resource busy",
            FsError::FileTooLarge => "file too large",
        };
        write!(f, "{msg} ({})", self.errno_name())
    }
}

impl std::error::Error for FsError {}

/// A [`VfsConfig`](crate::VfsConfig) field out of the range a file system
/// can be built on, from [`VfsConfig::validate`](crate::VfsConfig::validate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// The field, as a workload spec spells it.
    pub field: &'static str,
    /// Its value.
    pub value: usize,
    /// The range it must lie in.
    pub expected: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self {
            field,
            value,
            expected,
        } = self;
        write!(f, "`{field}` is {value}, but must be {expected}")
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_errno() {
        assert_eq!(
            FsError::NotFound.to_string(),
            "no such file or directory (ENOENT)"
        );
        assert_eq!(FsError::NoSpace.errno_name(), "ENOSPC");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<FsError>();
    }
}
