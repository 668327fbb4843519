//! Operation descriptions handed to the timing models.

use serde::{Deserialize, Serialize};

/// Identifier of a simulated user (index into the population).
pub type UserId = usize;

/// Identifier of a file as seen by the timing models (the VFS inode number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FileId(pub u64);

/// The file-access system calls the workload model generates (Section 3.1.2:
/// "the interface in UNIX systems appears in the form of system calls, e.g.,
/// open, read, and ioctl").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum OpKind {
    /// `open(2)` of an existing file.
    Open,
    /// `close(2)`.
    Close,
    /// `read(2)`.
    Read,
    /// `write(2)`.
    Write,
    /// `creat(2)` — create + truncate + open for writing.
    Create,
    /// `unlink(2)`.
    Unlink,
    /// `stat(2)` / `fstat(2)`.
    Stat,
    /// `lseek(2)` — purely local cursor motion.
    Seek,
}

impl OpKind {
    /// Whether the operation transfers file data (as opposed to metadata).
    pub fn is_data(self) -> bool {
        matches!(self, OpKind::Read | OpKind::Write)
    }

    /// All operation kinds, for iteration in reports.
    pub const ALL: [OpKind; 8] = [
        OpKind::Open,
        OpKind::Close,
        OpKind::Read,
        OpKind::Write,
        OpKind::Create,
        OpKind::Unlink,
        OpKind::Stat,
        OpKind::Seek,
    ];

    /// The kind's position in [`OpKind::ALL`]: the index of per-kind tables
    /// and the op code a spill file stores.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The system-call name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Open => "open",
            OpKind::Close => "close",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Create => "creat",
            OpKind::Unlink => "unlink",
            OpKind::Stat => "stat",
            OpKind::Seek => "lseek",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One operation offered to a timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpRequest {
    /// The issuing user.
    pub user: UserId,
    /// The system call.
    pub kind: OpKind,
    /// Bytes transferred (reads/writes; zero for metadata calls).
    pub bytes: u64,
    /// The file operated on.
    pub file: FileId,
    /// Byte offset of the access within the file.
    pub offset: u64,
    /// Current logical size of the file (drives whole-file transfer costs).
    pub file_size: u64,
}

impl OpRequest {
    /// A metadata operation (no payload bytes).
    pub fn metadata(user: UserId, kind: OpKind, file: FileId, file_size: u64) -> Self {
        Self {
            user,
            kind,
            bytes: 0,
            file,
            offset: 0,
            file_size,
        }
    }

    /// A data operation at the given offset.
    pub fn data(
        user: UserId,
        kind: OpKind,
        file: FileId,
        offset: u64,
        bytes: u64,
        file_size: u64,
    ) -> Self {
        Self {
            user,
            kind,
            bytes,
            file,
            offset,
            file_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_classification() {
        assert!(OpKind::Read.is_data());
        assert!(OpKind::Write.is_data());
        assert!(!OpKind::Open.is_data());
        assert!(!OpKind::Seek.is_data());
    }

    #[test]
    fn names_are_syscall_names() {
        assert_eq!(OpKind::Create.name(), "creat");
        assert_eq!(OpKind::Seek.to_string(), "lseek");
        assert_eq!(OpKind::ALL.len(), 8);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for kind in OpKind::ALL {
            assert_eq!(OpKind::ALL[kind.index()], kind);
        }
    }

    #[test]
    fn constructors() {
        let m = OpRequest::metadata(1, OpKind::Stat, FileId(7), 4096);
        assert_eq!(m.bytes, 0);
        assert_eq!(m.file_size, 4096);
        let d = OpRequest::data(2, OpKind::Read, FileId(8), 100, 512, 4096);
        assert_eq!(d.bytes, 512);
        assert_eq!(d.offset, 100);
    }
}
