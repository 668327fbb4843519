//! The usage log: the record every driver produces (the "usage log file" of
//! Figure 4.1).

use serde::{Deserialize, Serialize};
use uswg_fsc::FileCategory;
use uswg_netfs::OpKind;

/// One executed file-access system call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpRecord {
    /// Issue time, µs (simulated time for the DES driver, elapsed run time
    /// for the direct driver).
    pub at: u64,
    /// The issuing user.
    pub user: usize,
    /// The user's session ordinal (0-based).
    pub session: u32,
    /// The system call.
    pub op: OpKind,
    /// Inode of the file operated on.
    pub ino: u64,
    /// Payload bytes (reads/writes; 0 for metadata calls).
    pub bytes: u64,
    /// Logical size of the file at issue time, bytes.
    pub file_size: u64,
    /// Response time, µs. Spans every attempt: under fault injection this
    /// includes failed attempts and the retry backoffs between them.
    pub response: u64,
    /// Category of the file.
    pub category: FileCategory,
    /// Transiently failed attempts that were retried (0 without fault
    /// injection; logs written before fault injection existed parse as 0).
    #[serde(default)]
    pub retries: u32,
    /// Whether the operation exhausted its retry budget and was aborted.
    #[serde(default)]
    pub aborted: bool,
}

/// Summary of one login session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionRecord {
    /// The user.
    pub user: usize,
    /// Index of the user's type in the population.
    pub user_type: usize,
    /// Session ordinal for this user (0-based).
    pub session: u32,
    /// Login time, µs.
    pub start: u64,
    /// Logout time, µs.
    pub end: u64,
    /// System calls issued.
    pub ops: u64,
    /// Number of files referenced.
    pub files_referenced: u64,
    /// Sum of the sizes of the referenced files, bytes.
    pub file_bytes_referenced: u64,
    /// Total bytes moved by reads and writes.
    pub bytes_accessed: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Total response time of all calls, µs.
    pub total_response: u64,
}

impl SessionRecord {
    /// The session's average access-per-byte: bytes moved per byte of file
    /// referenced (the Figure 5.3 metric, after \[DI86\]).
    pub fn access_per_byte(&self) -> f64 {
        if self.file_bytes_referenced == 0 {
            0.0
        } else {
            self.bytes_accessed as f64 / self.file_bytes_referenced as f64
        }
    }

    /// The session's average referenced-file size, bytes (Figure 5.4).
    pub fn mean_file_size(&self) -> f64 {
        if self.files_referenced == 0 {
            0.0
        } else {
            self.file_bytes_referenced as f64 / self.files_referenced as f64
        }
    }

    /// Mean response time per accessed byte, µs (Figures 5.6–5.11).
    pub fn response_per_byte(&self) -> f64 {
        if self.bytes_accessed == 0 {
            0.0
        } else {
            self.total_response as f64 / self.bytes_accessed as f64
        }
    }
}

/// The full log of a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UsageLog {
    ops: Vec<OpRecord>,
    sessions: Vec<SessionRecord>,
}

impl UsageLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves room for at least `ops` more operation records and
    /// `sessions` more session records, so steady-state recording never
    /// reallocates. Drivers size this from `n_users × sessions_per_user`
    /// and the population's expected operations per session.
    pub fn reserve(&mut self, ops: usize, sessions: usize) {
        self.ops.reserve(ops);
        self.sessions.reserve(sessions);
    }

    /// Appends an operation record.
    pub fn push_op(&mut self, record: OpRecord) {
        self.ops.push(record);
    }

    /// Appends a session record.
    pub fn push_session(&mut self, record: SessionRecord) {
        self.sessions.push(record);
    }

    /// All operation records (empty when `record_ops` was off).
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// All session records.
    pub fn sessions(&self) -> &[SessionRecord] {
        &self.sessions
    }

    /// Serializes the log to JSON (the on-disk "usage log file").
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error if serialization fails.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a log from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> SessionRecord {
        SessionRecord {
            user: 0,
            user_type: 0,
            session: 0,
            start: 0,
            end: 100,
            ops: 10,
            files_referenced: 4,
            file_bytes_referenced: 8_000,
            bytes_accessed: 16_000,
            bytes_read: 12_000,
            bytes_written: 4_000,
            total_response: 32_000,
        }
    }

    #[test]
    fn session_metrics() {
        let s = session();
        assert!((s.access_per_byte() - 2.0).abs() < 1e-12);
        assert!((s.mean_file_size() - 2_000.0).abs() < 1e-12);
        assert!((s.response_per_byte() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_guards() {
        let mut s = session();
        s.file_bytes_referenced = 0;
        s.files_referenced = 0;
        s.bytes_accessed = 0;
        assert_eq!(s.access_per_byte(), 0.0);
        assert_eq!(s.mean_file_size(), 0.0);
        assert_eq!(s.response_per_byte(), 0.0);
    }

    #[test]
    fn json_round_trip() {
        let mut log = UsageLog::new();
        log.push_session(session());
        log.push_op(OpRecord {
            at: 5,
            user: 0,
            session: 0,
            op: OpKind::Read,
            ino: 42,
            bytes: 512,
            file_size: 4096,
            response: 1500,
            category: FileCategory::REG_USER_RDONLY,
            retries: 0,
            aborted: false,
        });
        let json = log.to_json().unwrap();
        let back = UsageLog::from_json(&json).unwrap();
        assert_eq!(back.ops().len(), 1);
        assert_eq!(back.sessions().len(), 1);
        assert_eq!(back.ops()[0].bytes, 512);
    }
}
