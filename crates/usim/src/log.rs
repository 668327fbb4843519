//! The usage log: the record every driver produces (the "usage log file" of
//! Figure 4.1).

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::io::{self, Write};
use uswg_fsc::FileCategory;
use uswg_netfs::OpKind;

/// One executed file-access system call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpRecord {
    /// Issue time, simulated µs.
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
        let mut out = Vec::new();
        self.write_json(&mut out)
            .expect("a vector takes every byte");
        Ok(String::from_utf8(out).expect("JSON text is UTF-8"))
    }

    /// Writes the JSON of [`UsageLog::to_json`] to `out` one record at a
    /// time, so the text of the whole log is never held at once.
    ///
    /// # Errors
    ///
    /// The writer's.
    pub fn write_json(&self, out: impl Write) -> io::Result<()> {
        write_json_records(out, self.ops.iter().map(Ok), self.sessions.iter().map(Ok))
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

/// Writes the JSON of [`UsageLog::to_json`] for the log holding `ops`
/// then `sessions`, each read one record at a time, so neither the log nor
/// its text is ever held whole. The first `Err` a record source yields
/// ends the write with that error.
pub(crate) fn write_json_records(
    mut out: impl Write,
    ops: impl IntoIterator<Item = io::Result<impl Borrow<OpRecord>>>,
    sessions: impl IntoIterator<Item = io::Result<impl Borrow<SessionRecord>>>,
) -> io::Result<()> {
    out.write_all(b"{\"ops\":")?;
    write_list::<OpRecord>(&mut out, ops)?;
    out.write_all(b",\"sessions\":")?;
    write_list::<SessionRecord>(&mut out, sessions)?;
    out.write_all(b"}")?;
    out.flush()
}

/// `records` as a compact JSON array, one record rendered at a time.
fn write_list<T: Serialize>(
    out: &mut impl Write,
    records: impl IntoIterator<Item = io::Result<impl Borrow<T>>>,
) -> io::Result<()> {
    out.write_all(b"[")?;
    for (i, record) in records.into_iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        let text = serde_json::to_string(record?.borrow()).map_err(io::Error::other)?;
        out.write_all(text.as_bytes())?;
    }
    out.write_all(b"]")
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
        for i in 0..4 {
            // Streamed one record at a time, the text is the whole tree's.
            let want = serde_json::to_string(&log).unwrap();
            let mut streamed = Vec::new();
            log.write_json(io::BufWriter::new(&mut streamed)).unwrap();
            assert_eq!(streamed, want.as_bytes(), "{i} records of each kind");
            assert_eq!(log.to_json().unwrap(), want);
            let back = UsageLog::from_json(&want).unwrap();
            assert_eq!((back.ops(), back.sessions()), (log.ops(), log.sessions()));
            log.push_op(OpRecord {
                at: 5 * i as u64,
                user: i,
                session: 0,
                op: OpKind::ALL[i],
                ino: 42,
                bytes: 512,
                file_size: 4096,
                response: 1500,
                category: FileCategory::REG_USER_RDONLY,
                retries: i as u32,
                aborted: i == 3,
            });
            log.push_session(SessionRecord {
                session: i as u32,
                ..session()
            });
        }
    }
}
