//! Durable program store for the granlog serve layer.
//!
//! The serve layer keeps tenant programs in an in-memory compile cache;
//! this crate makes the *corpus* — which programs are loaded — survive a
//! crash. The design is the classic pairing:
//!
//! - a **write-ahead log**, an append-only `wal.log` of CRC-framed `Load`
//!   records with a configurable [`FsyncPolicy`] (a program never leaves
//!   the corpus, so there is no removal record), and
//! - **snapshot compaction**: when the log outgrows
//!   [`StoreConfig::wal_limit_bytes`], the whole corpus is written to a
//!   tempfile, fsynced, atomically renamed over `snapshot.bin`, and the
//!   log reset to a single `SnapshotMark`.
//!
//! Both files hold the same frames, written by one in-place encoder and
//! read back by one scanner, so a program's text is copied once on its
//! way to disk and once on its way back.
//!
//! Recovery ([`ProgramStore::open`]) replays `snapshot + WAL suffix` and is
//! **prefix-consistent**: the first torn or corrupt record ends the replay,
//! the torn tail is truncated, and everything before it is kept. Reading
//! arbitrary bytes never panics and never loops — the corruption proptests
//! in `tests/serve_recovery.rs` and the kill-9 harness in
//! `tests/serve_kill9.rs` hold the crate to that.
//!
//! Program *answers* are not stored: recovery hands the corpus back to the
//! serve layer, which re-compiles each program exactly once through the
//! same normalized-text-keyed cache a live `load` uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod obs;
mod record;
mod snapshot;
mod store;
mod wal;

pub use obs::StoreObs;
pub use store::ProgramStore;

use std::path::{Path, PathBuf};
use std::time::Duration;

/// When WAL appends are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every append. Slowest, loses nothing on power failure.
    Always,
    /// Fsync when at least this long has passed since the last sync. Bounds
    /// the window of acknowledged-but-volatile records by time.
    Interval(Duration),
    /// Never fsync explicitly; the OS flushes when it pleases. Survives
    /// process crashes (the page cache persists) but not power loss.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI/protocol spelling: `always`, `never`, `interval`
    /// (default 100ms) or `interval=<ms>`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            "interval" => Some(FsyncPolicy::Interval(Duration::from_millis(100))),
            _ => {
                let ms = s.strip_prefix("interval=")?.parse::<u64>().ok()?;
                Some(FsyncPolicy::Interval(Duration::from_millis(ms)))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(every) => write!(f, "interval={}", every.as_millis()),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Where and how durably the store writes.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding `wal.log`, `snapshot.bin` and the staging
    /// tempfile. Created if absent.
    pub dir: PathBuf,
    /// Fsync policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// WAL size (bytes) beyond which the next mutation triggers snapshot
    /// compaction.
    pub wal_limit_bytes: u64,
}

impl StoreConfig {
    /// A config with the serve layer's defaults: fsync on every append and
    /// a 4 MiB WAL bound.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            wal_limit_bytes: 4 * 1024 * 1024,
        }
    }
}

/// What [`ProgramStore::open`] found and did while rebuilding state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Programs in the recovered corpus.
    pub programs: usize,
    /// Valid WAL records replayed (including the leading `SnapshotMark`).
    pub wal_records: u64,
    /// Bytes of torn WAL tail dropped and truncated away (0 = clean log).
    pub wal_truncated_bytes: u64,
    /// True when a complete snapshot (with terminator) was loaded.
    pub snapshot_loaded: bool,
    /// True when the snapshot file existed but was incomplete or corrupt;
    /// its valid prefix was still used.
    pub snapshot_torn: bool,
    /// Programs contributed by the snapshot before WAL replay.
    pub snapshot_programs: usize,
}

/// Point-in-time durability counters, surfaced through the serve `stats`
/// protocol command.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Programs currently in the corpus.
    pub programs: usize,
    /// Bytes of valid records in the WAL.
    pub wal_bytes: u64,
    /// Records in the WAL since its last reset.
    pub wal_records: u64,
    /// Appends not yet fsynced (0 = fully durable tail).
    pub unsynced_records: u64,
    /// Time since the last explicit fsync, `None` before the first.
    pub last_fsync_age: Option<Duration>,
    /// Age of the current snapshot file, `None` when no snapshot exists.
    pub snapshot_age: Option<Duration>,
    /// Snapshot compactions performed by this process.
    pub compactions: u64,
    /// Programs rebuilt by recovery when this store was opened.
    pub recovered: usize,
}

/// Everything that can go wrong with durable storage, tagged with the
/// operation and path so the serve layer's typed errors stay diagnostic.
#[derive(Debug)]
pub enum StoreError {
    /// The WAL could not be opened, appended, fsynced or truncated.
    Wal {
        /// Operation that failed (`open`, `append`, `fsync`, ...).
        op: &'static str,
        /// WAL file path.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// The snapshot could not be staged, fsynced or renamed into place.
    Snapshot {
        /// Operation that failed (`create`, `write`, `fsync`, `rename`).
        op: &'static str,
        /// Path the operation targeted.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// The data directory could not be created or read.
    Dir {
        /// Data directory path.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// A record's payload is larger than the reader takes back; nothing
    /// was written and the corpus is unchanged.
    TooLarge {
        /// The refused payload's size.
        bytes: usize,
    },
    /// An armed failpoint injected a failure (test builds only).
    Fault(&'static str),
}

impl StoreError {
    pub(crate) fn wal_io(op: &'static str, path: &Path, source: std::io::Error) -> StoreError {
        StoreError::Wal {
            op,
            path: path.to_path_buf(),
            source,
        }
    }

    pub(crate) fn snapshot_io(op: &'static str, path: &Path, source: std::io::Error) -> StoreError {
        StoreError::Snapshot {
            op,
            path: path.to_path_buf(),
            source,
        }
    }

    pub(crate) fn dir_io(path: &Path, source: std::io::Error) -> StoreError {
        StoreError::Dir {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Wal { op, path, source } => {
                write!(f, "wal {op} failed on {}: {source}", path.display())
            }
            StoreError::Snapshot { op, path, source } => {
                write!(f, "snapshot {op} failed on {}: {source}", path.display())
            }
            StoreError::Dir { path, source } => {
                write!(f, "data dir {} unusable: {source}", path.display())
            }
            StoreError::TooLarge { bytes } => write!(
                f,
                "a record of {bytes} bytes is larger than the store's bound of {} bytes",
                record::MAX_RECORD_BYTES
            ),
            StoreError::Fault(name) => {
                write!(f, "injected fault at failpoint `{name}`")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Wal { source, .. }
            | StoreError::Snapshot { source, .. }
            | StoreError::Dir { source, .. } => Some(source),
            StoreError::TooLarge { .. } | StoreError::Fault(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses_every_spelling() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval"),
            Some(FsyncPolicy::Interval(Duration::from_millis(100)))
        );
        assert_eq!(
            FsyncPolicy::parse("interval=250"),
            Some(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::parse("interval=abc"), None);
    }

    #[test]
    fn fsync_policy_display_roundtrips_through_parse() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::Never,
            FsyncPolicy::Interval(Duration::from_millis(250)),
        ] {
            assert_eq!(FsyncPolicy::parse(&policy.to_string()), Some(policy));
        }
    }
}
