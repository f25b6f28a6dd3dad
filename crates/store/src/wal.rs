//! The append-only write-ahead log: framed records, a configurable fsync
//! policy, and truncation back to a fresh log after snapshot compaction.

use crate::obs::StoreObs;
use crate::record::Record;
use crate::{FsyncPolicy, StoreError};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// File name of the WAL inside the store directory.
pub(crate) const WAL_FILE: &str = "wal.log";

/// The open WAL file plus its durability bookkeeping.
pub(crate) struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes of valid records currently in the file.
    bytes: u64,
    /// Records appended since the file was last reset (recovery seeds this
    /// with the replayed count).
    records: u64,
    /// When the file was last fsynced, `None` before the first sync.
    last_fsync: Option<Instant>,
    /// Appends buffered since the last fsync (0 means the tail is durable).
    unsynced: u64,
    /// Latency histograms + trace sink, installed by the embedding layer;
    /// `None` leaves the append/fsync paths unmeasured.
    obs: Option<Arc<StoreObs>>,
}

impl Wal {
    /// Opens (creating if needed) the WAL for appending, trusting the
    /// caller's recovery scan: `valid_bytes` is the length of the verified
    /// record prefix, and the file is truncated to it so a torn tail can
    /// never be appended after.
    pub(crate) fn open(dir: &Path, valid_bytes: u64, records: u64) -> Result<Wal, StoreError> {
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::wal_io("open", &path, e))?;
        let actual = file
            .metadata()
            .map_err(|e| StoreError::wal_io("stat", &path, e))?
            .len();
        if actual > valid_bytes {
            // Drop the torn tail found by recovery. set_len is safe on an
            // append-mode file: the cursor re-seeks to the (new) end on the
            // next write.
            file.set_len(valid_bytes)
                .map_err(|e| StoreError::wal_io("truncate", &path, e))?;
        }
        Ok(Wal {
            file,
            path,
            bytes: valid_bytes,
            records,
            last_fsync: None,
            unsynced: 0,
            obs: None,
        })
    }

    /// Installs (or clears) the instrumentation bundle.
    pub(crate) fn set_obs(&mut self, obs: Option<Arc<StoreObs>>) {
        self.obs = obs;
    }

    /// The installed instrumentation bundle, if any.
    pub(crate) fn obs(&self) -> Option<&Arc<StoreObs>> {
        self.obs.as_ref()
    }

    /// Appends one record, framed into one exactly sized buffer and
    /// written in one call, and applies the fsync policy. A record that does
    /// not fit the frame bound writes nothing.
    pub(crate) fn append(
        &mut self,
        record: Record<'_>,
        policy: FsyncPolicy,
    ) -> Result<(), StoreError> {
        granlog_fault::fail_or("store.wal.append", || StoreError::Fault("store.wal.append"))?;
        let mut framed = Vec::with_capacity(record.framed_len());
        record.frame(&mut framed)?;
        let started = self.obs.as_ref().map(|_| Instant::now());
        self.file
            .write_all(&framed)
            .map_err(|e| StoreError::wal_io("append", &self.path, e))?;
        self.bytes += framed.len() as u64;
        self.records += 1;
        self.unsynced += 1;
        if let (Some(obs), Some(started)) = (&self.obs, started) {
            obs.append_ms.observe_duration_ms(started.elapsed());
            obs.tracer.emit(
                "wal_append",
                vec![
                    ("bytes", framed.len().into()),
                    ("wal_bytes", self.bytes.into()),
                ],
            );
        }
        let due = match policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(every) => self.last_fsync.is_none_or(|at| at.elapsed() >= every),
            FsyncPolicy::Never => false,
        };
        if due {
            self.fsync()?;
        }
        Ok(())
    }

    /// Forces the OS to persist every appended byte (`fdatasync`).
    pub(crate) fn fsync(&mut self) -> Result<(), StoreError> {
        granlog_fault::fail_or("store.wal.fsync", || StoreError::Fault("store.wal.fsync"))?;
        let started = self.obs.as_ref().map(|_| Instant::now());
        let synced = self.unsynced;
        self.file
            .sync_data()
            .map_err(|e| StoreError::wal_io("fsync", &self.path, e))?;
        self.last_fsync = Some(Instant::now());
        self.unsynced = 0;
        if let (Some(obs), Some(started)) = (&self.obs, started) {
            obs.fsync_ms.observe_duration_ms(started.elapsed());
            obs.tracer
                .emit("wal_fsync", vec![("records", synced.into())]);
        }
        Ok(())
    }

    /// Resets the log after a completed snapshot: truncates to empty and
    /// writes (and syncs) a [`Record::SnapshotMark`] as the new first record
    /// so the fresh log cross-references the snapshot it starts from.
    pub(crate) fn restart_after_snapshot(&mut self, snapshot_id: u64) -> Result<(), StoreError> {
        self.file
            .set_len(0)
            .map_err(|e| StoreError::wal_io("truncate", &self.path, e))?;
        self.bytes = 0;
        self.records = 0;
        self.unsynced = 0;
        self.append(
            Record::SnapshotMark { id: snapshot_id },
            FsyncPolicy::Always,
        )
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    pub(crate) fn last_fsync(&self) -> Option<Instant> {
        self.last_fsync
    }

    pub(crate) fn unsynced(&self) -> u64 {
        self.unsynced
    }
}
