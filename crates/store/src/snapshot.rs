//! Snapshot files: the whole program corpus written atomically, so recovery
//! replays `snapshot + WAL suffix` instead of an unbounded log.
//!
//! # Atomicity
//!
//! A snapshot is written to a tempfile (`snapshot.tmp`), fsynced, then
//! renamed over `snapshot.bin` and the directory fsynced. A crash at any
//! point leaves `snapshot.bin` either the complete old snapshot or the
//! complete new one — never a torn mix. The file itself is
//! `magic + framed Load records + framed SnapshotMark terminator`; a reader
//! that does not find the terminator (external corruption, a partial copy)
//! still recovers the valid record prefix, mirroring the WAL's
//! prefix-consistency.

use crate::record::{encode, read_record, ReadOutcome, Record};
use crate::StoreError;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// File name of the current snapshot inside the store directory.
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Tempfile the next snapshot is staged in before the atomic rename.
pub(crate) const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// Leading magic bytes identifying (and versioning) the snapshot format.
pub(crate) const SNAPSHOT_MAGIC: &[u8] = b"GRANLOGSNAP1\n";

/// What reading `snapshot.bin` produced.
pub(crate) struct SnapshotContents {
    /// `(name, text)` per program, snapshot order.
    pub(crate) programs: Vec<(String, String)>,
    /// The terminating mark's snapshot id, when the file was complete.
    pub(crate) id: Option<u64>,
    /// True when the file ended without its terminator (a valid prefix was
    /// still recovered).
    pub(crate) torn: bool,
}

/// Writes the corpus to `snapshot.tmp`, fsyncs it, renames it over
/// `snapshot.bin` and fsyncs the directory.
pub(crate) fn write_snapshot(
    dir: &Path,
    id: u64,
    programs: &[(String, String)],
) -> Result<(), StoreError> {
    granlog_fault::fail_or("store.snapshot.write", || {
        StoreError::Fault("store.snapshot.write")
    })?;
    let tmp_path = dir.join(SNAPSHOT_TMP);
    let final_path = dir.join(SNAPSHOT_FILE);
    {
        let mut tmp =
            File::create(&tmp_path).map_err(|e| StoreError::snapshot_io("create", &tmp_path, e))?;
        let mut out = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 64);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        for (name, text) in programs {
            out.extend_from_slice(&encode(&Record::Load {
                name: name.clone(),
                text: text.clone(),
            }));
        }
        out.extend_from_slice(&encode(&Record::SnapshotMark { id }));
        tmp.write_all(&out)
            .map_err(|e| StoreError::snapshot_io("write", &tmp_path, e))?;
        tmp.sync_data()
            .map_err(|e| StoreError::snapshot_io("fsync", &tmp_path, e))?;
    }
    granlog_fault::fail_or("store.snapshot.rename", || {
        StoreError::Fault("store.snapshot.rename")
    })?;
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| StoreError::snapshot_io("rename", &final_path, e))?;
    // Persist the rename itself. Directory fsync is a Unix-ism; where the
    // platform refuses it the rename is still atomic, just not yet durable,
    // so a failure here is not worth failing the snapshot over.
    if let Ok(dir_handle) = File::open(dir) {
        let _ = dir_handle.sync_all();
    }
    Ok(())
}

/// Reads `snapshot.bin` prefix-consistently. A missing file is an empty
/// corpus; a file without the magic is treated as wholly corrupt (empty,
/// torn); otherwise every checksum-valid `Load` record up to the first torn
/// point contributes, and the trailing [`Record::SnapshotMark`] proves
/// completeness. Never panics, never errors on corruption.
pub(crate) fn read_snapshot(dir: &Path) -> SnapshotContents {
    let path = dir.join(SNAPSHOT_FILE);
    let file = match File::open(&path) {
        Ok(f) => f,
        Err(_) => {
            return SnapshotContents {
                programs: Vec::new(),
                id: None,
                torn: false,
            }
        }
    };
    let mut reader = BufReader::new(file);
    let mut magic = vec![0u8; SNAPSHOT_MAGIC.len()];
    let magic_ok = match reader.read_exact(&mut magic) {
        Ok(()) => magic == SNAPSHOT_MAGIC,
        Err(_) => false,
    };
    if !magic_ok {
        return SnapshotContents {
            programs: Vec::new(),
            id: None,
            torn: true,
        };
    }
    let mut programs = Vec::new();
    loop {
        match read_record(&mut reader) {
            ReadOutcome::Record(Record::Load { name, text }) => programs.push((name, text)),
            ReadOutcome::Record(Record::SnapshotMark { id }) => {
                return SnapshotContents {
                    programs,
                    id: Some(id),
                    torn: false,
                };
            }
            ReadOutcome::Eof => {
                return SnapshotContents {
                    programs,
                    id: None,
                    torn: true, // no terminator: incomplete file
                };
            }
            ReadOutcome::Torn(_) => {
                return SnapshotContents {
                    programs,
                    id: None,
                    torn: true,
                };
            }
        }
    }
}
