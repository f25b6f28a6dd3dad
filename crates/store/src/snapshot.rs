//! Snapshot files: the whole program corpus written atomically, so recovery
//! replays `snapshot + WAL suffix` instead of an unbounded log.
//!
//! # Atomicity
//!
//! A snapshot is written to a tempfile (`snapshot.tmp`), fsynced, then
//! renamed over `snapshot.bin` and the directory fsynced. A crash at any
//! point leaves `snapshot.bin` either the complete old snapshot or the
//! complete new one — never a torn mix. The file itself is
//! `magic + framed Load records + framed SnapshotMark terminator`, framed
//! from the corpus' own strings into one buffer sized for the whole file.
//! It is read back by the WAL's scanner ([`crate::record::scan`]); a file
//! without its terminator (external corruption, a partial copy) still
//! contributes its valid record prefix, mirroring the WAL's
//! prefix-consistency.

use crate::record::Record;
use crate::StoreError;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// File name of the current snapshot inside the store directory.
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Tempfile the next snapshot is staged in before the atomic rename.
pub(crate) const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// Leading magic bytes identifying (and versioning) the snapshot format.
pub(crate) const SNAPSHOT_MAGIC: &[u8] = b"GRANLOGSNAP1\n";

/// Writes `programs` (`(name, text)` pairs, in order) and the terminating
/// mark for snapshot `id` to `snapshot.tmp`, fsyncs it, renames it over
/// `snapshot.bin` and fsyncs the directory.
pub(crate) fn write_snapshot(
    dir: &Path,
    id: u64,
    programs: &[(&str, &str)],
) -> Result<(), StoreError> {
    granlog_fault::fail_or("store.snapshot.write", || {
        StoreError::Fault("store.snapshot.write")
    })?;
    let loads = programs
        .iter()
        .map(|&(name, text)| Record::Load { name, text });
    let records = loads.chain([Record::SnapshotMark { id }]);
    let size = records
        .clone()
        .map(|record| record.framed_len())
        .sum::<usize>();
    let mut image = Vec::with_capacity(SNAPSHOT_MAGIC.len() + size);
    image.extend_from_slice(SNAPSHOT_MAGIC);
    for record in records {
        record.frame(&mut image)?;
    }

    let tmp_path = dir.join(SNAPSHOT_TMP);
    let final_path = dir.join(SNAPSHOT_FILE);
    {
        let mut tmp =
            File::create(&tmp_path).map_err(|e| StoreError::snapshot_io("create", &tmp_path, e))?;
        tmp.write_all(&image)
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
