//! [`ProgramStore`]: the durable corpus — an in-memory map of programs kept
//! in lock-step with the WAL, snapshot-compacted when the log grows past
//! the configured bound, and rebuilt prefix-consistently at open.

use crate::record::{read_record, ReadOutcome, Record};
use crate::snapshot::{read_snapshot, write_snapshot, SNAPSHOT_FILE, SNAPSHOT_TMP};
use crate::wal::{Wal, WAL_FILE};
use crate::{RecoveryReport, StoreConfig, StoreError, StoreStats};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Read};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

/// Wraps a reader and counts consumed bytes, so the WAL scan knows the
/// offset of the last intact record boundary (everything past it is the
/// torn tail to truncate).
struct CountingReader<R> {
    inner: R,
    count: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count += n as u64;
        Ok(n)
    }
}

/// Result of scanning the WAL at open: the verified records, the byte
/// length of the valid prefix, and whether a torn tail was dropped.
struct WalScan {
    records: Vec<Record>,
    valid_bytes: u64,
    file_bytes: u64,
}

/// Reads the WAL prefix-consistently: every record up to the first torn or
/// corrupt frame counts, and `valid_bytes` marks the boundary to truncate
/// at. A missing file is an empty log. Never errors on corruption.
fn scan_wal(dir: &std::path::Path) -> WalScan {
    let path = dir.join(WAL_FILE);
    let file = match File::open(&path) {
        Ok(f) => f,
        Err(_) => {
            return WalScan {
                records: Vec::new(),
                valid_bytes: 0,
                file_bytes: 0,
            }
        }
    };
    let file_bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
    let mut reader = CountingReader {
        inner: BufReader::new(file),
        count: 0,
    };
    let mut records = Vec::new();
    let mut valid_bytes = 0;
    loop {
        match read_record(&mut reader) {
            ReadOutcome::Record(record) => {
                // The BufReader may have pulled bytes past the frame, but a
                // frame is fully consumed exactly when decoding succeeds, so
                // re-deriving the boundary from the encoded length is exact.
                valid_bytes += crate::record::encode(&record).len() as u64;
                records.push(record);
            }
            ReadOutcome::Eof | ReadOutcome::Torn(_) => {
                return WalScan {
                    records,
                    valid_bytes,
                    file_bytes,
                }
            }
        }
    }
}

struct Inner {
    wal: Wal,
    /// Program key → source text. The key is whatever the caller chose (the
    /// serve layer uses the full normalized program text, never a bare
    /// hash, so dedup cannot be defeated by a collision).
    texts: HashMap<String, String>,
    /// Keys in first-load order: recovery replays programs in the order
    /// tenants loaded them, which keeps compile order deterministic.
    order: Vec<String>,
    /// Id the next snapshot will carry (last written id + 1).
    next_snapshot_id: u64,
    /// When the current snapshot file was written (file mtime at open for
    /// recovered stores).
    snapshot_at: Option<SystemTime>,
    compactions: u64,
}

impl Inner {
    fn apply(&mut self, record: Record) {
        match record {
            Record::Load { name, text } => {
                if self.texts.insert(name.clone(), text).is_none() {
                    self.order.push(name);
                }
            }
            Record::SnapshotMark { id } => {
                self.next_snapshot_id = self.next_snapshot_id.max(id + 1);
            }
        }
    }

    fn corpus(&self) -> Vec<(String, String)> {
        self.order
            .iter()
            .map(|name| {
                let text = self.texts.get(name).expect("order mirrors texts");
                (name.clone(), text.clone())
            })
            .collect()
    }

    /// Snapshot + WAL reset, under the caller's lock. Crash-ordering: the
    /// snapshot rename is atomic, and a crash after the rename but before
    /// the WAL reset leaves a stale log whose replay over the snapshot is
    /// idempotent (the last record per key wins either way).
    fn compact(&mut self, config: &StoreConfig) -> Result<(), StoreError> {
        let started = self.wal.obs().map(|_| Instant::now());
        let id = self.next_snapshot_id;
        write_snapshot(&config.dir, id, &self.corpus())?;
        self.snapshot_at = Some(SystemTime::now());
        self.wal.restart_after_snapshot(id)?;
        self.next_snapshot_id = id + 1;
        self.compactions += 1;
        if let (Some(obs), Some(started)) = (self.wal.obs(), started) {
            obs.snapshot_ms.observe_duration_ms(started.elapsed());
            obs.tracer.emit(
                "wal_snapshot",
                vec![("id", id.into()), ("programs", self.order.len().into())],
            );
        }
        Ok(())
    }
}

/// The durable program store: every accepted mutation is journaled to the
/// WAL before the in-memory corpus changes, the WAL is compacted into an
/// atomically-replaced snapshot when it outgrows
/// [`StoreConfig::wal_limit_bytes`], and [`ProgramStore::open`] rebuilds the
/// exact journaled corpus from `snapshot + WAL suffix`, truncating at the
/// first torn or corrupt record.
pub struct ProgramStore {
    config: StoreConfig,
    recovery: RecoveryReport,
    inner: Mutex<Inner>,
}

impl ProgramStore {
    /// Opens (creating if absent) the store in `config.dir`, replaying any
    /// existing snapshot and WAL. Corruption is never an error: the reader
    /// keeps the longest valid prefix, truncates the WAL's torn tail, and
    /// reports what it found in [`ProgramStore::recovery`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Dir`] when the directory cannot be created or read;
    /// [`StoreError::Wal`] when the log cannot be opened for appending.
    pub fn open(config: StoreConfig) -> Result<ProgramStore, StoreError> {
        std::fs::create_dir_all(&config.dir).map_err(|e| StoreError::dir_io(&config.dir, e))?;
        // Probe readability explicitly: an unreadable data dir should be a
        // typed boot error, not a surprise at the first append.
        std::fs::read_dir(&config.dir).map_err(|e| StoreError::dir_io(&config.dir, e))?;
        // A leftover tempfile is a snapshot that never completed its rename;
        // the *current* snapshot is intact by construction, so the staging
        // file is garbage.
        let _ = std::fs::remove_file(config.dir.join(SNAPSHOT_TMP));

        let snapshot = read_snapshot(&config.dir);
        let snapshot_loaded = snapshot.id.is_some();
        let snapshot_torn = snapshot.torn;
        let snapshot_programs = snapshot.programs.len();
        let snapshot_at = std::fs::metadata(config.dir.join(SNAPSHOT_FILE))
            .ok()
            .and_then(|m| m.modified().ok());

        let scan = scan_wal(&config.dir);
        let wal_records = scan.records.len() as u64;
        let wal_truncated_bytes = scan.file_bytes.saturating_sub(scan.valid_bytes);
        let wal = Wal::open(&config.dir, scan.valid_bytes, wal_records)?;

        let mut inner = Inner {
            wal,
            texts: HashMap::new(),
            order: Vec::new(),
            next_snapshot_id: snapshot.id.map_or(0, |id| id + 1),
            snapshot_at,
            compactions: 0,
        };
        for (name, text) in snapshot.programs {
            inner.apply(Record::Load { name, text });
        }
        for record in scan.records {
            inner.apply(record);
        }
        let recovery = RecoveryReport {
            programs: inner.order.len(),
            wal_records,
            wal_truncated_bytes,
            snapshot_loaded,
            snapshot_torn,
            snapshot_programs,
        };
        Ok(ProgramStore {
            config,
            recovery,
            inner: Mutex::new(inner),
        })
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Installs (or clears) latency instrumentation (see
    /// [`crate::obs::StoreObs`]). With no bundle installed the WAL paths do
    /// not measure anything.
    pub fn set_obs(&self, obs: Option<Arc<crate::obs::StoreObs>>) {
        self.lock().wal.set_obs(obs);
    }

    /// The recovered corpus as `(name, text)` pairs in first-load order.
    /// Intended for boot-time replay into a compile cache.
    pub fn programs(&self) -> Vec<(String, String)> {
        self.lock().corpus()
    }

    /// Journals a program load. Returns `Ok(false)` without touching the
    /// WAL when `name` is already stored with the identical text (the dedup
    /// mirrors the serve cache: a repeat load must not grow the log).
    ///
    /// # Errors
    ///
    /// [`StoreError::Wal`] / [`StoreError::Fault`] when the append or its
    /// fsync fails — the corpus is left unchanged, so memory never runs
    /// ahead of the journal. A failed *compaction* after a durable append
    /// also surfaces as an error, but the load itself is journaled.
    pub fn record_load(&self, name: &str, text: &str) -> Result<bool, StoreError> {
        let mut inner = self.lock();
        if inner.texts.get(name).map(String::as_str) == Some(text) {
            return Ok(false);
        }
        inner.apply_journaled(
            Record::Load {
                name: name.to_string(),
                text: text.to_string(),
            },
            &self.config,
        )?;
        self.maybe_compact(&mut inner)?;
        Ok(true)
    }

    /// Moves the program stored under `old` to `new`, keeping its place in
    /// load order; when `new` is stored already, `old` is just dropped.
    /// Nothing is journaled: the log keeps `old` until the next compaction
    /// writes the corpus under `new`, and a replay before then finds `old`
    /// again. Boot replay uses this for a key an older printer wrote.
    pub fn rekey(&self, old: &str, new: &str) {
        let mut inner = self.lock();
        let Some(text) = inner.texts.remove(old) else {
            return;
        };
        let at = inner
            .order
            .iter()
            .position(|name| name == old)
            .expect("order mirrors texts");
        if inner.texts.contains_key(new) {
            inner.order.remove(at);
        } else {
            inner.texts.insert(new.to_owned(), text);
            inner.order[at] = new.to_owned();
        }
    }

    /// Forces a snapshot + WAL reset now, regardless of the size trigger.
    /// Used by graceful shutdown so a clean restart replays a snapshot
    /// instead of the whole log.
    ///
    /// # Errors
    ///
    /// [`StoreError::Snapshot`] / [`StoreError::Wal`] / [`StoreError::Fault`]
    /// when writing or swapping in the snapshot fails; the previous snapshot
    /// and WAL remain authoritative.
    pub fn snapshot(&self) -> Result<(), StoreError> {
        let mut inner = self.lock();
        inner.compact(&self.config)
    }

    /// Fsyncs any WAL appends the policy left buffered.
    ///
    /// # Errors
    ///
    /// [`StoreError::Wal`] / [`StoreError::Fault`] when the sync fails.
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if inner.wal.unsynced() > 0 {
            inner.wal.fsync()?;
        }
        Ok(())
    }

    /// Point-in-time durability counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            programs: inner.order.len(),
            wal_bytes: inner.wal.bytes(),
            wal_records: inner.wal.records(),
            unsynced_records: inner.wal.unsynced(),
            last_fsync_age: inner.wal.last_fsync().map(|at| at.elapsed()),
            snapshot_age: inner
                .snapshot_at
                .and_then(|at| SystemTime::now().duration_since(at).ok()),
            compactions: inner.compactions,
            recovered: self.recovery.programs,
        }
    }

    fn maybe_compact(&self, inner: &mut Inner) -> Result<(), StoreError> {
        if inner.wal.bytes() > self.config.wal_limit_bytes {
            inner.compact(&self.config)?;
        }
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock means a panic mid-mutation; the WAL is the source
        // of truth and every mutation journals before applying, so the
        // in-memory view is still a valid (possibly slightly stale) corpus.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Inner {
    /// Journal-then-apply: the record hits the WAL (and the policy's fsync)
    /// first; only a durable append mutates the in-memory corpus.
    fn apply_journaled(&mut self, record: Record, config: &StoreConfig) -> Result<(), StoreError> {
        self.wal.append(&record, config.fsync)?;
        self.apply(record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FsyncPolicy;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("granlog-store-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn config(dir: &std::path::Path) -> StoreConfig {
        StoreConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Always,
            wal_limit_bytes: 64 * 1024,
        }
    }

    #[test]
    fn loads_survive_reopen() {
        let dir = temp_dir("reopen");
        {
            let store = ProgramStore::open(config(&dir)).expect("open");
            assert!(store.record_load("k1", "p(a).").expect("load"));
            assert!(store.record_load("k2", "q(b).").expect("load"));
            // Identical reload is deduped and does not grow the log.
            let bytes = store.stats().wal_bytes;
            assert!(!store.record_load("k1", "p(a).").expect("dup"));
            assert_eq!(store.stats().wal_bytes, bytes);
        }
        let store = ProgramStore::open(config(&dir)).expect("reopen");
        assert_eq!(store.recovery().programs, 2);
        assert_eq!(
            store.programs(),
            vec![
                ("k1".to_string(), "p(a).".to_string()),
                ("k2".to_string(), "q(b).".to_string()),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rekeying_moves_a_program_in_place_and_compaction_keeps_the_new_key() {
        let dir = temp_dir("rekey");
        {
            let store = ProgramStore::open(config(&dir)).expect("open");
            store.record_load("old-a", "a.").expect("load");
            store.record_load("b", "b.").expect("load");
            store.record_load("old-b", "b.").expect("load");
            let wal_records = store.stats().wal_records;
            store.rekey("old-a", "a");
            // `b` is stored already: its stale twin is dropped.
            store.rekey("old-b", "b");
            store.rekey("absent", "c");
            assert_eq!(store.stats().wal_records, wal_records, "nothing journaled");
            let expected = vec![
                ("a".to_string(), "a.".to_string()),
                ("b".to_string(), "b.".to_string()),
            ];
            assert_eq!(store.programs(), expected);
            // The reload of a re-keyed program is a duplicate.
            assert!(!store.record_load("a", "a.").expect("dup"));
            store.snapshot().expect("compact");
        }
        let store = ProgramStore::open(config(&dir)).expect("reopen");
        assert_eq!(store.recovery().programs, 2);
        assert_eq!(store.programs()[0].0, "a");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_records_append_fsync_and_snapshot_latency() {
        let dir = temp_dir("obs");
        let registry = granlog_obs::Registry::new();
        let tracer = Arc::new(granlog_obs::Tracer::new(64));
        {
            let store = ProgramStore::open(config(&dir)).expect("open");
            let obs = Arc::new(crate::obs::StoreObs::register(
                &registry,
                Arc::clone(&tracer),
            ));
            store.set_obs(Some(obs));
            store.record_load("k1", "p(a).").expect("load");
            store.snapshot().expect("snapshot");
        }
        let appends = registry
            .histogram_snapshot("granlog_wal_append_ms")
            .expect("registered");
        // The load plus the snapshot-mark record.
        assert!(appends.count >= 2, "append count = {}", appends.count);
        let fsyncs = registry
            .histogram_snapshot("granlog_wal_fsync_ms")
            .expect("registered");
        assert!(fsyncs.count >= 1, "fsync count = {}", fsyncs.count);
        assert_eq!(
            registry
                .histogram_snapshot("granlog_store_snapshot_ms")
                .expect("registered")
                .count,
            1
        );
        let kinds: Vec<&str> = tracer.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"wal_append"));
        assert!(kinds.contains(&"wal_fsync"));
        assert!(kinds.contains(&"wal_snapshot"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_wal_tail_recovers_the_prefix_and_truncates() {
        let dir = temp_dir("torn");
        {
            let store = ProgramStore::open(config(&dir)).expect("open");
            store.record_load("k1", "p(a).").expect("load");
            store.record_load("k2", "q(b).").expect("load");
        }
        // Append garbage: a torn half-record a crashed writer left behind.
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).expect("read wal");
        let intact = bytes.len();
        bytes.extend_from_slice(&[0x55, 0x00, 0x00, 0x00, 0xde, 0xad]);
        std::fs::write(&wal_path, &bytes).expect("write torn wal");

        let store = ProgramStore::open(config(&dir)).expect("reopen");
        assert_eq!(store.recovery().programs, 2);
        assert_eq!(store.recovery().wal_truncated_bytes, 6);
        // The torn tail is physically gone so future appends are clean.
        assert_eq!(
            std::fs::metadata(&wal_path).expect("stat").len(),
            intact as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_triggers_on_wal_growth_and_preserves_the_corpus() {
        let dir = temp_dir("compact");
        let cfg = StoreConfig {
            wal_limit_bytes: 256,
            ..config(&dir)
        };
        let store = ProgramStore::open(cfg.clone()).expect("open");
        for i in 0..32 {
            store
                .record_load(&format!("k{i}"), &format!("p{i}(a)."))
                .expect("load");
        }
        let stats = store.stats();
        assert!(stats.compactions > 0, "wal limit should force compaction");
        assert!(
            stats.wal_bytes <= 256 + 64,
            "post-compaction wal stays near empty: {}",
            stats.wal_bytes
        );
        drop(store);
        let store = ProgramStore::open(cfg).expect("reopen");
        assert_eq!(store.recovery().programs, 32);
        assert!(store.recovery().snapshot_loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_snapshot_then_stale_wal_replay_is_idempotent() {
        let dir = temp_dir("idempotent");
        {
            let store = ProgramStore::open(config(&dir)).expect("open");
            store.record_load("k1", "p(a).").expect("load");
            store.snapshot().expect("snapshot");
            store.record_load("k2", "q(b).").expect("load");
        }
        // Simulate the crash window between snapshot rename and WAL reset:
        // re-write a stale WAL that repeats k1 on top of the snapshot.
        {
            let store = ProgramStore::open(config(&dir)).expect("reopen");
            store
                .record_load("k1", "p(a).")
                .map(|fresh| {
                    assert!(!fresh, "replay left k1 present; reload must dedup");
                })
                .expect("dedup load");
            assert_eq!(store.recovery().programs, 2);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_on_a_regular_file_path_is_a_typed_error() {
        let dir = temp_dir("notdir");
        let file_path = dir.join("occupied");
        std::fs::write(&file_path, b"not a directory").expect("write file");
        let err = match ProgramStore::open(StoreConfig {
            dir: file_path,
            ..config(&dir)
        }) {
            Ok(_) => panic!("open must fail"),
            Err(e) => e,
        };
        assert!(matches!(err, StoreError::Dir { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
