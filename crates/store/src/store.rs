//! [`ProgramStore`]: the durable corpus — an in-memory map of programs kept
//! in lock-step with the WAL, snapshot-compacted when the log grows past
//! the configured bound, and rebuilt prefix-consistently at open.
//! One map holds each key's text and the number of its first load, which
//! alone orders the corpus (a replaced or re-keyed program keeps it).
//! Records cross it borrowed: a load is framed from the caller's strings, a
//! compaction frames the map's own strings in first-load order, and
//! recovery copies each scanned string into the map once.

use crate::record::{scan, Record};
use crate::snapshot::{write_snapshot, SNAPSHOT_FILE, SNAPSHOT_MAGIC, SNAPSHOT_TMP};
use crate::wal::{Wal, WAL_FILE};
use crate::{RecoveryReport, StoreConfig, StoreError, StoreStats};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

/// What replaying records rebuilds: the programs and the next snapshot id.
#[derive(Default)]
struct Corpus {
    /// Program key → (first-load number, source text). The key is whatever
    /// the caller chose (the serve layer uses the full normalized program
    /// text, never a bare hash, so dedup cannot be defeated by a
    /// collision); recovery replays programs in first-load order, which
    /// keeps compile order deterministic.
    texts: HashMap<String, (u64, String)>,
    /// Loads applied so far: a new key's first-load number.
    loads: u64,
    /// Id the next snapshot will carry (last written id + 1).
    next_snapshot_id: u64,
}

impl Corpus {
    fn apply(&mut self, record: Record<'_>) {
        match record {
            Record::Load { name, text } => {
                self.loads += 1;
                match self.texts.get_mut(name) {
                    Some((_, stored)) => text.clone_into(stored),
                    None => {
                        self.texts
                            .insert(name.to_owned(), (self.loads, text.to_owned()));
                    }
                }
            }
            Record::SnapshotMark { id } => {
                self.next_snapshot_id = self.next_snapshot_id.max(id + 1);
            }
        }
    }

    /// Every `(name, text)`, borrowed from the map, in first-load order.
    fn in_load_order(&self) -> Vec<(&str, &str)> {
        let mut corpus: Vec<_> = self.texts.iter().collect();
        corpus.sort_unstable_by_key(|(_, (first_load, _))| *first_load);
        corpus
            .into_iter()
            .map(|(name, (_, text))| (name.as_str(), text.as_str()))
            .collect()
    }
}

struct Inner {
    wal: Wal,
    corpus: Corpus,
    /// When the current snapshot file was written (file mtime at open for
    /// recovered stores).
    snapshot_at: Option<SystemTime>,
    compactions: u64,
}

impl Inner {
    /// Snapshot + WAL reset, under the caller's lock. Crash-ordering: the
    /// snapshot rename is atomic, and a crash after the rename but before
    /// the WAL reset leaves a stale log whose replay over the snapshot is
    /// idempotent (the last record per key wins either way).
    fn compact(&mut self, config: &StoreConfig) -> Result<(), StoreError> {
        let started = self.wal.obs().map(|_| Instant::now());
        let id = self.corpus.next_snapshot_id;
        write_snapshot(&config.dir, id, &self.corpus.in_load_order())?;
        self.snapshot_at = Some(SystemTime::now());
        self.wal.restart_after_snapshot(id)?;
        self.corpus.next_snapshot_id = id + 1;
        self.compactions += 1;
        if let (Some(obs), Some(started)) = (self.wal.obs(), started) {
            obs.snapshot_ms.observe_duration_ms(started.elapsed());
            obs.tracer.emit(
                "wal_snapshot",
                vec![
                    ("id", id.into()),
                    ("programs", self.corpus.texts.len().into()),
                ],
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

        // The snapshot's programs end at its first mark; a file without one
        // is torn, and its valid prefix still counts.
        let mut corpus = Corpus::default();
        let (mut snapshot_id, mut snapshot_programs) = (None, 0);
        let snapshot_path = config.dir.join(SNAPSHOT_FILE);
        let snapshot = scan(&snapshot_path, SNAPSHOT_MAGIC, |record| {
            if snapshot_id.is_none() {
                match record {
                    Record::Load { .. } => snapshot_programs += 1,
                    Record::SnapshotMark { id } => snapshot_id = Some(id),
                }
                corpus.apply(record);
            }
        });
        let snapshot_at = std::fs::metadata(&snapshot_path)
            .ok()
            .and_then(|m| m.modified().ok());

        let mut wal_records = 0;
        let (wal_bytes, valid_bytes) = scan(&config.dir.join(WAL_FILE), b"", |record| {
            wal_records += 1;
            corpus.apply(record);
        })
        .unwrap_or_default();
        let wal = Wal::open(&config.dir, valid_bytes, wal_records)?;

        let recovery = RecoveryReport {
            programs: corpus.texts.len(),
            wal_records,
            wal_truncated_bytes: wal_bytes - valid_bytes,
            snapshot_loaded: snapshot_id.is_some(),
            snapshot_torn: snapshot.is_some() && snapshot_id.is_none(),
            snapshot_programs,
        };
        let inner = Inner {
            wal,
            corpus,
            snapshot_at,
            compactions: 0,
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
        let inner = self.lock();
        let owned = |(name, text): (&str, &str)| (name.to_owned(), text.to_owned());
        inner
            .corpus
            .in_load_order()
            .into_iter()
            .map(owned)
            .collect()
    }

    /// Journals a program load. Returns `Ok(false)` without touching the
    /// WAL when `name` is already stored, whatever text it was stored with:
    /// `name` is the program's normalized key, so another spelling of a
    /// stored program is the same program, and the text stored first is the
    /// one replay loads (the dedup mirrors the serve cache: a repeat load,
    /// in any spelling, must not grow the log or cost an fsync).
    ///
    /// # Errors
    ///
    /// [`StoreError::Wal`] / [`StoreError::Fault`] when the append or its
    /// fsync fails, and [`StoreError::TooLarge`] when `name` and `text`
    /// together pass the record bound — the corpus is left unchanged, so
    /// memory never runs ahead of the journal. A failed *compaction* after
    /// a durable append also surfaces as an error, but the load itself is
    /// journaled.
    pub fn record_load(&self, name: &str, text: &str) -> Result<bool, StoreError> {
        let mut inner = self.lock();
        if inner.corpus.texts.contains_key(name) {
            return Ok(false);
        }
        // Journal-then-apply: only a durable append changes the corpus.
        let record = Record::Load { name, text };
        inner.wal.append(record, self.config.fsync)?;
        inner.corpus.apply(record);
        self.maybe_compact(&mut inner)?;
        Ok(true)
    }

    /// Moves the program stored under `old` to `new`, keeping its place in
    /// load order; when `new` is stored already, `old` is just dropped.
    /// Nothing is journaled: the log keeps `old` until the next compaction
    /// writes the corpus under `new`, and a replay before then finds `old`
    /// again. Boot replay uses this for a key an older printer wrote. A
    /// program whose record under `new` would not fit the record bound
    /// stays under `old`, so every compaction can still frame the corpus.
    pub fn rekey(&self, old: &str, new: &str) {
        let texts = &mut self.lock().corpus.texts;
        let fits = |text: &str| Record::Load { name: new, text }.fits().is_ok();
        if texts.get(old).is_some_and(|(_, text)| fits(text)) {
            let stored = texts.remove(old).expect("just found");
            texts.entry(new.to_owned()).or_insert(stored);
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
            programs: inner.corpus.texts.len(),
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
    fn alternating_spellings_of_one_key_append_one_record() {
        let dir = temp_dir("spellings");
        {
            let store = ProgramStore::open(config(&dir)).expect("open");
            let registry = granlog_obs::Registry::new();
            let tracer = Arc::new(granlog_obs::Tracer::new(64));
            store.set_obs(Some(Arc::new(crate::obs::StoreObs::register(
                &registry, tracer,
            ))));
            let spellings = ["p(X) :- q(X).", "p( Y ) :-  q( Y ).  % respelled"];
            let records = store.stats().wal_records;
            for n in 0..2 * 50 {
                let fresh = store.record_load("p(A) :- q(A)", spellings[n % 2]);
                assert_eq!(fresh.expect("load"), n == 0, "load {n}");
            }
            assert_eq!(store.stats().wal_records, records + 1);
            let fsyncs = registry
                .histogram_snapshot("granlog_wal_fsync_ms")
                .expect("registered");
            assert_eq!(fsyncs.count, 1, "one fsync under `Always`");
        }
        let store = ProgramStore::open(config(&dir)).expect("reopen");
        let first = ("p(A) :- q(A)".to_string(), "p(X) :- q(X).".to_string());
        assert_eq!(store.programs(), vec![first], "replay loads the first text");
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

    /// What reopening finds: the snapshot's corpus with every load journaled
    /// since replayed over it, a reloaded key keeping its place.
    fn replay(base: &[(String, String)], log: &[(String, String)]) -> Vec<(String, String)> {
        let mut corpus = base.to_vec();
        for (name, text) in log {
            match corpus.iter_mut().find(|(stored, _)| stored == name) {
                Some(slot) => slot.1 = text.clone(),
                None => corpus.push((name.clone(), text.clone())),
            }
        }
        corpus
    }

    /// The store against a reference first-load-ordered list over a seeded
    /// run of loads, re-keys, snapshots and reopens: `programs()` agrees
    /// after every step.
    #[test]
    fn the_corpus_keeps_first_load_order_through_loads_rekeys_snapshots_and_reopens() {
        let dir = temp_dir("model");
        let mut store = ProgramStore::open(config(&dir)).expect("open");
        let key = |n: u64| format!("k{}", n % 6);
        // The live corpus, the one the last snapshot holds, and the loads
        // journaled since.
        let mut model: Vec<(String, String)> = Vec::new();
        let mut base: Vec<(String, String)> = Vec::new();
        let mut log: Vec<(String, String)> = Vec::new();
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        for step in 0..400 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let (a, b) = (state >> 8, state >> 24);
            match state % 20 {
                0..=9 => {
                    let (name, text) = (key(a), format!("p({}).", b % 3));
                    let compactions = store.stats().compactions;
                    let fresh = store.record_load(&name, &text).expect("load");
                    match model.iter().find(|(stored, _)| *stored == name) {
                        // A stored key keeps its first text, whatever the
                        // reload's text.
                        Some(_) => assert!(!fresh, "step {step}"),
                        None => {
                            assert!(fresh, "step {step}");
                            model.push((name.clone(), text.clone()));
                        }
                    }
                    if fresh {
                        log.push((name, text));
                    }
                    if store.stats().compactions > compactions {
                        base = model.clone();
                        log.clear();
                    }
                }
                10..=14 => {
                    // Keys k6 and k7 are never loaded: a re-key to them is
                    // fresh, and from them absent.
                    let (old, new) = (format!("k{}", a % 8), format!("k{}", b % 8));
                    store.rekey(&old, &new);
                    if let Some(at) = model.iter().position(|(name, _)| *name == old) {
                        let (_, text) = model.remove(at);
                        if !model.iter().any(|(name, _)| *name == new) {
                            model.insert(at, (new, text));
                        }
                    }
                }
                15..=16 => {
                    store.snapshot().expect("snapshot");
                    base = model.clone();
                    log.clear();
                }
                _ => {
                    drop(store);
                    store = ProgramStore::open(config(&dir)).expect("reopen");
                    model = replay(&base, &log);
                    assert_eq!(store.recovery().programs, model.len(), "step {step}");
                }
            }
            assert_eq!(store.programs(), model, "step {step}");
            assert_eq!(store.stats().programs, model.len(), "step {step}");
        }
        drop(store);
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

    /// A small load, a 9 MiB text as both key and text (a `Load` record
    /// past the record bound), another small load, a snapshot, a reopen:
    /// every load `record_load` acked is recovered and neither file reads
    /// as torn.
    #[test]
    fn every_acked_load_survives_an_oversized_one() {
        let dir = temp_dir("oversized");
        let big = "x".repeat(9 * 1024 * 1024);
        let mut acked = Vec::new();
        {
            let store = ProgramStore::open(config(&dir)).expect("open");
            for (name, text) in [("small-a", "a."), (&big, &big), ("small-b", "b.")] {
                if store.record_load(name, text).is_ok() {
                    acked.push((name.to_string(), text.to_string()));
                }
            }
            store.snapshot().expect("compact");
        }
        let store = ProgramStore::open(config(&dir)).expect("reopen");
        let recovery = store.recovery();
        assert!(!recovery.snapshot_torn, "{recovery:?}");
        assert_eq!(recovery.wal_truncated_bytes, 0, "{recovery:?}");
        assert_eq!(store.programs(), acked);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The refusal is typed and writes nothing; a re-key that would make a
    /// record too large leaves the program under its old key.
    #[test]
    fn a_record_past_the_bound_is_refused_before_any_byte() {
        let dir = temp_dir("refused");
        let store = ProgramStore::open(config(&dir)).expect("open");
        store.record_load("k", "p.").expect("load");
        let written = |s: StoreStats| (s.programs, s.wal_bytes, s.wal_records);
        let before = written(store.stats());
        let big = "x".repeat(9 * 1024 * 1024);
        let refused = store.record_load(&big, &big);
        assert!(
            matches!(refused, Err(StoreError::TooLarge { .. })),
            "{refused:?}"
        );
        assert_eq!(
            written(store.stats()),
            before,
            "nothing written, the corpus unchanged"
        );
        let long_key = "k".repeat(crate::record::MAX_RECORD_BYTES as usize);
        store.rekey("k", &long_key);
        assert_eq!(store.programs(), vec![("k".to_string(), "p.".to_string())]);
        store.snapshot().expect("the corpus still compacts");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
