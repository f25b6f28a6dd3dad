//! Crash-recovery suite for the durable program store behind `granlog
//! serve`.
//!
//! A server given a `--data-dir` journals every accepted load; these tests
//! kill it the polite way (in-process shutdown, or just dropping a bare
//! [`ProgramStore`] mid-stream) and prove the restarted server rebuilds the
//! exact corpus and answers every benchmark query identically to its first
//! life. The `corruption` module then stops being polite: a proptest sweep
//! flips bytes, truncates, and duplicates tails across `wal.log` and
//! `snapshot.bin`, and recovery must always return the longest valid
//! prefix — never a panic, never an error, never a loop. The impolite
//! killing (SIGKILL of a real `granlog serve` process) lives in
//! `tests/serve_kill9.rs`.

mod support;

use granlog_serve::{ServeClient, ServeConfig, Server};
use granlog_store::{FsyncPolicy, ProgramStore, StoreConfig};
use std::path::Path;
use std::time::{Duration, Instant};
use support::{canonical, expected_answer, fifteen_benchmarks, start_server, temp_dir};

fn store_config(dir: &Path) -> StoreConfig {
    StoreConfig::new(dir)
}

/// The config of a server journaling to `dir` on an ephemeral port.
fn durable(dir: &Path) -> ServeConfig {
    ServeConfig {
        store: Some(store_config(dir)),
        ..ServeConfig::default()
    }
}

/// The headline differential test: load the full 15-program corpus into a
/// durable server, shut it down cleanly (which snapshots), restart on the
/// same data dir, and prove the recovered server (a) precompiled everything
/// at boot, (b) answers every query identically, and (c) journals nothing
/// new for reloads of programs it already holds.
#[test]
fn a_restarted_server_answers_every_benchmark_identically() {
    let dir = temp_dir("restart");
    let corpus = fifteen_benchmarks();
    type Expected = Vec<(String, bool, Vec<(String, String)>)>;
    let expected: Expected = corpus
        .iter()
        .map(|b| {
            let query = b.query(b.test_size);
            let (succeeded, bindings) = expected_answer(b, &query);
            (query, succeeded, bindings)
        })
        .collect();

    // First life: load and verify everything, then a clean shutdown.
    let server = start_server(durable(&dir));
    let mut client = ServeClient::connect(server.addr()).unwrap();
    for (bench, (query, want_success, want_bindings)) in corpus.iter().zip(&expected) {
        let (_, _, hit) = client.load(bench.source).unwrap().unwrap();
        assert!(
            !hit,
            "{}: first load of a fresh server must compile",
            bench.name
        );
        let reply = client.query(query).unwrap().unwrap();
        assert_eq!(reply.succeeded, *want_success, "{query}");
        assert_eq!(
            canonical(&reply.bindings),
            canonical(want_bindings),
            "{query}"
        );
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.stored, 15, "every accepted load must be journaled");
    assert!(
        stats.wal_bytes > 0,
        "the corpus lives in the WAL before snapshot"
    );
    client.quit().unwrap();
    server.shutdown();

    // Graceful drain must have compacted: a snapshot exists and the next
    // boot replays it rather than the raw log.
    assert!(
        dir.join("snapshot.bin").exists(),
        "shutdown must flush and snapshot"
    );

    // Second life: boot replay recompiles the corpus before the listener
    // opens. The acceptance bar is < 1s in release for these 15 programs;
    // debug builds get headroom but still catch order-of-magnitude
    // regressions.
    let boot = Instant::now();
    let server = start_server(durable(&dir));
    let replay = boot.elapsed();
    assert_eq!(server.recovered_programs(), 15);
    assert!(
        replay < Duration::from_secs(5),
        "15-program boot replay took {replay:?}"
    );
    let cache = server.cache().stats();
    assert_eq!(
        cache.misses, 15,
        "boot replay compiles each program exactly once"
    );

    let mut client = ServeClient::connect(server.addr()).unwrap();
    let before = client.stats().unwrap();
    assert_eq!(before.recovered, 15);
    assert_eq!(before.stored, 15);
    for (bench, (query, want_success, want_bindings)) in corpus.iter().zip(&expected) {
        let (_, _, hit) = client.load(bench.source).unwrap().unwrap();
        assert!(
            hit,
            "{}: recovery must have precompiled this program",
            bench.name
        );
        let reply = client.query(query).unwrap().unwrap();
        assert_eq!(reply.succeeded, *want_success, "{query} after recovery");
        assert_eq!(
            canonical(&reply.bindings),
            canonical(want_bindings),
            "{query}: recovered server diverges from first life"
        );
    }
    // Reloading recovered programs is deduped against the journal: the WAL
    // must not grow by a single byte.
    let after = client.stats().unwrap();
    assert_eq!(
        after.wal_bytes, before.wal_bytes,
        "reloads of stored programs must not be re-journaled"
    );
    client.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store that never got a clean shutdown (WAL only, no snapshot) still
/// boots a server with the full corpus precompiled.
#[test]
fn a_wal_only_store_boots_into_the_template_cache() {
    let dir = temp_dir("walonly");
    {
        let store = ProgramStore::open(store_config(&dir)).unwrap();
        store.record_load("p", "p(1).\np(2).").unwrap();
        store.record_load("q", "q(a) :- true.").unwrap();
        // Dropped without snapshot(): simulates a process that vanished.
    }
    assert!(!dir.join("snapshot.bin").exists());

    let server = start_server(durable(&dir));
    assert_eq!(server.recovered_programs(), 2);
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let (_, _, hit) = client.load("p(1).\np(2).").unwrap().unwrap();
    assert!(hit, "WAL replay must precompile the journaled text");
    let reply = client.query("p(X)").unwrap().unwrap();
    assert!(reply.succeeded);
    assert_eq!(reply.bindings, vec![("X".to_string(), "1".to_string())]);
    client.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A key journaled by an older printer (`p(1) :- true`, from when
/// integral floats printed bare) and the key today's printer writes for the
/// same text (`p(1.0) :- true`) name one program: boot compiles it once
/// and counts it once.
#[test]
fn two_keys_for_one_program_recover_as_one() {
    let dir = temp_dir("stalekey");
    {
        let store = ProgramStore::open(store_config(&dir)).unwrap();
        store.record_load("p(1) :- true\n", "p(1.0).").unwrap();
        store.record_load("p(1.0) :- true\n", "p(1.0).").unwrap();
        store.record_load("q(a) :- true\n", "q(a).").unwrap();
    }
    let server = start_server(durable(&dir));
    assert_eq!(server.recovered_programs(), 2);
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let (_, _, hit) = client.load("p(1.0).").unwrap().unwrap();
    assert!(hit, "the stale key's text is the program");
    client.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A program journaled under a key an older printer wrote is re-keyed at
/// boot: its reload is a duplicate, and the compaction at shutdown writes
/// today's key only, so the next boot stores one program, not two.
#[test]
fn a_stale_key_is_rekeyed_at_boot_and_compacted_away() {
    let dir = temp_dir("rekey");
    {
        let store = ProgramStore::open(store_config(&dir)).unwrap();
        store.record_load("p(1) :- true\n", "p(1.0).").unwrap();
    }
    let server = start_server(durable(&dir));
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let (_, _, hit) = client.load("p(1.0).").unwrap().unwrap();
    assert!(hit, "the stale key's text is the program");
    assert_eq!(client.stats().unwrap().stored, 1);
    client.quit().unwrap();
    server.shutdown();

    let server = start_server(durable(&dir));
    assert_eq!(server.recovered_programs(), 1);
    let mut client = ServeClient::connect(server.addr()).unwrap();
    assert_eq!(client.stats().unwrap().stored, 1);
    client.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn half-record at the WAL tail — what a mid-append crash leaves —
/// costs exactly the torn record: the server boots with the intact prefix.
#[test]
fn a_torn_wal_tail_never_blocks_boot() {
    let dir = temp_dir("torntail");
    {
        let store = ProgramStore::open(store_config(&dir)).unwrap();
        store.record_load("a", "a(1).").unwrap();
        store.record_load("b", "b(2).").unwrap();
        store.record_load("c", "c(3).").unwrap();
    }
    // A crashed writer's half-frame: plausible length prefix, missing body.
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0x40, 0x00, 0x00, 0x00, 0xaa, 0xbb, 0xcc]);
    std::fs::write(&wal, &bytes).unwrap();

    let server = start_server(durable(&dir));
    assert_eq!(
        server.recovered_programs(),
        3,
        "the valid prefix must survive a torn tail"
    );
    let mut client = ServeClient::connect(server.addr()).unwrap();
    // The store is immediately writable again: the torn tail was truncated,
    // so new appends land on a clean boundary and survive another restart.
    client.load("d(4).").unwrap().unwrap();
    client.quit().unwrap();
    server.shutdown();

    let store = ProgramStore::open(store_config(&dir)).unwrap();
    assert_eq!(store.recovery().programs, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every fsync policy journals durably across a process-exit boundary, and
/// the `unsynced` gauge tells the truth: `never` accumulates buffered
/// appends until an explicit flush, `always` never shows a buffered tail.
#[test]
fn every_fsync_policy_recovers_and_reports_its_buffered_tail() {
    for policy in [
        FsyncPolicy::Always,
        FsyncPolicy::Interval(Duration::from_millis(3_600_000)),
        FsyncPolicy::Never,
    ] {
        let dir = temp_dir("fsync");
        let cfg = StoreConfig {
            fsync: policy,
            ..store_config(&dir)
        };
        {
            let store = ProgramStore::open(cfg.clone()).unwrap();
            store.record_load("k1", "p(a).").unwrap();
            store.record_load("k2", "q(b).").unwrap();
            let want_unsynced = match policy {
                FsyncPolicy::Always => 0,
                // The first append syncs (there was no prior fsync to date
                // the interval from); the second buffers.
                FsyncPolicy::Interval(_) => 1,
                FsyncPolicy::Never => 2,
            };
            assert_eq!(store.stats().unsynced_records, want_unsynced, "{policy}");
            store.flush().unwrap();
            assert_eq!(store.stats().unsynced_records, 0, "{policy} after flush");
        }
        let store = ProgramStore::open(cfg).unwrap();
        assert_eq!(store.recovery().programs, 2, "{policy}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A tiny WAL bound forces compaction while a live server keeps loading;
/// the log stays bounded and the snapshotted corpus survives a restart.
#[test]
fn compaction_under_a_live_server_keeps_the_wal_bounded() {
    let dir = temp_dir("compact");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_capacity: 64,
        store: Some(StoreConfig {
            wal_limit_bytes: 512,
            ..store_config(&dir)
        }),
        ..ServeConfig::default()
    })
    .expect("server must bind");
    let mut client = ServeClient::connect(server.addr()).unwrap();
    for i in 0..24 {
        let (_, _, hit) = client.load(&format!("gen{i}(x{i}).")).unwrap().unwrap();
        assert!(!hit);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.stored, 24);
    assert!(
        stats.wal_bytes <= 512 + 64,
        "compaction must keep the live WAL near its bound, got {}",
        stats.wal_bytes
    );
    client.quit().unwrap();
    server.shutdown();

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_capacity: 64,
        store: Some(StoreConfig {
            wal_limit_bytes: 512,
            ..store_config(&dir)
        }),
        ..ServeConfig::default()
    })
    .expect("server must bind");
    assert_eq!(server.recovered_programs(), 24);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The on-disk format, written out by hand: the store's files must hold
/// exactly these bytes. Shares no code with the store's encoder.
mod disk_bytes {
    /// Bitwise CRC-32 (IEEE, reflected polynomial `0xEDB88320`).
    fn crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// `[len][crc][payload]`, both header words little-endian.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend(crc32(payload).to_le_bytes());
        out.extend(payload);
        out
    }

    /// Tag 1, then name and text, each a `u32` length and its UTF-8 bytes.
    pub fn load(name: &str, text: &str) -> Vec<u8> {
        let mut payload = vec![1u8];
        for field in [name, text] {
            payload.extend((field.len() as u32).to_le_bytes());
            payload.extend(field.as_bytes());
        }
        frame(&payload)
    }

    /// Tag 3, then the snapshot id as a `u64`.
    pub fn mark(id: u64) -> Vec<u8> {
        let mut payload = vec![3u8];
        payload.extend(id.to_le_bytes());
        frame(&payload)
    }

    /// The snapshot file: its magic line, then the records.
    pub fn snapshot(records: &[Vec<u8>]) -> Vec<u8> {
        let mut out = b"GRANLOGSNAP1\n".to_vec();
        out.extend(records.concat());
        out
    }
}

/// Loads, a repeat load, a re-key, a snapshot, a load and a reopen leave
/// `wal.log` and `snapshot.bin` holding exactly the records a hand-written
/// encoder frames, and the reopened store recovers them and numbers its
/// next snapshot after the one it found.
#[test]
fn the_files_hold_exactly_the_records_framed_by_hand() {
    use disk_bytes::{load, mark, snapshot};
    let dir = temp_dir("bytes");
    let (wal, snap) = (dir.join("wal.log"), dir.join("snapshot.bin"));
    let read = |path: &Path| std::fs::read(path).unwrap_or_default();
    let pair = |name: &str, text: &str| (name.to_string(), text.to_string());
    let (a, b, c) = ("a(1).", "b('é', [x]).", "c(3).");
    let store = ProgramStore::open(store_config(&dir)).unwrap();
    assert!(store.record_load("ka", a).unwrap());
    assert!(store.record_load("kb", b).unwrap());
    assert!(!store.record_load("ka", a).unwrap(), "a repeat load");
    assert_eq!(read(&wal), [load("ka", a), load("kb", b)].concat());
    assert!(!snap.exists());

    store.rekey("ka", "ka2");
    assert_eq!(read(&wal), [load("ka", a), load("kb", b)].concat());
    store.snapshot().unwrap();
    let first = snapshot(&[load("ka2", a), load("kb", b), mark(0)]);
    assert_eq!(read(&snap), first);
    assert_eq!(read(&wal), mark(0));
    assert!(store.record_load("kc", c).unwrap());
    assert_eq!(read(&wal), [mark(0), load("kc", c)].concat());
    drop(store);

    let store = ProgramStore::open(store_config(&dir)).unwrap();
    assert_eq!(
        store.recovery(),
        &granlog_store::RecoveryReport {
            programs: 3,
            wal_records: 2,
            wal_truncated_bytes: 0,
            snapshot_loaded: true,
            snapshot_torn: false,
            snapshot_programs: 2,
        }
    );
    assert_eq!(
        store.programs(),
        vec![pair("ka2", a), pair("kb", b), pair("kc", c)]
    );
    assert_eq!(read(&snap), first, "a reopen rewrites nothing");
    assert_eq!(read(&wal), [mark(0), load("kc", c)].concat());
    store.snapshot().unwrap();
    let second = [load("ka2", a), load("kb", b), load("kc", c), mark(1)];
    assert_eq!(read(&snap), snapshot(&second));
    assert_eq!(read(&wal), mark(1));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The corruption sweep: arbitrary byte-flips, truncations, and duplicated
/// tails against the on-disk files. The reader's whole contract is three
/// words — prefix, no panic — and proptest is the right tool to hold it to
/// them.
mod corruption {
    use super::*;
    use proptest::prelude::*;

    /// One corruption primitive. Positions and lengths are raw integers
    /// mapped into the file's actual size at apply time, so the strategy
    /// never needs to know how big a WAL is.
    #[derive(Debug, Clone)]
    enum Corrupt {
        /// XOR one byte (mask is non-zero, so the byte always changes).
        Flip { pos: usize, mask: u8 },
        /// Cut the file to a fraction of its length.
        Truncate { keep: usize },
        /// Append a copy of the file's own tail — what a half-completed
        /// copy or a confused log shipper produces.
        DupTail { from: usize },
    }

    fn corrupt_op() -> impl Strategy<Value = Corrupt> {
        prop_oneof![
            (0usize..1 << 16, 1u8..255).prop_map(|(pos, mask)| Corrupt::Flip { pos, mask }),
            (0usize..1 << 16).prop_map(|keep| Corrupt::Truncate { keep }),
            (0usize..1 << 16).prop_map(|from| Corrupt::DupTail { from }),
        ]
    }

    fn apply(path: &Path, ops: &[Corrupt]) {
        let mut bytes = std::fs::read(path).unwrap_or_default();
        for op in ops {
            if bytes.is_empty() {
                break;
            }
            match *op {
                Corrupt::Flip { pos, mask } => {
                    let idx = pos % bytes.len();
                    bytes[idx] ^= mask;
                }
                Corrupt::Truncate { keep } => {
                    bytes.truncate(keep % (bytes.len() + 1));
                }
                Corrupt::DupTail { from } => {
                    let tail = bytes[from % bytes.len()..].to_vec();
                    bytes.extend(tail);
                }
            }
        }
        std::fs::write(path, &bytes).expect("write corrupted file");
    }

    /// Seeds a store with `count` loads in a fixed order and returns the
    /// `(name, text)` list recovery should prefix into.
    fn seed(dir: &Path, count: usize) -> Vec<(String, String)> {
        let store = ProgramStore::open(store_config(dir)).unwrap();
        let mut loaded = Vec::new();
        for i in 0..count {
            let name = format!("prog{i}");
            let text = format!("p{i}(a).\np{i}(b).");
            store.record_load(&name, &text).unwrap();
            loaded.push((name, text));
        }
        loaded
    }

    proptest! {
        // 1-CPU CI container: each case opens files and re-runs recovery,
        // so a lean case count keeps the suite under a second while still
        // sweeping all three corruption primitives in combination.
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// WAL corruption: whatever the ops do, `open` succeeds and the
        /// recovered corpus is an exact prefix of the journaled sequence —
        /// and the store is immediately writable and durable again.
        #[test]
        fn wal_corruption_recovers_an_exact_prefix(
            ops in proptest::collection::vec(corrupt_op(), 1..6),
        ) {
            let dir = temp_dir("prop-wal");
            let loaded = seed(&dir, 4);
            apply(&dir.join("wal.log"), &ops);

            let store = ProgramStore::open(store_config(&dir))
                .expect("corruption must never fail open");
            let programs = store.programs();
            prop_assert!(programs.len() <= loaded.len());
            prop_assert_eq!(&programs[..], &loaded[..programs.len()],
                "recovery must keep a prefix, in order");

            // The truncated log accepts new appends that survive reopen.
            store.record_load("fresh", "fresh(1).").unwrap();
            let survivors = programs.len();
            drop(store);
            let store = ProgramStore::open(store_config(&dir)).unwrap();
            prop_assert_eq!(store.recovery().programs, survivors + 1);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Snapshot corruption: the snapshot contributes a prefix (possibly
        /// empty), the intact WAL suffix still lands on top, and nothing
        /// panics. Layout: 4 snapshotted programs + 2 WAL-only loads.
        #[test]
        fn snapshot_corruption_keeps_the_wal_suffix(
            ops in proptest::collection::vec(corrupt_op(), 1..6),
        ) {
            let dir = temp_dir("prop-snap");
            let snapshotted = {
                let store = ProgramStore::open(store_config(&dir)).unwrap();
                let mut loaded = Vec::new();
                for i in 0..4 {
                    let (name, text) = (format!("s{i}"), format!("s{i}(x)."));
                    store.record_load(&name, &text).unwrap();
                    loaded.push((name, text));
                }
                store.snapshot().unwrap();
                store.record_load("w0", "w0(x).").unwrap();
                store.record_load("w1", "w1(x).").unwrap();
                loaded
            };
            apply(&dir.join("snapshot.bin"), &ops);

            let store = ProgramStore::open(store_config(&dir))
                .expect("snapshot corruption must never fail open");
            let programs = store.programs();
            // The WAL suffix is intact, so w0/w1 are always present...
            let tail: Vec<_> = programs
                .iter()
                .filter(|(name, _)| name.starts_with('w'))
                .cloned()
                .collect();
            prop_assert_eq!(tail, vec![
                ("w0".to_string(), "w0(x).".to_string()),
                ("w1".to_string(), "w1(x).".to_string()),
            ]);
            // ...and whatever the snapshot still yields is an in-order
            // prefix of what was snapshotted.
            let head: Vec<_> = programs
                .iter()
                .filter(|(name, _)| name.starts_with('s'))
                .cloned()
                .collect();
            prop_assert!(head.len() <= snapshotted.len());
            prop_assert_eq!(&head[..], &snapshotted[..head.len()]);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Pure garbage in both files — no valid framing anywhere — opens
        /// as an empty store that works normally afterwards.
        #[test]
        fn random_bytes_in_both_files_open_as_an_empty_store(
            wal in proptest::collection::vec(0u8..255, 0..256),
            snap in proptest::collection::vec(0u8..255, 0..256),
        ) {
            let dir = temp_dir("prop-garbage");
            std::fs::write(dir.join("wal.log"), &wal).unwrap();
            std::fs::write(dir.join("snapshot.bin"), &snap).unwrap();

            let store = ProgramStore::open(store_config(&dir))
                .expect("garbage files must never fail open");
            prop_assert_eq!(store.programs().len(), 0);
            store.record_load("k", "k(1).").unwrap();
            drop(store);
            let store = ProgramStore::open(store_config(&dir)).unwrap();
            prop_assert_eq!(store.recovery().programs, 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
