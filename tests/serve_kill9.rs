//! Kill-9 crash-recovery harness: SIGKILLs a real `granlog serve` process
//! at failpoint-seeded moments and proves the restarted process recovers a
//! prefix-consistent corpus.
//!
//! Hosted by `granlog-cli` because `CARGO_BIN_EXE_granlog` only exists in
//! this package's tests, and gated on the `failpoints` feature: each crash
//! scenario arms a `delay(<ms>)` failpoint via `GRANLOG_FAILPOINTS` at one
//! durability seam (`store.wal.append`, `store.wal.fsync`,
//! `store.snapshot.write`, `store.snapshot.rename`, `store.recover.read`),
//! which pins the child inside that seam long enough for `Child::kill()`
//! (SIGKILL on Unix — no atexit, no Drop, no flush) to land mid-operation
//! deterministically.
//!
//! The contract checked at every crash point: every load the server *acked*
//! before the kill is present after restart (fsync `always` means acked =
//! durable), the in-flight load is present or absent per the seam's
//! semantics but never torn, and the recovered server precompiled its whole
//! corpus (every reload is a cache hit). The final scenario crashes the
//! corpus twice — SIGKILL mid-serving, then SIGKILL *mid-recovery* — and
//! then differentially checks all 15 benchmark queries against a fresh
//! server process. A JSON artifact summarizing every scenario is written
//! for CI (path override: `GRANLOG_KILL9_ARTIFACT`).

mod support;

use granlog_serve::ServeClient;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use support::{canonical, fifteen_benchmarks, temp_dir};

/// A live `granlog serve` child whose listening line has been scraped.
struct ServeProc {
    child: Child,
    addr: String,
    /// The `recovered N programs` count the child printed at boot (present
    /// whenever it was started with a data dir).
    recovered: Option<u64>,
}

/// Spawns `granlog serve` without waiting for it to come up. `failpoints`
/// is the `GRANLOG_FAILPOINTS` spec for this life, e.g.
/// `store.wal.append=delay(300)`.
fn spawn_raw(args: &[&str], failpoints: Option<&str>) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_granlog"));
    cmd.arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .env_remove("GRANLOG_FAILPOINTS")
        .env("GRANLOG_FAULT_SEED", "42");
    if let Some(spec) = failpoints {
        cmd.env("GRANLOG_FAILPOINTS", spec);
    }
    cmd.spawn().expect("spawn granlog serve")
}

/// Spawns and blocks until the child prints its listening line.
fn spawn_serve(args: &[&str], failpoints: Option<&str>) -> ServeProc {
    let mut child = spawn_raw(args, failpoints);
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut recovered = None;
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read child stdout") == 0 {
            let status = child.wait().expect("reap early-exit child");
            panic!("granlog serve exited ({status}) before its listening line");
        }
        if let Some(rest) = line.strip_prefix("recovered ") {
            recovered = rest.split_whitespace().next().and_then(|n| n.parse().ok());
        }
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.trim().to_string();
        }
    };
    ServeProc {
        child,
        addr,
        recovered,
    }
}

impl ServeProc {
    fn connect(&self) -> ServeClient {
        ServeClient::connect_with_retry(self.addr.as_str(), 20, Duration::from_millis(5))
            .expect("connect to child server")
    }

    /// SIGKILL — the point of the harness. No shutdown handshake, no Drop,
    /// no buffered-writer flush: whatever is not on disk is gone.
    fn kill9(mut self) {
        self.child.kill().expect("SIGKILL child");
        self.child.wait().expect("reap killed child");
    }
}

/// One crash scenario's outcome, for the CI artifact.
struct Outcome {
    name: &'static str,
    spec: String,
    acked: usize,
    /// What the restarted child reported recovering.
    recovered: u64,
    /// Whether the in-flight (unacked) load was expected to survive:
    /// `None` = scenario had no in-flight load.
    in_flight_survives: Option<bool>,
}

/// Loads `sources[..acked]` synchronously (each ack is durable: the server
/// runs fsync `always`), then fires `sources[acked]` from a helper thread —
/// which parks inside the armed delay seam — and SIGKILLs the child
/// `kill_after` into that window. Returns once the child is reaped.
fn crash_mid_load(proc: ServeProc, sources: &[String], acked: usize, kill_after: Duration) {
    let mut client = proc.connect();
    for src in &sources[..acked] {
        client.load(src).expect("io").expect("acked load");
    }
    let addr = proc.addr.clone();
    let in_flight = sources[acked].clone();
    let loader = std::thread::spawn(move || {
        let mut c = match ServeClient::connect(addr.as_str()) {
            Ok(c) => c,
            Err(_) => return, // the kill won the race to the accept loop
        };
        // The reply never comes: the server dies inside the delay. An io
        // error (EOF) is this thread's success condition.
        let _ = c.load(&in_flight);
    });
    std::thread::sleep(kill_after);
    proc.kill9();
    loader.join().expect("loader thread");
}

/// Restarts on `dir` with no failpoints and checks the recovery contract:
/// the reported count matches, and every program in `expect_present` was
/// precompiled by boot replay (reload = cache hit) — the warm-cache
/// guarantee acked loads carry across a crash.
fn check_recovery(dir: &Path, extra: &[&str], expect_present: &[String], want: u64) -> u64 {
    let mut args = vec!["--data-dir", dir.to_str().unwrap()];
    args.extend_from_slice(extra);
    let proc = spawn_serve(&args, None);
    let recovered = proc
        .recovered
        .expect("a data-dir boot prints its recovery line");
    assert_eq!(recovered, want, "prefix-consistent recovery count");
    let mut client = proc.connect();
    for src in expect_present {
        let (_, _, hit) = client
            .load(src)
            .expect("io")
            .expect("recovered program reloads");
        assert!(hit, "recovery must precompile every surviving program");
    }
    client.quit().expect("clean quit");
    proc.kill9(); // this life is disposable too
    recovered
}

/// Tiny distinct programs for the seam-by-seam scenarios (the benchmark
/// corpus is saved for the differential scenario).
fn tiny_corpus(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("t{i}(a).\nt{i}(b).")).collect()
}

/// The harness proper. One test, five seeded crash points, sequential —
/// each scenario owns its data dir, and the artifact aggregates them all.
#[test]
fn sigkill_at_every_seeded_crash_point_recovers_prefix_consistently() {
    let mut outcomes: Vec<Outcome> = Vec::new();

    // ── A: SIGKILL mid-append. The delay sits *before* the WAL write, so
    // the in-flight record deterministically never reaches the file: the
    // recovered corpus is exactly the acked prefix.
    {
        let dir = temp_dir("append");
        let spec = "store.wal.append=delay(1500)";
        let sources = tiny_corpus(4);
        // Every acked load also rides through the 1.5 s delay, so the acks
        // prove the seam is armed and slow; in-flight #4 dies inside it,
        // killed 0.5 s into a 1.5 s window — wide margins on both sides.
        let proc = spawn_serve(&["--data-dir", dir.to_str().unwrap()], Some(spec));
        crash_mid_load(proc, &sources, 3, Duration::from_millis(500));
        let recovered = check_recovery(&dir, &[], &sources[..3], 3);
        outcomes.push(Outcome {
            name: "mid_wal_append",
            spec: spec.to_string(),
            acked: 3,
            recovered,
            in_flight_survives: Some(false),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ── B: SIGKILL mid-fsync. The record is already written when the delay
    // parks the fsync; a process kill does not drop the page cache, so the
    // in-flight record survives: acked prefix + 1.
    {
        let dir = temp_dir("fsync");
        let spec = "store.wal.fsync=delay(1500)";
        let sources = tiny_corpus(3);
        let proc = spawn_serve(&["--data-dir", dir.to_str().unwrap()], Some(spec));
        crash_mid_load(proc, &sources, 2, Duration::from_millis(500));
        let recovered = check_recovery(&dir, &[], &sources[..3], 3);
        outcomes.push(Outcome {
            name: "mid_wal_fsync",
            spec: spec.to_string(),
            acked: 2,
            recovered,
            in_flight_survives: Some(true),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ── C and D: SIGKILL mid-compaction. `--wal-limit 1` makes every load
    // trigger snapshot compaction after its (durable) append; the delay
    // parks compaction in the staging write (C) or just before the atomic
    // rename (D). Either way the triggering load was journaled first, so
    // all 4 programs must come back — from the *old* snapshot plus the WAL
    // suffix, with the half-written staging file swept away.
    for (name, spec) in [
        ("mid_snapshot_write", "store.snapshot.write=delay(1500)"),
        ("mid_snapshot_rename", "store.snapshot.rename=delay(1500)"),
    ] {
        let dir = temp_dir(name);
        let sources = tiny_corpus(3);
        let proc = spawn_serve(
            &["--data-dir", dir.to_str().unwrap(), "--wal-limit", "1"],
            Some(spec),
        );
        crash_mid_load(proc, &sources, 2, Duration::from_millis(500));
        let recovered = check_recovery(&dir, &["--wal-limit", "1"], &sources[..3], 3);
        outcomes.push(Outcome {
            name,
            spec: spec.to_string(),
            acked: 2,
            recovered,
            in_flight_survives: Some(true),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ── E: SIGKILL mid-recovery, then the full differential. The benchmark
    // corpus is loaded and the server killed without ceremony (WAL only, no
    // snapshot); the first restart is killed *inside* recovery replay; the
    // second restart must still rebuild all 15 programs and answer every
    // benchmark query identically to a fresh, storeless server process.
    let differential: Vec<(&'static str, bool)> = {
        let dir = temp_dir("recovery");
        let corpus = fifteen_benchmarks();
        let queries: Vec<String> = corpus.iter().map(|b| b.query(b.test_size)).collect();

        // Life 1: load everything, no faults, SIGKILL after the last ack.
        let proc = spawn_serve(&["--data-dir", dir.to_str().unwrap()], None);
        let mut client = proc.connect();
        for bench in &corpus {
            client.load(bench.source).expect("io").expect("parse");
        }
        drop(client);
        proc.kill9();

        // Life 2: recovery replay is pinned by the read-seam delay (15
        // records × 100 ms each) and killed a few records in. Recovery
        // happens before the listening line, so spawn raw and kill blind.
        let mut replaying = spawn_raw(
            &["--data-dir", dir.to_str().unwrap()],
            Some("store.recover.read=delay(100)"),
        );
        std::thread::sleep(Duration::from_millis(350));
        replaying.kill().expect("SIGKILL mid-recovery");
        replaying.wait().expect("reap");

        // Life 3: a double-crashed store still recovers everything.
        let proc = spawn_serve(&["--data-dir", dir.to_str().unwrap()], None);
        let recovered = proc.recovered.expect("recovery line");
        assert_eq!(recovered, 15, "a crash during recovery must cost nothing");
        outcomes.push(Outcome {
            name: "mid_recovery_replay",
            spec: "store.recover.read=delay(100)".to_string(),
            acked: 15,
            recovered,
            in_flight_survives: None,
        });

        // The differential: recovered process vs fresh process, all 15
        // benchmark queries, answers compared up to variable renaming.
        let fresh = spawn_serve(&[], None);
        let mut warm = proc.connect();
        let mut cold = fresh.connect();
        let results: Vec<(&'static str, bool)> = corpus
            .iter()
            .zip(&queries)
            .map(|(bench, query)| {
                let (_, _, hit) = warm.load(bench.source).expect("io").expect("parse");
                assert!(
                    hit,
                    "{}: recovered server must have precompiled",
                    bench.name
                );
                cold.load(bench.source).expect("io").expect("parse");
                let recovered_reply = warm.query(query).expect("io").expect("query");
                let fresh_reply = cold.query(query).expect("io").expect("query");
                let matched = recovered_reply.succeeded == fresh_reply.succeeded
                    && canonical(&recovered_reply.bindings) == canonical(&fresh_reply.bindings);
                (bench.name, matched)
            })
            .collect();
        warm.quit().expect("quit");
        cold.quit().expect("quit");
        proc.kill9();
        fresh.kill9();
        let _ = std::fs::remove_dir_all(&dir);
        results
    };

    // The CI artifact: every scenario and every differential verdict, so a
    // red run ships the exact divergence, not just a panic line.
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"granlog/serve-kill9/v1\",");
    let _ = writeln!(json, "  \"scenarios\": [");
    for (i, o) in outcomes.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"failpoint\": \"{}\", \"acked\": {}, \
             \"recovered\": {}, \"in_flight_survives\": {}}}{}",
            o.name,
            o.spec,
            o.acked,
            o.recovered,
            o.in_flight_survives
                .map_or("null".to_string(), |b| b.to_string()),
            if i + 1 < outcomes.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"differential\": [");
    for (i, (name, matched)) in differential.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"program\": \"{name}\", \"answers_match\": {matched}}}{}",
            if i + 1 < differential.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = write!(json, "}}");
    let artifact = std::env::var("GRANLOG_KILL9_ARTIFACT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("granlog_kill9_diff.json"));
    std::fs::write(&artifact, &json).expect("write kill9 artifact");
    eprintln!("[serve_kill9] artifact at {}", artifact.display());

    let diverged: Vec<&str> = differential
        .iter()
        .filter(|(_, matched)| !matched)
        .map(|(name, _)| *name)
        .collect();
    assert!(
        diverged.is_empty(),
        "recovered corpus diverges from a fresh server on: {diverged:?}"
    );
}
