//! The TCP front end: thread-per-connection sessions over a shared
//! [`TemplateCache`], speaking a small line protocol.
//!
//! # Protocol
//!
//! The server greets each connection with `ok granlog-serve`. Commands are
//! one line each (`\n`-terminated); replies are one or more lines, the last
//! starting with `ok`, `done` or `err`:
//!
//! | command | reply |
//! |---|---|
//! | `load <nbytes>` + exactly N raw bytes of program text | `ok program=<hash> clauses=<n> cache=<hit\|miss>` |
//! | `query <goal>` | `bind <name> = <term>` lines, then `done ok\|no steps=<n> heap=<n>` |
//! | `budget steps <n\|off>` | `ok` |
//! | `budget heap <n\|off>` | `ok` |
//! | `budget wall <ms\|off>` | `ok` |
//! | `engine <sld\|bottom-up>` | `ok engine=<name>` |
//! | `stats` | `ok hits=<n> misses=<n> evictions=<n> entries=<n> sessions=<n> quarantined=<n> retired=<n> leases=<n> shed=<n>` plus, with a store configured, ` recovered=<n> stored=<n> wal_bytes=<n> wal_records=<n> unsynced=<n> snapshot_age_ms=<n> last_fsync_ms=<n>`, always ending ` uptime_ms=<n> version=<semver>` |
//! | `metrics` | `ok <nbytes>` + exactly N bytes of Prometheus text exposition |
//! | `trace on\|off` | `ok trace=on\|off` — toggles the **server-global** event ring |
//! | `trace dump` | `ok <nbytes>` + exactly N bytes of JSONL trace events (drains the ring) |
//! | `quit` | `ok bye`, connection closes |
//! | `shutdown` | `ok shutting-down`, server stops accepting |
//!
//! Any failure (parse error, engine error, exceeded budget, protocol
//! misuse) is a single `err <code> <message>` line — `code` is the stable
//! kebab-case class from [`ServeError::code`] (`parse`, `budget`, `engine`,
//! `no-program`, `proto`, `too-large`, `internal`, `fault`, `store`,
//! `overloaded`, `timeout`, `shutdown`) — and the session survives: the next
//! command is
//! read normally. The `load` payload is a byte-counted blob, so programs
//! may contain newlines without any quoting scheme.
//!
//! Under `engine bottom-up` a query's `done` line keeps the
//! `steps=0 heap=0` fields (a fixpoint has no SLD resource meters) and
//! appends `answers=<n> rounds=<n> facts=<n>`; `bind` lines
//! enumerate every answer, so variable names repeat once per answer.
//!
//! # Framing
//!
//! Nothing in this module writes to a socket except through a
//! `frame::Frame`, the connection's one reusable reply buffer (16 KiB).
//! Handlers receive it as `&mut impl io::Write`, render the *whole* reply
//! and return; the connection loop then sends it with one `write_all` —
//! one system call and, under `TCP_NODELAY`, one segment per reply rather
//! than one per format fragment. A reply larger than the buffer streams
//! out in buffer-sized writes as it is rendered, so per-connection memory
//! stays bounded. Input is bounded too: a command line that passes 1 MiB
//! without a newline is refused with `err too-large` and the connection
//! closed. `granlog_reply_frames_total`, `granlog_reply_writes_total` and
//! `granlog_reply_bytes_total` count what left; writes equal frames
//! whenever every reply fits the buffer.
//!
//! # Robustness
//!
//! Reads are *ticked*: the socket runs under a short read timeout and the
//! connection loop re-checks the server's stop flag and the session's idle
//! clocks on every tick, so a wedged or silent peer can never pin a thread
//! past shutdown. Three timers fall out of one mechanism:
//!
//! - **graceful shutdown** — when the stop flag rises, in-flight commands
//!   finish and write their reply (long queries are already bounded by the
//!   session's budget); any command read after the flag —
//!   and the next otherwise-idle read tick — closes the connection with
//!   `err shutdown ...`.
//! - **idle reaping** — a connection with *no partial command* buffered for
//!   longer than [`ServeConfig::idle_timeout`] is reaped with
//!   `err timeout ...`.
//! - **torn frames** — a connection that started a command (or a `load`
//!   payload) and stalls mid-frame past [`ServeConfig::io_timeout`] is
//!   cut: half a frame is a fault, not a session.
//!
//! Past [`ServeConfig::max_conns`] concurrent connections the acceptor
//! *sheds*: the new connection receives `err overloaded ...` instead of
//! the greeting and is closed, which [`crate::client::ServeClient`] turns
//! into a typed retryable error. Shed connections are counted in the
//! `stats` line.

use crate::cache::{PoolConfig, TemplateCache};
use crate::frame::Frame;
use crate::obs::ServeObs;
use crate::session::{EngineKind, Session, SessionBudget};
use crate::ServeError;
use granlog_engine::MachineConfig;
use granlog_store::{ProgramStore, StoreConfig, StoreError, StoreObs};
use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest `load` payload the server will read, in bytes.
const MAX_PROGRAM_BYTES: u64 = 16 * 1024 * 1024;

/// Longest command line the server will buffer, in bytes (newline
/// included). A goal is the only long command; a peer that streams past
/// this without a newline is refused with `err too-large` and cut.
const MAX_COMMAND_BYTES: usize = 1024 * 1024;

/// Socket read-timeout tick: the granularity at which connection threads
/// notice the stop flag and their idle clocks.
const READ_TICK: Duration = Duration::from_millis(50);

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Maximum programs kept compiled in the shared cache.
    pub cache_capacity: usize,
    /// Default budget for new sessions (each can adjust its own).
    pub budget: SessionBudget,
    /// Connection cap: past this many concurrent sessions new connections
    /// are shed with `err overloaded ...`. `0` = unlimited.
    pub max_conns: usize,
    /// Mid-frame stall bound: a connection that leaves a command line or a
    /// `load` payload incomplete for this long is cut.
    pub io_timeout: Duration,
    /// Idle reaping bound: a connection with no buffered input for this
    /// long is closed with `err timeout ...`. `None` = never reap.
    pub idle_timeout: Option<Duration>,
    /// Durable program store configuration. `None` (the default) keeps the
    /// server fully in-memory; `Some` journals every accepted `load` to a
    /// WAL in the configured directory and replays the corpus at boot.
    pub store: Option<StoreConfig>,
    /// Address for the plaintext Prometheus scrape listener (`None`, the
    /// default, starts none). Serves `GET /` — well, any request — with the
    /// same exposition the `metrics` protocol command returns.
    pub metrics_addr: Option<String>,
    /// Slow-query threshold in milliseconds: an answered query at or above
    /// it is counted, traced, and logged to stderr with its program key,
    /// goal and budget consumption. `None` (the default) disables the log.
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_capacity: 64,
            budget: SessionBudget::default(),
            max_conns: 0,
            io_timeout: Duration::from_secs(10),
            idle_timeout: None,
            store: None,
            metrics_addr: None,
            slow_ms: None,
        }
    }
}

/// Why [`Server::start`] could not boot. Distinct from [`ServeError`]
/// (which describes per-command failures on a *running* server): a boot
/// failure is terminal and the CLI turns it into a typed nonzero exit.
#[derive(Debug)]
pub enum BootError {
    /// The listen address could not be bound.
    Bind {
        /// Address the config asked for.
        addr: String,
        /// Underlying I/O error.
        source: io::Error,
    },
    /// The durable store could not be opened or recovered (unusable data
    /// dir, unopenable WAL). Torn/corrupt records are *not* boot errors —
    /// recovery keeps the valid prefix.
    Store(StoreError),
}

impl std::fmt::Display for BootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootError::Bind { addr, source } => {
                write!(f, "cannot bind {addr}: {source}")
            }
            BootError::Store(e) => write!(f, "cannot open data dir: {e}"),
        }
    }
}

impl std::error::Error for BootError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BootError::Bind { source, .. } => Some(source),
            BootError::Store(e) => Some(e),
        }
    }
}

impl From<StoreError> for BootError {
    fn from(e: StoreError) -> Self {
        BootError::Store(e)
    }
}

struct ServerState {
    /// The serve listener's bound address: where `shutdown` nudges the
    /// accept loop out of its blocking `accept()`.
    addr: SocketAddr,
    cache: Arc<TemplateCache>,
    default_budget: SessionBudget,
    stop: AtomicBool,
    active_sessions: AtomicU64,
    /// Connections shed at the acceptor because `max_conns` was reached.
    shed: AtomicU64,
    io_timeout: Duration,
    idle_timeout: Option<Duration>,
    /// The durable store, when `--data-dir` configured one.
    store: Option<ProgramStore>,
    /// Programs rebuilt from the store at boot (0 without a store).
    recovered: u64,
    /// Metrics registry, trace ring and slow-query threshold, shared by
    /// every connection thread and the metrics listener.
    obs: Arc<ServeObs>,
}

/// The serve front end. [`Server::start`] binds, spawns the accept loop and
/// returns a [`ServerHandle`]; the server runs until
/// [`ServerHandle::shutdown`] or a client sends `shutdown`.
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts accepting connections, one thread per
    /// session. With [`ServeConfig::store`] set, opens (or recovers) the
    /// durable store first and replays the recovered corpus into the
    /// template cache — each program compiles exactly once, through the
    /// same normalized-text-keyed path a live `load` takes.
    ///
    /// # Errors
    ///
    /// [`BootError::Bind`] when the listen address cannot be bound;
    /// [`BootError::Store`] when the data dir is unusable. Torn or corrupt
    /// store records never fail boot — recovery keeps the valid prefix.
    pub fn start(config: ServeConfig) -> Result<ServerHandle, BootError> {
        let obs = Arc::new(ServeObs::new(config.slow_ms));
        let store = config.store.map(ProgramStore::open).transpose()?;
        // The store's WAL/fsync/snapshot latencies land in the same registry
        // and ring as everything else.
        if let Some(store) = &store {
            store.set_obs(Some(Arc::new(StoreObs::register(
                &obs.registry,
                Arc::clone(&obs.tracer),
            ))));
        }
        let cache = Arc::new(TemplateCache::new(
            config.cache_capacity,
            MachineConfig::default(),
            PoolConfig::default(),
        ));
        // Boot replay: warm the cache from the recovered corpus before the
        // listener exists, so the first client query of a recovered program
        // is a cache hit. A record whose text no longer parses (impossible
        // via our own journaling, conceivable via hand-edited files) is
        // skipped — recovery never panics over bad bytes. A key journaled
        // by an older printer differs from its program's normalized text
        // today: the store re-keys that program, so the next compaction
        // writes today's key and a reload is not journaled again. Two keys
        // can name one cache entry; the count is of distinct entries.
        let mut distinct = HashSet::new();
        if let Some(store) = &store {
            for (name, text) in store.programs() {
                if let Ok((entry, _)) = cache.load(&text) {
                    let key = entry.normalized_text();
                    if key != name {
                        store.rekey(&name, key);
                    }
                    distinct.insert(key.to_owned());
                }
            }
        }
        let recovered = distinct.len() as u64;
        let bind_err = |source| BootError::Bind {
            addr: config.addr.clone(),
            source,
        };
        let listener = TcpListener::bind(&config.addr).map_err(bind_err)?;
        let local_addr = listener.local_addr().map_err(bind_err)?;
        // Bind the scrape listener before spawning anything: a bad metrics
        // address is a boot error, same as a bad serve address.
        let metrics_listener = config
            .metrics_addr
            .as_ref()
            .map(|addr| -> Result<TcpListener, BootError> {
                let err = |source| BootError::Bind {
                    addr: addr.clone(),
                    source,
                };
                let l = TcpListener::bind(addr).map_err(err)?;
                // Non-blocking accept so the loop can poll the stop flag
                // without needing a shutdown nudge on this socket too.
                l.set_nonblocking(true).map_err(err)?;
                Ok(l)
            })
            .transpose()?;
        let state = Arc::new(ServerState {
            addr: local_addr,
            cache,
            default_budget: config.budget,
            stop: AtomicBool::new(false),
            active_sessions: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            io_timeout: config.io_timeout,
            idle_timeout: config.idle_timeout,
            store,
            recovered,
            obs,
        });
        let max_conns = config.max_conns;
        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || accept_loop(listener, accept_state, max_conns));
        let (metrics_addr, metrics) = match metrics_listener {
            Some(listener) => {
                let addr = listener.local_addr().ok();
                let metrics_state = Arc::clone(&state);
                (
                    addr,
                    Some(std::thread::spawn(move || {
                        metrics_loop(listener, &metrics_state)
                    })),
                )
            }
            None => (None, None),
        };
        Ok(ServerHandle {
            local_addr,
            metrics_addr,
            state,
            accept: Some(accept),
            metrics,
        })
    }
}

/// Handle to a running server: its bound address and its lifecycle.
pub struct ServerHandle {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    metrics: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (with the real port when the
    /// config asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The address of the Prometheus scrape listener, when
    /// [`ServeConfig::metrics_addr`] configured one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The shared template cache (for stats inspection).
    pub fn cache(&self) -> &Arc<TemplateCache> {
        &self.state.cache
    }

    /// The server's observability bundle (registry, trace ring).
    pub fn obs(&self) -> &Arc<ServeObs> {
        &self.state.obs
    }

    /// Connections shed so far because the connection cap was reached.
    pub fn shed_connections(&self) -> u64 {
        self.state.shed.load(Ordering::Relaxed)
    }

    /// Programs replayed from the durable store when this server booted
    /// (0 when no store is configured).
    pub fn recovered_programs(&self) -> u64 {
        self.state.recovered
    }

    /// Blocks until the server stops on its own (a client sent `shutdown`),
    /// then waits for every session thread to finish. This is what
    /// `granlog serve` does after printing its listening line.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop only returns once the stop flag rose, which is
        // also the metrics loop's exit condition (it polls every tick).
        if let Some(metrics) = self.metrics.take() {
            let _ = metrics.join();
        }
    }

    /// Stops accepting connections, lets in-flight commands finish their
    /// reply, and waits for the accept loop and every session thread.
    pub fn shutdown(mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Nudge the accept loop out of its blocking `accept()`.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(metrics) = self.metrics.take() {
            let _ = metrics.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.state.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.local_addr);
            let _ = accept.join();
        }
        if let Some(metrics) = self.metrics.take() {
            self.state.stop.store(true, Ordering::SeqCst);
            let _ = metrics.join();
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>, max_conns: usize) {
    let sessions: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Reap finished session threads so a long-lived server's handle
        // list tracks live connections, not its whole history.
        {
            let mut handles = sessions.lock().unwrap_or_else(PoisonError::into_inner);
            let finished: Vec<_> = {
                let mut keep = Vec::new();
                let mut done = Vec::new();
                for handle in handles.drain(..) {
                    if handle.is_finished() {
                        done.push(handle);
                    } else {
                        keep.push(handle);
                    }
                }
                *handles = keep;
                done
            };
            drop(handles);
            for handle in finished {
                let _ = handle.join();
            }
        }
        // Shed past the connection cap: a typed one-line refusal is honest
        // load feedback; an unbounded thread pile-up is an outage.
        if max_conns > 0 && state.active_sessions.load(Ordering::SeqCst) >= max_conns as u64 {
            state.shed.fetch_add(1, Ordering::Relaxed);
            shed(stream, &state.obs);
            continue;
        }
        state.active_sessions.fetch_add(1, Ordering::SeqCst);
        let session_state = Arc::clone(&state);
        let handle = std::thread::spawn(move || {
            let _ = serve_connection(stream, &session_state);
            session_state.active_sessions.fetch_sub(1, Ordering::SeqCst);
        });
        sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle);
    }
    for handle in sessions
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        let _ = handle.join();
    }
    // Graceful drain ends with durability housekeeping: flush whatever the
    // fsync policy left buffered, then compact so the next boot replays a
    // snapshot instead of the whole log. Best-effort — a failure here loses
    // no acknowledged data (the WAL still holds everything flushed).
    if let Some(store) = &state.store {
        let _ = store.flush();
        let _ = store.snapshot();
    }
}

/// Why the ticked reader returned without a complete line.
enum ReadStatus {
    /// A complete command line (newline stripped by the caller).
    Line,
    /// Clean EOF from the peer.
    Eof,
    /// The server's stop flag rose while waiting.
    Stopped,
    /// No input at all for longer than the idle timeout.
    Idle,
    /// A partial command stalled past the io timeout (torn frame).
    Torn,
    /// The line passed [`MAX_COMMAND_BYTES`] without a newline.
    TooLong,
}

/// Reads one command line under the tick discipline: short socket timeouts,
/// re-checking the stop flag and the idle/torn clocks between ticks.
fn read_command(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    state: &ServerState,
) -> io::Result<ReadStatus> {
    line.clear();
    let started = Instant::now();
    loop {
        if granlog_fault::should_fail("serve.sock.read") {
            return Err(injected_io_fault("serve.sock.read"));
        }
        // One byte past the cap is enough to tell "too long" from "exactly
        // at the cap"; a peer that never sends a newline cannot make `line`
        // grow beyond that.
        let room = (MAX_COMMAND_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', line) {
            Ok(_) if line.ends_with(b"\n") => return Ok(ReadStatus::Line),
            Ok(_) if line.len() > MAX_COMMAND_BYTES => return Ok(ReadStatus::TooLong),
            Ok(0) if line.is_empty() => return Ok(ReadStatus::Eof),
            // EOF mid-line: hand the partial line up; the next read sees
            // the clean EOF.
            Ok(0) => return Ok(ReadStatus::Line),
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // `read_until` keeps the bytes it consumed before the
                // timeout in `line`, so a torn frame accumulates across
                // ticks instead of being dropped.
                if state.stop.load(Ordering::SeqCst) {
                    return Ok(ReadStatus::Stopped);
                }
                if !line.is_empty() {
                    if started.elapsed() >= state.io_timeout {
                        return Ok(ReadStatus::Torn);
                    }
                } else if let Some(idle) = state.idle_timeout {
                    if started.elapsed() >= idle {
                        return Ok(ReadStatus::Idle);
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn injected_io_fault(name: &'static str) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionAborted,
        format!("injected fault at failpoint `{name}`"),
    )
}

fn write_err(out: &mut impl Write, err: &ServeError) -> io::Result<()> {
    writeln!(out, "err {} {}", err.code(), err)
}

/// The acceptor's refusal past the connection cap: one `err overloaded`
/// frame instead of the greeting, then the socket is dropped.
fn shed(sink: impl Write, obs: &ServeObs) {
    let mut frame = Frame::new(sink, obs);
    let _ = write_err(&mut frame, &ServeError::Overloaded).and_then(|()| frame.finish());
}

/// What the connection loop does once a command's reply has left.
enum Then {
    /// Read the next command.
    Continue,
    /// The reply answered a query: its flush is the query's `write` stage.
    Answered,
    /// `quit`: close the connection.
    Close,
    /// `shutdown`: raise the stop flag now that the acknowledgement is out.
    Shutdown,
}

fn serve_connection(stream: TcpStream, state: &ServerState) -> io::Result<()> {
    // Every reply leaves in one write (see `frame`); without TCP_NODELAY
    // the Nagle / delayed-ACK interaction adds tens of milliseconds to
    // every command.
    stream.set_nodelay(true)?;
    // The tick: all reads time out quickly so the loop stays responsive to
    // stop/idle/torn conditions. Writes get the full io timeout — a peer
    // that cannot drain a reply in that long is gone.
    stream.set_read_timeout(Some(READ_TICK))?;
    stream.set_write_timeout(Some(state.io_timeout.max(READ_TICK)))?;
    let reader = BufReader::new(stream.try_clone()?);
    serve_frames(reader, Frame::new(stream, &state.obs), state)
}

/// One connection over any byte source and reply sink; only
/// `serve_connection` knows the two ends are a socket. Whatever ends the
/// command loop — a refusal, a torn `load`, an I/O error — the `err` line
/// it rendered last leaves best-effort (the peer may be gone already).
fn serve_frames<W: Write>(
    mut reader: impl BufRead,
    mut frame: Frame<'_, W>,
    state: &ServerState,
) -> io::Result<()> {
    let served = command_loop(&mut reader, &mut frame, state);
    let _ = frame.finish();
    served
}

/// Greet, then: read a command, render its whole reply into `frame`, send
/// it in one write, repeat.
fn command_loop<W: Write>(
    reader: &mut impl BufRead,
    frame: &mut Frame<'_, W>,
    state: &ServerState,
) -> io::Result<()> {
    writeln!(frame, "ok granlog-serve")?;
    frame.finish()?;
    let mut session = Session::new(Arc::clone(&state.cache), state.default_budget);
    let mut line = Vec::new();
    loop {
        match read_command(reader, &mut line, state)? {
            ReadStatus::Line => {}
            ReadStatus::Eof => return Ok(()), // client hung up
            ReadStatus::Stopped => return write_err(frame, &ServeError::ShuttingDown),
            ReadStatus::Idle => {
                return writeln!(frame, "err timeout idle for longer than the idle timeout");
            }
            ReadStatus::Torn => {
                return writeln!(frame, "err timeout torn frame: command stalled mid-line");
            }
            ReadStatus::TooLong => {
                return writeln!(
                    frame,
                    "err too-large command line longer than {MAX_COMMAND_BYTES} bytes"
                );
            }
        }
        // Bytes that are not UTF-8 are not a command stream.
        let Ok(cmd) = std::str::from_utf8(&line) else {
            return writeln!(frame, "err proto command stream is not valid utf-8");
        };
        // Drain discipline: a command *read* after the stop flag rose is
        // refused — only commands already dispatched finish their reply.
        if state.stop.load(Ordering::SeqCst) {
            return write_err(frame, &ServeError::ShuttingDown);
        }
        // An injected write fault tears the connection between a command
        // and its reply — the client sees an abandoned frame.
        if granlog_fault::should_fail("serve.sock.write") {
            return Err(injected_io_fault("serve.sock.write"));
        }
        let cmd = cmd.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match cmd.split_once(' ') {
            Some((v, r)) => (v, r.trim()),
            None => (cmd, ""),
        };
        let mut then = Then::Continue;
        match verb {
            "load" => cmd_load(reader, frame, &mut session, state, rest)?,
            "query" => then = cmd_query(frame, &mut session, state, rest)?,
            "budget" => cmd_budget(frame, &mut session, rest)?,
            "engine" => cmd_engine(frame, &mut session, rest)?,
            "metrics" => cmd_metrics(frame, state)?,
            "trace" => cmd_trace(frame, state, rest)?,
            "stats" => cmd_stats(frame, state)?,
            "quit" => {
                writeln!(frame, "ok bye")?;
                then = Then::Close;
            }
            "shutdown" => {
                writeln!(frame, "ok shutting-down")?;
                then = Then::Shutdown;
            }
            "" => {} // blank line: ignore
            other => writeln!(frame, "err proto unknown command `{other}`")?,
        }
        let flushing = Instant::now();
        frame.finish()?;
        match then {
            Then::Continue => {}
            Then::Answered => state
                .obs
                .stage_write_ms
                .observe_duration_ms(flushing.elapsed()),
            Then::Close => return Ok(()),
            Then::Shutdown => {
                state.stop.store(true, Ordering::SeqCst);
                // Nudge the accept loop in case no other connection arrives.
                let _ = TcpStream::connect(state.addr);
                return Ok(());
            }
        }
    }
}

/// Reads exactly `nbytes` of `load` payload under the tick discipline.
/// Returns the payload, or `None` when the frame tore (EOF or stall
/// mid-payload) — the caller reports and drops the connection.
fn read_payload(
    reader: &mut impl Read,
    nbytes: usize,
    state: &ServerState,
) -> io::Result<Option<Vec<u8>>> {
    let mut payload = vec![0u8; nbytes];
    let mut filled = 0;
    let started = Instant::now();
    while filled < nbytes {
        match reader.read(&mut payload[filled..]) {
            Ok(0) => return Ok(None), // EOF mid-payload
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Mid-payload is always "torn", never "idle": the frame
                // declared a length it is not delivering.
                if state.stop.load(Ordering::SeqCst) || started.elapsed() >= state.io_timeout {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

fn cmd_load(
    reader: &mut impl Read,
    out: &mut impl Write,
    session: &mut Session,
    state: &ServerState,
    arg: &str,
) -> io::Result<()> {
    let nbytes: u64 = match arg.parse() {
        Ok(n) if n <= MAX_PROGRAM_BYTES => n,
        Ok(_) => {
            return writeln!(
                out,
                "err too-large program larger than {MAX_PROGRAM_BYTES} bytes"
            );
        }
        Err(_) => return writeln!(out, "err proto usage: load <nbytes>"),
    };
    let Some(payload) = read_payload(reader, nbytes as usize, state)? else {
        let _ = writeln!(out, "err timeout torn frame: load payload truncated");
        // The stream position is now mid-payload garbage; the only safe
        // continuation is none.
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "load payload truncated",
        ));
    };
    let source = match String::from_utf8(payload) {
        Ok(s) => s,
        Err(_) => return writeln!(out, "err proto program is not valid utf-8"),
    };
    match session.load(&source) {
        Ok(reply) => {
            // Journal *after* the parse succeeded, keyed by the entry's
            // normalized text — recovery dedups exactly like the live
            // cache. An append failure is surfaced: acking a load the WAL
            // did not accept would break the durability contract.
            if let Some(store) = &state.store {
                let entry = session.entry().expect("load just succeeded");
                if let Err(e) = store.record_load(entry.normalized_text(), &source) {
                    return write_err(out, &ServeError::Store(e.to_string()));
                }
            }
            state.obs.loads.inc();
            if state.obs.tracer.is_enabled() {
                state.obs.tracer.emit(
                    "load",
                    vec![
                        ("program", format!("{:016x}", reply.hash).into()),
                        ("clauses", reply.clauses.into()),
                        ("cache_hit", reply.cache_hit.into()),
                    ],
                );
            }
            writeln!(
                out,
                "ok program={:016x} clauses={} cache={}",
                reply.hash,
                reply.clauses,
                if reply.cache_hit { "hit" } else { "miss" },
            )
        }
        Err(e) => write_err(out, &e),
    }
}

fn cmd_query(
    out: &mut impl Write,
    session: &mut Session,
    state: &ServerState,
    goal: &str,
) -> io::Result<Then> {
    if goal.is_empty() {
        writeln!(out, "err proto usage: query <goal>")?;
        return Ok(Then::Continue);
    }
    let obs = &state.obs;
    if obs.tracer.is_enabled() {
        obs.tracer.emit("query_begin", vec![("goal", goal.into())]);
    }
    match session.query(goal) {
        Ok(reply) => {
            // One clock: the latency is the sum of the stage laps, so the
            // stage histograms sum to the latency histogram.
            let stages = session.last_stages();
            let elapsed = stages.total();
            let ms = elapsed.as_secs_f64() * 1e3;
            obs.queries.inc();
            obs.query_latency_ms.observe(ms);
            obs.stage_parse_ms.observe_duration_ms(stages.parse);
            obs.stage_lease_ms.observe_duration_ms(stages.lease);
            obs.stage_solve_ms.observe_duration_ms(stages.solve);
            obs.stage_render_ms.observe_duration_ms(stages.render);
            obs.query_steps.observe(reply.steps as f64);
            obs.query_heap.observe(reply.heap_high_water as f64);
            if let Some(d) = &reply.datalog {
                obs.datalog_rounds.add(d.rounds);
                obs.datalog_facts.add(d.facts);
            }
            // The slow-query log works with tracing off: threshold hits are
            // worth a counter and a stderr line even when nobody is dumping
            // the ring.
            if let Some(slow) = obs.slow_ms {
                if elapsed.as_millis() as u64 >= slow {
                    obs.slow_queries.inc();
                    let program = session.entry().map_or(0, |e| e.hash());
                    let stage_ms = |d: Duration| d.as_secs_f64() * 1e3;
                    eprintln!(
                        "slow-query program={program:016x} goal={goal} ms={ms:.1} \
                         steps={} heap={} parse_ms={:.3} lease_ms={:.3} \
                         solve_ms={:.3} render_ms={:.3}",
                        reply.steps,
                        reply.heap_high_water,
                        stage_ms(stages.parse),
                        stage_ms(stages.lease),
                        stage_ms(stages.solve),
                        stage_ms(stages.render),
                    );
                    if obs.tracer.is_enabled() {
                        obs.tracer.emit(
                            "slow_query",
                            vec![
                                ("program", format!("{program:016x}").into()),
                                ("goal", goal.into()),
                                ("ms", ms.into()),
                                ("steps", reply.steps.into()),
                            ],
                        );
                    }
                }
            }
            if obs.tracer.is_enabled() {
                obs.tracer.emit(
                    "query_end",
                    vec![
                        ("ok", reply.succeeded.into()),
                        ("ms", ms.into()),
                        ("steps", reply.steps.into()),
                    ],
                );
            }
            if reply.succeeded {
                for (name, term) in &reply.bindings {
                    writeln!(out, "bind {name} = {term}")?;
                }
            }
            let status = if reply.succeeded { "ok" } else { "no" };
            match reply.datalog {
                Some(d) => writeln!(
                    out,
                    "done {status} steps={} heap={} answers={} rounds={} facts={}",
                    reply.steps, reply.heap_high_water, d.answers, d.rounds, d.facts,
                )?,
                None => writeln!(
                    out,
                    "done {status} steps={} heap={}",
                    reply.steps, reply.heap_high_water,
                )?,
            }
            Ok(Then::Answered)
        }
        Err(e) => {
            obs.query_errors.inc();
            if obs.tracer.is_enabled() {
                obs.tracer
                    .emit("query_end", vec![("error", e.code().into())]);
            }
            write_err(out, &e)?;
            Ok(Then::Continue)
        }
    }
}

/// The `stats` command: cache, session and (with a store) durability
/// figures on one `ok key=value ...` line.
fn cmd_stats(out: &mut impl Write, state: &ServerState) -> io::Result<()> {
    let s = state.cache.stats();
    write!(
        out,
        "ok hits={} misses={} evictions={} entries={} sessions={} \
         quarantined={} retired={} leases={} shed={}",
        s.hits,
        s.misses,
        s.evictions,
        s.entries,
        state.active_sessions.load(Ordering::SeqCst),
        s.quarantined,
        s.retired,
        s.leases_active,
        state.shed.load(Ordering::Relaxed),
    )?;
    // Durability fields ride the same line, appended so existing
    // clients (which parse by field name) never notice. Ages are
    // reported in ms; `last_fsync_ms` is 0 before the first sync.
    if let Some(store) = &state.store {
        let d = store.stats();
        write!(
            out,
            " recovered={} stored={} wal_bytes={} wal_records={} unsynced={} \
             snapshot_age_ms={} last_fsync_ms={}",
            state.recovered,
            d.programs,
            d.wal_bytes,
            d.wal_records,
            d.unsynced_records,
            d.snapshot_age.map_or(0, |a| a.as_millis() as u64),
            d.last_fsync_age.map_or(0, |a| a.as_millis() as u64),
        )?;
    }
    // Liveness and build identity close the line; clients parse
    // by field name, so position is compatibility-irrelevant.
    writeln!(
        out,
        " uptime_ms={} version={}",
        state.obs.uptime_ms(),
        env!("CARGO_PKG_VERSION"),
    )
}

/// The `metrics` command: a byte-counted Prometheus exposition frame,
/// mirroring the `load` payload framing so the body may span lines.
fn cmd_metrics(out: &mut impl Write, state: &ServerState) -> io::Result<()> {
    let body = scrape(state);
    writeln!(out, "ok {}", body.len())?;
    out.write_all(body.as_bytes())
}

/// The `trace` command. `on`/`off` toggle the **server-global** ring (the
/// trace is a server diagnostic, not a per-tenant stream — sessions share
/// one ring); `dump` drains it as byte-counted JSONL.
fn cmd_trace(out: &mut impl Write, state: &ServerState, arg: &str) -> io::Result<()> {
    match arg.trim() {
        "on" => {
            state.obs.tracer.set_enabled(true);
            writeln!(out, "ok trace=on")
        }
        "off" => {
            state.obs.tracer.set_enabled(false);
            writeln!(out, "ok trace=off")
        }
        "dump" => {
            let body = state.obs.tracer.jsonl(true);
            writeln!(out, "ok {}", body.len())?;
            out.write_all(body.as_bytes())
        }
        _ => writeln!(out, "err proto usage: trace on|off|dump"),
    }
}

/// Samples the scrape-time gauges and renders the registry.
fn scrape(state: &ServerState) -> String {
    state.obs.scrape(
        &state.cache.stats(),
        state.active_sessions.load(Ordering::SeqCst),
        state.shed.load(Ordering::Relaxed),
        state.recovered,
        state.store.as_ref().map(|s| s.stats()).as_ref(),
    )
}

/// The `--metrics-addr` listener: minimal HTTP/1.0, one response per
/// connection, every request answered with the current exposition. The
/// accept socket is non-blocking so the loop can poll the stop flag —
/// shutdown needs no nudge connection here.
fn metrics_loop(listener: TcpListener, state: &Arc<ServerState>) {
    while !state.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Switch the accepted socket back to blocking with a short
                // timeout: we only need to consume the request line.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let mut discard = [0u8; 1024];
                let _ = stream.read(&mut discard);
                http_scrape(stream, state);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(READ_TICK);
            }
            Err(_) => std::thread::sleep(READ_TICK),
        }
    }
}

/// One HTTP/1.0 response carrying the current exposition, as one frame.
fn http_scrape(sink: impl Write, state: &ServerState) {
    let body = scrape(state);
    let mut frame = Frame::new(sink, &state.obs);
    let _ = write!(
        frame,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
    .and_then(|()| frame.finish());
}

fn cmd_engine(out: &mut impl Write, session: &mut Session, name: &str) -> io::Result<()> {
    let engine = match name.trim() {
        "sld" => EngineKind::Sld,
        "bottom-up" => EngineKind::BottomUp,
        _ => return writeln!(out, "err proto usage: engine sld|bottom-up"),
    };
    session.set_engine(engine);
    writeln!(
        out,
        "ok engine={}",
        if engine == EngineKind::Sld {
            "sld"
        } else {
            "bottom-up"
        }
    )
}

fn cmd_budget(out: &mut impl Write, session: &mut Session, args: &str) -> io::Result<()> {
    let mut budget = session.budget();
    let parsed = match args.split_once(' ').map(|(k, v)| (k, v.trim())) {
        Some(("steps", "off")) => {
            budget.steps = None;
            Ok(())
        }
        Some(("steps", v)) => v.parse().map(|n| budget.steps = Some(n)),
        Some(("heap", "off")) => {
            budget.heap_cells = None;
            Ok(())
        }
        Some(("heap", v)) => v.parse().map(|n| budget.heap_cells = Some(n)),
        Some(("wall", "off")) => {
            budget.wall = None;
            Ok(())
        }
        Some(("wall", v)) => v
            .parse()
            .map(|ms| budget.wall = Some(Duration::from_millis(ms))),
        _ => return writeln!(out, "err proto usage: budget steps|heap|wall <n|off>"),
    };
    match parsed {
        Ok(()) => {
            session.set_budget(budget);
            writeln!(out, "ok")
        }
        Err(_) => writeln!(out, "err proto not a number: `{args}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAME_BYTES;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A sink that records every `write` call it receives.
    #[derive(Clone, Default)]
    struct Wire(Rc<RefCell<Vec<Vec<u8>>>>);

    impl Write for Wire {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().push(data.to_vec());
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A peer that sends its script and then hangs up — or, when `silent`,
    /// stays connected and sends nothing more (every read times out).
    struct Peer {
        script: io::Cursor<Vec<u8>>,
        silent: bool,
    }

    impl Read for Peer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.script.read(buf)? {
                0 if self.silent => Err(io::ErrorKind::WouldBlock.into()),
                n => Ok(n),
            }
        }
    }

    /// A server's shared state without its threads. The listener is only
    /// somewhere for `shutdown`'s nudge to land.
    fn state() -> (ServerState, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let state = ServerState {
            addr: listener.local_addr().expect("bound"),
            cache: Arc::new(TemplateCache::new(
                8,
                MachineConfig::default(),
                PoolConfig::default(),
            )),
            default_budget: SessionBudget::default(),
            stop: AtomicBool::new(false),
            active_sessions: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            io_timeout: Duration::from_secs(10),
            idle_timeout: None,
            store: None,
            recovered: 0,
            obs: Arc::new(ServeObs::new(None)),
        };
        (state, listener)
    }

    /// Runs one connection over `script` through the real connection loop
    /// and returns the writes its sink saw, in order.
    fn converse(state: &ServerState, script: &[u8], silent: bool) -> Vec<Vec<u8>> {
        let wire = Wire::default();
        let peer = BufReader::new(Peer {
            script: io::Cursor::new(script.to_vec()),
            silent,
        });
        let _ = serve_frames(peer, Frame::new(wire.clone(), &state.obs), state);
        wire.0.take()
    }

    fn load(source: &str) -> String {
        format!("load {}\n{source}", source.len())
    }

    fn text(write: &[u8]) -> &str {
        std::str::from_utf8(write).expect("replies are utf-8")
    }

    const PROGRAM: &str = "p(1). wide(a, b, c, d, e, f, g, h).\n\
                           count(0). count(N) :- N > 0, N1 is N - 1, count(N1).";

    /// Every verb and every `err` class the loop can produce in process:
    /// the sink sees exactly one write per reply, each a whole reply.
    #[test]
    fn every_reply_leaves_in_one_write() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let (state, _listener) = state();
        let script: Vec<(Vec<u8>, &str)> = vec![
            ("query p(X)\n".into(), "err no-program "),
            (load("p(1").into(), "err parse "),
            ("load 99999999999\n".into(), "err too-large "),
            ("load many\n".into(), "err proto usage: load"),
            (
                b"load 2\n\xff\xfe".to_vec(),
                "err proto program is not valid utf-8",
            ),
            (load(PROGRAM).into(), "ok program="),
            (load(PROGRAM).into(), "ok program="),
            ("query p(X)\n".into(), "bind X = 1\ndone ok "),
            ("query p(2)\n".into(), "done no "),
            (
                "query wide(A, B, C, D, E, F, G, H)\n".into(),
                "bind A = a\nbind B = b\nbind C = c\nbind D = d\nbind E = e\n\
                 bind F = f\nbind G = g\nbind H = h\ndone ok ",
            ),
            ("query nowhere(X)\n".into(), "err engine "),
            ("query p(\n".into(), "err parse "),
            ("query\n".into(), "err proto usage: query"),
            ("budget steps 5\n".into(), "ok\n"),
            ("query count(50)\n".into(), "err budget "),
            ("budget steps off\n".into(), "ok\n"),
            ("budget heap 64\n".into(), "ok\n"),
            ("budget wall 1000\n".into(), "ok\n"),
            ("budget heap off\n".into(), "ok\n"),
            ("budget\n".into(), "err proto usage: budget"),
            ("budget steps many\n".into(), "err proto not a number"),
            ("engine magic\n".into(), "err proto usage: engine"),
            ("engine bottom-up\n".into(), "ok engine=bottom-up\n"),
            ("query count(3)\n".into(), "err engine bottom-up"),
            ("engine sld\n".into(), "ok engine=sld\n"),
            ("stats\n".into(), "ok hits="),
            ("trace on\n".into(), "ok trace=on\n"),
            ("query count(3)\n".into(), "done ok "),
            ("trace off\n".into(), "ok trace=off\n"),
            ("trace dump\n".into(), "ok "),
            ("trace sideways\n".into(), "err proto usage: trace"),
            ("metrics\n".into(), "ok "),
            ("frobnicate\n".into(), "err proto unknown command"),
            ("quit\n".into(), "ok bye\n"),
        ];
        // A blank line renders nothing, so it costs no write either.
        let mut input = b"\n".to_vec();
        for (command, _) in &script {
            input.extend_from_slice(command);
        }
        input.extend_from_slice(b"stats\n"); // after `quit`: never answered

        let writes = converse(&state, &input, false);
        assert_eq!(text(&writes[0]), "ok granlog-serve\n");
        for (i, (command, want)) in script.iter().enumerate() {
            let got = writes.get(i + 1).map_or("<no write>", |w| text(w));
            assert!(
                got.starts_with(want) && got.ends_with('\n'),
                "{:?} answered {got:?}, expected one write starting {want:?}",
                String::from_utf8_lossy(command)
            );
        }
        assert_eq!(writes.len(), script.len() + 1, "one write per reply");

        // The registry saw what the sink saw.
        let obs = &state.obs;
        assert_eq!(obs.reply_frames.get(), writes.len() as u64);
        assert_eq!(obs.reply_writes.get(), writes.len() as u64);
        let bytes: usize = writes.iter().map(Vec::len).sum();
        assert_eq!(obs.reply_bytes.get(), bytes as u64);
        // Four answered queries (p, p(2), wide, count(3)) were attributed.
        assert_eq!(obs.queries.get(), 4);
        for stage in [
            &obs.stage_parse_ms,
            &obs.stage_lease_ms,
            &obs.stage_solve_ms,
            &obs.stage_render_ms,
            &obs.stage_write_ms,
        ] {
            assert_eq!(stage.count(), 4);
        }
    }

    /// Every way the loop refuses a peer and hangs up: greeting, then one
    /// write carrying the typed `err` line, then nothing.
    #[test]
    fn every_refusal_is_one_write_then_a_close() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let refusal = |tweak: &dyn Fn(&mut ServerState), script: &[u8], silent: bool| {
            let (mut state, _listener) = state();
            tweak(&mut state);
            let writes = converse(&state, script, silent);
            assert_eq!(writes.len(), 2, "greeting + refusal: {writes:?}");
            assert_eq!(state.obs.reply_writes.get(), 2);
            text(&writes[1]).to_string()
        };
        let stopped = |s: &mut ServerState| s.stop.store(true, Ordering::SeqCst);
        let no_patience = |s: &mut ServerState| {
            s.io_timeout = Duration::ZERO;
            s.idle_timeout = Some(Duration::ZERO);
        };
        let oversized = vec![b'a'; MAX_COMMAND_BYTES + 10];

        assert_eq!(
            refusal(&stopped, b"", true),
            "err shutdown server is shutting down\n"
        );
        // Drain discipline: a command read after the flag rose is refused.
        assert_eq!(
            refusal(&stopped, b"stats\nstats\n", false),
            "err shutdown server is shutting down\n"
        );
        assert!(refusal(&no_patience, b"", true).starts_with("err timeout idle "));
        assert!(refusal(&no_patience, b"quer", true).starts_with("err timeout torn frame: command"));
        assert!(refusal(&|_| {}, b"stats \xff\xfe\nstats\n", false)
            .starts_with("err proto command stream"));
        assert!(refusal(&|_| {}, &oversized, true).starts_with("err too-large command line"));
        assert!(refusal(&|_| {}, b"load 100\np(1).", false)
            .starts_with("err timeout torn frame: load payload"));
        assert!(refusal(&no_patience, b"load 100\np(1).", true)
            .starts_with("err timeout torn frame: load payload"));
    }

    #[test]
    fn shutdown_is_acknowledged_before_the_flag_rises() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let (state, _listener) = state();
        let writes = converse(&state, b"shutdown\nstats\n", false);
        assert_eq!(writes.len(), 2);
        assert_eq!(text(&writes[1]), "ok shutting-down\n");
        assert!(state.stop.load(Ordering::SeqCst));
    }

    /// The two writers outside the connection loop — the acceptor's shed
    /// refusal and the HTTP scrape response — are frames too.
    #[test]
    fn shed_and_scrape_replies_are_frames() {
        let (state, _listener) = state();
        let wire = Wire::default();
        shed(wire.clone(), &state.obs);
        let writes = wire.0.take();
        assert_eq!(writes.len(), 1);
        assert!(text(&writes[0]).starts_with("err overloaded "));

        let wire = Wire::default();
        http_scrape(wire.clone(), &state);
        let writes = wire.0.take();
        let response = writes.concat();
        assert!(text(&response).starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(text(&response).contains("\r\n\r\n# TYPE granlog_"));
        assert_eq!(writes.len(), response.len().div_ceil(FRAME_BYTES));
        assert_eq!(state.obs.reply_frames.get(), 2);
    }

    /// A reply of several buffers' worth streams: buffer-sized writes, the
    /// bytes identical to rendering the answer in one piece.
    #[test]
    fn a_reply_larger_than_the_buffer_streams_in_buffer_sized_writes() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let (state, _listener) = state();
        let facts: String = (0..6000).map(|i| format!("n({i}, item_{i}).\n")).collect();
        let script = format!("{}engine bottom-up\nquery n(K, V)\n", load(&facts));
        let writes = converse(&state, script.as_bytes(), false);

        // greeting, load, engine, then the streamed answer.
        let streamed = &writes[3..];
        let mut session = Session::new(Arc::clone(&state.cache), state.default_budget);
        session.load(&facts).expect("facts parse");
        session.set_engine(EngineKind::BottomUp);
        let reply = session.query("n(K, V)").expect("datalog answers");
        let mut whole = String::new();
        for (name, term) in &reply.bindings {
            whole.push_str(&format!("bind {name} = {term}\n"));
        }
        let d = reply.datalog.expect("bottom-up stats");
        whole.push_str(&format!(
            "done ok steps=0 heap=0 answers={} rounds={} facts={}\n",
            d.answers, d.rounds, d.facts
        ));
        assert_eq!(d.answers, 6000);
        assert_eq!(text(&streamed.concat()), whole);

        assert!(whole.len() > 5 * FRAME_BYTES, "{} bytes", whole.len());
        assert_eq!(streamed.len(), whole.len().div_ceil(FRAME_BYTES));
        let (last, full) = streamed.split_last().expect("several writes");
        assert!(full.iter().all(|w| w.len() == FRAME_BYTES));
        assert!(last.len() <= FRAME_BYTES);
        // Four frames; only the streamed one took more than one write.
        assert_eq!(state.obs.reply_frames.get(), 4);
        assert_eq!(state.obs.reply_writes.get(), 3 + streamed.len() as u64);
    }
}
