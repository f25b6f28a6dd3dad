//! The TCP front end: thread-per-connection sessions over a shared
//! [`TemplateCache`], speaking a small line protocol.
//!
//! The protocol itself — commands, replies, `err` codes — is documented
//! and parsed in `wire`; this module reads, dispatches and frames.
//!
//! # Framing
//!
//! Handlers render the *whole* reply into the connection's `frame::Frame`
//! through `&mut impl io::Write`, and the connection loop sends it with one
//! `write_all` (see `frame`). Input is bounded too: a command line that
//! passes 1 MiB without a newline is refused with `err too-large` and the
//! connection closed.
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
use crate::session::{Session, SessionBudget};
use crate::wire::{self, write_err, Command, ServerStats};
use crate::ServeError;
use granlog_engine::{BudgetKind, MachineConfig};
use granlog_store::{ProgramStore, StoreConfig, StoreError, StoreObs};
use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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
    /// The serve and metrics listeners' bound addresses: where stopping
    /// nudges each out of its blocking `accept()`.
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
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

impl ServerState {
    /// Raises the stop flag and nudges both listeners out of `accept()`.
    fn halt(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for addr in std::iter::once(self.addr).chain(self.metrics_addr) {
            let _ = TcpStream::connect(addr);
        }
    }

    /// The server's figures, as `stats` and the scrape report them.
    fn stats(&self) -> ServerStats {
        let cache = self.cache.stats();
        let store = self.store.as_ref().map(ProgramStore::stats);
        let store = store.unwrap_or_default();
        let ms = |age: Option<Duration>| age.map_or(0, |a| a.as_millis() as u64);
        ServerStats {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            entries: cache.entries as u64,
            sessions: self.active_sessions.load(Ordering::SeqCst),
            quarantined: cache.quarantined,
            retired: cache.retired,
            lease_leaked: cache.leases_active,
            shed: self.shed.load(Ordering::Relaxed),
            recovered: self.recovered,
            stored: store.programs as u64,
            wal_bytes: store.wal_bytes,
            wal_records: store.wal_records,
            unsynced: store.unsynced_records,
            snapshot_age_ms: ms(store.snapshot_age),
            last_fsync_ms: ms(store.last_fsync_age),
            uptime_ms: self.obs.uptime_ms(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            extra: Vec::new(),
        }
    }

    /// Samples the scrape-time gauges and renders the registry.
    fn scrape(&self) -> String {
        self.obs.scrape(&self.stats(), self.store.is_some())
    }
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
        let (listener, addr) = bind(&config.addr)?;
        // Bind the scrape listener before spawning anything: a bad metrics
        // address is a boot error, same as a bad serve address.
        let metrics_listener = config.metrics_addr.as_deref().map(bind).transpose()?;
        let state = Arc::new(ServerState {
            addr,
            metrics_addr: metrics_listener.as_ref().map(|(_, addr)| *addr),
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
        let metrics = metrics_listener.map(|(listener, _)| {
            let metrics_state = Arc::clone(&state);
            std::thread::spawn(move || metrics_loop(listener, &metrics_state))
        });
        Ok(ServerHandle {
            state,
            accept: Some(accept),
            metrics,
        })
    }
}

/// Handle to a running server: its bound address and its lifecycle.
pub struct ServerHandle {
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    metrics: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (with the real port when the
    /// config asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The address of the Prometheus scrape listener, when
    /// [`ServeConfig::metrics_addr`] configured one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.state.metrics_addr
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
        self.join(false);
    }

    /// Stops accepting connections, lets in-flight commands finish their
    /// reply, and waits for the accept loop and every session thread.
    pub fn shutdown(mut self) {
        self.join(true);
    }

    /// Joins the accept loop, then the metrics listener. With `stop`, first
    /// raises the stop flag and nudges both out of their blocking
    /// `accept()`; without it, both return only once a client's `shutdown`
    /// did the same.
    fn join(&mut self, stop: bool) {
        if stop && self.accept.is_some() {
            self.state.halt();
        }
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
        self.join(true);
    }
}

/// Binds a listener to `addr`, a boot error when it cannot, and reports
/// the address it bound (with the real port when `addr` asked for port 0).
fn bind(addr: &str) -> Result<(TcpListener, SocketAddr), BootError> {
    let err = |source| BootError::Bind {
        addr: addr.to_string(),
        source,
    };
    let listener = TcpListener::bind(addr).map_err(err)?;
    let bound = listener.local_addr().map_err(err)?;
    Ok((listener, bound))
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>, max_conns: usize) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Drop finished session threads' handles so a long-lived server's
        // list tracks live connections, not its whole history.
        sessions.retain(|handle| !handle.is_finished());
        // Shed past the connection cap: a typed one-line refusal is honest
        // load feedback; an unbounded thread pile-up is an outage.
        if max_conns > 0 && state.active_sessions.load(Ordering::SeqCst) >= max_conns as u64 {
            state.shed.fetch_add(1, Ordering::Relaxed);
            shed(stream, &state.obs);
            continue;
        }
        state.active_sessions.fetch_add(1, Ordering::SeqCst);
        let session_state = Arc::clone(&state);
        sessions.push(std::thread::spawn(move || {
            let _ = serve_connection(stream, &session_state);
            session_state.active_sessions.fetch_sub(1, Ordering::SeqCst);
        }));
    }
    for handle in sessions {
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

/// What a ticked read waits for: a command line, up to its newline and at
/// most [`MAX_COMMAND_BYTES`], or exactly this many bytes of payload.
#[derive(Clone, Copy)]
enum Want {
    Line,
    Bytes(usize),
}

/// How a ticked read ended.
enum ReadStatus {
    /// The frame is complete. A command line may lack its newline when the
    /// peer hung up right after it; the next read sees the clean EOF.
    Done,
    /// Clean EOF from the peer before a command line started.
    Eof,
    /// The server's stop flag rose while waiting.
    Stopped,
    /// No input at all for longer than the idle timeout.
    Idle,
    /// A started frame stalled past the io timeout, or a payload ended
    /// before its length.
    Torn,
    /// The line passed [`MAX_COMMAND_BYTES`] without a newline.
    TooLong,
}

/// Reads one frame into `buf` under the tick discipline: the socket's
/// short read timeout brings the loop back every tick to re-check the stop
/// flag and the idle and torn-frame clocks. Bytes read before a timeout
/// stay in `buf`, so a torn frame accumulates across ticks instead of
/// being dropped. A payload is always a started frame: it is torn, never
/// idle, because its line declared a length it is not delivering.
fn read_ticked(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    want: Want,
    state: &ServerState,
) -> io::Result<ReadStatus> {
    buf.clear();
    let started = Instant::now();
    loop {
        // Each read returns early only at the end of the input or of its
        // room. A line gets one byte past the cap, enough to tell "too
        // long" from "exactly at the cap", so a peer that never sends a
        // newline cannot make `buf` grow beyond that.
        let read = match want {
            Want::Line => {
                if granlog_fault::should_fail("serve.sock.read") {
                    return Err(injected_io_fault("serve.sock.read"));
                }
                let room = MAX_COMMAND_BYTES + 1 - buf.len();
                reader.by_ref().take(room as u64).read_until(b'\n', buf)
            }
            Want::Bytes(n) => reader
                .by_ref()
                .take((n - buf.len()) as u64)
                .read_to_end(buf),
        };
        match read {
            Ok(_) => {
                return Ok(match want {
                    Want::Line if buf.ends_with(b"\n") => ReadStatus::Done,
                    Want::Line if buf.len() > MAX_COMMAND_BYTES => ReadStatus::TooLong,
                    Want::Line if buf.is_empty() => ReadStatus::Eof,
                    Want::Bytes(n) if buf.len() < n => ReadStatus::Torn,
                    Want::Line | Want::Bytes(_) => ReadStatus::Done,
                })
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if state.stop.load(Ordering::SeqCst) {
                    return Ok(ReadStatus::Stopped);
                }
                if matches!(want, Want::Bytes(_)) || !buf.is_empty() {
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

/// The acceptor's refusal past the connection cap: one `err overloaded`
/// frame instead of the greeting, then the socket is dropped.
fn shed(sink: impl Write, obs: &ServeObs) {
    let mut frame = Frame::new(sink, obs);
    let _ = write_err(&mut frame, &ServeError::Overloaded).and_then(|()| frame.finish());
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
    writeln!(frame, "{}", wire::GREETING)?;
    frame.finish()?;
    let mut session = Session::new(Arc::clone(&state.cache), state.default_budget);
    let mut line = Vec::new();
    loop {
        let text = match read_ticked(reader, &mut line, Want::Line, state)? {
            // Bytes that are not UTF-8 are not a command stream.
            ReadStatus::Done => std::str::from_utf8(&line)
                .map_err(|_| ServeError::Proto("command stream is not valid utf-8".into())),
            ReadStatus::Eof => return Ok(()), // client hung up
            ReadStatus::Stopped => Err(ServeError::ShuttingDown),
            ReadStatus::Idle => Err(ServeError::Timeout("idle for longer than the idle timeout")),
            ReadStatus::Torn => Err(ServeError::Timeout("torn frame: command stalled mid-line")),
            ReadStatus::TooLong => Err(ServeError::TooLarge(format!(
                "command line longer than {MAX_COMMAND_BYTES} bytes"
            ))),
        };
        // Drain discipline: a command *read* after the stop flag rose is
        // refused — only commands already dispatched finish their reply.
        let text = match text {
            Ok(_) if state.stop.load(Ordering::SeqCst) => {
                return write_err(frame, &ServeError::ShuttingDown)
            }
            Ok(text) => text,
            Err(refusal) => return write_err(frame, &refusal),
        };
        // An injected write fault tears the connection between a command
        // and its reply — the client sees an abandoned frame.
        if granlog_fault::should_fail("serve.sock.write") {
            return Err(injected_io_fault("serve.sock.write"));
        }
        let command = Command::parse(text);
        let mut answered = false;
        match command {
            Err(ref e) => write_err(frame, e)?,
            Ok(Command::Load(nbytes)) => cmd_load(reader, frame, &mut session, state, nbytes)?,
            Ok(Command::Query(goal)) => answered = cmd_query(frame, &mut session, state, goal)?,
            Ok(Command::Budget(kind, limit)) => cmd_budget(frame, &mut session, kind, limit)?,
            Ok(Command::Engine(engine)) => {
                session.set_engine(engine);
                writeln!(frame, "ok engine={}", wire::engine_name(engine))?;
            }
            Ok(Command::Stats) => wire::write_stats(frame, &state.stats(), state.store.is_some())?,
            Ok(Command::Metrics) => wire::write_counted(frame, &state.scrape())?,
            // The trace ring is **server-global**: a server diagnostic, not
            // a per-tenant stream. `dump` drains it.
            Ok(Command::Trace(on)) => {
                state.obs.tracer.set_enabled(on);
                writeln!(frame, "ok trace={}", if on { "on" } else { "off" })?;
            }
            Ok(Command::TraceDump) => wire::write_counted(frame, &state.obs.tracer.jsonl(true))?,
            Ok(Command::Quit) => writeln!(frame, "ok bye")?,
            Ok(Command::Shutdown) => writeln!(frame, "ok shutting-down")?,
            Ok(Command::Blank) => {}
        }
        let flushing = Instant::now();
        frame.finish()?;
        match command {
            // An answer's flush is its query's `write` stage.
            Ok(Command::Query(_)) if answered => {
                let write_ms = &state.obs.stage_write_ms;
                write_ms.observe_duration_ms(flushing.elapsed());
            }
            Ok(Command::Quit) => return Ok(()),
            // The stop flag rises once the acknowledgement is out.
            Ok(Command::Shutdown) => {
                state.halt();
                return Ok(());
            }
            _ => {}
        }
    }
}

fn cmd_load(
    reader: &mut impl BufRead,
    out: &mut impl Write,
    session: &mut Session,
    state: &ServerState,
    nbytes: u64,
) -> io::Result<()> {
    if nbytes > MAX_PROGRAM_BYTES {
        let message = format!("program larger than {MAX_PROGRAM_BYTES} bytes");
        return write_err(out, &ServeError::TooLarge(message));
    }
    let mut payload = Vec::with_capacity(nbytes as usize);
    let read = read_ticked(reader, &mut payload, Want::Bytes(nbytes as usize), state)?;
    if !matches!(read, ReadStatus::Done) {
        let torn = ServeError::Timeout("torn frame: load payload truncated");
        let _ = write_err(out, &torn);
        // The stream position is now mid-payload garbage; the only safe
        // continuation is none.
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "load payload truncated",
        ));
    }
    let Ok(source) = String::from_utf8(payload) else {
        return write_err(out, &ServeError::Proto("program is not valid utf-8".into()));
    };
    let reply = match session.load(&source) {
        Ok(reply) => reply,
        Err(e) => return write_err(out, &e),
    };
    // Journal *after* the parse succeeded, keyed by the entry's normalized
    // text — recovery dedups exactly like the live cache. An append failure
    // is surfaced: acking a load the WAL did not accept would break the
    // durability contract.
    if let Some(store) = &state.store {
        let entry = session.entry().expect("load just succeeded");
        if let Err(e) = store.record_load(entry.normalized_text(), &source) {
            let err = match e {
                StoreError::TooLarge { .. } => ServeError::TooLarge(e.to_string()),
                e => ServeError::Store(e.to_string()),
            };
            return write_err(out, &err);
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
    wire::write_loaded(out, &reply)
}

/// Runs a query and renders its answer or its `err` line. Returns whether
/// it was answered.
fn cmd_query(
    out: &mut impl Write,
    session: &mut Session,
    state: &ServerState,
    goal: &str,
) -> io::Result<bool> {
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
            wire::write_answer(out, &reply)?;
            Ok(true)
        }
        Err(e) => {
            obs.query_errors.inc();
            if obs.tracer.is_enabled() {
                obs.tracer
                    .emit("query_end", vec![("error", e.code().into())]);
            }
            write_err(out, &e)?;
            Ok(false)
        }
    }
}

/// Sets one of the session's budgets; `None` lifts it.
fn cmd_budget(
    out: &mut impl Write,
    session: &mut Session,
    kind: BudgetKind,
    limit: Option<u64>,
) -> io::Result<()> {
    let mut budget = session.budget();
    match kind {
        BudgetKind::Steps => budget.steps = limit,
        BudgetKind::HeapCells => {
            budget.heap_cells = limit.map(|n| usize::try_from(n).unwrap_or(usize::MAX))
        }
        BudgetKind::Wall => budget.wall = limit.map(Duration::from_millis),
    }
    session.set_budget(budget);
    writeln!(out, "ok")
}

/// The `--metrics-addr` listener: minimal HTTP/1.0, one response per
/// connection, every request answered with the current exposition. It
/// blocks in `accept()` until a scrape arrives or stopping nudges it.
fn metrics_loop(listener: TcpListener, state: &ServerState) {
    for stream in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // A short timeout: we only need to consume the request line.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let mut discard = [0u8; 1024];
        let _ = stream.read(&mut discard);
        http_scrape(stream, state);
    }
}

/// One HTTP/1.0 response carrying the current exposition, as one frame.
fn http_scrape(sink: impl Write, state: &ServerState) {
    let body = state.scrape();
    let mut frame = Frame::new(sink, &state.obs);
    let _ = write!(
        frame,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
    .and_then(|()| frame.finish());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAME_BYTES;
    use crate::session::EngineKind;
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
            metrics_addr: None,
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
