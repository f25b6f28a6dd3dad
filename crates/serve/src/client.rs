//! A scripted client for the serve protocol, used by the integration
//! tests and by the serve workloads of `benchmark/`. One blocking call per
//! protocol command; replies are parsed into typed results. Like the
//! server's replies, every command is rendered whole into one reusable
//! buffer and leaves in a single write (a `load` header together with its
//! payload).

use crate::wire::{self, protocol_err, Command};
pub use crate::wire::{ClientReply, ServerStats};
use granlog_engine::BudgetKind;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connection to a running serve instance.
///
/// Every method fails with an I/O error when the connection breaks or a
/// reply does not follow the protocol. A command the server refuses with
/// an `err` line is an error too, except where the method returns the
/// refusal's text as `Ok(Err(..))`.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The command being rendered; reused across commands.
    out: Vec<u8>,
}

impl ServeClient {
    /// Connects and consumes the greeting line. A server at its connection
    /// cap refuses with `err overloaded ...`, surfaced as
    /// [`io::ErrorKind::ConnectionRefused`] so callers (and
    /// [`ServeClient::connect_with_retry`]) can treat it as retryable.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?; // every command is one write (see `send`)
        let mut client = ServeClient {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            out: Vec::new(),
        };
        let greeting = client.read_line()?;
        if let Some(refusal) = greeting.strip_prefix("err overloaded") {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("server shed this connection:{refusal}"),
            ));
        }
        if !greeting.starts_with(wire::GREETING) {
            return Err(protocol_err(format!("unexpected greeting: {greeting:?}")));
        }
        Ok(client)
    }

    /// [`ServeClient::connect`] with bounded retry: on a refused connection
    /// (TCP refusal or an `err overloaded` shed) sleeps and tries again, up
    /// to `attempts` total attempts, then returns the last attempt's error.
    /// Any other error returns at once.
    ///
    /// The sleep follows *decorrelated jitter*: each wait is drawn uniformly
    /// from `[backoff, prev * 3]`, capped at `backoff * 64`. A shed is by
    /// definition a moment when many clients hit the server at once;
    /// deterministic doubling would march the whole cohort back in
    /// lock-step waves, while jitter spreads the retries out.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Copy,
        attempts: u32,
        backoff: Duration,
    ) -> io::Result<ServeClient> {
        let base = backoff.max(Duration::from_micros(1));
        let cap = base.saturating_mul(64);
        let mut prev = base;
        let mut tries = 0;
        loop {
            tries += 1;
            match ServeClient::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused && tries < attempts => {
                    let ceiling = prev.saturating_mul(3).min(cap);
                    prev = uniform_between(base, ceiling);
                    std::thread::sleep(prev);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Uploads program text. Returns `(program hash, clause count,
    /// cache hit)` on success, the server's error message otherwise.
    pub fn load(&mut self, source: &str) -> io::Result<Result<(String, u64, bool), String>> {
        let nbytes = Command::Load(source.len() as u64);
        self.send(format_args!("{nbytes}\n{source}"))?;
        let line = self.read_line()?;
        match line.strip_prefix("err ") {
            Some(err) => Ok(Err(err.to_string())),
            None => wire::parse_loaded(&line).map(Ok),
        }
    }

    /// Runs a goal. Returns the parsed reply on success, the server's error
    /// message (e.g. a budget violation) otherwise.
    pub fn query(&mut self, goal: &str) -> io::Result<Result<ClientReply, String>> {
        let mut line = self.command(Command::Query(goal))?;
        let mut bindings = Vec::new();
        loop {
            if let Some(err) = line.strip_prefix("err ") {
                return Ok(Err(err.to_string()));
            }
            match wire::parse_bind(&line) {
                Some(bind) => bindings.push(bind?),
                None => return wire::parse_done(&line, bindings).map(Ok),
            }
            line = self.read_line()?;
        }
    }

    /// Sets one of the session's budgets (`None` = unlimited): steps in
    /// head attempts, heap in cells, wall-clock time in milliseconds.
    pub fn budget(&mut self, kind: BudgetKind, limit: Option<u64>) -> io::Result<()> {
        self.simple_command(Command::Budget(kind, limit))
    }

    /// Selects the evaluation engine for subsequent queries (`"sld"` or
    /// `"bottom-up"`). Returns the server's error message if it rejects the
    /// name. The name is sent as given, so a test can send a bad one.
    pub fn engine(&mut self, name: &str) -> io::Result<Result<(), String>> {
        self.send(format_args!("engine {name}\n"))?;
        let line = self.read_line()?;
        match line.strip_prefix("err ") {
            Some(err) => Ok(Err(err.to_string())),
            None if line.starts_with("ok") => Ok(Ok(())),
            None => Err(protocol_err(format!("unexpected engine ack: {line:?}"))),
        }
    }

    /// Fetches the server's figures: cache counters, live session count,
    /// the fault-isolation gauges and, with a store, its durability.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        wire::parse_stats(&self.command(Command::Stats)?)
    }

    /// Fetches the server's Prometheus text exposition (the `metrics`
    /// command's byte-counted body).
    pub fn metrics(&mut self) -> io::Result<String> {
        self.counted_body(Command::Metrics)
    }

    /// Toggles the server-global trace ring.
    pub fn trace(&mut self, on: bool) -> io::Result<()> {
        self.simple_command(Command::Trace(on))
    }

    /// Drains the server's trace ring as JSONL (possibly empty).
    pub fn trace_dump(&mut self) -> io::Result<String> {
        self.counted_body(Command::TraceDump)
    }

    /// Sends `command`, then reads an `ok <nbytes>` header and exactly
    /// that many body bytes.
    fn counted_body(&mut self, command: Command<'_>) -> io::Result<String> {
        let line = self.command(command)?;
        if let Some(err) = line.strip_prefix("err ") {
            return Err(protocol_err(format!("server refused: {err}")));
        }
        let nbytes: usize = line
            .strip_prefix("ok ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| protocol_err(format!("expected `ok <nbytes>`, got {line:?}")))?;
        let mut body = vec![0u8; nbytes];
        io::Read::read_exact(&mut self.reader, &mut body)?;
        String::from_utf8(body).map_err(|_| protocol_err("body is not valid utf-8".to_string()))
    }

    /// Sends a full `query` command, flushes it, then drops the connection
    /// without reading the reply — a client that died mid-query. Chaos-test
    /// helper: the server must finish the abandoned query, return its
    /// machine lease and reap the session.
    pub fn kill_after_query(mut self, goal: &str) -> io::Result<()> {
        self.send(format_args!("{}\n", Command::Query(goal)))
    }

    /// Writes a partial command — no trailing newline — then drops the
    /// connection, leaving a torn frame on the wire. Chaos-test helper: the
    /// server must detect the cut (EOF or torn-frame timeout) and reap the
    /// session without leaking anything.
    pub fn kill_mid_command(mut self, partial: &str) -> io::Result<()> {
        self.send(format_args!("{partial}"))
    }

    /// Ends the session politely.
    pub fn quit(mut self) -> io::Result<()> {
        self.simple_command(Command::Quit)
    }

    /// Asks the server to stop accepting connections, then disconnects.
    pub fn shutdown_server(mut self) -> io::Result<()> {
        self.simple_command(Command::Shutdown)
    }

    /// Sends `command` and expects an `ok` line back.
    fn simple_command(&mut self, command: Command<'_>) -> io::Result<()> {
        let line = self.command(command)?;
        if line.starts_with("ok") {
            return Ok(());
        }
        Err(protocol_err(format!(
            "server rejected `{command}`: {line:?}"
        )))
    }

    /// Sends `command` and reads the first line of its reply.
    fn command(&mut self, command: Command<'_>) -> io::Result<String> {
        self.send(format_args!("{command}\n"))?;
        self.read_line()
    }

    /// Renders one whole command into the reusable buffer and sends it in
    /// a single write.
    fn send(&mut self, command: fmt::Arguments<'_>) -> io::Result<()> {
        self.out.clear();
        self.out.write_fmt(command)?;
        self.writer.write_all(&self.out)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }
}

/// A duration drawn uniformly from `[lo, hi]` (microsecond granularity).
/// The draw hashes nothing under a fresh [`RandomState`], whose keys differ
/// per process and per call, so concurrent clients draw different jitter
/// without this crate growing an RNG dependency.
fn uniform_between(lo: Duration, hi: Duration) -> Duration {
    let lo_us = lo.as_micros() as u64;
    let span = (hi.as_micros() as u64).saturating_sub(lo_us) + 1;
    Duration::from_micros(lo_us + RandomState::new().build_hasher().finish() % span)
}
