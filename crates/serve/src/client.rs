//! A scripted client for the serve protocol, used by the integration
//! tests and by the serve workloads of `benchmark/`. One blocking call per
//! protocol command; replies are parsed into typed results. Like the
//! server's replies, every command is rendered whole into one reusable
//! buffer and leaves in a single write (a `load` header together with its
//! payload).

use crate::session::DatalogReplyStats;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Parsed reply to a `query` command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReply {
    /// Whether the goal succeeded.
    pub succeeded: bool,
    /// `(name, rendered term)` binding lines, in reply order. Under the
    /// bottom-up engine there is one `bind` line per variable per answer,
    /// so names repeat once per answer.
    pub bindings: Vec<(String, String)>,
    /// Head attempts the server reported.
    pub steps: u64,
    /// Arena high-water mark the server reported, in cells.
    pub heap_high_water: u64,
    /// Always 0: the server no longer reports a `slices=` field, and the
    /// field stays only for the readers that still sum it.
    pub slices: u64,
    /// Fixpoint statistics (`answers=`/`rounds=`/`facts=` fields) when the
    /// bottom-up engine answered; `None` for SLD replies.
    pub datalog: Option<DatalogReplyStats>,
}

/// Parsed reply to a `stats` command: cache counters plus the server's
/// session and fault-isolation gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Cache loads answered by an existing entry.
    pub hits: u64,
    /// Cache loads that compiled a new entry.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: u64,
    /// Connections currently being served.
    pub sessions: u64,
    /// Machines quarantined after a panic or injected fault.
    pub quarantined: u64,
    /// Machines retired by the arena high-water policy.
    pub retired: u64,
    /// Machine leases currently checked out — 0 on a quiescent server; a
    /// stuck positive value means a lease leaked.
    pub lease_leaked: u64,
    /// Connections shed at the acceptor because the server was at its
    /// connection cap.
    pub shed: u64,
    /// Programs replayed from the durable store at boot (0 when the server
    /// runs without a store).
    pub recovered: u64,
    /// Programs currently in the durable store.
    pub stored: u64,
    /// Bytes of valid records in the server's WAL.
    pub wal_bytes: u64,
    /// Valid records in the server's WAL.
    pub wal_records: u64,
    /// WAL appends not yet fsynced.
    pub unsynced: u64,
    /// Age of the server's snapshot file in ms (0 = none or just written).
    pub snapshot_age_ms: u64,
    /// Time since the server's last WAL fsync in ms (0 = never or just now).
    pub last_fsync_ms: u64,
    /// Milliseconds the server has been up.
    pub uptime_ms: u64,
    /// The server's build version (`version=` field; empty from a server
    /// predating the field).
    pub version: String,
    /// Every `key=value` field this client did not recognize, in reply
    /// order. A server newer than this client surfaces its additions here
    /// instead of dropping them silently.
    pub extra: Vec<(String, String)>,
}

/// A connection to a running serve instance.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The command being rendered; reused across commands.
    out: Vec<u8>,
}

impl ServeClient {
    /// Connects and consumes the greeting line.
    ///
    /// # Errors
    ///
    /// Connection failures, or a malformed greeting. A server at its
    /// connection cap refuses with `err overloaded ...`, surfaced as
    /// [`io::ErrorKind::ConnectionRefused`] so callers (and
    /// [`ServeClient::connect_with_retry`]) can treat it as retryable.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?; // every command is one write (see `send`)
        let mut reader = BufReader::new(writer.try_clone()?);
        let mut greeting = String::new();
        reader.read_line(&mut greeting)?;
        if let Some(refusal) = greeting.strip_prefix("err overloaded") {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("server shed this connection:{}", refusal.trim_end()),
            ));
        }
        if !greeting.starts_with("ok granlog-serve") {
            return Err(protocol_err(format!("unexpected greeting: {greeting:?}")));
        }
        Ok(ServeClient {
            reader,
            writer,
            out: Vec::new(),
        })
    }

    /// [`ServeClient::connect`] with bounded retry: on a refused connection
    /// (TCP refusal or an `err overloaded` shed) sleeps and tries again, up
    /// to `attempts` total attempts.
    ///
    /// The sleep follows *decorrelated jitter*: each wait is drawn uniformly
    /// from `[backoff, prev * 3]`, capped at `backoff * 64`. A shed is by
    /// definition a moment when many clients hit the server at once;
    /// deterministic doubling would march the whole cohort back in
    /// lock-step waves, while jitter spreads the retries out.
    ///
    /// # Errors
    ///
    /// The last attempt's error once the budget is exhausted, or
    /// immediately for errors that are not refusals.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Copy,
        attempts: u32,
        backoff: std::time::Duration,
    ) -> io::Result<ServeClient> {
        let base = backoff.max(std::time::Duration::from_micros(1));
        let cap = base.saturating_mul(64);
        let mut rng = splitmix_seed();
        let mut prev = base;
        let mut tries = 0;
        loop {
            tries += 1;
            match ServeClient::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused && tries < attempts => {
                    let ceiling = prev.saturating_mul(3).min(cap);
                    prev = uniform_between(&mut rng, base, ceiling);
                    std::thread::sleep(prev);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Uploads program text. Returns `(program hash, clause count,
    /// cache hit)` on success, the server's error message otherwise.
    ///
    /// # Errors
    ///
    /// I/O failures, or a reply that does not follow the protocol.
    pub fn load(&mut self, source: &str) -> io::Result<Result<(String, u64, bool), String>> {
        self.send(format_args!("load {}\n{}", source.len(), source))?;
        let line = self.read_line()?;
        if let Some(err) = line.strip_prefix("err ") {
            return Ok(Err(err.to_string()));
        }
        let fields = parse_fields(&line, "ok")?;
        Ok(Ok((
            field(&fields, "program")?.to_string(),
            field(&fields, "clauses")?
                .parse()
                .map_err(|_| protocol_err(format!("bad clause count in {line:?}")))?,
            field(&fields, "cache")? == "hit",
        )))
    }

    /// Runs a goal. Returns the parsed reply on success, the server's error
    /// message (e.g. a budget violation) otherwise.
    ///
    /// # Errors
    ///
    /// I/O failures, or a reply that does not follow the protocol.
    pub fn query(&mut self, goal: &str) -> io::Result<Result<ClientReply, String>> {
        self.send(format_args!("query {goal}\n"))?;
        let mut bindings = Vec::new();
        loop {
            let line = self.read_line()?;
            if let Some(bind) = line.strip_prefix("bind ") {
                let (name, term) = bind
                    .split_once(" = ")
                    .ok_or_else(|| protocol_err(format!("bad bind line: {line:?}")))?;
                bindings.push((name.to_string(), term.to_string()));
            } else if let Some(err) = line.strip_prefix("err ") {
                return Ok(Err(err.to_string()));
            } else if let Some(done) = line.strip_prefix("done ") {
                let (status, rest) = done
                    .split_once(' ')
                    .ok_or_else(|| protocol_err(format!("bad done line: {line:?}")))?;
                let fields = parse_fields(rest, "")?;
                let num = |key: &str| -> io::Result<u64> {
                    field(&fields, key)?
                        .parse()
                        .map_err(|_| protocol_err(format!("bad {key} in {line:?}")))
                };
                let datalog = if fields.iter().any(|(k, _)| *k == "answers") {
                    Some(DatalogReplyStats {
                        answers: num("answers")?,
                        rounds: num("rounds")?,
                        facts: num("facts")?,
                    })
                } else {
                    None
                };
                return Ok(Ok(ClientReply {
                    succeeded: status == "ok",
                    bindings,
                    steps: num("steps")?,
                    heap_high_water: num("heap")?,
                    slices: 0,
                    datalog,
                }));
            } else {
                return Err(protocol_err(format!("unexpected reply line: {line:?}")));
            }
        }
    }

    /// Sets the session step budget (`None` = unlimited).
    ///
    /// # Errors
    ///
    /// I/O failures or a server-side rejection.
    pub fn budget_steps(&mut self, steps: Option<u64>) -> io::Result<()> {
        match steps {
            Some(n) => self.simple_command(&format!("budget steps {n}")),
            None => self.simple_command("budget steps off"),
        }
    }

    /// Sets the session wall-clock budget in milliseconds (`None` =
    /// unlimited).
    ///
    /// # Errors
    ///
    /// I/O failures or a server-side rejection.
    pub fn budget_wall(&mut self, ms: Option<u64>) -> io::Result<()> {
        match ms {
            Some(n) => self.simple_command(&format!("budget wall {n}")),
            None => self.simple_command("budget wall off"),
        }
    }

    /// Selects the evaluation engine for subsequent queries (`"sld"` or
    /// `"bottom-up"`). Returns the server's error message if it rejects the
    /// name.
    ///
    /// # Errors
    ///
    /// I/O failures, or a reply that does not follow the protocol.
    pub fn engine(&mut self, name: &str) -> io::Result<Result<(), String>> {
        self.send(format_args!("engine {name}\n"))?;
        let line = self.read_line()?;
        if let Some(err) = line.strip_prefix("err ") {
            return Ok(Err(err.to_string()));
        }
        if line.starts_with("ok") {
            Ok(Ok(()))
        } else {
            Err(protocol_err(format!("unexpected engine ack: {line:?}")))
        }
    }

    /// Fetches server stats: cache counters, live session count and the
    /// fault-isolation gauges.
    ///
    /// # Errors
    ///
    /// I/O failures, or a reply that does not follow the protocol.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        self.send(format_args!("stats\n"))?;
        let line = self.read_line()?;
        let fields = parse_fields(&line, "ok")?;
        let num = |key: &str| -> io::Result<u64> {
            field(&fields, key)?
                .parse()
                .map_err(|_| protocol_err(format!("bad {key} in {line:?}")))
        };
        // Durability fields only appear when the server runs with a store;
        // their absence reads as 0 so this client speaks to both.
        let num_or = |key: &str| -> io::Result<u64> {
            match field(&fields, key) {
                Ok(v) => v
                    .parse()
                    .map_err(|_| protocol_err(format!("bad {key} in {line:?}"))),
                Err(_) => Ok(0),
            }
        };
        const KNOWN: &[&str] = &[
            "hits",
            "misses",
            "evictions",
            "entries",
            "sessions",
            "quarantined",
            "retired",
            "leases",
            "shed",
            "recovered",
            "stored",
            "wal_bytes",
            "wal_records",
            "unsynced",
            "snapshot_age_ms",
            "last_fsync_ms",
            "uptime_ms",
            "version",
        ];
        Ok(ServerStats {
            hits: num("hits")?,
            misses: num("misses")?,
            evictions: num("evictions")?,
            entries: num("entries")?,
            sessions: num("sessions")?,
            quarantined: num("quarantined")?,
            retired: num("retired")?,
            lease_leaked: num("leases")?,
            shed: num("shed")?,
            recovered: num_or("recovered")?,
            stored: num_or("stored")?,
            wal_bytes: num_or("wal_bytes")?,
            wal_records: num_or("wal_records")?,
            unsynced: num_or("unsynced")?,
            snapshot_age_ms: num_or("snapshot_age_ms")?,
            last_fsync_ms: num_or("last_fsync_ms")?,
            uptime_ms: num_or("uptime_ms")?,
            version: field(&fields, "version").map_or_else(|_| String::new(), str::to_string),
            extra: fields
                .iter()
                .filter(|(k, _)| !KNOWN.contains(k))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        })
    }

    /// Fetches the server's Prometheus text exposition (the `metrics`
    /// command's byte-counted body).
    ///
    /// # Errors
    ///
    /// I/O failures, or a reply that does not follow the protocol.
    pub fn metrics(&mut self) -> io::Result<String> {
        self.send(format_args!("metrics\n"))?;
        self.read_counted_body()
    }

    /// Toggles the server-global trace ring.
    ///
    /// # Errors
    ///
    /// I/O failures or a server-side rejection.
    pub fn trace(&mut self, on: bool) -> io::Result<()> {
        self.simple_command(if on { "trace on" } else { "trace off" })
    }

    /// Drains the server's trace ring as JSONL (possibly empty).
    ///
    /// # Errors
    ///
    /// I/O failures, or a reply that does not follow the protocol.
    pub fn trace_dump(&mut self) -> io::Result<String> {
        self.send(format_args!("trace dump\n"))?;
        self.read_counted_body()
    }

    /// Reads an `ok <nbytes>` header then exactly that many body bytes.
    fn read_counted_body(&mut self) -> io::Result<String> {
        let line = self.read_line()?;
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
    ///
    /// # Errors
    ///
    /// I/O failures writing the doomed command.
    pub fn kill_after_query(mut self, goal: &str) -> io::Result<()> {
        self.send(format_args!("query {goal}\n"))
    }

    /// Writes a partial command — no trailing newline — then drops the
    /// connection, leaving a torn frame on the wire. Chaos-test helper: the
    /// server must detect the cut (EOF or torn-frame timeout) and reap the
    /// session without leaking anything.
    ///
    /// # Errors
    ///
    /// I/O failures writing the fragment.
    pub fn kill_mid_command(mut self, partial: &str) -> io::Result<()> {
        self.send(format_args!("{partial}"))
    }

    /// Ends the session politely.
    ///
    /// # Errors
    ///
    /// I/O failures or a malformed farewell.
    pub fn quit(mut self) -> io::Result<()> {
        self.send(format_args!("quit\n"))?;
        let line = self.read_line()?;
        if line.starts_with("ok") {
            Ok(())
        } else {
            Err(protocol_err(format!("unexpected farewell: {line:?}")))
        }
    }

    /// Asks the server to stop accepting connections, then disconnects.
    ///
    /// # Errors
    ///
    /// I/O failures or a malformed acknowledgement.
    pub fn shutdown_server(mut self) -> io::Result<()> {
        self.send(format_args!("shutdown\n"))?;
        let line = self.read_line()?;
        if line.starts_with("ok") {
            Ok(())
        } else {
            Err(protocol_err(format!("unexpected shutdown ack: {line:?}")))
        }
    }

    fn simple_command(&mut self, cmd: &str) -> io::Result<()> {
        self.send(format_args!("{cmd}\n"))?;
        let line = self.read_line()?;
        if line.starts_with("ok") {
            Ok(())
        } else {
            Err(protocol_err(format!("server rejected `{cmd}`: {line:?}")))
        }
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

fn protocol_err(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// A per-call splitmix64 state seeded from [`std::collections::hash_map::RandomState`]
/// (the stdlib's per-process random keys), so concurrent clients draw
/// different jitter without this crate growing an RNG dependency.
fn splitmix_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
    hasher.write_u64(0x9e37_79b9_7f4a_7c15);
    hasher.finish()
}

fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A duration drawn uniformly from `[lo, hi]` (microsecond granularity).
fn uniform_between(
    rng: &mut u64,
    lo: std::time::Duration,
    hi: std::time::Duration,
) -> std::time::Duration {
    let lo_us = lo.as_micros() as u64;
    let hi_us = (hi.as_micros() as u64).max(lo_us);
    let span = hi_us - lo_us + 1;
    std::time::Duration::from_micros(lo_us + splitmix_next(rng) % span)
}

/// Splits `key=value` fields after an optional leading status word.
fn parse_fields<'a>(line: &'a str, expect: &str) -> io::Result<Vec<(&'a str, &'a str)>> {
    let rest = if expect.is_empty() {
        line
    } else {
        line.strip_prefix(expect)
            .ok_or_else(|| protocol_err(format!("expected `{expect} ...`, got {line:?}")))?
    };
    Ok(rest
        .split_whitespace()
        .filter_map(|f| f.split_once('='))
        .collect())
}

fn field<'a>(fields: &[(&'a str, &'a str)], key: &str) -> io::Result<&'a str> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| protocol_err(format!("missing field `{key}`")))
}
