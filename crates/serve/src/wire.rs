//! The protocol's text. A command line is parsed here once, and every
//! reply line a client reads back is rendered and parsed here side by
//! side, so the server, [`crate::client::ServeClient`] and the scrape each
//! spell a verb, a keyword or a field name nowhere else.
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
//! command is read normally. The `load` payload is a byte-counted blob, so
//! programs may contain newlines without any quoting scheme.
//!
//! Under `engine bottom-up` a query's `done` line keeps the
//! `steps=0 heap=0` fields (a fixpoint has no SLD resource meters) and
//! appends `answers=<n> rounds=<n> facts=<n>`; `bind` lines
//! enumerate every answer, so variable names repeat once per answer.
//!
//! The `stats` line's figures are one table, [`ROWS`]: each row's line
//! key, its scrape gauge and its [`ServerStats`] field. The server renders
//! the line from it, the scrape sets its gauges from it and the client
//! parses the line with it.

use crate::session::{DatalogReplyStats, EngineKind, LoadReply, QueryReply};
use crate::ServeError;
use granlog_engine::BudgetKind;
use std::borrow::Cow;
use std::fmt;
use std::io::{self, Write};

/// The greeting a connection opens with.
pub(crate) const GREETING: &str = "ok granlog-serve";

/// One command line, parsed once; a goal borrows the line. Each variant is
/// the verb of its name: `Trace(true)` is `trace on`, `Budget(kind, None)`
/// is `budget <kind> off`, and `Blank` is a blank line, which has no reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Command<'a> {
    Load(u64),
    Query(&'a str),
    Budget(BudgetKind, Option<u64>),
    Engine(EngineKind),
    Stats,
    Metrics,
    Trace(bool),
    TraceDump,
    Quit,
    Shutdown,
    Blank,
}

const BUDGETS: [(BudgetKind, &str); 3] = [
    (BudgetKind::Steps, "steps"),
    (BudgetKind::HeapCells, "heap"),
    (BudgetKind::Wall, "wall"),
];

const ENGINES: [(EngineKind, &str); 2] = [
    (EngineKind::Sld, "sld"),
    (EngineKind::BottomUp, "bottom-up"),
];

/// The wire name of `value` in `table`.
fn name_of<T: PartialEq>(table: &[(T, &'static str)], value: T) -> &'static str {
    table
        .iter()
        .find(|(v, _)| *v == value)
        .map_or("", |(_, n)| n)
}

/// The value named `name` in `table`.
fn named<T: Copy>(table: &[(T, &str)], name: &str) -> Option<T> {
    table.iter().find(|(_, n)| *n == name).map(|(v, _)| *v)
}

/// The wire name of an engine, as `engine` takes it and acknowledges it.
pub(crate) fn engine_name(engine: EngineKind) -> &'static str {
    name_of(&ENGINES, engine)
}

impl<'a> Command<'a> {
    /// Parses one command line, its line ending included or not. A line
    /// whose verb is empty (it is blank or starts with a space) is blank.
    /// A malformed one is a [`ServeError::Proto`] naming the usage.
    pub(crate) fn parse(line: &'a str) -> Result<Command<'a>, ServeError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(' ') {
            Some((verb, rest)) => (verb, rest.trim()),
            None => (line, ""),
        };
        let proto = |message: Cow<'static, str>| Err(ServeError::Proto(message));
        Ok(match verb {
            "" => Command::Blank,
            "load" => match rest.parse() {
                Ok(nbytes) => Command::Load(nbytes),
                Err(_) => return proto("usage: load <nbytes>".into()),
            },
            "query" if rest.is_empty() => return proto("usage: query <goal>".into()),
            "query" => Command::Query(rest),
            "budget" => match rest
                .split_once(' ')
                .map(|(k, v)| (named(&BUDGETS, k), v.trim()))
            {
                Some((Some(kind), "off")) => Command::Budget(kind, None),
                Some((Some(kind), n)) => match n.parse() {
                    Ok(n) => Command::Budget(kind, Some(n)),
                    Err(_) => return proto(format!("not a number: `{rest}`").into()),
                },
                _ => return proto("usage: budget steps|heap|wall <n|off>".into()),
            },
            "engine" => match named(&ENGINES, rest) {
                Some(engine) => Command::Engine(engine),
                None => return proto("usage: engine sld|bottom-up".into()),
            },
            "stats" => Command::Stats,
            "metrics" => Command::Metrics,
            "trace" => match rest {
                "on" => Command::Trace(true),
                "off" => Command::Trace(false),
                "dump" => Command::TraceDump,
                _ => return proto("usage: trace on|off|dump".into()),
            },
            "quit" => Command::Quit,
            "shutdown" => Command::Shutdown,
            other => return proto(format!("unknown command `{other}`").into()),
        })
    }
}

/// The command line as a client sends it, without its newline.
impl fmt::Display for Command<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Command::Load(nbytes) => write!(f, "load {nbytes}"),
            Command::Query(goal) => write!(f, "query {goal}"),
            Command::Budget(kind, Some(n)) => write!(f, "budget {} {n}", name_of(&BUDGETS, kind)),
            Command::Budget(kind, None) => write!(f, "budget {} off", name_of(&BUDGETS, kind)),
            Command::Engine(engine) => write!(f, "engine {}", engine_name(engine)),
            Command::Stats => f.write_str("stats"),
            Command::Metrics => f.write_str("metrics"),
            Command::Trace(on) => f.write_str(if on { "trace on" } else { "trace off" }),
            Command::TraceDump => f.write_str("trace dump"),
            Command::Quit => f.write_str("quit"),
            Command::Shutdown => f.write_str("shutdown"),
            Command::Blank => Ok(()),
        }
    }
}

/// The one way an `err` line is written: `err <code> <message>`.
pub(crate) fn write_err(out: &mut impl Write, err: &ServeError) -> io::Result<()> {
    writeln!(out, "err {} {}", err.code(), err)
}

/// An `ok <nbytes>` line, then that many bytes of `body`: the framing of
/// the `metrics` and `trace dump` replies, whose bodies span lines.
pub(crate) fn write_counted(out: &mut impl Write, body: &str) -> io::Result<()> {
    writeln!(out, "ok {}", body.len())?;
    out.write_all(body.as_bytes())
}

/// The `ok` line of an accepted `load`.
pub(crate) fn write_loaded(out: &mut impl Write, reply: &LoadReply) -> io::Result<()> {
    writeln!(
        out,
        "ok program={:016x} clauses={} cache={}",
        reply.hash,
        reply.clauses,
        if reply.cache_hit { "hit" } else { "miss" },
    )
}

/// Reads what [`write_loaded`] wrote: the program hash as sent, the clause
/// count and whether the cache hit.
pub(crate) fn parse_loaded(line: &str) -> io::Result<(String, u64, bool)> {
    let line = after(line, "ok")?;
    let hash = field(line, "program")?.to_string();
    Ok((
        hash,
        number(line, "clauses")?,
        field(line, "cache")? == "hit",
    ))
}

/// An answered query: its `bind` lines when it succeeded, then its `done`
/// line.
pub(crate) fn write_answer(out: &mut impl Write, reply: &QueryReply) -> io::Result<()> {
    if reply.succeeded {
        for (name, term) in &reply.bindings {
            writeln!(out, "bind {name} = {term}")?;
        }
    }
    let status = if reply.succeeded { "ok" } else { "no" };
    write!(out, "done {status} steps={} ", reply.steps)?;
    match reply.datalog {
        Some(d) => writeln!(
            out,
            "heap={} answers={} rounds={} facts={}",
            reply.heap_high_water, d.answers, d.rounds, d.facts
        ),
        None => writeln!(out, "heap={}", reply.heap_high_water),
    }
}

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

/// Reads one line of what [`write_answer`] wrote: `Some` binding for a
/// `bind` line, `None` for any other line.
pub(crate) fn parse_bind(line: &str) -> Option<io::Result<(String, String)>> {
    let bind = line.strip_prefix("bind ")?;
    Some(match bind.split_once(" = ") {
        Some((name, term)) => Ok((name.to_string(), term.to_string())),
        None => Err(protocol_err(format!("bad bind line: {line:?}"))),
    })
}

/// Reads the `done` line [`write_answer`] ends with, given the bindings
/// read before it.
pub(crate) fn parse_done(line: &str, bindings: Vec<(String, String)>) -> io::Result<ClientReply> {
    let Some((status, rest)) = line.strip_prefix("done ").and_then(|d| d.split_once(' ')) else {
        return Err(protocol_err(format!("unexpected reply line: {line:?}")));
    };
    let datalog = if field(rest, "answers").is_ok() {
        Some(DatalogReplyStats {
            answers: number(rest, "answers")?,
            rounds: number(rest, "rounds")?,
            facts: number(rest, "facts")?,
        })
    } else {
        None
    };
    Ok(ClientReply {
        succeeded: status == "ok",
        bindings,
        steps: number(rest, "steps")?,
        heap_high_water: number(rest, "heap")?,
        slices: 0,
        datalog,
    })
}

/// A server's figures: the `stats` reply, and the gauges a scrape sets.
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
    /// Machine leases checked out: 0 on a quiescent server, else leaked.
    pub lease_leaked: u64,
    /// Connections shed at the acceptor at the connection cap.
    pub shed: u64,
    /// Programs replayed from the durable store at boot.
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
    /// The server's build version.
    pub version: String,
    /// Every `key=value` field this client did not recognize, in reply
    /// order. A server newer than this client surfaces its additions here
    /// instead of dropping them silently.
    pub extra: Vec<(String, String)>,
}

/// Where a figure of [`ServerStats`] shows: `Always`, only from a server
/// with a durable store, or (`DurableLine`) on the line only with a store
/// but in every scrape.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shown {
    Always,
    Durable,
    DurableLine,
}

/// One numeric figure of [`ServerStats`]: its `stats` line key, the scrape
/// gauge it sets, if any, and where it shows.
struct Row {
    key: &'static str,
    gauge: Option<&'static str>,
    shown: Shown,
    get: fn(&ServerStats) -> u64,
    set: fn(&mut ServerStats, u64),
}

macro_rules! rows {
    ($($key:literal $field:ident $gauge:expr, $shown:ident;)*) => {
        [$(Row {
            key: $key,
            gauge: $gauge,
            shown: Shown::$shown,
            get: |s| s.$field,
            set: |s, v| s.$field = v,
        },)*]
    };
}

/// Every numeric figure, in `stats` line order; `version=` ends the line.
static ROWS: [Row; 17] = rows! {
    "hits"            hits            Some("granlog_cache_hits"),         Always;
    "misses"          misses          Some("granlog_cache_misses"),       Always;
    "evictions"       evictions       Some("granlog_cache_evictions"),    Always;
    "entries"         entries         Some("granlog_cache_entries"),      Always;
    "sessions"        sessions        Some("granlog_sessions_active"),    Always;
    "quarantined"     quarantined     Some("granlog_pool_quarantined"),   Always;
    "retired"         retired         Some("granlog_pool_retired"),       Always;
    "leases"          lease_leaked    Some("granlog_leases_active"),      Always;
    "shed"            shed            Some("granlog_shed_connections"),   Always;
    "recovered"       recovered       Some("granlog_recovered_programs"), DurableLine;
    "stored"          stored          Some("granlog_store_programs"),     Durable;
    "wal_bytes"       wal_bytes       Some("granlog_wal_bytes"),          Durable;
    "wal_records"     wal_records     Some("granlog_wal_records"),        Durable;
    "unsynced"        unsynced        Some("granlog_wal_unsynced"),       Durable;
    "snapshot_age_ms" snapshot_age_ms None,                               Durable;
    "last_fsync_ms"   last_fsync_ms   None,                               Durable;
    "uptime_ms"       uptime_ms       Some("granlog_uptime_ms"),          Always;
};

/// The `stats` reply of a server with (`durable`) or without a store.
pub(crate) fn write_stats(
    out: &mut impl Write,
    stats: &ServerStats,
    durable: bool,
) -> io::Result<()> {
    out.write_all(b"ok")?;
    for row in &ROWS {
        if durable || row.shown == Shown::Always {
            write!(out, " {}={}", row.key, (row.get)(stats))?;
        }
    }
    writeln!(out, " version={}", stats.version)
}

/// Reads what [`write_stats`] wrote. A figure only a server with a store
/// reports reads as 0 when it is absent; a key this table does not know
/// lands in [`ServerStats::extra`].
pub(crate) fn parse_stats(line: &str) -> io::Result<ServerStats> {
    let line = after(line, "ok")?;
    let mut stats = ServerStats::default();
    for row in &ROWS {
        if row.shown == Shown::Always || field(line, row.key).is_ok() {
            (row.set)(&mut stats, number(line, row.key)?);
        }
    }
    for (key, value) in fields(line) {
        if key == "version" {
            stats.version = value.to_string();
        } else if ROWS.iter().all(|row| row.key != key) {
            stats.extra.push((key.to_string(), value.to_string()));
        }
    }
    Ok(stats)
}

/// The scrape gauges of a server with (`durable`) or without a store, and
/// their values.
pub(crate) fn gauges(
    stats: &ServerStats,
    durable: bool,
) -> impl Iterator<Item = (&'static str, u64)> + '_ {
    let scraped = move |row: &&Row| durable || row.shown != Shown::Durable;
    let gauge = |row: &Row| Some((row.gauge?, (row.get)(stats)));
    ROWS.iter().filter(scraped).filter_map(gauge)
}

pub(crate) fn protocol_err(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// `line` past its leading status `word`.
fn after<'a>(line: &'a str, word: &str) -> io::Result<&'a str> {
    let rest = line.strip_prefix(word);
    rest.ok_or_else(|| protocol_err(format!("expected `{word} ...`, got {line:?}")))
}

/// The `key=value` fields of a reply line.
fn fields(line: &str) -> impl Iterator<Item = (&str, &str)> {
    line.split_whitespace().filter_map(|f| f.split_once('='))
}

fn field<'a>(line: &'a str, key: &str) -> io::Result<&'a str> {
    let value = fields(line).find(|(k, _)| *k == key).map(|(_, v)| v);
    value.ok_or_else(|| protocol_err(format!("missing field `{key}` in {line:?}")))
}

fn number(line: &str, key: &str) -> io::Result<u64> {
    let value = field(line, key)?;
    value
        .parse()
        .map_err(|_| protocol_err(format!("bad {key} in {line:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ServeObs;
    use std::collections::BTreeSet;

    fn rendered(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
        let mut out = Vec::new();
        write(&mut out).expect("writing to a vector");
        String::from_utf8(out).expect("replies are utf-8")
    }

    #[test]
    fn every_command_renders_and_parses_back_to_itself() {
        let commands = [
            Command::Load(0),
            Command::Load(16 * 1024 * 1024),
            Command::Query("reach(X, [a|T])"),
            Command::Budget(BudgetKind::Steps, Some(10)),
            Command::Budget(BudgetKind::Steps, None),
            Command::Budget(BudgetKind::HeapCells, Some(100_000)),
            Command::Budget(BudgetKind::HeapCells, None),
            Command::Budget(BudgetKind::Wall, Some(5000)),
            Command::Budget(BudgetKind::Wall, None),
            Command::Engine(EngineKind::Sld),
            Command::Engine(EngineKind::BottomUp),
            Command::Stats,
            Command::Metrics,
            Command::Trace(true),
            Command::Trace(false),
            Command::TraceDump,
            Command::Quit,
            Command::Shutdown,
            Command::Blank,
        ];
        for command in commands {
            let line = format!("{command}\n");
            assert_eq!(Command::parse(&line), Ok(command), "{line:?}");
        }
        assert_eq!(
            Command::Budget(BudgetKind::HeapCells, None).to_string(),
            "budget heap off"
        );
    }

    /// The `err` line each malformed command gets, byte for byte.
    #[test]
    fn a_malformed_command_gets_its_usage() {
        for (line, want) in [
            ("load many", "err proto usage: load <nbytes>\n"),
            ("query", "err proto usage: query <goal>\n"),
            ("query   ", "err proto usage: query <goal>\n"),
            (
                "budget",
                "err proto usage: budget steps|heap|wall <n|off>\n",
            ),
            (
                "budget tea 4",
                "err proto usage: budget steps|heap|wall <n|off>\n",
            ),
            (
                "budget steps many",
                "err proto not a number: `steps many`\n",
            ),
            ("engine warp", "err proto usage: engine sld|bottom-up\n"),
            ("trace sideways", "err proto usage: trace on|off|dump\n"),
            ("nonsense at all", "err proto unknown command `nonsense`\n"),
        ] {
            let err = Command::parse(line).expect_err(line);
            assert_eq!(rendered(|out| write_err(out, &err)), want);
        }
        assert_eq!(Command::parse(" stats"), Ok(Command::Blank));
        assert_eq!(Command::parse("stats now\r\n"), Ok(Command::Stats));
        assert_eq!(
            Command::parse("budget steps  7"),
            Ok(Command::Budget(BudgetKind::Steps, Some(7)))
        );
    }

    /// A store's figures, each distinct; without a store they read as 0.
    fn figures(durable: bool) -> ServerStats {
        let store = |n| if durable { n } else { 0 };
        ServerStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            entries: 4,
            sessions: 5,
            quarantined: 6,
            retired: 7,
            lease_leaked: 8,
            shed: 9,
            recovered: store(10),
            stored: store(11),
            wal_bytes: store(12),
            wal_records: store(13),
            unsynced: store(14),
            snapshot_age_ms: store(15),
            last_fsync_ms: store(16),
            uptime_ms: 17,
            version: "0.1.0".to_string(),
            extra: Vec::new(),
        }
    }

    #[test]
    fn server_stats_render_and_parse_back_to_themselves() {
        let common = "ok hits=1 misses=2 evictions=3 entries=4 sessions=5 quarantined=6 \
                      retired=7 leases=8 shed=9";
        let durable = " recovered=10 stored=11 wal_bytes=12 wal_records=13 unsynced=14 \
                       snapshot_age_ms=15 last_fsync_ms=16";
        for (with_store, line) in [
            (
                true,
                format!("{common}{durable} uptime_ms=17 version=0.1.0\n"),
            ),
            (false, format!("{common} uptime_ms=17 version=0.1.0\n")),
        ] {
            let stats = figures(with_store);
            assert_eq!(rendered(|out| write_stats(out, &stats, with_store)), line);
            let parsed = parse_stats(line.trim_end()).expect("a stats line");
            assert_eq!(parsed, stats);
        }
    }

    #[test]
    fn an_unknown_stats_field_lands_in_extra() {
        let line = "ok hits=1 misses=2 evictions=3 entries=4 sessions=5 quarantined=6 \
                    retired=7 leases=8 shed=9 future=42 uptime_ms=17 version=0.1.0 later=x";
        let parsed = parse_stats(line).expect("a stats line");
        let extra = [("future", "42"), ("later", "x")].map(|(k, v)| (k.to_string(), v.to_string()));
        assert_eq!(parsed.extra, extra);
        assert_eq!(
            ServerStats {
                extra: Vec::new(),
                ..parsed
            },
            figures(false)
        );
        let missing = parse_stats("ok misses=2").expect_err("hits is always sent");
        assert!(missing.to_string().contains("`hits`"), "{missing}");
    }

    /// The gauges a scrape sets, with and without a store: the names and
    /// values the scrape has always set.
    #[test]
    fn a_scrape_sets_the_same_gauges_with_and_without_a_store() {
        let always = [
            "granlog_cache_entries 4",
            "granlog_cache_evictions 3",
            "granlog_cache_hits 1",
            "granlog_cache_misses 2",
            "granlog_leases_active 8",
            "granlog_pool_quarantined 6",
            "granlog_pool_retired 7",
            "granlog_recovered_programs",
            "granlog_sessions_active 5",
            "granlog_shed_connections 9",
            "granlog_symbol_bytes",
            "granlog_symbols",
            "granlog_uptime_ms 17",
        ];
        let durable = [
            "granlog_store_programs 11",
            "granlog_wal_bytes 12",
            "granlog_wal_records 13",
            "granlog_wal_unsynced 14",
        ];
        for with_store in [false, true] {
            let obs = ServeObs::new(None);
            let text = obs.scrape(&figures(with_store), with_store);
            let gauges: BTreeSet<&str> = text
                .lines()
                .filter_map(|line| line.strip_prefix("# TYPE "))
                .filter_map(|line| line.strip_suffix(" gauge"))
                .collect();
            let mut want: BTreeSet<&str> = always
                .iter()
                .map(|g| g.split(' ').next().unwrap())
                .collect();
            if with_store {
                want.extend(durable.iter().map(|g| g.split(' ').next().unwrap()));
            }
            assert_eq!(gauges, want);
            let with_values = always
                .iter()
                .chain(with_store.then_some(&durable).into_iter().flatten());
            for gauge in with_values.filter(|g| g.contains(' ')) {
                assert!(text.contains(&format!("\n{gauge}\n")), "{gauge} in {text}");
            }
        }
    }

    #[test]
    fn load_and_query_replies_parse_back() {
        let loaded = LoadReply {
            hash: 0xd28f_2a4d_c205_e2d2,
            clauses: 7,
            cache_hit: true,
        };
        let line = rendered(|out| write_loaded(out, &loaded));
        assert_eq!(line, "ok program=d28f2a4dc205e2d2 clauses=7 cache=hit\n");
        let parsed = parse_loaded(line.trim_end()).expect("a load line");
        assert_eq!(parsed, ("d28f2a4dc205e2d2".to_string(), 7, true));

        let bindings = vec![
            ("X".to_string(), "a".to_string()),
            ("X".to_string(), "b".to_string()),
        ];
        for (succeeded, datalog) in [
            (true, None),
            (false, None),
            (
                true,
                Some(DatalogReplyStats {
                    answers: 2,
                    rounds: 3,
                    facts: 4,
                }),
            ),
        ] {
            let reply = QueryReply {
                succeeded,
                bindings: bindings.clone(),
                steps: 5,
                heap_high_water: 6,
                datalog,
            };
            let text = rendered(|out| write_answer(out, &reply));
            let mut read = Vec::new();
            let mut lines = text.lines();
            let done = loop {
                let line = lines.next().expect("a done line");
                match parse_bind(line) {
                    Some(bind) => read.push(bind.expect("a bind line")),
                    None => break line,
                }
            };
            let parsed = parse_done(done, read).expect("a done line");
            assert_eq!(parsed.succeeded, succeeded);
            assert_eq!(
                parsed.bindings,
                if succeeded {
                    bindings.clone()
                } else {
                    Vec::new()
                }
            );
            assert_eq!((parsed.steps, parsed.heap_high_water), (5, 6));
            assert_eq!(parsed.datalog, datalog);
        }
    }
}
