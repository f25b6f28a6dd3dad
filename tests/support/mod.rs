//! The integration suites' shared kit: the 15-program corpus, the sequential
//! oracle, answer canonicalization, a parallel hook that steals every arm,
//! scratch directories, server start-up, and what the golden-file oracles
//! share — a counting allocator and the sectioned-file comparison.
//! Each suite pulls it in with `mod support;` and uses its own subset.
#![allow(dead_code)]

use granlog_benchmarks::{all_benchmarks, control_benchmarks, nrev_benchmark, Benchmark};
use granlog_engine::par::{ArmResult, Offer, ParHook};
use granlog_engine::{Image, Machine, MachineConfig};
use granlog_ir::parser::parse_program;
use granlog_ir::Program;
use granlog_serve::{ServeConfig, Server, ServerHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The full 15-program corpus the acceptance bars talk about: the paper's
/// Table 1 suite, the Appendix A `nrev`, and the control-construct extras.
pub fn fifteen_benchmarks() -> Vec<Benchmark> {
    let mut corpus = all_benchmarks();
    corpus.push(nrev_benchmark());
    corpus.extend(control_benchmarks());
    assert_eq!(corpus.len(), 15, "the acceptance corpus is 15 programs");
    corpus
}

/// Canonicalizes rendered binding terms: every `_N` token is renamed in
/// first-occurrence order, so answers that differ only in variable
/// numbering (machine-reuse dependent) compare equal.
pub fn canonical(bindings: &[(String, String)]) -> Vec<(String, String)> {
    let mut map: BTreeMap<String, usize> = BTreeMap::new();
    bindings
        .iter()
        .map(|(name, term)| {
            let mut out = String::new();
            let mut chars = term.chars().peekable();
            while let Some(c) = chars.next() {
                if c == '_' && chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                    let mut id = String::new();
                    while let Some(d) = chars.peek().filter(|d| d.is_ascii_digit()) {
                        id.push(*d);
                        chars.next();
                    }
                    let next = map.len();
                    let canon_id = *map.entry(id).or_insert(next);
                    out.push_str(&format!("_V{canon_id}"));
                } else {
                    out.push(c);
                }
            }
            (name.clone(), out)
        })
        .collect()
}

/// The oracle: the expected answer for one benchmark query, computed on a
/// fresh, sequential, fault-free machine and rendered exactly as the server
/// renders it.
pub fn expected_answer(bench: &Benchmark, query: &str) -> (bool, Vec<(String, String)>) {
    let program = parse_program(bench.source).unwrap();
    let mut machine = Machine::with_config(&program, MachineConfig::default());
    let outcome = machine.run_query(query).unwrap();
    let rendered = outcome
        .bindings
        .iter()
        .map(|(name, term)| (name.to_string(), term.to_string()))
        .collect();
    (outcome.succeeded, rendered)
}

/// A [`ParHook`] that steals everything: each offered arm is claimed and run
/// to its first solution on a second machine *inside* `offer`, before the
/// forker has started on arm 0. On the real executor whether an arm crosses
/// the spawn boundary is a race (and at one thread it never does); under
/// this hook every arm `1..` of every independent conjunction does — pack,
/// unpack, solve, answer pack, unpack, join — deterministically, on the
/// calling thread. Every independent conjunction the machine reaches is
/// offered, as on the executor.
pub struct EagerThief {
    image: Arc<Image>,
    /// Arms run on a second machine so far.
    pub stolen: AtomicUsize,
}

impl EagerThief {
    pub fn new(program: &Program) -> Self {
        EagerThief {
            image: Image::new(program),
            stolen: AtomicUsize::new(0),
        }
    }
}

impl ParHook for EagerThief {
    fn offer(&self, arms: &[Arc<Offer>]) {
        for arm in arms {
            assert!(arm.claim(), "nobody else has seen the arm yet");
            let mut machine =
                Machine::from_image(Arc::clone(&self.image), MachineConfig::default());
            arm.complete(machine.run_arm(arm.arm(), Some(self)));
            self.stolen.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn join(&self, arm: &Offer) -> ArmResult {
        arm.take_result().expect("completed inside `offer`")
    }
}

/// A unique scratch directory per invocation, so parallel tests and
/// repeated runs never share WAL state.
pub fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("granlog-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Starts a server under `config` (whose default listens on an ephemeral
/// loopback port).
pub fn start_server(config: ServeConfig) -> ServerHandle {
    Server::start(config).expect("server must bind an ephemeral port")
}

thread_local! {
    /// Allocator calls made by this thread.
    static ALLOCATOR_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls (`alloc`, `alloc_zeroed`, `realloc`)
/// per thread so the tests of one binary can run side by side. A suite that
/// holds code to an allocation budget installs it with `#[global_allocator]`
/// and reads [`allocator_calls`] before and after.
pub struct CountingAllocator;

/// Allocator calls this thread has made so far, in a binary whose global
/// allocator is [`CountingAllocator`].
pub fn allocator_calls() -> u64 {
    ALLOCATOR_CALLS.with(Cell::get)
}

fn count_call() {
    // `try_with`: a thread that is being torn down may still free memory.
    let _ = ALLOCATOR_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell<u64>` (const-initialised, no destructor) and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// One `@ ...` section of a golden file: `#` lines are comments, an `@` line
/// opens a section, indented lines are its body.
pub struct Section {
    pub header: String,
    pub body: String,
}

/// Splits a golden file back into its sections.
fn parse_sections(text: &str) -> Vec<Section> {
    let mut sections: Vec<Section> = Vec::new();
    for line in text.lines().filter(|line| !line.starts_with('#')) {
        match sections.last_mut() {
            Some(open) if !line.starts_with('@') => {
                open.body.push_str(line);
                open.body.push('\n');
            }
            _ => sections.push(Section {
                header: line.to_owned(),
                body: String::new(),
            }),
        }
    }
    sections
}

/// Compares `preamble` followed by `sections` with the committed file
/// `tests/golden/<file>` (whose text is `golden`), byte for byte. On a
/// mismatch the panic names every section of `subject` that moved, and the
/// whole file as computed is left in `$TMPDIR/<actual>`.
pub fn assert_matches_golden(
    subject: &str,
    file: &str,
    golden: &str,
    actual: &str,
    preamble: &str,
    sections: &[Section],
) {
    let mut rendered = String::from(preamble);
    for section in sections {
        rendered.push_str(&section.header);
        rendered.push('\n');
        rendered.push_str(&section.body);
    }
    if rendered == golden {
        return;
    }
    let path = std::env::temp_dir().join(actual);
    std::fs::write(&path, &rendered).unwrap();

    let want = parse_sections(golden);
    let mut moved = Vec::new();
    for section in sections {
        match want.iter().find(|w| w.header == section.header) {
            None => moved.push(format!("{}: not in the golden file", section.header)),
            Some(w) if w.body != section.body => {
                let (expected, got) = w
                    .body
                    .lines()
                    .zip(section.body.lines())
                    .find(|(e, g)| e != g)
                    .unwrap_or(("(a different number of lines)", ""));
                moved.push(format!(
                    "{}: expected `{}`, got `{}`",
                    section.header,
                    expected.trim(),
                    got.trim()
                ));
            }
            Some(_) => {}
        }
    }
    for w in &want {
        if !sections.iter().any(|s| s.header == w.header) {
            moved.push(format!("{}: only in the golden file", w.header));
        }
    }
    if moved.is_empty() {
        moved.push("only comments, spacing or section order differ".to_owned());
    }
    panic!(
        "{subject} left tests/golden/{file}:\n  {}\n\
         (the file as computed was written to {})",
        moved.join("\n  "),
        path.display()
    );
}
