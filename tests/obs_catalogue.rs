//! One catalogue: the "Observability" section of `docs/ARCHITECTURE.md`
//! names exactly the metrics the product registers and exactly the trace
//! events it emits, as `tests/builtin_table.rs` holds the "Builtins" table
//! to `granlog_ir::builtins`.

mod support;

use granlog_par::ParObs;
use granlog_serve::{ServeObs, ServerStats};
use granlog_store::{ProgramStore, StoreConfig, StoreObs};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// The first backticked name of every table row of the Observability
/// section, split into metrics (`granlog_*`) and trace events.
fn documented() -> (BTreeSet<String>, BTreeSet<String>) {
    let doc = include_str!("../docs/ARCHITECTURE.md");
    let section = doc
        .split_once("\n## Observability")
        .expect("an Observability section")
        .1;
    let section = section.split("\n## ").next().expect("split yields a part");
    let names = section
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("| `"))
        .filter_map(|row| row.split_once('`'))
        .map(|(name, _)| name.to_owned());
    names.partition(|name| name.starts_with("granlog_"))
}

/// The metric names in the `# TYPE` lines of a scrape of one registry
/// holding everything the serve layer, the store and the parallel executor
/// register, its gauges sampled with a store's stats.
fn registered() -> BTreeSet<String> {
    let obs = ServeObs::new(None);
    StoreObs::register(&obs.registry, Arc::clone(&obs.tracer));
    ParObs::register(&obs.registry, Arc::clone(&obs.tracer));
    let dir = support::temp_dir("catalogue");
    let store = ProgramStore::open(StoreConfig::new(&dir)).expect("the store opens");
    let text = obs.scrape(&ServerStats::default(), true);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    text.lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|line| line.split_whitespace().next())
        .map(str::to_owned)
        .collect()
}

/// The string literal that opens `call`'s argument list, if it does.
fn leading_literal(call: &str) -> Option<&str> {
    call.trim_start()
        .strip_prefix('"')?
        .split_once('"')
        .map(|(s, _)| s)
}

/// Every event kind a product source emits: the literal first argument of
/// an `emit(..)` call, and the literal kind of a `ParObs::timed(..)` call.
/// A file's product code is what precedes its first `#[cfg(test)]`; test
/// module files are skipped.
fn emitted() -> BTreeSet<String> {
    fn walk(dir: &Path, kinds: &mut BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("a readable source dir") {
            let path = entry.expect("a dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                walk(&path, kinds);
            } else if name.ends_with(".rs") && name != "tests.rs" && !name.ends_with("_tests.rs") {
                let text = std::fs::read_to_string(&path).expect("a readable source");
                let product = text.split("#[cfg(test)]").next().unwrap_or("");
                for call in product.split("emit(").skip(1) {
                    kinds.extend(leading_literal(call).map(str::to_owned));
                }
                for call in product.split(".timed(").skip(1) {
                    let args = call.split(')').next().unwrap_or("");
                    let kind = args.split(',').find_map(leading_literal);
                    kinds.extend(kind.map(str::to_owned));
                }
            }
        }
    }
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut kinds = BTreeSet::new();
    for krate in std::fs::read_dir(&crates).expect("the crates dir") {
        let src = krate.expect("a dir entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut kinds);
        }
    }
    kinds
}

#[test]
fn the_architecture_doc_lists_exactly_the_registered_metrics() {
    assert_eq!(documented().0, registered());
}

#[test]
fn the_architecture_doc_lists_exactly_the_emitted_trace_events() {
    let emitted = emitted();
    assert!(emitted.contains("query_begin"), "the scan finds events");
    assert_eq!(documented().1, emitted);
}
