//! The paper-artefact oracle: Figure 1, Tables 1 and 2 and Figure 2 at
//! their reduced (`small`) sizes, exactly as `granlog_bench` renders them
//! and the experiment binaries print them, compared byte for byte with
//! `tests/golden/paper_artefacts.txt`.
//!
//! The tables and the sweep come out of the engine's counters and the
//! simulator, so a change anywhere from the reader to the scheduler that
//! moves a reproduced number fails here, named by artefact and line. On a
//! mismatch the file as this build computes it is left in
//! `$TMPDIR/granlog-paper-artefacts.actual`. If the move is intended, copy
//! that file over the golden one and say why in the PR.

use granlog_bench::{fig1_ddg, fig2_grainsize, table1_rolog, table2_andprolog};

mod support;

use support::Section;

/// One artefact as a golden-file section: its text, each line indented so
/// that no line of it reads as a comment or a section header.
fn section(name: &str, text: &str) -> Section {
    let body = text.lines().map(|line| format!("  {line}\n")).collect();
    Section {
        header: format!("@ {name}"),
        body,
    }
}

const GOLDEN_HEADER: &str = "\
# The paper's artefacts at their reduced sizes, compared byte for byte by
# tests/paper_artefacts.rs. After an intended change, copy
# $TMPDIR/granlog-paper-artefacts.actual over this file.
";

#[test]
fn the_paper_artefacts_are_what_the_golden_file_says() {
    let sections = [
        section("fig1_ddg", &fig1_ddg()),
        section("table1_rolog --small", &table1_rolog(true)),
        section("table2_andprolog --small", &table2_andprolog(true)),
        section("fig2_grainsize --small", &fig2_grainsize(true)),
    ];
    support::assert_matches_golden(
        "the paper artefacts",
        "paper_artefacts.txt",
        include_str!("golden/paper_artefacts.txt"),
        "granlog-paper-artefacts.actual",
        GOLDEN_HEADER,
        &sections,
    );
}
