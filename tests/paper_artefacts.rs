//! The paper-artefact oracle: every artefact the `experiments` binary can
//! print — Figure 1, Tables 1 and 2, Figure 2 and the two ablations — at
//! its reduced (`--small`) size, exactly as `granlog_benchmarks::artefacts`
//! renders it, compared byte for byte with `tests/golden/paper_artefacts.txt`.
//!
//! The tables and the sweep come out of the engine's counters and the
//! simulator, so a change anywhere from the reader to the scheduler that
//! moves a reproduced number fails here, named by artefact and line. On a
//! mismatch the file as this build computes it is left in
//! `$TMPDIR/granlog-paper-artefacts.actual`. If the move is intended, copy
//! that file over the golden one and say why in the PR.

use granlog_benchmarks::artefacts::{Renderer, ARTEFACTS};

mod support;

use support::Section;

/// One artefact at its reduced size as a golden-file section, headed by
/// the `experiments` arguments that print it: its text, each line indented
/// so that no line of it reads as a comment or a section header.
fn section(name: &str, renderer: Renderer) -> Section {
    let body = renderer
        .render(true)
        .lines()
        .map(|line| format!("  {line}\n"))
        .collect();
    let header = match renderer {
        Renderer::Fixed(_) => format!("@ {name}"),
        Renderer::Sized(_) => format!("@ {name} --small"),
    };
    Section { header, body }
}

const GOLDEN_HEADER: &str = "\
# The paper's artefacts at their reduced sizes, compared byte for byte by
# tests/paper_artefacts.rs. After an intended change, copy
# $TMPDIR/granlog-paper-artefacts.actual over this file.
";

#[test]
fn the_paper_artefacts_are_what_the_golden_file_says() {
    let sections: Vec<Section> = ARTEFACTS
        .into_iter()
        .map(|(name, renderer)| section(name, renderer))
        .collect();
    support::assert_matches_golden(
        "the paper artefacts",
        "paper_artefacts.txt",
        include_str!("golden/paper_artefacts.txt"),
        "granlog-paper-artefacts.actual",
        GOLDEN_HEADER,
        &sections,
    );
}
