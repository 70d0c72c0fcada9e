//! Golden snapshot of the `--quick` suite stdout.
//!
//! `tests/golden/quick_suite.txt` is the exact text `repro --quick` prints
//! (one `Display` rendering per table, newline-separated — timing and cache
//! diagnostics go to stderr, so stdout is deterministic and needs no
//! normalization). The suite here re-simulates every experiment from an
//! empty in-memory store, so any numeric drift — a changed steal decision,
//! a perturbed latency, a reordered row — fails `cargo test` immediately
//! instead of only surfacing as a diff under `results/` the next time
//! someone regenerates the cache.
//!
//! To update after an *intentional* behavior change:
//!
//! ```text
//! cargo run --release -p walksteal-experiments --bin repro -- --quick --cache $(mktemp -d) > tests/golden/quick_suite.txt
//! ```
//!
//! and justify the diff in the PR description.

use walksteal::experiments::suite::{self, ExpContext};
use walksteal::experiments::{Scale, Store};

const GOLDEN: &str = include_str!("golden/quick_suite.txt");

#[test]
fn quick_suite_stdout_matches_golden_snapshot() {
    let mut ctx = ExpContext::new(Scale::Quick, Store::in_memory());
    ctx.jobs = 4;
    let tables = ctx.run(suite::all);
    let got: String = tables.iter().map(|t| format!("{t}\n")).collect();

    if got != GOLDEN {
        // Point at the first divergent line so the failure is readable
        // without diffing two 450-line blobs by hand.
        for (i, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "quick-suite stdout diverges from tests/golden/quick_suite.txt \
                 at line {} (see module docs for how to regenerate)",
                i + 1
            );
        }
        panic!(
            "quick-suite stdout line count changed: got {} lines, golden has {}",
            got.lines().count(),
            GOLDEN.lines().count()
        );
    }
}
