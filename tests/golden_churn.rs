//! Golden snapshot of the `--quick` churn suite stdout.
//!
//! `tests/golden/churn_suite.txt` is the exact text
//! `repro --quick churn_light churn_heavy sens_churn` prints. The suite
//! here re-simulates every scenario from an empty in-memory store, so any
//! drift in the scenario engine — a changed arrival draw, a perturbed SLO
//! verdict, a different eviction — fails `cargo test` immediately instead
//! of only surfacing as a diff under `results/` the next time someone
//! regenerates the cache.
//!
//! To update after an *intentional* behavior change:
//!
//! ```text
//! cargo run --release -p walksteal-experiments --bin repro -- --quick --cache $(mktemp -d) \
//!     churn_light churn_heavy sens_churn > tests/golden/churn_suite.txt
//! ```
//!
//! and justify the diff in the PR description.

use walksteal::experiments::churn;
use walksteal::experiments::suite::ExpContext;
use walksteal::experiments::{Scale, Store};
use walksteal::multitenant::RunBudget;

const GOLDEN: &str = include_str!("golden/churn_suite.txt");

#[test]
fn churn_suite_stdout_matches_golden_snapshot() {
    let mut ctx = ExpContext::new(Scale::Quick, Store::in_memory());
    ctx.jobs = 4;
    // Every churn run ends far below this cap. A run that reaches it has
    // starved a tenant; it fails here in seconds instead of spinning to the
    // 200M-cycle default. The cap changes no output.
    ctx.budget = RunBudget::unlimited().with_max_cycles(1_000_000);
    let tables = [
        ctx.run(churn::churn_light),
        ctx.run(churn::churn_heavy),
        ctx.run(churn::sens_churn),
    ];
    assert!(
        ctx.failures().is_empty(),
        "churn jobs failed: {:?}",
        ctx.failures()
    );
    let got: String = tables.iter().map(|t| format!("{t}\n")).collect();

    if got != GOLDEN {
        // Point at the first divergent line so the failure is readable
        // without diffing the blobs by hand.
        for (i, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "churn-suite stdout diverges from tests/golden/churn_suite.txt \
                 at line {} (see module docs for how to regenerate)",
                i + 1
            );
        }
        panic!(
            "churn-suite stdout line count changed: got {} lines, golden has {}",
            got.lines().count(),
            GOLDEN.lines().count()
        );
    }
}
