//! A simulation runs on the thread that owns it: building one must not
//! spawn helper threads. `repro --jobs N` sizes its worker pool, and the
//! benchmark its one-core load, on that assumption.
//!
//! This file holds exactly one test so that no other test runs (and starts
//! or ends threads) while it samples the process's thread count.

#![cfg(target_os = "linux")]

use walksteal::multitenant::SimulationBuilder;
use walksteal::workloads::AppId;

/// The `Threads:` count from `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("no Threads: line in /proc/self/status")
        .trim()
        .parse()
        .expect("Threads: is not a number")
}

#[test]
fn building_a_simulation_spawns_no_threads() {
    let before = process_threads();
    let sim = SimulationBuilder::new()
        .tenants([AppId::Gups, AppId::Mm])
        .build();
    let during = process_threads();
    drop(sim);
    assert_eq!(
        during, before,
        "a live two-tenant simulation grew the process from {before} to {during} threads"
    );
}
