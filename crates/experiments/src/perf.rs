//! `repro --selftest-perf`: the engine measuring itself.
//!
//! Four throughput measurements, reported as JSON (the repo checks a
//! snapshot in as `BENCH_parallel.json`; CI's perf-smoke job compares a
//! fresh run against it):
//!
//! 1. **Event-queue micro-benchmark** — an identical synthetic push/pop
//!    workload driven through the calendar-queue [`EventQueue`] and the
//!    reference [`BinaryHeapQueue`], reporting events/sec for each and
//!    their ratio.
//! 2. **Per-subsystem throughput** — steady-state ops/sec through each
//!    stage of the translation hot path in isolation, each through the
//!    entry point the simulator calls: L2 TLB probe/fill, page-walk
//!    cache, the partitioned walk scheduler (enqueue + completion + steal
//!    decisions), scalar memory accesses, and warp-stream generation.
//!    When the end-to-end number moves, these locate the subsystem
//!    responsible.
//! 3. **Whole-simulation throughput** — a quick-scale pair simulation,
//!    reporting simulated events/sec end to end (best of ten runs).
//! 4. **Parallel scaling** — the same batch of quick-scale simulations
//!    through [`parallel::run_jobs`] with one worker and with `jobs`
//!    workers, reporting wall-clock for both and the speedup. The two
//!    stores are also compared, so the selftest doubles as a determinism
//!    check. On a host that exposes a single core the section is skipped
//!    with a note: a multi-worker run there measures only scheduler
//!    overhead, and reporting its "speedup" as if it meant something
//!    poisoned earlier snapshots. `host_parallelism` always records what
//!    the host actually exposed.

use std::time::Instant;

use walksteal_mem::{AccessKind, MemSystem, MemSystemConfig};
use walksteal_multitenant::{PolicyPreset, SimulationBuilder};
use walksteal_sim_core::{
    BinaryHeapQueue, Cycle, EventQueue, Json, LineAddr, Observer, Ppn, SimRng, TenantId, Vpn,
};
use walksteal_vm::walk::WalkContext;
use walksteal_vm::{
    DispatchedWalk, FrameAlloc, PageSize, PageTable, PwCache, Replacement, StealMode, Tlb,
    TlbConfig, WalkConfig, WalkPolicyKind, WalkRequest, WalkSubsystem,
};
use walksteal_workloads::{paper_pairs, AppId, MemRef, WarpStream};

use crate::key::ExpKey;
use crate::parallel::{self, Job};
use crate::scale::Scale;
use crate::store::Store;

/// Push/pop pairs driven through each queue in the micro-benchmark.
const QUEUE_OPS: u64 = 2_000_000;

/// Simulations in the parallel-scaling batch (per `jobs`, min 8).
fn batch_size(jobs: usize) -> usize {
    (2 * jobs).max(8)
}

/// The operations both queue implementations share.
trait Queue {
    fn push(&mut self, at: Cycle, value: u64);
    fn pop(&mut self) -> Option<(Cycle, u64)>;
}

impl Queue for EventQueue<u64> {
    fn push(&mut self, at: Cycle, value: u64) {
        EventQueue::push(self, at, value);
    }
    fn pop(&mut self) -> Option<(Cycle, u64)> {
        EventQueue::pop(self)
    }
}

impl Queue for BinaryHeapQueue<u64> {
    fn push(&mut self, at: Cycle, value: u64) {
        BinaryHeapQueue::push(self, at, value);
    }
    fn pop(&mut self) -> Option<(Cycle, u64)> {
        BinaryHeapQueue::pop(self)
    }
}

/// Drives `ops` pop+push pairs through `q` and returns events/sec.
///
/// The workload mimics the simulator's profile: a warm queue of ~1k pending
/// events, short geometric delays (wakeups, memory latencies) plus an
/// occasional far-future event (sample ticks, relaunches) that lands beyond
/// the calendar window.
fn drive(q: &mut dyn Queue, ops: u64) -> f64 {
    let mut rng = SimRng::new(0xC0FFEE);
    for i in 0..1024 {
        q.push(Cycle(rng.next_below(512)), i);
    }
    let start = Instant::now();
    for n in 0..ops {
        let (at, _) = q.pop().expect("queue stays warm");
        let delay = 1 + rng.next_geometric(1.0 / 120.0);
        q.push(Cycle(at.0 + delay), n);
        if rng.chance(1.0 / 64.0) {
            let (far_at, _) = q.pop().expect("queue stays warm");
            q.push(Cycle(far_at.0 + 5_000 + rng.next_below(4_096)), n);
        }
    }
    // Each loop iteration pops and pushes at least one event.
    ops as f64 / start.elapsed().as_secs_f64()
}

fn queue_micro() -> Json {
    let heap = drive(&mut BinaryHeapQueue::new(), QUEUE_OPS);
    let calendar = drive(&mut EventQueue::new(), QUEUE_OPS);
    eprintln!(
        "queue micro: calendar {calendar:.0} ev/s vs heap {heap:.0} ev/s ({:.2}x)",
        calendar / heap
    );
    Json::Obj(vec![
        ("ops".into(), Json::UInt(QUEUE_OPS)),
        ("binary_heap_events_per_sec".into(), Json::Num(heap)),
        ("calendar_events_per_sec".into(), Json::Num(calendar)),
        ("calendar_over_heap".into(), Json::Num(calendar / heap)),
    ])
}

/// Times `ops` calls of `f` and returns ops/sec.
fn rate(ops: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..ops {
        f();
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// Steady-state L2-TLB probe/fill throughput (1024-entry, 16-way, two
/// tenants — the Table I shared TLB under a mixed hit/miss stream).
fn tlb_probe_rate() -> f64 {
    let mut tlb = Tlb::new(
        TlbConfig {
            sets: 64,
            ways: 16,
            replacement: Replacement::Lru,
        },
        2,
    );
    let mut rng = SimRng::new(11);
    let mut now = Cycle::ZERO;
    rate(2_000_000, || {
        now += 1;
        let t = TenantId(rng.next_below(2) as u8);
        let vpn = Vpn(rng.next_below(4_096));
        if tlb.probe(t, vpn).is_none() {
            tlb.fill(t, vpn, Ppn(vpn.0), now);
        }
    })
}

/// Page-walk-cache probe + walk-fill throughput (128 entries, 4 levels).
fn pwc_rate() -> f64 {
    let mut pwc = PwCache::new(128);
    let mut rng = SimRng::new(12);
    let nodes = [
        walksteal_sim_core::PhysAddr(0x1000),
        walksteal_sim_core::PhysAddr(0x2000),
        walksteal_sim_core::PhysAddr(0x3000),
        walksteal_sim_core::PhysAddr(0x4000),
    ];
    rate(1_000_000, || {
        let t = TenantId(rng.next_below(2) as u8);
        let vpn = Vpn(rng.next_below(1 << 22));
        if pwc.probe(t, vpn, 4).is_none() {
            pwc.fill_walk(t, vpn, &nodes);
        }
    })
}

/// Walk-scheduler throughput under DWS: each op is one enqueue attempt
/// plus draining every completion due, so the rate covers the bitmap
/// FWA/TWM/WTM selection, the arena queues, and steal decisions.
fn walk_scheduler_rate() -> f64 {
    let mut ws = WalkSubsystem::new(WalkConfig {
        policy: WalkPolicyKind::Partitioned(StealMode::Dws),
        ..WalkConfig::default()
    });
    let mut pts = vec![
        PageTable::new(TenantId(0), PageSize::Small4K),
        PageTable::new(TenantId(1), PageSize::Small4K),
    ];
    let mut frames = FrameAlloc::new();
    let mut mem = MemSystem::new(MemSystemConfig::default());
    let mut obs = Observer::off();
    let mut rng = SimRng::new(13);
    let mut outstanding: Vec<DispatchedWalk> = Vec::new();
    let mut now = Cycle::ZERO;
    rate(200_000, || {
        now += 13;
        // Skewed traffic so the steal path stays live.
        let t = TenantId(u8::from(rng.next_below(8) == 0));
        let vpn = Vpn((u64::from(t.0) << 32) | rng.next_below(4_096));
        let mut ctx = WalkContext {
            page_tables: &mut pts,
            frames: &mut frames,
            mem: &mut mem,
            mask: None,
            obs: &mut obs,
        };
        if let Ok(Some(d)) = ws.try_enqueue(WalkRequest { tenant: t, vpn }, now, &mut ctx) {
            let pos = outstanding.partition_point(|o| o.done_at <= d.done_at);
            outstanding.insert(pos, d);
        }
        while let Some(&d) = outstanding.first() {
            if d.done_at > now {
                break;
            }
            outstanding.remove(0);
            let mut ctx = WalkContext {
                page_tables: &mut pts,
                frames: &mut frames,
                mem: &mut mem,
                mask: None,
                obs: &mut obs,
            };
            let (_, next) = ws.on_walker_done(d.walker, d.done_at, &mut ctx);
            if let Some(n) = next {
                let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
                outstanding.insert(pos, n);
            }
        }
    })
}

/// Memory-system throughput through the scalar [`MemSystem::access`] path:
/// a mixed data/page-table stream over a 64 Ki-line footprint (so the L2
/// banks see real hit/miss/eviction traffic), issued 16 lines per cycle.
fn mem_access_rate() -> f64 {
    const BATCH: u64 = 16;
    let mut mem = MemSystem::new(MemSystemConfig::default());
    let mut rng = SimRng::new(14);
    let mut now = Cycle::ZERO;
    let mut lines: Vec<LineAddr> = Vec::new();
    rate(2_000_000 / BATCH, || {
        now += 2;
        let kind = if rng.chance(0.2) {
            AccessKind::PageTable
        } else {
            AccessKind::Data
        };
        lines.clear();
        for _ in 0..BATCH {
            lines.push(LineAddr(rng.next_below(1 << 16)));
        }
        for &line in &lines {
            mem.access(line, now, kind);
        }
    }) * BATCH as f64
}

/// Warp-stream generation throughput: ops/sec of the allocation-free
/// [`WarpStream::next_op_into`] path (GUPS — the divergence-heaviest
/// profile, so the dedup is exercised hardest).
fn stream_gen_rate() -> f64 {
    let mut seed = 0u64;
    let mut stream = WarpStream::new(AppId::Gups.profile(), seed, 0, 100_000);
    let mut refs: Vec<MemRef> = Vec::new();
    rate(2_000_000, || {
        if stream.next_op_into(&mut refs).is_none() {
            seed += 1;
            stream = WarpStream::new(AppId::Gups.profile(), seed, 0, 100_000);
        }
    })
}

fn subsystems() -> Json {
    let tlb = tlb_probe_rate();
    let pwc = pwc_rate();
    let walk = walk_scheduler_rate();
    let mem = mem_access_rate();
    let stream = stream_gen_rate();
    eprintln!(
        "subsystems: tlb {tlb:.0} ops/s, pwc {pwc:.0} ops/s, walk sched {walk:.0} ops/s, \
         mem {mem:.0} ops/s, stream gen {stream:.0} ops/s"
    );
    Json::Obj(vec![
        ("tlb_probe_ops_per_sec".into(), Json::Num(tlb)),
        ("pwc_ops_per_sec".into(), Json::Num(pwc)),
        ("walk_scheduler_ops_per_sec".into(), Json::Num(walk)),
        ("mem_access_ops_per_sec".into(), Json::Num(mem)),
        ("stream_gen_ops_per_sec".into(), Json::Num(stream)),
    ])
}

fn sim_throughput() -> Json {
    let cfg = Scale::Quick
        .base_config()
        .for_tenants(2)
        .with_preset(PolicyPreset::DwsPlusPlus);
    let apps = [AppId::Gups, AppId::Mm];
    let mut events = 0u64;
    let mut best = 0.0f64;
    // A quick-scale run is tens of milliseconds, so single samples are at
    // the mercy of scheduler jitter; take the best of a batch to report
    // what the code can do rather than what the host happened to allow.
    for _ in 0..10 {
        let start = Instant::now();
        let r = SimulationBuilder::new()
            .config(cfg.clone())
            .tenants(apps)
            .seed(42)
            .build()
            .run();
        let rate = r.events as f64 / start.elapsed().as_secs_f64();
        events = r.events;
        best = best.max(rate);
    }
    eprintln!("simulation: {events} events, best {best:.0} ev/s");
    Json::Obj(vec![
        ("scale".into(), Json::Str("quick".into())),
        ("events".into(), Json::UInt(events)),
        ("events_per_sec".into(), Json::Num(best)),
    ])
}

fn scaling_jobs(n: usize) -> Vec<Job> {
    let pairs = paper_pairs();
    (0..n)
        .map(|i| {
            let pair = pairs[i % pairs.len()];
            let seed = 42 + (i / pairs.len()) as u64;
            let cfg = Scale::Quick
                .base_config()
                .for_tenants(2)
                .with_preset(PolicyPreset::Dws);
            Job {
                key: ExpKey::pair(PolicyPreset::Dws, pair, "quick", seed),
                cfg,
                apps: pair.apps().to_vec(),
                seed,
                scenario: None,
            }
        })
        .collect()
}

fn parallel_scaling(jobs: usize) -> Json {
    let batch = scaling_jobs(batch_size(jobs));
    let n = batch.len();

    let mut serial_store = Store::in_memory();
    let start = Instant::now();
    parallel::run_jobs(&mut serial_store, &batch, 1, &parallel::RunOptions::default());
    let serial = start.elapsed().as_secs_f64();

    let mut parallel_store = Store::in_memory();
    let start = Instant::now();
    parallel::run_jobs(&mut parallel_store, &batch, jobs, &parallel::RunOptions::default());
    let par = start.elapsed().as_secs_f64();

    let identical = batch
        .iter()
        .all(|j| serial_store.lookup(&j.key) == parallel_store.lookup(&j.key));
    assert!(identical, "parallel results diverged from serial");
    eprintln!(
        "parallel: {n} sims, serial {serial:.2}s, {jobs} workers {par:.2}s ({:.2}x)",
        serial / par
    );
    Json::Obj(vec![
        ("n_sims".into(), Json::UInt(n as u64)),
        ("serial_secs".into(), Json::Num(serial)),
        ("parallel_secs".into(), Json::Num(par)),
        ("sims_per_sec_serial".into(), Json::Num(n as f64 / serial)),
        ("sims_per_sec_parallel".into(), Json::Num(n as f64 / par)),
        ("speedup".into(), Json::Num(serial / par)),
        ("identical_results".into(), Json::Bool(identical)),
    ])
}

/// Runs all four measurements with `jobs` workers and returns the report.
///
/// `host_parallelism` records what the host actually exposes. When that is
/// a single core, the parallel-scaling section is skipped with a note
/// instead of measured: a multi-worker batch on one core times only
/// scheduler overhead, and a snapshot of that number reads as a real (and
/// alarming) sub-1.0 "speedup".
#[must_use]
pub fn selftest(jobs: usize) -> Json {
    let host = parallel::default_jobs();
    let par = if host > 1 {
        parallel_scaling(jobs)
    } else {
        eprintln!(
            "parallel: skipped - host exposes a single core, so a multi-worker \
             speedup would only measure scheduler overhead"
        );
        Json::Obj(vec![(
            "skipped".into(),
            Json::Str("host exposes a single core; parallel speedup not measurable".into()),
        )])
    };
    Json::Obj(vec![
        ("jobs".into(), Json::UInt(jobs as u64)),
        ("host_parallelism".into(), Json::UInt(host as u64)),
        ("queue_micro".into(), queue_micro()),
        ("subsystems".into(), subsystems()),
        ("simulation".into(), sim_throughput()),
        ("parallel".into(), par),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_queues_agree_on_the_micro_workload() {
        // Replay a short prefix of the benchmark loop on both queues and
        // check every popped (cycle, value) pair matches.
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut rng_a = SimRng::new(0xC0FFEE);
        let mut rng_b = SimRng::new(0xC0FFEE);
        for i in 0..64 {
            cal.push(Cycle(rng_a.next_below(512)), i);
            heap.push(Cycle(rng_b.next_below(512)), i);
        }
        for n in 0..5_000u64 {
            let a = cal.pop().unwrap();
            let b = heap.pop().unwrap();
            assert_eq!(a, b, "divergence at op {n}");
            let (da, db) = (
                1 + rng_a.next_geometric(1.0 / 120.0),
                1 + rng_b.next_geometric(1.0 / 120.0),
            );
            assert_eq!(da, db);
            cal.push(Cycle(a.0 .0 + da), n);
            heap.push(Cycle(b.0 .0 + db), n);
        }
    }

    #[test]
    fn batch_size_covers_the_workers() {
        assert_eq!(batch_size(1), 8);
        assert_eq!(batch_size(8), 16);
        assert!(batch_size(3) >= 6);
    }

    #[test]
    fn scaling_jobs_have_distinct_keys() {
        let jobs = scaling_jobs(50); // wraps past the 45 paper pairs
        let mut keys: Vec<String> = jobs.iter().map(|j| j.key.to_string()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len());
    }
}
