//! Lockstep differential tests for the cycle-batched translation entry
//! points: every batched API against its scalar equivalent, on identical
//! randomized traffic.
//!
//! The batched hot path ([`Tlb::probe_batch`] / [`Tlb::probe_run`],
//! [`PwCache::probe_batch`], [`WalkSubsystem::try_enqueue_batch`]) exists
//! purely to cut constant factors; its contract is that state evolution —
//! results, LRU order, statistics, every accept/reject and steal decision —
//! is *identical* to calling the scalar API once per element in order.
//! These tests pin that contract the way `walk_differential.rs` pins the
//! optimized scheduler against the reference scan implementation: drive
//! both sides in lockstep and compare everything observable after every
//! step.
//!
//! The last test is the batching legality property itself: same-cycle
//! arrivals *from one tenant* (the granularity the simulator batches at —
//! one warp's coalesced references, one SM's same-cycle misses) may be
//! presented to the scheduler in any order without changing its walker
//! assignments or steal decisions, because those depend only on scheduler
//! state, never on the VPN being walked. Cross-tenant order stays
//! semantic — an earlier arrival can take the queue slot or idle walker a
//! later one would have used — which is why the batch APIs are
//! order-preserving rather than sorting.

use walksteal::mem::{AccessKind, CacheConfig, DramConfig, MemSystem, MemSystemConfig};
use walksteal::multitenant::{GpuConfig, PolicyPreset};
use walksteal::sim::{Cycle, LineAddr, Observer, PhysAddr, Ppn, SimRng, TenantId, Vpn};
use walksteal::vm::walk::WalkContext;
use walksteal::vm::{
    DispatchedWalk, FrameAlloc, PageSize, PageTable, PwCache, Replacement, StealMode, Tlb,
    TlbConfig, WalkConfig, WalkPolicyKind, WalkRequest, WalkSubsystem,
};

const TENANT_COUNTS: [usize; 3] = [2, 3, 4];
const SEEDS: [u64; 3] = [0xB1, 0xB2, 0xB3];

fn tlb(n_tenants: usize) -> Tlb {
    // Tiny sets force evictions so the batch paths see misses, refills,
    // and LRU churn, not just a warm cache.
    Tlb::new(
        TlbConfig {
            sets: 4,
            ways: 2,
            replacement: Replacement::Lru,
        },
        n_tenants,
    )
}

/// Random (tenant, vpn) with deliberate repeats, so batches contain the
/// consecutive-duplicate runs (warp divergence) the dedup memo targets.
fn traffic(rng: &mut SimRng, n_tenants: usize, prev: Option<(TenantId, Vpn)>) -> (TenantId, Vpn) {
    if let Some(p) = prev {
        if rng.chance(0.35) {
            return p;
        }
    }
    let t = TenantId(rng.next_below(n_tenants as u64) as u8);
    (t, Vpn(rng.next_below(48)))
}

/// [`Tlb::probe_batch`] evolves hits, misses, LRU order, and results
/// exactly as element-wise [`Tlb::probe`], across tenant counts and seeds,
/// with fills interleaved between batches.
#[test]
fn tlb_probe_batch_matches_scalar() {
    for n_tenants in TENANT_COUNTS {
        for seed in SEEDS {
            let mut rng = SimRng::new(seed);
            let mut batched = tlb(n_tenants);
            let mut scalar = tlb(n_tenants);
            let mut probes: Vec<(TenantId, Vpn)> = Vec::new();
            let mut out = Vec::new();
            let mut now = Cycle::ZERO;
            for round in 0..400 {
                now += 1;
                probes.clear();
                let mut prev = None;
                for _ in 0..1 + rng.next_below(8) {
                    let p = traffic(&mut rng, n_tenants, prev);
                    probes.push(p);
                    prev = Some(p);
                }
                batched.probe_batch(&probes, &mut out);
                for (i, &(t, v)) in probes.iter().enumerate() {
                    let want = scalar.probe(t, v);
                    assert_eq!(
                        out[i], want,
                        "{n_tenants}t seed {seed:#x} round {round} probe {i} diverged"
                    );
                }
                // After the whole batch resolves (probes never fill —
                // that's what makes same-cycle batching legal), both sides
                // fill their misses identically so LRU evolution stays
                // comparable across rounds.
                for (i, &(t, v)) in probes.iter().enumerate() {
                    if out[i].is_none() {
                        batched.fill(t, v, Ppn(v.0 + 100 * u64::from(t.0)), now);
                        scalar.fill(t, v, Ppn(v.0 + 100 * u64::from(t.0)), now);
                    }
                }
                assert_eq!(batched.hits(), scalar.hits(), "hits @ round {round}");
                assert_eq!(batched.misses(), scalar.misses(), "misses @ round {round}");
            }
        }
    }
}

/// [`Tlb::probe_run`] consumes exactly up to (and including) the first
/// miss, with every consumed probe's result and bookkeeping matching the
/// scalar replay — including the fill-and-resume loop its caller runs.
#[test]
fn tlb_probe_run_matches_scalar() {
    for n_tenants in TENANT_COUNTS {
        for seed in SEEDS {
            let mut rng = SimRng::new(seed);
            let mut batched = tlb(n_tenants);
            let mut scalar = tlb(n_tenants);
            let mut out = Vec::new();
            let mut now = Cycle::ZERO;
            for round in 0..400 {
                now += 1;
                let t = TenantId(rng.next_below(n_tenants as u64) as u8);
                let mut vpns: Vec<Vpn> = Vec::new();
                for _ in 0..1 + rng.next_below(8) {
                    let prev = vpns.last().copied();
                    vpns.push(match prev {
                        Some(p) if rng.chance(0.35) => p,
                        _ => Vpn(rng.next_below(48)),
                    });
                }
                // The caller's loop: batch the leading hit run, fill the
                // trailing miss, resume after it.
                let mut start = 0;
                while start < vpns.len() {
                    let used = batched.probe_run(t, &vpns[start..], &mut out);
                    assert!(used >= 1, "probe_run must always consume");
                    for (i, &v) in vpns[start..start + used].iter().enumerate() {
                        let want = scalar.probe(t, v);
                        assert_eq!(
                            out[i], want,
                            "{n_tenants}t seed {seed:#x} round {round} diverged"
                        );
                        if i + 1 < used {
                            assert!(want.is_some(), "probe_run ran past a miss");
                        }
                    }
                    let last = out[used - 1];
                    if last.is_none() {
                        let v = vpns[start + used - 1];
                        batched.fill(t, v, Ppn(v.0), now);
                        scalar.fill(t, v, Ppn(v.0), now);
                    } else {
                        assert_eq!(used, vpns.len() - start, "stopped without a miss");
                    }
                    start += used;
                }
                assert_eq!(batched.hits(), scalar.hits(), "hits @ round {round}");
                assert_eq!(batched.misses(), scalar.misses(), "misses @ round {round}");
            }
        }
    }
}

/// [`PwCache::probe_batch`] evolves hits, misses, and LRU order exactly as
/// element-wise [`PwCache::probe`], with walk fills interleaved.
#[test]
fn pwc_probe_batch_matches_scalar() {
    for n_tenants in TENANT_COUNTS {
        for seed in SEEDS {
            let mut rng = SimRng::new(seed);
            // Small enough to evict under the working set below.
            let mut batched = PwCache::new(8);
            let mut scalar = PwCache::new(8);
            let mut out = Vec::new();
            for round in 0..400 {
                let t = TenantId(rng.next_below(n_tenants as u64) as u8);
                let mut vpns: Vec<Vpn> = Vec::new();
                for _ in 0..1 + rng.next_below(6) {
                    let prev = vpns.last().copied();
                    vpns.push(match prev {
                        Some(p) if rng.chance(0.35) => p,
                        // Few distinct subtrees, so prefixes collide and hit.
                        _ => Vpn((rng.next_below(4) << 27) | (rng.next_below(4) << 18)),
                    });
                }
                batched.probe_batch(t, &vpns, 4, &mut out);
                for (i, &v) in vpns.iter().enumerate() {
                    let want = scalar.probe(t, v, 4);
                    assert_eq!(
                        out[i], want,
                        "{n_tenants}t seed {seed:#x} round {round} probe {i} diverged"
                    );
                }
                // Fills happen after the whole same-cycle batch resolves
                // (probes never insert), identically on both sides.
                for (i, &v) in vpns.iter().enumerate() {
                    if out[i].is_none() {
                        let nodes = [
                            PhysAddr(0x1000),
                            PhysAddr(0x2000 + v.0),
                            PhysAddr(0x3000 + v.0),
                            PhysAddr(0x4000 + v.0),
                        ];
                        batched.fill_walk(t, v, &nodes);
                        scalar.fill_walk(t, v, &nodes);
                    }
                }
                assert_eq!(batched.hits(), scalar.hits(), "hits @ round {round}");
                assert_eq!(batched.misses(), scalar.misses(), "misses @ round {round}");
                assert_eq!(batched.occupancy(), scalar.occupancy(), "occupancy");
            }
        }
    }
}

/// One walk subsystem plus the deterministic machinery it dispatches
/// against (the `Side` shape from `walk_differential.rs`).
struct Side {
    ws: WalkSubsystem,
    page_tables: Vec<PageTable>,
    frames: FrameAlloc,
    mem: MemSystem,
    obs: Observer,
}

impl Side {
    fn new(walk: &WalkConfig) -> Side {
        Side {
            ws: WalkSubsystem::new(walk.clone()),
            page_tables: (0..walk.n_tenants)
                .map(|t| PageTable::new(TenantId(t as u8), PageSize::Small4K))
                .collect(),
            frames: FrameAlloc::new(),
            mem: MemSystem::new(MemSystemConfig::default()),
            obs: Observer::off(),
        }
    }

    fn enqueue(
        &mut self,
        req: WalkRequest,
        now: Cycle,
    ) -> Result<Option<DispatchedWalk>, walksteal::vm::WalkQueueFull> {
        let mut ctx = WalkContext {
            page_tables: &mut self.page_tables,
            frames: &mut self.frames,
            mem: &mut self.mem,
            mask: None,
            obs: &mut self.obs,
        };
        self.ws.try_enqueue(req, now, &mut ctx)
    }

    fn enqueue_batch(
        &mut self,
        reqs: &[WalkRequest],
        now: Cycle,
        out: &mut Vec<Result<Option<DispatchedWalk>, walksteal::vm::WalkQueueFull>>,
    ) {
        let mut ctx = WalkContext {
            page_tables: &mut self.page_tables,
            frames: &mut self.frames,
            mem: &mut self.mem,
            mask: None,
            obs: &mut self.obs,
        };
        self.ws.try_enqueue_batch(reqs, now, &mut ctx, out);
    }

    fn complete(&mut self, d: DispatchedWalk) -> Option<DispatchedWalk> {
        let mut ctx = WalkContext {
            page_tables: &mut self.page_tables,
            frames: &mut self.frames,
            mem: &mut self.mem,
            mask: None,
            obs: &mut self.obs,
        };
        self.ws.on_walker_done(d.walker, d.done_at, &mut ctx).1
    }
}

/// Asserts everything either subsystem exposes matches, including the
/// partitioned-only views when present.
fn assert_ws_eq(a: &Side, b: &Side, at: &str) {
    assert_eq!(a.ws.queued_len(), b.ws.queued_len(), "queued_len @ {at}");
    assert_eq!(a.ws.busy_walkers(), b.ws.busy_walkers(), "busy @ {at}");
    assert_eq!(
        a.ws.busy_per_tenant(),
        b.ws.busy_per_tenant(),
        "busy_per_tenant @ {at}"
    );
    assert_eq!(a.ws.pend_walks(), b.ws.pend_walks(), "pend_walks @ {at}");
    assert_eq!(
        a.ws.walker_queue_depths(),
        b.ws.walker_queue_depths(),
        "queue depths @ {at}"
    );
    assert_eq!(
        a.ws.walker_stolen_bits(),
        b.ws.walker_stolen_bits(),
        "stolen bits @ {at}"
    );
    let (sa, sb) = (a.ws.stats(), b.ws.stats());
    assert_eq!(sa.enqueued, sb.enqueued, "enqueued @ {at}");
    assert_eq!(sa.completed, sb.completed, "completed @ {at}");
    assert_eq!(sa.stolen, sb.stolen, "stolen @ {at}");
    assert_eq!(sa.rejected, sb.rejected, "rejected @ {at}");
    assert_eq!(sa.total_latency, sb.total_latency, "latency @ {at}");
}

/// Drives a batched side ([`WalkSubsystem::try_enqueue_batch`] per burst)
/// against a scalar side (`try_enqueue` per request) through random bursty
/// multi-tenant traffic, asserting identical decisions and state at every
/// step. Returns (stolen, rejected) totals so callers can assert coverage.
fn drive_batched_vs_scalar(walk: &WalkConfig, label: &str, seed: u64, steps: usize) -> (u64, u64) {
    let mut a = Side::new(walk);
    let mut b = Side::new(walk);
    let n_tenants = walk.n_tenants;
    let mut rng = SimRng::new(seed);
    let mut now = Cycle::ZERO;
    let mut reqs: Vec<WalkRequest> = Vec::new();
    let mut batch_out = Vec::new();
    let mut outstanding: Vec<DispatchedWalk> = Vec::new();

    for step in 0..steps {
        now += 1 + rng.next_below(7);
        while let Some(&d) = outstanding.first() {
            if d.done_at > now {
                break;
            }
            outstanding.remove(0);
            let na = a.complete(d);
            let nb = b.complete(d);
            assert_eq!(na, nb, "{label} step {step}: follow-on dispatch diverged");
            if let Some(n) = na {
                let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
                outstanding.insert(pos, n);
            }
        }

        // Bursty same-cycle arrivals; solo phases drain the other tenants'
        // PEND_WALKS to zero, the only state DWS steals from (the traffic
        // shape of `walk_differential.rs`, which provokes steals and
        // queue-full rejects).
        let solo_phase = (step / 500) % 3 == 1;
        reqs.clear();
        for _ in 0..rng.next_below(5) {
            let t = if solo_phase {
                TenantId(0)
            } else {
                TenantId(rng.next_below(n_tenants as u64) as u8)
            };
            let vpn = Vpn((u64::from(t.0) << 32) | rng.next_below(50_000));
            reqs.push(WalkRequest { tenant: t, vpn });
        }
        a.enqueue_batch(&reqs, now, &mut batch_out);
        assert_eq!(batch_out.len(), reqs.len(), "{label}: result per request");
        for (i, (&req, ra)) in reqs.iter().zip(&batch_out).enumerate() {
            let rb = b.enqueue(req, now);
            assert_eq!(
                *ra, rb,
                "{label} step {step}: enqueue decision {i} diverged"
            );
            if let Ok(Some(d)) = *ra {
                let pos = outstanding.partition_point(|o| o.done_at <= d.done_at);
                outstanding.insert(pos, d);
            }
        }
        assert_ws_eq(&a, &b, &format!("{label} step {step}"));
    }

    while let Some(d) = outstanding.first().copied() {
        outstanding.remove(0);
        let na = a.complete(d);
        let nb = b.complete(d);
        assert_eq!(na, nb, "{label}: drain dispatch diverged");
        if let Some(n) = na {
            let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
            outstanding.insert(pos, n);
        }
    }
    assert_ws_eq(&a, &b, &format!("{label} terminal"));
    assert_eq!(a.ws.busy_walkers(), 0, "{label}: walks left in flight");
    let stats = a.ws.stats();
    (stats.stolen.iter().sum(), stats.rejected.iter().sum())
}

/// Walker count for an even split: Table I's 16 rounded up (the scenario
/// engine's `walkers_for_tenants`).
fn walkers_for(n: usize) -> usize {
    16usize.div_ceil(n) * n
}

/// The batched enqueue path matches scalar across every policy preset,
/// 2/3/4 tenants, and three seeds each — and under DWS the traffic
/// actually provokes steals and queue-full rejects, so the comparison
/// covered the paths that matter.
#[test]
fn walk_enqueue_batch_matches_scalar_all_presets() {
    for preset in PolicyPreset::ALL {
        for n_tenants in TENANT_COUNTS {
            let cfg = GpuConfig::default()
                .with_n_sms(8 * n_tenants)
                .with_walkers(walkers_for(n_tenants))
                .for_tenants(n_tenants)
                .with_preset(preset);
            let mut stolen = 0;
            let mut rejected = 0;
            for seed in SEEDS {
                let (s, r) = drive_batched_vs_scalar(
                    &cfg.walk,
                    &format!("{preset}/{n_tenants}t"),
                    seed,
                    4_000,
                );
                stolen += s;
                rejected += r;
            }
            if preset == PolicyPreset::Dws && n_tenants == 2 {
                assert!(stolen > 0, "traffic produced no steals under DWS");
                assert!(rejected > 0, "traffic produced no queue-full rejects");
            }
        }
    }
}

/// The three policy-arena presets run the same batched-vs-scalar walk
/// lockstep as the paper presets, with the non-vacuity each design
/// promises: MOSAIC and DE-GUARD ride DWS partitions and must provoke
/// steals, while SE-TLB is MIG-style static partitioning and must never
/// steal — across 2/3/4 tenants and three seeds each.
#[test]
fn arena_preset_walk_configs_lockstep_with_steal_nonvacuity() {
    for preset in PolicyPreset::ARENA {
        let mut stolen = 0;
        for n_tenants in TENANT_COUNTS {
            let cfg = GpuConfig::default()
                .with_n_sms(8 * n_tenants)
                .with_walkers(walkers_for(n_tenants))
                .for_tenants(n_tenants)
                .with_preset(preset);
            for seed in SEEDS {
                let (s, _) = drive_batched_vs_scalar(
                    &cfg.walk,
                    &format!("{preset}/{n_tenants}t"),
                    seed,
                    4_000,
                );
                stolen += s;
            }
        }
        if preset == PolicyPreset::SubEntryTlb {
            assert_eq!(stolen, 0, "SE-TLB static partitions must never steal");
        } else {
            assert!(stolen > 0, "{preset}: arena traffic produced no steals");
        }
    }
}

/// [`ArenaTlb::probe_batch`] evolves per-element results and hit/miss
/// statistics exactly as element-wise [`ArenaTlb::probe`], for all three
/// arena organizations across tenant counts and seeds — with fills and
/// periodic tenant shootdowns interleaved, and each design's structural
/// invariants checked on both sides every round.
#[test]
fn arena_tlb_probe_batch_matches_scalar() {
    use walksteal::vm::{ArenaTlb, ArenaTlbKind};
    let kinds = [
        ArenaTlbKind::SubEntry,
        ArenaTlbKind::Mosaic,
        ArenaTlbKind::DeadGuard,
    ];
    for kind in kinds {
        for n_tenants in TENANT_COUNTS {
            for seed in SEEDS {
                let cfg = TlbConfig {
                    sets: 4,
                    ways: 2,
                    replacement: Replacement::Lru,
                };
                let mut batched = ArenaTlb::new(kind, cfg, n_tenants, PageSize::Small4K);
                let mut scalar = ArenaTlb::new(kind, cfg, n_tenants, PageSize::Small4K);
                let mut rng = SimRng::new(seed);
                let mut probes: Vec<(TenantId, Vpn)> = Vec::new();
                let mut out = Vec::new();
                let mut now = Cycle::ZERO;
                for round in 0..400 {
                    now += 1;
                    probes.clear();
                    let mut prev = None;
                    for _ in 0..1 + rng.next_below(8) {
                        let p = traffic(&mut rng, n_tenants, prev);
                        probes.push(p);
                        prev = Some(p);
                    }
                    batched.probe_batch(&probes, &mut out);
                    for (i, &(t, v)) in probes.iter().enumerate() {
                        let want = scalar.probe(t, v);
                        assert_eq!(
                            out[i], want,
                            "{kind:?} {n_tenants}t seed {seed:#x} round {round} probe {i}"
                        );
                    }
                    for (i, &(t, v)) in probes.iter().enumerate() {
                        if out[i].is_none() {
                            // Group-consistent frames (what the Mosaic
                            // reservation allocator hands out), so coalesced
                            // large-page translations stay coherent with the
                            // base entries they replace.
                            let ppn =
                                Ppn((u64::from(t.0) << 40) | ((v.0 >> 3) << 10) | (v.0 & 7));
                            batched.fill(t, v, ppn, now);
                            scalar.fill(t, v, ppn, now);
                        }
                    }
                    if round > 0 && round % 97 == 0 {
                        let t = TenantId(rng.next_below(n_tenants as u64) as u8);
                        assert_eq!(
                            batched.invalidate_tenant(t, now),
                            scalar.invalidate_tenant(t, now),
                            "{kind:?} round {round}: shootdown count diverged"
                        );
                    }
                    assert_eq!(batched.hits(), scalar.hits(), "{kind:?} hits @ {round}");
                    assert_eq!(batched.misses(), scalar.misses(), "{kind:?} misses @ {round}");
                    batched
                        .check_invariants()
                        .unwrap_or_else(|e| panic!("batched {kind:?} round {round}: {e}"));
                    scalar
                        .check_invariants()
                        .unwrap_or_else(|e| panic!("scalar {kind:?} round {round}: {e}"));
                }
                assert!(
                    batched.hits() > 0 && batched.misses() > 0,
                    "{kind:?}: the comparison saw no real hit/miss mix"
                );
            }
        }
    }
}

/// Everything the memory system exposes, compared between sides: the
/// per-kind hit/DRAM statistics, the per-bank arbitration cursors, and the
/// per-channel DRAM cursors plus its access/queue-wait accounting.
fn assert_mem_eq(a: &MemSystem, b: &MemSystem, at: &str) {
    assert_eq!(a.stats(), b.stats(), "stats @ {at}");
    assert_eq!(a.bank_free(), b.bank_free(), "bank_free @ {at}");
    assert_eq!(
        a.dram().next_free(),
        b.dram().next_free(),
        "dram next_free @ {at}"
    );
    assert_eq!(
        a.dram().accesses(),
        b.dram().accesses(),
        "dram accesses @ {at}"
    );
    assert!(
        (a.dram_mean_queue_wait() - b.dram_mean_queue_wait()).abs() < 1e-12,
        "dram queue wait @ {at}"
    );
}

/// Memory-system hardware shapes the lockstep suite runs under. The
/// bank count deliberately differs from the channel count in both
/// directions, so requests that never collide on an L2 bank still collide
/// on a DRAM channel (and vice versa) — the cross-resource contention the
/// batch's per-bank grouping has to replay exactly.
fn mem_shapes() -> Vec<MemSystemConfig> {
    let tiny = CacheConfig { sets: 4, ways: 2 };
    vec![
        MemSystemConfig::default(),
        // 4 banks over 2 channels: cross-bank channel conflicts.
        MemSystemConfig {
            l2_banks: 4,
            l2_bank: tiny,
            l2_hit_latency: 9,
            l2_bank_occupancy: 3,
            dram: DramConfig {
                channels: 2,
                access_latency: 40,
                occupancy_cycles: 11,
            },
        },
        // 2 banks over 8 channels: bank contention dominates.
        MemSystemConfig {
            l2_banks: 2,
            l2_bank: tiny,
            l2_hit_latency: 5,
            l2_bank_occupancy: 4,
            dram: DramConfig {
                channels: 8,
                access_latency: 60,
                occupancy_cycles: 7,
            },
        },
    ]
}

/// [`MemSystem::access_batch`] locksteps against element-wise
/// [`MemSystem::access`]: per-request results, L2 contents, bank cursors,
/// DRAM channel cursors, and statistics all match after every same-cycle
/// batch, across hardware shapes, 2/3/4-tenant traffic mixes, and seeds —
/// with the contention being replayed asserted non-vacuous.
#[test]
fn mem_access_batch_matches_scalar_lockstep() {
    for (shape, cfg) in mem_shapes().into_iter().enumerate() {
        for n_tenants in TENANT_COUNTS {
            for seed in SEEDS {
                let mut batched = MemSystem::new(cfg);
                let mut scalar = MemSystem::new(cfg);
                let mut rng = SimRng::new(seed ^ (shape as u64) << 32);
                let mut now = Cycle::ZERO;
                let mut lines: Vec<LineAddr> = Vec::new();
                let mut out = Vec::new();
                let (mut l2_hits, mut drams, mut bypasses) = (0u64, 0u64, 0u64);
                for step in 0..250 {
                    now += rng.next_below(4);
                    let kind = match rng.next_below(10) {
                        0..=1 => AccessKind::PageTable,
                        2 => AccessKind::PageTableBypass,
                        _ => AccessKind::Data,
                    };
                    // A cycle's coalesced misses: each tenant's warps touch
                    // a private region (so the mix shifts with the tenant
                    // count) with heavy line reuse for L2 hits.
                    lines.clear();
                    // Mostly warp-width bursts (the scalar-replay fast
                    // path); every fourth step goes wider than GROUPED_MIN
                    // so the grouped per-bank pass locksteps too.
                    let width = if step % 4 == 0 {
                        MemSystem::GROUPED_MIN as u64 + rng.next_below(32)
                    } else {
                        1 + rng.next_below(16)
                    };
                    for _ in 0..width {
                        let t = rng.next_below(n_tenants as u64);
                        lines.push(LineAddr((t << 10) | rng.next_below(96)));
                    }
                    out.clear();
                    batched.access_batch(&lines, now, kind, &mut out);
                    for (i, &line) in lines.iter().enumerate() {
                        let want = scalar.access(line, now, kind);
                        assert_eq!(
                            out[i], want,
                            "shape {shape} {n_tenants}t seed {seed:#x} step {step} req {i}"
                        );
                        match want.level {
                            walksteal::mem::HitLevel::L2 => l2_hits += 1,
                            walksteal::mem::HitLevel::Dram => drams += 1,
                        }
                        if kind == AccessKind::PageTableBypass {
                            bypasses += 1;
                        }
                    }
                    for &line in &lines {
                        assert_eq!(
                            batched.l2_contains(line),
                            scalar.l2_contains(line),
                            "shape {shape} step {step}: L2 contents diverged"
                        );
                    }
                    assert_mem_eq(
                        &batched,
                        &scalar,
                        &format!("shape {shape} {n_tenants}t seed {seed:#x} step {step}"),
                    );
                }
                // The comparison must have covered real contention and a
                // real hit/miss/bypass mix, not an idle memory system.
                assert!(l2_hits > 0 && drams > 0 && bypasses > 0, "vacuous mix");
                assert!(
                    batched.dram_mean_queue_wait() > 0.0,
                    "shape {shape}: no DRAM channel conflicts were replayed"
                );
                assert!(
                    batched.bank_free().iter().any(|&c| c > Cycle::ZERO),
                    "shape {shape}: no L2 bank contention was replayed"
                );
            }
        }
    }
}

/// The batching legality property: permuting a same-cycle, single-tenant
/// batch of arrivals leaves every steal decision unchanged — the same
/// walkers dispatch, with the same stolen bits, and the scheduler lands in
/// the same aggregate state (PEND_WALKS, queue depths, busy counts,
/// steal/reject statistics). Only the VPN↔walker pairing (and hence each
/// walk's latency) follows the permutation, because walker choice depends
/// on scheduler state alone.
#[test]
fn single_tenant_batch_order_permutation_preserves_steal_decisions() {
    let modes = [
        StealMode::Dws,
        StealMode::DwsPlusPlus(walksteal::vm::DwsPlusPlusParams::paper_default()),
    ];
    for mode in modes {
        for seed in 0..6u64 {
            let walk = WalkConfig {
                n_walkers: 12,
                queue_entries: 24,
                n_tenants: 3,
                policy: WalkPolicyKind::Partitioned(mode.clone()),
                pwc_entries: 128,
                pwc_latency: 2,
                dispatch_overhead: 2,
                strict_pend_check: true,
            };
            let mut a = Side::new(&walk);
            let mut b = Side::new(&walk);

            // Warm both sides identically: same seed, same replayed
            // traffic, so they reach the same scheduler state — including
            // starvation phases that leave foreign walkers idle and
            // stealable.
            let mut rng = SimRng::new(0x5EED ^ seed);
            let mut now = Cycle::ZERO;
            let mut outstanding: Vec<DispatchedWalk> = Vec::new();
            for step in 0..600 {
                now += 1 + rng.next_below(7);
                while let Some(&d) = outstanding.first() {
                    if d.done_at > now {
                        break;
                    }
                    outstanding.remove(0);
                    let na = a.complete(d);
                    let nb = b.complete(d);
                    assert_eq!(na, nb, "warm-up diverged (must be deterministic)");
                    if let Some(n) = na {
                        let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
                        outstanding.insert(pos, n);
                    }
                }
                let solo = (step / 150) % 2 == 1;
                for _ in 0..rng.next_below(5) {
                    let t = if solo {
                        TenantId(0)
                    } else {
                        TenantId(rng.next_below(3) as u8)
                    };
                    let vpn = Vpn((u64::from(t.0) << 32) | rng.next_below(4_000));
                    let req = WalkRequest { tenant: t, vpn };
                    let ra = a.enqueue(req, now);
                    let rb = b.enqueue(req, now);
                    assert_eq!(ra, rb, "warm-up diverged");
                    if let Ok(Some(d)) = ra {
                        let pos = outstanding.partition_point(|o| o.done_at <= d.done_at);
                        outstanding.insert(pos, d);
                    }
                }
            }

            // The probe: one same-cycle batch from tenant 0, forward on
            // side A, a rotated permutation on side B.
            now += 1;
            let k = 3 + rng.next_below(4) as usize;
            let batch: Vec<WalkRequest> = (0..k)
                .map(|_| WalkRequest {
                    tenant: TenantId(0),
                    vpn: Vpn(rng.next_below(4_000)),
                })
                .collect();
            let rot = 1 + rng.next_below(k as u64 - 1) as usize;
            let mut permuted = batch.clone();
            permuted.rotate_left(rot);

            let decisions = |side: &mut Side, reqs: &[WalkRequest], now: Cycle| {
                let mut seq = Vec::new();
                let mut accepted = 0u32;
                for &req in reqs {
                    let r = side.enqueue(req, now);
                    if let Ok(d) = r {
                        accepted += 1;
                        seq.push(d.map(|d| {
                            let w = d.walker.index();
                            let stolen = side.ws.walker_stolen_bits().expect("partitioned")[w];
                            (w, stolen)
                        }));
                    }
                }
                (seq, accepted)
            };
            let (seq_a, acc_a) = decisions(&mut a, &batch, now);
            let (seq_b, acc_b) = decisions(&mut b, &permuted, now);
            assert_eq!(acc_a, acc_b, "{mode:?} seed {seed}: accept count diverged");
            assert_eq!(
                seq_a, seq_b,
                "{mode:?} seed {seed}: walker/steal decision sequence diverged"
            );
            assert_eq!(a.ws.pend_walks(), b.ws.pend_walks(), "{mode:?} {seed}");
            assert_eq!(
                a.ws.walker_queue_depths(),
                b.ws.walker_queue_depths(),
                "{mode:?} {seed}"
            );
            assert_eq!(
                a.ws.walker_stolen_bits(),
                b.ws.walker_stolen_bits(),
                "{mode:?} {seed}"
            );
            assert_eq!(
                a.ws.busy_per_tenant(),
                b.ws.busy_per_tenant(),
                "{mode:?} {seed}"
            );
            let (sa, sb) = (a.ws.stats(), b.ws.stats());
            assert_eq!(sa.stolen, sb.stolen, "{mode:?} {seed}: steal counts");
            assert_eq!(sa.enqueued, sb.enqueued, "{mode:?} {seed}");
            assert_eq!(sa.rejected, sb.rejected, "{mode:?} {seed}");
        }
    }
}
