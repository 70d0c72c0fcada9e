//! Property-style tests on the core data structures and the invariants the
//! walk-stealing design guarantees.
//!
//! Each test replays one property over many randomized cases. Inputs come
//! from the repo's own deterministic [`SimRng`] (no external
//! property-testing crate), so failures reproduce exactly: the case index
//! in the assertion message pins down the failing input.

use std::collections::HashMap;

use walksteal::invariants;
use walksteal::mem::{AccessKind, Cache, CacheConfig, MemSystem, MemSystemConfig};
use walksteal::sim::{Cycle, EventQueue, LineAddr, Observer, PhysAddr, Ppn, SimRng, TenantId, Vpn};
use walksteal::vm::walk::WalkContext;
use walksteal::vm::{
    DispatchedWalk, DwsPlusPlusParams, FrameAlloc, PageSize, PageTable, Replacement, SchedulerImpl,
    StealMode, Tlb, TlbConfig, WalkConfig, WalkPath, WalkPolicyKind, WalkRequest, WalkSubsystem,
};

/// Cases per property. Each case draws a fresh input of random size.
const CASES: u64 = 48;

/// A random vector of `len in 1..max_len` values below `bound`.
fn random_vec(rng: &mut SimRng, max_len: u64, bound: u64) -> Vec<u64> {
    let len = 1 + rng.next_below(max_len - 1);
    (0..len).map(|_| rng.next_below(bound)).collect()
}

/// Events pop in nondecreasing cycle order, FIFO within a cycle.
#[test]
fn event_queue_total_order() {
    let mut rng = SimRng::new(0xE0);
    for case in 0..CASES {
        let times = random_vec(&mut rng, 200, 1000);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycle(t), i);
        }
        let mut last: Option<(Cycle, usize)> = None;
        while let Some((at, id)) = q.pop() {
            if let Some((lat, lid)) = last {
                assert!(at >= lat, "case {case}: order violated");
                if at == lat {
                    assert!(id > lid, "case {case}: FIFO violated within a cycle");
                }
            }
            last = Some((at, id));
        }
    }
}

/// Walking any VPN yields a stable mapping, and re-walking agrees with
/// `translate`.
#[test]
fn page_table_round_trip() {
    let mut rng = SimRng::new(0xE1);
    for case in 0..CASES {
        let vpns = random_vec(&mut rng, 50, 1 << 30);
        let mut pt = PageTable::new(TenantId(0), PageSize::Small4K);
        let mut frames = FrameAlloc::new();
        for &v in &vpns {
            let first = pt.walk_path(Vpn(v), &mut frames);
            assert_eq!(pt.translate(Vpn(v)), Some(first.ppn), "case {case}");
            let again = pt.walk_path(Vpn(v), &mut frames);
            assert_eq!(first, again, "case {case}: unstable mapping");
        }
    }
}

/// Distinct pages of distinct tenants never share a frame.
#[test]
fn tenants_get_disjoint_frames() {
    let mut rng = SimRng::new(0xE2);
    for case in 0..CASES {
        let vpns = random_vec(&mut rng, 40, 1 << 20);
        let mut frames = FrameAlloc::new();
        let mut a = PageTable::new(TenantId(0), PageSize::Small4K);
        let mut b = PageTable::new(TenantId(1), PageSize::Small4K);
        let mut seen = std::collections::HashSet::new();
        for &v in &vpns {
            let pa = a.walk_path(Vpn(v), &mut frames).ppn;
            let pb = b.walk_path(Vpn(v), &mut frames).ppn;
            assert_ne!(pa, pb, "case {case}: tenants share a frame");
            seen.insert(pa);
            seen.insert(pb);
        }
        // Every distinct page got a distinct frame.
        let distinct = vpns.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(seen.len(), 2 * distinct, "case {case}");
    }
}

/// The hashed page table the radix [`PageTable`] replaced, kept as its
/// reference model: interior nodes keyed by `(level, unmasked prefix)`,
/// leaves keyed by VPN, frames drawn in the same first-touch order.
struct HashedPageTable {
    page_size: PageSize,
    root: Option<Ppn>,
    nodes: HashMap<(usize, u64), Ppn>,
    leaves: HashMap<Vpn, Ppn>,
    touched_pages: u64,
    reserve_pages: u64,
}

impl HashedPageTable {
    fn new(page_size: PageSize, reserve_pages: u64) -> Self {
        HashedPageTable {
            page_size,
            root: None,
            nodes: HashMap::new(),
            leaves: HashMap::new(),
            touched_pages: 0,
            reserve_pages,
        }
    }

    fn shift(&self, level: usize) -> u32 {
        self.page_size.bits_per_level() * (self.page_size.levels() - 1 - level) as u32
    }

    fn walk_path(&mut self, vpn: Vpn, frames: &mut FrameAlloc) -> WalkPath {
        let root = *self.root.get_or_insert_with(|| frames.alloc());
        let levels = self.page_size.levels();
        let mut out = WalkPath::default();
        let mut node = root;
        for level in 0..levels {
            let shift = self.shift(level);
            let index = (vpn.0 >> shift) & 511;
            let base = PhysAddr(node.0 << 12);
            out.node_addrs.push(base);
            out.entry_addrs.push(PhysAddr(base.0 + index * 8));
            if level + 1 < levels {
                node = *self
                    .nodes
                    .entry((level, vpn.0 >> shift))
                    .or_insert_with(|| frames.alloc());
            }
        }
        let granules = self.page_size.bytes() / 4096;
        out.ppn = match self.leaves.get(&vpn) {
            Some(&ppn) => ppn,
            None => {
                let group_base = vpn.0 & !(self.reserve_pages - 1);
                let frame_base = frames.alloc_contiguous(granules * self.reserve_pages);
                for i in 0..self.reserve_pages {
                    self.leaves
                        .insert(Vpn(group_base + i), Ppn(frame_base.0 + i * granules));
                }
                self.touched_pages += self.reserve_pages;
                Ppn(frame_base.0 + (vpn.0 - group_base) * granules)
            }
        };
        out
    }

    fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        self.leaves.get(&vpn).copied()
    }

    fn node_after(&self, vpn: Vpn, level: usize) -> Option<PhysAddr> {
        self.nodes
            .get(&(level, vpn.0 >> self.shift(level)))
            .map(|ppn| PhysAddr(ppn.0 << 12))
    }
}

/// Draws one VPN of the given shape: dense GUPS-like per-warp regions,
/// sparse VPNs up to 2^30, tenant-tagged `(t << 32) | x` VPNs, and VPNs at
/// or beyond the 36-bit (4 KB) and 27-bit (64 KB) reach.
fn oracle_vpn(rng: &mut SimRng, shape: u64, span: u64) -> Vpn {
    Vpn(match shape {
        0 => rng.next_below(8) * span + rng.next_below(span),
        1 => rng.next_below(1 << 30),
        2 => (rng.next_below(4) << 32) | rng.next_below(1 << 32),
        _ => {
            let edges = [1 << 27, 1 << 36, 1 << 40, 5 << 36, 1 << 48];
            let edge = edges[rng.next_below(edges.len() as u64) as usize];
            match rng.next_below(3) {
                0 => edge - 1 - rng.next_below(1024),
                1 => edge + rng.next_below(1024),
                _ => rng.next_below(1 << 50),
            }
        }
    })
}

/// The radix [`PageTable`] is observably identical to the hashed table it
/// replaced: two tenants sharing one frame allocator per side, driven with
/// the same random VPNs (4 KB and 64 KB pages, plain and 8-page
/// reservations), agree on every walk path, `translate`, `node_after`,
/// `touched_pages` and `FrameAlloc::allocated` after every call.
#[test]
fn radix_page_table_matches_hashed_reference() {
    let mut rng = SimRng::new(0xE9);
    for case in 0..CASES * 4 {
        let page_size = if rng.chance(0.5) {
            PageSize::Small4K
        } else {
            PageSize::Large64K
        };
        let reserve = if rng.chance(0.3) { 8 } else { 1 };
        // Shapes 0-3 alone, or (4) all of them mixed.
        let shape = rng.next_below(5);
        let span = 1 << (6 + rng.next_below(9));
        let (mut frames, mut ref_frames) = (FrameAlloc::new(), FrameAlloc::new());
        let mut pts: Vec<PageTable> = (0..2)
            .map(|t| PageTable::with_reservation(TenantId(t), page_size, reserve))
            .collect();
        let mut refs: Vec<HashedPageTable> = (0..2)
            .map(|_| HashedPageTable::new(page_size, reserve))
            .collect();
        let mut seen: Vec<Vpn> = Vec::new();
        for op in 0..300 + rng.next_below(300) {
            let t = rng.next_below(2) as usize;
            let vpn = if !seen.is_empty() && rng.chance(0.4) {
                // Revisit a page, or its neighbour (same group and node).
                let v = seen[rng.next_below(seen.len() as u64) as usize];
                Vpn(v.0 ^ rng.next_below(2))
            } else {
                let s = if shape == 4 { rng.next_below(4) } else { shape };
                oracle_vpn(&mut rng, s, span)
            };
            let ctx = format!("case {case} op {op} {page_size} reserve {reserve} {vpn:?}");
            match rng.next_below(4) {
                0 | 1 => {
                    let got = pts[t].walk_path(vpn, &mut frames);
                    let want = refs[t].walk_path(vpn, &mut ref_frames);
                    assert_eq!(got, want, "{ctx}: walk path");
                    seen.push(vpn);
                }
                2 => assert_eq!(pts[t].translate(vpn), refs[t].translate(vpn), "{ctx}"),
                _ => {
                    for level in 0..page_size.levels() {
                        assert_eq!(
                            pts[t].node_after(vpn, level),
                            refs[t].node_after(vpn, level),
                            "{ctx}: node_after level {level}"
                        );
                    }
                }
            }
            assert_eq!(pts[t].touched_pages(), refs[t].touched_pages, "{ctx}");
            assert_eq!(frames.allocated(), ref_frames.allocated(), "{ctx}");
        }
    }
}

/// A TLB probe never returns another tenant's mapping, under any
/// interleaving of fills from two tenants.
#[test]
fn tlb_never_leaks_across_tenants() {
    let mut rng = SimRng::new(0xE3);
    for case in 0..CASES {
        let n_ops = 1 + rng.next_below(299);
        let ops: Vec<(u8, u64)> = (0..n_ops)
            .map(|_| (rng.next_below(2) as u8, rng.next_below(64)))
            .collect();
        let replacement = if rng.chance(0.5) {
            Replacement::Lru
        } else {
            Replacement::Random
        };
        let mut tlb = Tlb::new(
            TlbConfig {
                sets: 4,
                ways: 2,
                replacement,
            },
            2,
        );
        let mut truth = std::collections::HashMap::new();
        for (i, &(t, v)) in ops.iter().enumerate() {
            let ppn = Ppn(i as u64 + 1000 * u64::from(t));
            tlb.fill(TenantId(t), Vpn(v), ppn, Cycle(i as u64));
            truth.insert((t, v), ppn);
        }
        for &(t, v) in &ops {
            if let Some(hit) = tlb.probe(TenantId(t), Vpn(v)) {
                assert_eq!(hit, truth[&(t, v)], "case {case}: stale or foreign mapping");
            }
        }
    }
}

/// Cache occupancy never exceeds capacity, and a probe immediately after a
/// fill hits.
#[test]
fn cache_capacity_respected() {
    let mut rng = SimRng::new(0xE4);
    for case in 0..CASES {
        let lines = random_vec(&mut rng, 300, 4096);
        let cfg = CacheConfig { sets: 8, ways: 2 };
        let mut c = Cache::new(cfg);
        for &l in &lines {
            c.fill(LineAddr(l));
            assert!(c.contains(LineAddr(l)), "case {case}");
            assert!(c.occupancy() <= cfg.lines(), "case {case}: over capacity");
        }
    }
}

/// Memory-system latency is always at least the L2 hit latency.
#[test]
fn mem_latency_floor() {
    let mut rng = SimRng::new(0xE5);
    for case in 0..CASES {
        let lines = random_vec(&mut rng, 100, 512);
        let cfg = MemSystemConfig::default();
        let mut mem = MemSystem::new(cfg);
        for (i, &l) in lines.iter().enumerate() {
            let a = mem.access(LineAddr(l), Cycle(i as u64 * 3), AccessKind::Data);
            assert!(a.latency >= cfg.l2_hit_latency, "case {case}");
        }
    }
}

/// Conservation: every accepted walk completes exactly once, for every
/// policy, under arbitrary arrival patterns — and walks are never stolen
/// when stealing is off.
#[test]
fn walk_subsystem_conserves_walks() {
    fn drain_until(
        ws: &mut WalkSubsystem,
        scheduled: &mut Vec<DispatchedWalk>,
        pts: &mut Vec<PageTable>,
        frames: &mut FrameAlloc,
        mem: &mut MemSystem,
        t: Cycle,
        completed: &mut u64,
        steal_off: bool,
    ) {
        let mut obs = Observer::off();
        loop {
            scheduled.sort_by_key(|d| d.done_at);
            let Some(first) = scheduled.first().copied() else {
                break;
            };
            if first.done_at > t {
                break;
            }
            scheduled.remove(0);
            let mut ctx = WalkContext {
                page_tables: pts,
                frames,
                mem,
                mask: None,
                obs: &mut obs,
            };
            let (done, next) = ws.on_walker_done(first.walker, first.done_at, &mut ctx);
            assert!(!(steal_off && done.stolen), "stole with stealing off");
            *completed += 1;
            if let Some(n) = next {
                scheduled.push(n);
            }
        }
    }

    let mut rng = SimRng::new(0xE6);
    for case in 0..CASES {
        let n_arrivals = 1 + rng.next_below(119);
        let arrivals: Vec<(u8, u64, u64)> = (0..n_arrivals)
            .map(|_| {
                (
                    rng.next_below(2) as u8,
                    rng.next_below(64),
                    1 + rng.next_below(29),
                )
            })
            .collect();
        let policy = match rng.next_below(4) {
            0 => WalkPolicyKind::SharedQueue,
            1 => WalkPolicyKind::PrivatePools,
            2 => WalkPolicyKind::Partitioned(StealMode::None),
            _ => WalkPolicyKind::Partitioned(StealMode::Dws),
        };
        let steal_off = policy == WalkPolicyKind::Partitioned(StealMode::None);
        let mut ws = WalkSubsystem::new(WalkConfig {
            n_walkers: 4,
            queue_entries: 16,
            n_tenants: 2,
            policy: policy.clone(),
            pwc_entries: 16,
            pwc_latency: 2,
            dispatch_overhead: 2,
            strict_pend_check: true,
        });
        let mut pts = vec![
            PageTable::new(TenantId(0), PageSize::Small4K),
            PageTable::new(TenantId(1), PageSize::Small4K),
        ];
        let mut frames = FrameAlloc::new();
        let mut mem = MemSystem::new(MemSystemConfig::default());
        let mut scheduled: Vec<DispatchedWalk> = Vec::new();
        let mut obs = Observer::off();
        let mut accepted = 0u64;
        let mut completed = 0u64;
        let mut now = Cycle::ZERO;

        for &(t, v, dt) in &arrivals {
            now += dt;
            drain_until(
                &mut ws,
                &mut scheduled,
                &mut pts,
                &mut frames,
                &mut mem,
                now,
                &mut completed,
                steal_off,
            );
            let mut ctx = WalkContext {
                page_tables: &mut pts,
                frames: &mut frames,
                mem: &mut mem,
                mask: None,
                obs: &mut obs,
            };
            let req = WalkRequest {
                tenant: TenantId(t),
                vpn: Vpn(u64::from(t) * 0x10_0000 + v),
            };
            if let Ok(d) = ws.try_enqueue(req, now, &mut ctx) {
                accepted += 1;
                if let Some(d) = d {
                    scheduled.push(d);
                }
            }
        }
        drain_until(
            &mut ws,
            &mut scheduled,
            &mut pts,
            &mut frames,
            &mut mem,
            Cycle(u64::MAX / 2),
            &mut completed,
            steal_off,
        );
        assert_eq!(
            accepted, completed,
            "case {case}: {policy:?} lost or duplicated walks"
        );
        assert_eq!(ws.queued_len(), 0, "case {case}");
        assert_eq!(ws.busy_walkers(), 0, "case {case}");
        let stats = ws.stats();
        assert_eq!(stats.completed.iter().sum::<u64>(), completed, "case {case}");
    }
}

/// One partitioned-scheduler instance under invariant scrutiny: the
/// subsystem plus the deterministic machinery it dispatches against.
struct SchedSide {
    ws: WalkSubsystem,
    page_tables: Vec<PageTable>,
    frames: FrameAlloc,
    mem: MemSystem,
    obs: Observer,
    /// Whether [`complete`](Self::complete) asserts the FWA
    /// no-consecutive-steal rule. The rule reads the per-walker stolen
    /// bits against walker ownership, so — like the ownership
    /// decomposition in `check_scheduler` — it does not survive a mid-run
    /// repartition; churn drivers turn it off.
    steal_rule: bool,
}

impl SchedSide {
    fn new(cfg: &WalkConfig, imp: SchedulerImpl) -> SchedSide {
        SchedSide {
            ws: WalkSubsystem::with_scheduler_impl(cfg.clone(), imp),
            page_tables: (0..cfg.n_tenants)
                .map(|t| PageTable::new(TenantId(t as u8), PageSize::Small4K))
                .collect(),
            frames: FrameAlloc::new(),
            mem: MemSystem::new(MemSystemConfig::default()),
            obs: Observer::off(),
            steal_rule: true,
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

    /// A whole cycle's arrivals through the batched entry point the
    /// simulator's hot loop uses.
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
        let pre_depths = self.ws.walker_queue_depths().expect("partitioned");
        let pre_stolen = self.ws.walker_stolen_bits().expect("partitioned");
        let (_, next) = self.ws.on_walker_done(d.walker, d.done_at, &mut ctx);
        if let Some(n) = next {
            if self.steal_rule {
                // The FWA no-consecutive-steals rule, shared with the
                // fuzzer through the library invariants module.
                invariants::check_no_consecutive_steal(
                    &self.ws,
                    &pre_depths,
                    &pre_stolen,
                    n.walker.index(),
                )
                .unwrap_or_else(|e| panic!("{e}"));
            }
        }
        next
    }

    /// Checks the conservation and occupancy invariants against the
    /// scheduler's own PEND_WALKS / queue-depth / ownership views, through
    /// the shared [`walksteal::invariants`] implementation.
    fn check_invariants(&self, attempts: u64, at: &str) {
        // This suite only constructs partitioned schedulers; make sure the
        // library checks are exercising the per-tenant views, not silently
        // taking the non-partitioned early-out.
        assert!(self.ws.pend_walks().is_some(), "{at}: expected partitioned");
        invariants::check_scheduler(&self.ws, attempts, at).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Drives both scheduler implementations through lockstep random N-tenant
/// traffic — the optimized side through the batched enqueue entry point,
/// the reference side element-wise — checking the partitioned-scheduler
/// invariants on both sides at every step and that the two sides'
/// inspection views never diverge.
/// Returns total steals, so callers can assert the run exercised stealing.
fn drive_invariants(n_tenants: usize, mode: StealMode, seed: u64, steps: usize) -> u64 {
    let cfg = WalkConfig {
        n_walkers: 12, // divisible by 2, 3, and 4 tenants
        // Shallow queues: walks are slow (multi-level, memory-bound), so a
        // starved tenant must not sit on a deep backlog or it would never
        // reach PEND_WALKS == 0 — the only state DWS steals from — within
        // a solo phase.
        queue_entries: 24,
        n_tenants,
        policy: WalkPolicyKind::Partitioned(mode),
        pwc_entries: 128,
        pwc_latency: 2,
        dispatch_overhead: 2,
        strict_pend_check: true,
    };
    let mut a = SchedSide::new(&cfg, SchedulerImpl::Optimized);
    let mut b = SchedSide::new(&cfg, SchedulerImpl::Reference);
    let mut rng = SimRng::new(seed);
    let mut now = Cycle::ZERO;
    let mut attempts = 0u64;
    let mut outstanding: Vec<DispatchedWalk> = Vec::new();
    let mut burst: Vec<WalkRequest> = Vec::new();
    let mut batch_out = Vec::new();

    for step in 0..steps {
        now += 1 + rng.next_below(7);
        while let Some(&d) = outstanding.first() {
            if d.done_at > now {
                break;
            }
            outstanding.remove(0);
            let na = a.complete(d);
            let nb = b.complete(d);
            assert_eq!(na, nb, "step {step}: follow-on dispatch diverged");
            if let Some(n) = na {
                let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
                outstanding.insert(pos, n);
            }
        }

        // Solo phases starve every tenant but one so PEND_WALKS of the
        // others reaches zero while queues elsewhere are loaded — the only
        // state DWS steals from.
        let solo_phase = (step / 400) % 2 == 1;
        burst.clear();
        for _ in 0..rng.next_below(5) {
            let t = if solo_phase {
                TenantId(0)
            } else {
                TenantId(rng.next_below(n_tenants as u64) as u8)
            };
            // A small working set keeps the PWC hot so walks complete fast
            // enough for solo phases to actually drain the idle tenants.
            let vpn = Vpn((u64::from(t.0) << 32) | rng.next_below(4_000));
            burst.push(WalkRequest { tenant: t, vpn });
        }
        attempts += burst.len() as u64;
        // The optimized side takes the cycle's arrivals through the
        // batched entry point the simulator's hot loop uses; the reference
        // side replays them element-wise. The invariants below must hold
        // — and the two views agree — either way.
        a.enqueue_batch(&burst, now, &mut batch_out);
        for (i, (&req, ra)) in burst.iter().zip(&batch_out).enumerate() {
            let rb = b.enqueue(req, now);
            assert_eq!(*ra, rb, "step {step}: enqueue decision {i} diverged");
            if let Ok(Some(d)) = *ra {
                let pos = outstanding.partition_point(|o| o.done_at <= d.done_at);
                outstanding.insert(pos, d);
            }
        }

        a.check_invariants(attempts, &format!("optimized step {step}"));
        b.check_invariants(attempts, &format!("reference step {step}"));
        invariants::check_views_agree(&a.ws, &b.ws, &format!("step {step}"))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    // Drain, then the terminal state must conserve everything.
    while let Some(d) = outstanding.first().copied() {
        outstanding.remove(0);
        let na = a.complete(d);
        let nb = b.complete(d);
        assert_eq!(na, nb, "drain dispatch diverged");
        if let Some(n) = na {
            let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
            outstanding.insert(pos, n);
        }
    }
    for side in [&a, &b] {
        invariants::check_drained(&side.ws, attempts, "terminal").unwrap_or_else(|e| panic!("{e}"));
    }
    a.ws.stats().stolen.iter().sum()
}

/// The partitioned scheduler's core invariants (per-tenant walk
/// conservation through PEND_WALKS, attempt accounting, queue-occupancy
/// agreement, no consecutive steals from a backlogged walker) hold at every
/// step, for 2/3/4 tenants under every steal mode, on both the optimized
/// and the reference implementation in lockstep.
#[test]
fn scheduler_invariants_hold_for_n_tenants() {
    for n_tenants in [2usize, 3, 4] {
        for (mode, label) in [
            (StealMode::None, "static"),
            (StealMode::Dws, "dws"),
            (
                StealMode::DwsPlusPlus(DwsPlusPlusParams::paper_default()),
                "dws++",
            ),
        ] {
            let mut stolen = 0;
            for seed in [0xA1u64, 0xB2, 0xC3] {
                stolen += drive_invariants(n_tenants, mode.clone(), seed, 2_000);
            }
            if label == "static" {
                assert_eq!(stolen, 0, "static partitioning must never steal");
            } else {
                // The no-consecutive-steal check is vacuous unless the
                // traffic actually provoked steals.
                assert!(
                    stolen > 0,
                    "{label} at {n_tenants} tenants produced no steals"
                );
            }
        }
    }
}

/// Drives both scheduler implementations through lockstep traffic UNDER
/// CHURN: a random arrival/departure timeline repartitions the walkers and
/// cancels the departing tenant's queued walks mid-run, on both sides at
/// the same step. Per-tenant conservation is checked through the
/// attach/detach-safe [`invariants::check_accounting`] form (the ownership
/// decomposition is transiently void while a departed tenant's walks drain
/// from re-owned walkers), and the two sides' views must never diverge.
/// Returns (steals, cancelled walks) so callers can assert non-vacuity.
fn drive_churn(n_tenants: usize, mode: StealMode, seed: u64, steps: usize) -> (u64, u64) {
    let cfg = WalkConfig {
        n_walkers: 12, // divisible by every active-tenant count 1..=4
        queue_entries: 24,
        n_tenants,
        policy: WalkPolicyKind::Partitioned(mode),
        pwc_entries: 128,
        pwc_latency: 2,
        dispatch_overhead: 2,
        strict_pend_check: true,
    };
    let mut a = SchedSide::new(&cfg, SchedulerImpl::Optimized);
    let mut b = SchedSide::new(&cfg, SchedulerImpl::Reference);
    // The no-consecutive-steal rule reads stolen bits against ownership,
    // which repartitions invalidate; conservation and view agreement are
    // the churn-safe properties this driver asserts.
    a.steal_rule = false;
    b.steal_rule = false;
    let mut rng = SimRng::new(seed);
    let mut now = Cycle::ZERO;
    let mut attempts = 0u64;
    let mut cancelled = 0u64;
    let mut outstanding: Vec<DispatchedWalk> = Vec::new();
    let mut burst: Vec<WalkRequest> = Vec::new();
    let mut batch_out = Vec::new();
    // Tenant 0 is pinned resident (the partition must never go empty);
    // the rest arrive and depart on the timeline below.
    let mut active = vec![true; n_tenants];

    for step in 0..steps {
        now += 1 + rng.next_below(7);
        while let Some(&d) = outstanding.first() {
            if d.done_at > now {
                break;
            }
            outstanding.remove(0);
            let na = a.complete(d);
            let nb = b.complete(d);
            assert_eq!(na, nb, "step {step}: follow-on dispatch diverged");
            if let Some(n) = na {
                let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
                outstanding.insert(pos, n);
            }
        }

        // Churn point: every ~250 steps one non-pinned tenant flips
        // between resident and departed. A departure cancels its queued
        // walks (the shootdown the simulator performs) and both events
        // repartition the walkers among the residents — on both sides.
        if step > 0 && step % 250 == 0 {
            let t = 1 + rng.next_below(n_tenants as u64 - 1) as usize;
            active[t] = !active[t];
            if !active[t] {
                let ca = a.ws.cancel_tenant(TenantId(t as u8));
                let cb = b.ws.cancel_tenant(TenantId(t as u8));
                assert_eq!(ca, cb, "step {step}: cancel count diverged");
                cancelled += ca;
            }
            a.ws.set_active_tenants(&active);
            b.ws.set_active_tenants(&active);
        }

        // Solo phases starve every resident but tenant 0 so the others'
        // PEND_WALKS reach zero — the only state DWS steals from.
        let solo_phase = (step / 400) % 2 == 1;
        burst.clear();
        for _ in 0..rng.next_below(5) {
            let t = if solo_phase {
                TenantId(0)
            } else {
                // Residents only: the GPU never issues for a departed app.
                let residents: Vec<usize> =
                    (0..n_tenants).filter(|&t| active[t]).collect();
                TenantId(residents[rng.next_below(residents.len() as u64) as usize] as u8)
            };
            let vpn = Vpn((u64::from(t.0) << 32) | rng.next_below(4_000));
            burst.push(WalkRequest { tenant: t, vpn });
        }
        attempts += burst.len() as u64;
        a.enqueue_batch(&burst, now, &mut batch_out);
        for (i, (&req, ra)) in burst.iter().zip(&batch_out).enumerate() {
            let rb = b.enqueue(req, now);
            assert_eq!(*ra, rb, "step {step}: enqueue decision {i} diverged");
            if let Ok(Some(d)) = *ra {
                let pos = outstanding.partition_point(|o| o.done_at <= d.done_at);
                outstanding.insert(pos, d);
            }
        }

        for (side, ws) in [("optimized", &a.ws), ("reference", &b.ws)] {
            invariants::check_accounting(ws, attempts, &format!("{side} step {step}"))
                .unwrap_or_else(|e| panic!("{e}"));
        }
        invariants::check_views_agree(&a.ws, &b.ws, &format!("step {step}"))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    while let Some(d) = outstanding.first().copied() {
        outstanding.remove(0);
        let na = a.complete(d);
        let nb = b.complete(d);
        assert_eq!(na, nb, "drain dispatch diverged");
        if let Some(n) = na {
            let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
            outstanding.insert(pos, n);
        }
    }
    for side in [&a, &b] {
        invariants::check_drained(&side.ws, attempts, "terminal").unwrap_or_else(|e| panic!("{e}"));
    }
    (a.ws.stats().stolen.iter().sum(), cancelled)
}

/// The scheduler invariants survive tenant attach/detach: lockstep
/// optimized-vs-reference runs over random arrival/departure timelines,
/// for 3 and 4 tenants under DWS and DWS++, with both stealing and
/// mid-run cancellations provably exercised.
#[test]
fn scheduler_invariants_hold_under_churn() {
    for n_tenants in [3usize, 4] {
        for (mode, label) in [
            (StealMode::Dws, "dws"),
            (
                StealMode::DwsPlusPlus(DwsPlusPlusParams::paper_default()),
                "dws++",
            ),
        ] {
            let mut stolen = 0;
            let mut cancelled = 0;
            for seed in [0xD1u64, 0xD2, 0xD3] {
                let (s, c) = drive_churn(n_tenants, mode.clone(), seed, 2_000);
                stolen += s;
                cancelled += c;
            }
            assert!(
                stolen > 0,
                "{label} at {n_tenants} tenants churned without steals"
            );
            assert!(
                cancelled > 0,
                "{label} at {n_tenants} tenants churned without cancellations"
            );
        }
    }
}

/// The arena presets' walk configurations hold every scheduler invariant
/// in optimized-vs-reference lockstep — conservation and
/// [`invariants::check_scheduler`] through [`drive_invariants`] on static
/// traffic, and the attach/detach-safe [`invariants::check_accounting`]
/// through [`drive_churn`] on arrival/departure timelines — with the steal
/// behavior each design promises: SE-TLB's MIG-style static partitions
/// never steal, MOSAIC and DE-GUARD ride DWS and provably do.
#[test]
fn arena_preset_walk_configs_hold_invariants() {
    use walksteal::multitenant::{GpuConfig, PolicyPreset};

    for preset in PolicyPreset::ARENA {
        let cfg = GpuConfig::default()
            .with_walkers(12)
            .for_tenants(3)
            .with_preset(preset);
        let WalkPolicyKind::Partitioned(mode) = cfg.walk.policy.clone() else {
            panic!("{preset}: arena presets must partition their walkers");
        };
        let mut stolen = 0;
        for n_tenants in [2usize, 3, 4] {
            for seed in [0xA7u64, 0xB8] {
                stolen += drive_invariants(n_tenants, mode.clone(), seed, 2_000);
            }
        }
        let mut cancelled = 0;
        for seed in [0xD7u64, 0xD8] {
            let (s, c) = drive_churn(3, mode.clone(), seed, 2_000);
            stolen += s;
            cancelled += c;
        }
        assert!(cancelled > 0, "{preset}: churn never cancelled a walk");
        if preset == PolicyPreset::SubEntryTlb {
            assert_eq!(stolen, 0, "SE-TLB static partitions must never steal");
        } else {
            assert!(stolen > 0, "{preset}: traffic produced no steals");
        }
    }
}

/// Mosaic consistency property: under reservation-grouped frames a
/// [`MosaicTlb`](walksteal::vm::MosaicTlb) probe never contradicts the
/// page table — every hit, from a base entry or a coalesced large entry
/// (including pages of the group the TLB never saw filled), returns
/// exactly the frame the reservation allocator mapped. Coalescing and
/// splintering both provably fire, and the no-double-mapping structural
/// invariant holds after every operation.
#[test]
fn mosaic_tlb_agrees_with_reserved_page_table() {
    use walksteal::vm::{MosaicTlb, MOSAIC_GROUP};

    let mut rng = SimRng::new(0xE8);
    let (mut coalesces, mut splinters, mut large_hits) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let mut tlb = MosaicTlb::new(
            TlbConfig {
                sets: 4,
                ways: 2,
                replacement: Replacement::Lru,
            },
            2,
            PageSize::Small4K,
        );
        let mut frames = FrameAlloc::new();
        let mut pts = [
            PageTable::with_reservation(TenantId(0), PageSize::Small4K, MOSAIC_GROUP),
            PageTable::with_reservation(TenantId(1), PageSize::Small4K, MOSAIC_GROUP),
        ];
        let n_ops = 60 + rng.next_below(140);
        let mut now = Cycle::ZERO;
        for op in 0..n_ops {
            now += 1;
            let t = rng.next_below(2) as usize;
            // Half the ops sweep a whole group page-by-page (the dense
            // touch pattern that trips the coalesce threshold; the wide
            // group range overflows the large array so victims splinter),
            // half probe a hot region served from earlier coalesces.
            let vpns: Vec<Vpn> = if rng.chance(0.5) {
                let group = rng.next_below(256) * MOSAIC_GROUP;
                (0..MOSAIC_GROUP).map(|i| Vpn(group + i)).collect()
            } else {
                vec![Vpn(rng.next_below(64))]
            };
            for v in vpns {
                let truth = pts[t].walk_path(v, &mut frames).ppn;
                match tlb.probe(TenantId(t as u8), v) {
                    Some(hit) => assert_eq!(
                        hit, truth,
                        "case {case} op {op}: wrong translation for {v:?}"
                    ),
                    None => tlb.fill(TenantId(t as u8), v, truth, now),
                }
            }
            if rng.chance(0.02) {
                tlb.invalidate_tenant(TenantId(t as u8), now);
            }
            tlb.check_invariants()
                .unwrap_or_else(|e| panic!("case {case} op {op}: {e}"));
        }
        coalesces += tlb.coalesces();
        splinters += tlb.splinters();
        large_hits += tlb.large_hits();
    }
    assert!(coalesces > 0, "no group ever coalesced");
    assert!(splinters > 0, "no large entry was ever splintered back");
    assert!(large_hits > 0, "no probe was ever served by a large entry");
}

/// Sub-entry isolation property: under random multi-tenant streams a
/// [`SubEntryTlb`](walksteal::vm::SubEntryTlb) probe never returns a
/// foreign or stale mapping, the sub-entries of one physical entry never
/// span tenants unless the entry is flagged shared (checked structurally
/// after every operation), and cross-tenant sharing provably occurs
/// somewhere in the suite.
#[test]
fn sub_entry_tlb_isolates_tenants() {
    use walksteal::vm::SubEntryTlb;

    let mut rng = SimRng::new(0xE9);
    let mut shared_fills = 0u64;
    for case in 0..CASES {
        let n_tenants = 2 + rng.next_below(3) as usize;
        let mut tlb = SubEntryTlb::new(
            TlbConfig {
                sets: 4,
                ways: 2,
                replacement: Replacement::Lru,
            },
            n_tenants,
        );
        let mut truth = std::collections::HashMap::new();
        let n_ops = 1 + rng.next_below(299);
        for op in 0..n_ops {
            let t = rng.next_below(n_tenants as u64) as u8;
            let v = rng.next_below(64);
            let now = Cycle(op);
            match tlb.probe(TenantId(t), Vpn(v)) {
                Some(hit) => assert_eq!(
                    Some(&hit),
                    truth.get(&(t, v)),
                    "case {case} op {op}: foreign or stale mapping"
                ),
                None => {
                    let ppn = Ppn(v + 1 + 1000 * u64::from(t));
                    tlb.fill(TenantId(t), Vpn(v), ppn, now);
                    truth.insert((t, v), ppn);
                }
            }
            if rng.chance(0.01) {
                tlb.invalidate_tenant(TenantId(t), now);
                truth.retain(|&(tt, _), _| tt != t);
            }
            tlb.check_invariants()
                .unwrap_or_else(|e| panic!("case {case} op {op}: {e}"));
        }
        shared_fills += tlb.shared_fills();
    }
    assert!(shared_fills > 0, "no cross-tenant sub-entry sharing occurred");
}

/// Dead-entry-guard safety property: the predictor only ever *bypasses*
/// fills — a [`DeadGuardTlb`](walksteal::vm::DeadGuardTlb) probe hit is
/// always the correct mapping, never stale or foreign — and under a
/// stream-plus-hot-set mix it provably both learns dead evictions and
/// bypasses fills.
#[test]
fn dead_guard_tlb_never_serves_stale_mappings() {
    use walksteal::vm::DeadGuardTlb;

    let mut rng = SimRng::new(0xEA);
    let (mut bypasses, mut dead) = (0u64, 0u64);
    for case in 0..CASES {
        let mut tlb = DeadGuardTlb::new(
            TlbConfig {
                sets: 4,
                ways: 2,
                replacement: Replacement::Lru,
            },
            2,
        );
        let mut stream_next = 1_000u64;
        let n_ops = 100 + rng.next_below(300);
        for op in 0..n_ops {
            let t = rng.next_below(2) as u8;
            // A small hot set that genuinely reuses, against a strided
            // stream that never does — the mix the dead-entry predictor
            // (arXiv 2606.00486) is built to separate.
            let v = if rng.chance(0.6) {
                rng.next_below(8)
            } else {
                stream_next += 1;
                stream_next
            };
            let now = Cycle(op);
            let want = Ppn(v + 1 + 1000 * u64::from(t));
            match tlb.probe(TenantId(t), Vpn(v)) {
                Some(hit) => assert_eq!(hit, want, "case {case} op {op}: stale or foreign"),
                None => tlb.fill(TenantId(t), Vpn(v), want, now),
            }
        }
        bypasses += tlb.bypasses();
        dead += tlb.dead_evictions();
    }
    assert!(dead > 0, "the predictor never observed a dead eviction");
    assert!(bypasses > 0, "the predictor never bypassed a fill");
}

/// End-to-end churn: heavy arrival/departure timelines under a tight SLO
/// run to completion under DWS and DWS++, the controller provably evicts
/// and throttles somewhere in the suite, and every churn report is
/// internally consistent (departure after arrival, compliance from counted
/// checks, lifetime bounded by the run).
#[test]
fn churn_scenarios_evict_and_steal() {
    use walksteal::experiments::suite::walkers_for_tenants;
    use walksteal::experiments::{scenario_from_plan, ChurnKind, Scale};
    use walksteal::multitenant::{PolicyPreset, SimulationBuilder};

    let scale = Scale::Quick;
    let mut evictions = 0u64;
    let mut throttles = 0u64;
    let mut stolen = false;
    for preset in [PolicyPreset::Dws, PolicyPreset::DwsPlusPlus] {
        for seed in [42u64, 43, 44] {
            let plan = ChurnKind::Heavy.process().generate(seed);
            let spec = scenario_from_plan(&plan, Some(ChurnKind::Heavy.slo()));
            let n = plan.n_tenants();
            let cfg = scale
                .base_config()
                .with_n_sms(scale.sms_per_tenant(n) * n)
                .with_walkers(walkers_for_tenants(n))
                .for_tenants(n)
                .with_preset(preset);
            let r = SimulationBuilder::new()
                .config(cfg)
                .scenario(spec)
                .seed(seed)
                .build()
                .run();
            let report = r.churn.expect("scenario runs carry a churn report");
            evictions += report.evictions;
            throttles += report.throttles;
            stolen |= r.tenants.iter().any(|t| t.stolen_fraction > 0.0);
            for (t, ch) in report.tenants.iter().enumerate() {
                if let (Some(arr), Some(dep)) = (ch.arrived, ch.departed) {
                    assert!(dep > arr, "tenant {t} departed before arriving");
                }
                assert!(ch.slo_met <= ch.slo_checks, "tenant {t}");
                assert!(ch.lifetime_cycles <= r.cycles, "tenant {t}");
            }
        }
    }
    assert!(evictions > 0, "heavy churn under a 900-cycle p99 never evicted");
    assert!(throttles > 0, "heavy churn never throttled an aggressor");
    assert!(stolen, "DWS under churn never stole a walk");
}

/// End-to-end: tiny random pairs complete under every policy, and every
/// tenant retires instructions at a positive rate.
#[test]
fn tiny_simulations_complete() {
    use walksteal::multitenant::{PolicyPreset, SimulationBuilder};
    use walksteal::workloads::AppId;

    let mut rng = SimRng::new(0xE7);
    for case in 0..16 {
        let seed = rng.next_below(50);
        let apps = [
            AppId::ALL[rng.next_below(13) as usize],
            AppId::ALL[rng.next_below(13) as usize],
        ];
        let r = SimulationBuilder::new()
            .n_sms(2)
            .warps_per_sm(2)
            .instructions_per_warp(150)
            .preset(PolicyPreset::Dws)
            .tenants(apps)
            .seed(seed)
            .build()
            .run();
        assert!(
            r.tenants.iter().all(|t| t.completed_executions >= 1),
            "case {case}: {apps:?} did not complete"
        );
        for t in &r.tenants {
            assert!(t.instructions > 0, "case {case}");
            assert!(t.ipc > 0.0, "case {case}");
        }
    }
}
