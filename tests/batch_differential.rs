//! Lockstep differential tests for the simulator's same-cycle batching.
//!
//! The L1 TLB resolves a warp's coalesced references through
//! [`Tlb::probe_run`], whose contract is that results, LRU order and
//! statistics evolve exactly as one scalar [`Tlb::probe`] per element in
//! order. The first test pins that contract by driving both sides in
//! lockstep on identical randomized traffic and comparing everything
//! observable after every step.
//!
//! The second test is the batching legality property itself: same-cycle
//! arrivals *from one tenant* (one warp's coalesced references, one SM's
//! same-cycle misses) may be presented to the walk scheduler in any order
//! without changing its walker assignments or steal decisions, because
//! those depend only on scheduler state, never on the VPN being walked.
//! Cross-tenant order stays semantic — an earlier arrival can take the
//! queue slot or idle walker a later one would have used — which is why
//! the simulator enqueues arrivals in order rather than sorting them.

use walksteal::mem::{MemSystem, MemSystemConfig};
use walksteal::sim::{Cycle, Observer, Ppn, SimRng, TenantId, Vpn};
use walksteal::vm::walk::WalkContext;
use walksteal::vm::{
    DispatchedWalk, FrameAlloc, PageSize, PageTable, Replacement, StealMode, Tlb, TlbConfig,
    WalkConfig, WalkPolicyKind, WalkRequest, WalkSubsystem,
};

const TENANT_COUNTS: [usize; 3] = [2, 3, 4];
const SEEDS: [u64; 3] = [0xB1, 0xB2, 0xB3];

fn tlb(n_tenants: usize) -> Tlb {
    // Tiny sets force evictions so probe runs see misses, refills, and
    // LRU churn, not just a warm cache.
    Tlb::new(
        TlbConfig {
            sets: 4,
            ways: 2,
            replacement: Replacement::Lru,
        },
        n_tenants,
    )
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
