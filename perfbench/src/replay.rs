//! The traced run and the per-layer replays.
//!
//! The traced run attaches a [`CaptureTracer`] and a [`SharedMetrics`]
//! registry. The tracer keeps only compact operand streams: walk arrivals
//! (accepted and rejected attempts, with their cycles), PWC probes, and PTE
//! fetch totals. Each layer's host time is then measured by feeding the
//! run's real operands through that layer's public functions, outside the
//! simulator, and timing those calls in spans:
//!
//! * `workloads.stream_gen`: every warp's [`WarpStream::next_op_into`],
//!   regenerated from the run's seeds for as many instructions as the run
//!   issued;
//! * `gpu.l1`: those references through each SM's L1 TLB and L1 cache;
//! * `vm.tlb.l2`: the L1-TLB misses through the preset's L2 TLB (plain
//!   [`Tlb`] or [`ArenaTlb`]);
//! * `vm.walk`: the traced arrivals into a [`WalkSubsystem`] at their
//!   cycles (its PWC probes and PTE fetches included);
//! * `vm.pwc`: the traced PWC probes through a [`PwCache`] alone, a part of
//!   `vm.walk` timed on its own;
//! * `mem.data`: the L1-missing data lines through a [`MemSystem`].
//!
//! Traced wall time minus the sum of the `workloads`, `gpu`, `vm.tlb`,
//! `vm.walk` and `mem` replays is the dispatch residual: event dispatch,
//! the `multitenant` glue, and tracing itself.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use walksteal_gpu::SmState;
use walksteal_mem::{AccessKind, MemSystem};
use walksteal_multitenant::{
    GpuConfig, SharedMetrics, SimResult, TenantResult, TraceEvent, TraceKind, Tracer,
};
use walksteal_sim_core::trace::Observer;
use walksteal_sim_core::{Cycle, FnvBuildHasher, LineAddr, Ppn, TenantId, Vpn, WalkerId};
use walksteal_vm::{
    walk::WalkContext, ArenaTlb, ArenaTlbKind, FrameAlloc, MaskState, PageTable, PwCache, Tlb,
    WalkPath, WalkRequest, WalkSubsystem, MOSAIC_GROUP,
};
use walksteal_workloads::{MemRef, WarpStream};

use crate::spans::{SpanId, Spans};
use crate::{run_with, Machine, SimOutcome, SimSpec};

/// References generated per replay block before the block moves on to the
/// next layer; one span per layer per block.
const BLOCK_REFS: usize = 1 << 16;
/// Walk arrivals (and PWC probes) per replay block.
const BLOCK_WALK: usize = 1 << 15;

/// One attempt to enter the walk subsystem, as traced.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Arrival cycle.
    pub cycle: u64,
    /// Virtual page.
    pub vpn: u64,
    /// Requesting tenant.
    pub tenant: u8,
    /// Whether the run accepted it (a rejected attempt is retried later).
    pub accepted: bool,
}

/// One traced PWC probe.
#[derive(Debug, Clone, Copy)]
pub struct PwcProbe {
    /// Virtual page.
    pub vpn: u64,
    /// Requesting tenant.
    pub tenant: u8,
    /// Top levels the PWC let the walk skip.
    pub hit_levels: u8,
    /// Levels in the tenant's page table.
    pub levels: u8,
}

/// The compact operand streams and counts of one traced run.
#[derive(Debug, Default)]
pub struct Capture {
    /// Every walk-subsystem attempt in issue order.
    pub arrivals: Vec<Arrival>,
    /// Every PWC probe in issue order.
    pub pwc: Vec<PwcProbe>,
    /// Walks dispatched to a walker.
    pub assigned: u64,
    /// Sum of queue waits over dispatched walks, in cycles.
    pub queue_wait: u64,
    /// Walks completed.
    pub completed: u64,
    /// PTE fetches issued to the memory system.
    pub pte_fetches: u64,
    /// Sum of PTE fetch latencies, in cycles.
    pub pte_latency: u64,
}

/// A [`Tracer`] filling a shared [`Capture`].
#[derive(Debug, Clone, Default)]
pub struct CaptureTracer(Rc<RefCell<Capture>>);

impl CaptureTracer {
    /// Takes the captured streams, leaving an empty capture behind.
    #[must_use]
    pub fn take(&self) -> Capture {
        self.0.take()
    }
}

impl Tracer for CaptureTracer {
    fn wants(&self, kind: TraceKind) -> bool {
        matches!(kind, TraceKind::Walk | TraceKind::Pwc | TraceKind::Pte)
    }

    fn record(&mut self, ev: &TraceEvent) {
        let mut c = self.0.borrow_mut();
        match *ev {
            TraceEvent::WalkEnqueue { cycle, tenant, vpn } => {
                c.arrivals.push(Arrival {
                    cycle,
                    vpn,
                    tenant,
                    accepted: true,
                });
            }
            TraceEvent::WalkReject { cycle, tenant, vpn } => {
                c.arrivals.push(Arrival {
                    cycle,
                    vpn,
                    tenant,
                    accepted: false,
                });
            }
            TraceEvent::WalkAssign { queue_wait, .. } => {
                c.assigned += 1;
                c.queue_wait += queue_wait;
            }
            TraceEvent::WalkComplete { .. } => c.completed += 1,
            TraceEvent::PwcProbe {
                tenant,
                vpn,
                hit_levels,
                levels,
                ..
            } => c.pwc.push(PwcProbe {
                vpn,
                tenant,
                hit_levels,
                levels,
            }),
            TraceEvent::PteFetch { latency, .. } => {
                c.pte_fetches += 1;
                c.pte_latency += latency;
            }
            _ => {}
        }
    }
}

/// A traced simulation: its outcome, operand streams, and metrics.
pub struct Traced {
    /// The run's outcome (checked like any other).
    pub outcome: SimOutcome,
    /// Operand streams captured by the tracer.
    pub capture: Capture,
    /// The metrics registry the run filled.
    pub metrics: SharedMetrics,
}

/// Runs `spec` with a [`CaptureTracer`] and a metrics registry attached.
#[must_use]
pub fn run_traced(spec: &SimSpec, machine: Machine, seed: u64) -> Traced {
    let tracer = CaptureTracer::default();
    let metrics = SharedMetrics::new();
    let outcome = run_with(spec, machine, seed, 1, |b| {
        b.tracer(tracer.clone()).metrics(metrics.clone())
    });
    Traced {
        outcome,
        capture: tracer.take(),
        metrics,
    }
}

/// Counts and replay times per layer, summed over a workload's
/// simulations.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Events processed by the traced runs.
    pub events: u64,
    /// Time in `run` of the traced runs.
    pub traced_wall_s: f64,
    /// Time in `run` of the matching untraced runs.
    pub untraced_wall_s: f64,

    /// Warp ops regenerated.
    pub stream_ops: u64,
    /// Replay time of stream generation.
    pub stream_gen_s: f64,
    /// Instructions the replay had issued when each tenant finished its
    /// last completed execution (must equal the run's `instructions`).
    pub replay_instructions: u64,
    /// Instructions in completed executions, per the results.
    pub sim_instructions: u64,

    /// In-run L1-TLB hits (`l1_tlb_hits` counter, retries included).
    pub l1_tlb_hits_run: u64,
    /// In-run L1-TLB misses (`l1_tlb_misses` counter, retries included).
    pub l1_tlb_misses_run: u64,
    /// Replayed L1-TLB hits.
    pub l1_tlb_hits_replay: u64,
    /// Replayed L1-TLB misses.
    pub l1_tlb_misses_replay: u64,
    /// Replayed L1-cache hits.
    pub l1_cache_hits: u64,
    /// Replayed L1-cache accesses.
    pub l1_cache_accesses: u64,
    /// Replay time of the L1 TLB and L1 cache.
    pub l1_s: f64,

    /// Replayed L2-TLB probes.
    pub l2_probes: u64,
    /// Replayed L2-TLB misses.
    pub l2_misses: u64,
    /// Demand L2-TLB misses, per the results.
    pub sim_l2_misses: u64,
    /// Mosaic coalesces in the replayed L2 TLB.
    pub coalesces: u64,
    /// Mosaic splinters in the replayed L2 TLB.
    pub splinters: u64,
    /// SE-TLB fills into a shared entry in the replayed L2 TLB.
    pub shared_fills: u64,
    /// Replay time of the L2 TLB.
    pub l2_s: f64,

    /// Walks completed in-run (traced).
    pub walks: u64,
    /// Walks completed by the replay.
    pub walks_replayed: u64,
    /// In-run walk-subsystem attempts.
    pub attempts: u64,
    /// In-run rejected attempts (queue full).
    pub rejected: u64,
    /// In-run walks dispatched.
    pub assigned: u64,
    /// In-run summed queue wait, in cycles.
    pub queue_wait: u64,
    /// In-run successful steals (`steal_success`).
    pub steal_success: u64,
    /// In-run steal attempts (`steal_attempts`).
    pub steal_attempts: u64,
    /// Replay time of the walk subsystem.
    pub walk_s: f64,

    /// In-run PWC probes.
    pub pwc_probes: u64,
    /// Levels the PWC skipped in-run.
    pub pwc_levels_skipped: u64,
    /// Levels of all probed walks.
    pub pwc_levels: u64,
    /// Replay time of the PWC alone.
    pub pwc_s: f64,

    /// In-run PTE fetches.
    pub pte_fetches: u64,
    /// In-run summed PTE fetch latency, in cycles.
    pub pte_latency: u64,
    /// Replayed data accesses below the L1.
    pub data_accesses: u64,
    /// Replay time of the data accesses through L2 and DRAM.
    pub mem_s: f64,
}

impl LayerTotals {
    /// Replay time of the layers that partition the traced run
    /// (`vm.pwc` excluded: it is a part of `vm.walk`).
    #[must_use]
    pub fn layer_sum_s(&self) -> f64 {
        self.stream_gen_s + self.l1_s + self.l2_s + self.walk_s + self.mem_s
    }

    /// Traced wall time not covered by the layer replays.
    #[must_use]
    pub fn dispatch_residual_s(&self) -> f64 {
        self.traced_wall_s - self.layer_sum_s()
    }
}

/// Replays one traced simulation of `spec` through every layer, adding its
/// counts and times to `t`.
///
/// # Panics
///
/// Panics if the traced run has no result (it failed).
pub fn replay_sim(
    spec: &SimSpec,
    machine: Machine,
    seed: u64,
    traced: &Traced,
    t: &mut LayerTotals,
    spans: &mut Spans,
    parent: SpanId,
) {
    let cfg = &spec.config(machine);
    let result = traced
        .outcome
        .result
        .as_ref()
        .expect("only a successful run is replayed");
    let c = &traced.capture;
    let m = &traced.metrics;
    let n = spec.apps.len();
    t.events += result.events;
    for i in 0..n {
        let tid = Some(i as u8);
        t.l1_tlb_hits_run += m.counter("l1_tlb_hits", tid);
        t.l1_tlb_misses_run += m.counter("l1_tlb_misses", tid);
    }
    t.steal_success += m.counter("steal_success", None);
    t.steal_attempts += m.counter("steal_attempts", None);
    t.walks += c.completed;
    t.attempts += c.arrivals.len() as u64;
    t.rejected += c.arrivals.iter().filter(|a| !a.accepted).count() as u64;
    t.assigned += c.assigned;
    t.queue_wait += c.queue_wait;
    t.pte_fetches += c.pte_fetches;
    t.pte_latency += c.pte_latency;
    t.pwc_probes += c.pwc.len() as u64;
    t.pwc_levels_skipped += c.pwc.iter().map(|p| u64::from(p.hit_levels)).sum::<u64>();
    t.pwc_levels += c.pwc.iter().map(|p| u64::from(p.levels)).sum::<u64>();
    t.sim_instructions += result.tenants.iter().map(|r| r.instructions).sum::<u64>();
    t.sim_l2_misses += result.tenants.iter().map(|r| r.l2_tlb_misses).sum::<u64>();

    replay_data_path(cfg, spec, seed, result, t, spans, parent);
    replay_walks(cfg, n, &c.arrivals, t, spans, parent);
    replay_pwc(cfg, n, &c.pwc, t, spans, parent);
}

/// Warp instructions tenant `r` issued in the run, the unfinished last
/// execution included. The result's MPMI is demand L2-TLB misses per
/// million thread instructions over every issued instruction, so the issued
/// count is `misses × 10⁶ / (32 × mpmi)`, exact after rounding. Without
/// misses, only the completed executions are known.
fn issued_instructions(r: &TenantResult) -> u64 {
    if r.l2_tlb_misses == 0 || r.mpmi <= 0.0 {
        return r.instructions;
    }
    let issued = (r.l2_tlb_misses as f64 * 1e6 / (32.0 * r.mpmi)).round() as u64;
    issued.max(r.instructions)
}

fn page_tables(cfg: &GpuConfig, n: usize) -> Vec<PageTable> {
    (0..n)
        .map(|t| {
            let tid = TenantId(t as u8);
            if cfg.l2_arena == Some(ArenaTlbKind::Mosaic) {
                PageTable::with_reservation(tid, cfg.page_size, MOSAIC_GROUP)
            } else {
                PageTable::new(tid, cfg.page_size)
            }
        })
        .collect()
}

/// The L2 TLB organization a preset selects.
enum L2 {
    /// Plain shared TLB, or one per tenant when private.
    Plain { tlbs: Vec<Tlb>, private: bool },
    /// A policy-arena organization.
    Arena(Box<ArenaTlb>),
}

impl L2 {
    fn new(cfg: &GpuConfig, n: usize) -> L2 {
        match cfg.l2_arena {
            Some(kind) => L2::Arena(Box::new(ArenaTlb::new(kind, cfg.l2_tlb, n, cfg.page_size))),
            None => {
                let count = if cfg.l2_tlb_private { n } else { 1 };
                L2::Plain {
                    tlbs: (0..count).map(|_| Tlb::new(cfg.l2_tlb, n)).collect(),
                    private: cfg.l2_tlb_private,
                }
            }
        }
    }

    /// Probes, and fills on a miss; returns whether it missed.
    #[inline]
    fn access(&mut self, tenant: TenantId, vpn: Vpn, ppn: Ppn, now: Cycle) -> bool {
        match self {
            L2::Arena(a) => {
                let miss = a.probe(tenant, vpn).is_none();
                if miss {
                    a.fill(tenant, vpn, ppn, now);
                }
                miss
            }
            L2::Plain { tlbs, private } => {
                let tlb = &mut tlbs[if *private { tenant.index() } else { 0 }];
                let miss = tlb.probe(tenant, vpn).is_none();
                if miss {
                    tlb.fill(tenant, vpn, ppn, now);
                }
                miss
            }
        }
    }

    /// (coalesces, splinters, shared fills).
    fn counts(&self) -> (u64, u64, u64) {
        match self {
            L2::Arena(arena) => match arena.as_ref() {
                ArenaTlb::Mosaic(m) => (m.coalesces(), m.splinters(), 0),
                ArenaTlb::SubEntry(s) => (0, 0, s.shared_fills()),
                ArenaTlb::DeadGuard(_) => (0, 0, 0),
            },
            L2::Plain { .. } => (0, 0, 0),
        }
    }
}

/// One regenerated warp op: its SM, its references `start..end` in the
/// block, and the cycle it maps to.
#[derive(Clone, Copy)]
struct Op {
    sm: u16,
    start: u32,
    end: u32,
    at: u64,
}

/// Regenerates every warp stream of the run and drives the references
/// through the L1 TLB and cache, the L2 TLB, and the memory system, one
/// block at a time.
///
/// Warps advance round-robin, SM by SM, one op each per round; a tenant
/// relaunches when all its warps finish an execution (as in the run) and
/// stops once it has issued as many instructions as it did in the run.
/// Replayed ops map onto the run's timeline in proportion to instructions
/// issued.
fn replay_data_path(
    cfg: &GpuConfig,
    spec: &SimSpec,
    seed: u64,
    result: &SimResult,
    t: &mut LayerTotals,
    spans: &mut Spans,
    parent: SpanId,
) {
    let n = spec.apps.len();
    let (n_sms, wps) = (cfg.n_sms, cfg.warps_per_sm);
    let spt = n_sms / n;
    let mut streams = Vec::with_capacity(n_sms * wps);
    for sm in 0..n_sms {
        let tenant = sm / spt;
        for w in 0..wps {
            streams.push(WarpStream::new(
                spec.apps[tenant].profile(),
                spec.sim_seed(seed) ^ (0x9E37 * (tenant as u64 + 1)),
                ((sm % spt) * wps + w) as u64,
                cfg.instructions_per_warp,
            ));
        }
    }
    let targets: Vec<u64> = result.tenants.iter().map(issued_instructions).collect();
    let target_all: u64 = targets.iter().sum();
    let mut issued = vec![0u64; n];
    let mut issued_all = 0u64;
    let mut execs = vec![0u32; n];
    let mut finished = vec![false; n_sms * wps];
    let mut n_finished = vec![0usize; n];
    let mut active = vec![true; n];

    let mut sms: Vec<SmState> = (0..n_sms)
        .map(|sm| SmState::new(cfg.sm, TenantId((sm / spt) as u8)))
        .collect();
    let l1_lat = sms[0].l1_hit_latency();
    let mut l2 = L2::new(cfg, n);
    let mut mem = MemSystem::new(cfg.mem);
    let mut pts = page_tables(cfg, n);
    let mut frames = FrameAlloc::new();
    let mut path = WalkPath::default();

    let mut buf: Vec<MemRef> = Vec::new();
    let mut ops: Vec<Op> = Vec::new();
    let mut refs: Vec<MemRef> = Vec::new();
    let mut ppns: Vec<Ppn> = Vec::new();
    let mut vpns: Vec<Vpn> = Vec::new();
    let mut probed: Vec<Option<Ppn>> = Vec::new();
    let mut l2_reqs: Vec<(TenantId, Vpn, Ppn, Cycle)> = Vec::new();
    let mut lines: Vec<(LineAddr, Cycle)> = Vec::new();

    while active.iter().any(|&a| a) {
        // Stream generation: whole rounds until the block is full.
        ops.clear();
        refs.clear();
        let start = Instant::now();
        while refs.len() < BLOCK_REFS && active.iter().any(|&a| a) {
            for sm in 0..n_sms {
                let tn = sm / spt;
                if !active[tn] {
                    continue;
                }
                for wi in sm * wps..(sm + 1) * wps {
                    if finished[wi] {
                        continue;
                    }
                    match streams[wi].next_op_into(&mut buf) {
                        None => {
                            finished[wi] = true;
                            n_finished[tn] += 1;
                        }
                        Some(compute) => {
                            // A spent stream answers `None` to its next
                            // call; count the warp finished now so the
                            // execution completes within this round.
                            if streams[wi].remaining() == 0 {
                                finished[wi] = true;
                                n_finished[tn] += 1;
                            }
                            issued[tn] += compute + 1;
                            issued_all += compute + 1;
                            let first = refs.len() as u32;
                            refs.extend_from_slice(&buf);
                            ops.push(Op {
                                sm: sm as u16,
                                start: first,
                                end: refs.len() as u32,
                                at: issued_all,
                            });
                        }
                    }
                }
            }
            for tn in 0..n {
                if !active[tn] {
                    continue;
                }
                if n_finished[tn] == spt * wps {
                    execs[tn] += 1;
                    if execs[tn] == result.tenants[tn].completed_executions {
                        t.replay_instructions += issued[tn];
                    }
                    n_finished[tn] = 0;
                    for wi in tn * spt * wps..(tn + 1) * spt * wps {
                        finished[wi] = false;
                        streams[wi].relaunch();
                    }
                }
                if issued[tn] >= targets[tn] {
                    active[tn] = false;
                }
            }
        }
        t.stream_ops += ops.len() as u64;
        t.stream_gen_s += spans.record("workloads.stream_gen", Some(parent), start, Instant::now());

        // Untimed: translate, and map ops onto the run's timeline.
        ppns.clear();
        for op in &mut ops {
            let tn = usize::from(op.sm) / spt;
            for r in &refs[op.start as usize..op.end as usize] {
                let ppn = match pts[tn].translate(r.vpn) {
                    Some(ppn) => ppn,
                    None => {
                        pts[tn].walk_path_into(r.vpn, &mut frames, &mut path);
                        path.ppn
                    }
                };
                ppns.push(ppn);
            }
            op.at = (u128::from(op.at) * u128::from(result.cycles) / u128::from(target_all.max(1)))
                as u64;
        }

        // gpu: L1 TLB (probed a run at a time, as the simulator does) and
        // L1 cache.
        l2_reqs.clear();
        lines.clear();
        let (mut hits, mut misses, mut cache_hits) = (0u64, 0u64, 0u64);
        let start = Instant::now();
        for op in &ops {
            let sm = &mut sms[usize::from(op.sm)];
            let tenant = sm.tenant();
            let now = Cycle(op.at);
            let (mut i, end) = (op.start as usize, op.end as usize);
            while i < end {
                vpns.clear();
                vpns.extend(refs[i..end].iter().map(|r| r.vpn));
                let consumed = sm.probe_l1_tlb_run(&vpns, &mut probed);
                for k in 0..consumed {
                    let (r, ppn) = (refs[i + k], ppns[i + k]);
                    if probed[k].is_some() {
                        hits += 1;
                    } else {
                        misses += 1;
                        sm.fill_l1_tlb(r.vpn, ppn, now);
                        l2_reqs.push((tenant, r.vpn, ppn, now));
                    }
                    let line = LineAddr(ppn.0 * 32 + u64::from(r.line_in_page));
                    if sm.access_l1_cache(line) {
                        cache_hits += 1;
                    } else {
                        lines.push((line, now + l1_lat));
                    }
                }
                i += consumed;
            }
        }
        t.l1_s += spans.record("gpu.l1", Some(parent), start, Instant::now());
        t.l1_tlb_hits_replay += hits;
        t.l1_tlb_misses_replay += misses;
        t.l1_cache_hits += cache_hits;
        t.l1_cache_accesses += refs.len() as u64;

        // vm.tlb: the L1 misses through the L2 TLB.
        let mut l2_misses = 0u64;
        let start = Instant::now();
        for &(tenant, vpn, ppn, now) in &l2_reqs {
            l2_misses += u64::from(l2.access(tenant, vpn, ppn, now));
        }
        t.l2_s += spans.record("vm.tlb.l2", Some(parent), start, Instant::now());
        t.l2_probes += l2_reqs.len() as u64;
        t.l2_misses += l2_misses;

        // mem: the L1-missing data lines through L2 and DRAM.
        let start = Instant::now();
        for &(line, at) in &lines {
            black_box(mem.access(line, at, AccessKind::Data));
        }
        t.mem_s += spans.record("mem.data", Some(parent), start, Instant::now());
        t.data_accesses += lines.len() as u64;
    }
    let (coalesces, splinters, shared_fills) = l2.counts();
    t.coalesces += coalesces;
    t.splinters += splinters;
    t.shared_fills += shared_fills;
}

/// Feeds the traced arrivals to a fresh walk subsystem at their cycles,
/// completing walks at the cycles it schedules. An arrival at cycle `c`
/// was issued by the simulator at `c - l2_tlb_latency`, so completions due
/// by then are processed first.
///
/// When the replay accepts an attempt the run rejected, the run's later
/// retries of that page are skipped: the simulator's merge table would have
/// joined them to the walk already under way.
fn replay_walks(
    cfg: &GpuConfig,
    n: usize,
    arrivals: &[Arrival],
    t: &mut LayerTotals,
    spans: &mut Spans,
    parent: SpanId,
) {
    let mut walk = WalkSubsystem::new(cfg.walk.clone());
    let mut pts = page_tables(cfg, n);
    let mut frames = FrameAlloc::new();
    let mut mem = MemSystem::new(cfg.mem);
    let mask = cfg.mask.map(|m| MaskState::new(m, n));
    let mut obs = Observer::off();
    let mut ctx = WalkContext {
        page_tables: &mut pts,
        frames: &mut frames,
        mem: &mut mem,
        mask: mask.as_ref(),
        obs: &mut obs,
    };
    // (done_at, dispatch order, walker): completions in cycle order, ties
    // in dispatch order, as the event queue delivers them.
    let mut due: BinaryHeap<Reverse<(u64, u64, u8)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut completed = 0u64;
    let mut absorbed: HashMap<(u8, u64), u32, FnvBuildHasher> = HashMap::default();
    let l2_lat = cfg.l2_tlb_latency;
    let mut complete_until = |limit: u64,
                              walk: &mut WalkSubsystem,
                              ctx: &mut WalkContext<'_>,
                              due: &mut BinaryHeap<Reverse<(u64, u64, u8)>>,
                              seq: &mut u64| {
        while let Some(&Reverse((done, _, w))) = due.peek() {
            if done > limit {
                break;
            }
            due.pop();
            let (_, next) = walk.on_walker_done(WalkerId(w), Cycle(done), ctx);
            completed += 1;
            if let Some(d) = next {
                due.push(Reverse((d.done_at.0, *seq, d.walker.0)));
                *seq += 1;
            }
        }
    };
    for block in arrivals.chunks(BLOCK_WALK) {
        let start = Instant::now();
        for a in block {
            complete_until(
                a.cycle.saturating_sub(l2_lat),
                &mut walk,
                &mut ctx,
                &mut due,
                &mut seq,
            );
            let key = (a.tenant, a.vpn);
            if let Some(owed) = absorbed.get_mut(&key) {
                if a.accepted {
                    *owed -= 1;
                    if *owed == 0 {
                        absorbed.remove(&key);
                    }
                }
                continue;
            }
            let req = WalkRequest {
                tenant: TenantId(a.tenant),
                vpn: Vpn(a.vpn),
            };
            let Ok(dispatched) = walk.try_enqueue(req, Cycle(a.cycle), &mut ctx) else {
                continue;
            };
            if !a.accepted {
                *absorbed.entry(key).or_insert(0) += 1;
            }
            if let Some(d) = dispatched {
                due.push(Reverse((d.done_at.0, seq, d.walker.0)));
                seq += 1;
            }
        }
        t.walk_s += spans.record("vm.walk", Some(parent), start, Instant::now());
    }
    let start = Instant::now();
    complete_until(u64::MAX, &mut walk, &mut ctx, &mut due, &mut seq);
    t.walk_s += spans.record("vm.walk", Some(parent), start, Instant::now());
    t.walks_replayed += completed;
}

/// Feeds the traced PWC probes, each followed by the walk's fill, to a
/// PWC of the run's size. Walk paths come from a replay page table,
/// computed outside the timed calls.
fn replay_pwc(
    cfg: &GpuConfig,
    n: usize,
    probes: &[PwcProbe],
    t: &mut LayerTotals,
    spans: &mut Spans,
    parent: SpanId,
) {
    let mut pwc = PwCache::new(cfg.walk.pwc_entries);
    let mut pts = page_tables(cfg, n);
    let mut frames = FrameAlloc::new();
    let mut paths: Vec<WalkPath> = Vec::new();
    for block in probes.chunks(BLOCK_WALK) {
        paths.resize_with(block.len(), WalkPath::default);
        for (p, path) in block.iter().zip(paths.iter_mut()) {
            pts[usize::from(p.tenant)].walk_path_into(Vpn(p.vpn), &mut frames, path);
        }
        let start = Instant::now();
        for (p, path) in block.iter().zip(&paths) {
            let (tenant, vpn) = (TenantId(p.tenant), Vpn(p.vpn));
            black_box(pwc.probe(tenant, vpn, usize::from(p.levels)));
            pwc.fill_walk(tenant, vpn, &path.node_addrs);
        }
        t.pwc_s += spans.record("vm.pwc", Some(parent), start, Instant::now());
    }
}
