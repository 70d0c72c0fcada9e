//! The walksteal benchmark: named workloads run through the public
//! [`SimulationBuilder`] API, end-to-end metrics with output checks, and a
//! traced run that attributes host time to the simulator's layers by
//! replaying the run's real operand streams through each layer.
//!
//! Every simulation runs on the calling thread with warp streams generated
//! inline ([`StreamPipelining::Off`]), one after another, so a run's load is
//! one core whatever the host has.

pub mod replay;
pub mod spans;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use walksteal_multitenant::{
    GpuConfig, PolicyPreset, RunBudget, SimResult, SimulationBuilder, StreamPipelining,
};
use walksteal_sim_core::Json;
use walksteal_workloads::{paper_pairs, AppId};

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 42;

/// Builds of each simulation timed per pass; `setup_s` takes their median,
/// because one build takes well under a millisecond and a single timing of
/// it is mostly noise.
pub const SETUP_REPEATS: usize = 9;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GUPS.MM under DWS++ on the Table I machine: the paper's headline
    /// Heavy-with-Light pair, where walk scheduling and stealing dominate.
    HlDwspp,
    /// The 13 LL/ML/MM pairs under DWS: translation nearly idle; stream
    /// generation, the L1 path, caches and DRAM do the work.
    VmInsensitive,
    /// SAD.BLK.JPEG.FFT on 28 SMs under SE-TLB and MOSAIC: the L2 TLB goes
    /// through the arena organizations and the walkers split four ways.
    Arena4,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::HlDwspp, Workload::VmInsensitive, Workload::Arena4];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::HlDwspp => "hl_dwspp",
            Workload::VmInsensitive => "vm_insensitive",
            Workload::Arena4 => "arena4",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seeds each simulation of the workload runs under, derived from the
    /// workload seed. With one seed, a pass of `vm_insensitive` swings by 4x
    /// in walk latency and 20% in work from seed to seed (a Medium tenant's
    /// one short execution catches its miss storm or not), and one of
    /// `arena4` by 10% in work (the run stops when its slowest tenant
    /// first finishes); more seeds per simulation average that out.
    /// `hl_dwspp` is steady at one seed.
    #[must_use]
    pub fn seeds_per_sim(self) -> u64 {
        match self {
            Workload::HlDwspp => 1,
            Workload::VmInsensitive => 16,
            Workload::Arena4 => 4,
        }
    }

    /// The simulations one pass of the workload runs, in order: each base
    /// simulation under each of its seeds.
    #[must_use]
    pub fn sims(self) -> Vec<SimSpec> {
        let base: Vec<SimSpec> = match self {
            Workload::HlDwspp => vec![SimSpec::new(
                vec![AppId::Gups, AppId::Mm],
                PolicyPreset::DwsPlusPlus,
                30,
            )],
            Workload::VmInsensitive => paper_pairs()
                .into_iter()
                .filter(|p| !p.is_vm_sensitive())
                .map(|p| SimSpec::new(p.apps().to_vec(), PolicyPreset::Dws, 30))
                .collect(),
            Workload::Arena4 => [PolicyPreset::SubEntryTlb, PolicyPreset::MosaicPages]
                .into_iter()
                .map(|preset| {
                    SimSpec::new(
                        vec![AppId::Sad, AppId::Blk, AppId::Jpeg, AppId::Fft],
                        preset,
                        28,
                    )
                })
                .collect(),
        };
        let k = self.seeds_per_sim();
        if k == 1 {
            return base;
        }
        let mut sims = Vec::new();
        for spec in base {
            for _ in 0..k {
                sims.push(SimSpec {
                    seed_index: Some(sims.len() as u64),
                    ..spec.clone()
                });
            }
        }
        sims
    }
}

/// The machine a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// The paper's machine at evaluation scale (Table I; 28 SMs for four
    /// tenants).
    Paper,
    /// Two SMs per tenant, 4 warps each, short executions: every mechanism
    /// still fires, in well under a second. For the benchmark's own tests.
    Shrunk,
}

/// One simulation of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Co-running applications, tenant 0 first.
    pub apps: Vec<AppId>,
    /// Policy preset.
    pub preset: PolicyPreset,
    /// SMs at paper scale.
    pub n_sms: usize,
    /// `None`: the simulation runs at the workload seed. `Some(j)`: at the
    /// `j`-th seed derived from it.
    pub seed_index: Option<u64>,
}

impl SimSpec {
    fn new(apps: Vec<AppId>, preset: PolicyPreset, n_sms: usize) -> Self {
        SimSpec {
            apps,
            preset,
            n_sms,
            seed_index: None,
        }
    }

    /// The simulation's seed under workload seed `seed`.
    #[must_use]
    pub fn sim_seed(&self, seed: u64) -> u64 {
        match self.seed_index {
            None => seed,
            // SplitMix64 of (seed, j): neighbouring workload seeds share no
            // derived seed.
            Some(j) => {
                let mut z = seed.wrapping_add((j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
        }
    }

    /// A short label: apps joined by `.`, the preset, and the derived-seed
    /// index if any.
    #[must_use]
    pub fn label(&self) -> String {
        let apps: Vec<String> = self.apps.iter().map(ToString::to_string).collect();
        let label = format!("{}/{}", apps.join("."), self.preset);
        match self.seed_index {
            Some(j) => format!("{label}#{j}"),
            None => label,
        }
    }

    /// The fully resolved configuration: specialized for the tenant count,
    /// then the preset applied (the experiment suite's canonical order).
    #[must_use]
    pub fn config(&self, machine: Machine) -> GpuConfig {
        let n = self.apps.len();
        let base = GpuConfig::default().with_walkers(16);
        let base = match machine {
            Machine::Paper => base.with_n_sms(self.n_sms),
            Machine::Shrunk => base
                .with_n_sms(2 * n)
                .with_warps_per_sm(4)
                .with_instructions_per_warp(600),
        };
        base.for_tenants(n).with_preset(self.preset)
    }

    /// A builder for this simulation; the workload seed is its only input
    /// besides the configuration.
    #[must_use]
    pub fn builder(&self, cfg: GpuConfig, seed: u64) -> SimulationBuilder {
        SimulationBuilder::new()
            .config(cfg)
            .tenants(self.apps.iter().copied())
            .seed(self.sim_seed(seed))
            .stream_pipelining(StreamPipelining::Off)
    }
}

/// The watchdog every simulation runs under: far above what any workload
/// needs (the largest paper-scale simulation takes about 37M events), but a
/// runaway run fails instead of hanging the benchmark.
#[must_use]
pub fn budget(machine: Machine) -> RunBudget {
    match machine {
        Machine::Paper => RunBudget::unlimited()
            .with_max_events(150_000_000)
            .with_max_wall(Duration::from_secs(60)),
        Machine::Shrunk => RunBudget::unlimited()
            .with_max_events(5_000_000)
            .with_max_wall(Duration::from_secs(30)),
    }
}

/// One simulation's outcome.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The result, when the run finished and passed its checks.
    pub result: Option<SimResult>,
    /// Median time in [`SimulationBuilder::build`] over the timed builds.
    pub setup_s: f64,
    /// Time in [`Simulation::run_budgeted`](walksteal_multitenant::Simulation).
    pub wall_s: f64,
    /// Why the simulation failed: a panic, a blown budget, or a failed
    /// output check.
    pub failure: Option<String>,
}

/// Builds `spec` `setup_repeats` times (timing each), runs the last build
/// under the [`budget`], and checks its output.
#[must_use]
pub fn run_sim(spec: &SimSpec, machine: Machine, seed: u64, setup_repeats: usize) -> SimOutcome {
    run_with(spec, machine, seed, setup_repeats, |b| b)
}

/// As [`run_sim`], with `attach` applied to each builder (the traced run
/// attaches its tracer and metrics registry here).
pub fn run_with(
    spec: &SimSpec,
    machine: Machine,
    seed: u64,
    setup_repeats: usize,
    mut attach: impl FnMut(SimulationBuilder) -> SimulationBuilder,
) -> SimOutcome {
    let cfg = spec.config(machine);
    let budget = budget(machine);
    let mut setups = Vec::with_capacity(setup_repeats);
    let mut sim = None;
    for _ in 0..setup_repeats.max(1) {
        let builder = attach(spec.builder(cfg.clone(), seed));
        let started = Instant::now();
        let built = builder.try_build();
        setups.push(started.elapsed().as_secs_f64());
        sim = Some(built);
    }
    let setup_s = median(&mut setups);
    let fail = |msg: String, wall_s| SimOutcome {
        result: None,
        setup_s,
        wall_s,
        failure: Some(format!("{}: {msg}", spec.label())),
    };
    let sim = match sim.expect("at least one build") {
        Ok(sim) => sim,
        Err(e) => return fail(format!("build failed: {e}"), 0.0),
    };
    let started = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| sim.run_budgeted(&budget)));
    let wall_s = started.elapsed().as_secs_f64();
    match ran {
        Err(_) => fail("panicked".into(), wall_s),
        Ok(Err(e)) => fail(e.to_string(), wall_s),
        Ok(Ok(result)) => match check_result(&result) {
            Ok(()) => SimOutcome {
                result: Some(result),
                setup_s,
                wall_s,
                failure: None,
            },
            Err(msg) => fail(msg, wall_s),
        },
    }
}

/// The output checks every simulation must pass: every tenant completed at
/// least one execution at a finite, positive IPC, and the result
/// round-trips through its JSON form unchanged.
///
/// # Errors
///
/// Describes the first check that failed.
pub fn check_result(r: &SimResult) -> Result<(), String> {
    if r.tenants.is_empty() {
        return Err("no tenants in result".into());
    }
    for (i, t) in r.tenants.iter().enumerate() {
        if t.completed_executions < 1 {
            return Err(format!("tenant {i} ({}) completed no execution", t.app));
        }
        if !(t.ipc.is_finite() && t.ipc > 0.0) {
            return Err(format!("tenant {i} ({}) has IPC {}", t.app, t.ipc));
        }
    }
    let text = r.to_json().dump();
    let back = Json::parse(&text)
        .ok()
        .and_then(|j| SimResult::from_json(&j));
    if back.as_ref() != Some(r) {
        return Err("result does not round-trip through to_json/from_json".into());
    }
    Ok(())
}

/// One pass over a workload's simulations.
#[derive(Debug, Clone)]
pub struct Pass {
    /// One outcome per simulation, in workload order.
    pub sims: Vec<SimOutcome>,
}

impl Pass {
    /// Runs every simulation of `workload` once.
    #[must_use]
    pub fn run(workload: Workload, machine: Machine, seed: u64, setup_repeats: usize) -> Pass {
        Pass {
            sims: workload
                .sims()
                .iter()
                .map(|s| run_sim(s, machine, seed, setup_repeats))
                .collect(),
        }
    }

    /// Results of the simulations that succeeded.
    pub fn results(&self) -> impl Iterator<Item = &SimResult> {
        self.sims.iter().filter_map(|s| s.result.as_ref())
    }

    /// Time in `run` summed over the simulations.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.sims.iter().map(|s| s.wall_s).sum()
    }

    /// Set-up time summed over the simulations.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.sims.iter().map(|s| s.setup_s).sum()
    }
}

/// The simulated-domain figures of a workload: exact for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Simulated {
    /// Events processed, summed over the simulations.
    pub events: u64,
    /// Warp instructions retired in completed executions, summed.
    pub instructions: u64,
    /// Geometric mean over the simulations of the sum of tenant IPCs.
    pub total_ipc: f64,
    /// Mean page-walk latency over every tenant of every simulation,
    /// weighted by the tenant's demand L2-TLB misses (each one starts or
    /// joins a walk).
    pub walk_latency_cycles: f64,
    /// Simulated cycles, summed.
    pub cycles: u64,
}

impl Simulated {
    /// Aggregates complete results of one pass.
    #[must_use]
    pub fn of<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> Simulated {
        let (mut events, mut instructions, mut cycles, mut n) = (0, 0, 0, 0u32);
        let (mut log_ipc, mut lat_sum, mut misses) = (0.0, 0.0, 0u64);
        for r in results {
            events += r.events;
            cycles += r.cycles;
            n += 1;
            log_ipc += r.total_ipc().ln();
            for t in &r.tenants {
                instructions += t.instructions;
                lat_sum += t.mean_walk_latency * t.l2_tlb_misses as f64;
                misses += t.l2_tlb_misses;
            }
        }
        Simulated {
            events,
            instructions,
            total_ipc: if n == 0 {
                0.0
            } else {
                (log_ipc / f64::from(n)).exp()
            },
            walk_latency_cycles: if misses == 0 {
                0.0
            } else {
                lat_sum / misses as f64
            },
            cycles,
        }
    }
}

/// FNV-1a over the canonical JSON of every result, in workload order: equal
/// digests mean byte-identical simulator output.
#[must_use]
pub fn result_digest<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        for b in r.to_json().dump().bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Median of `xs` (sorted in place); 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), if the platform
/// reports it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// CPU model and available parallelism, for the record.
#[must_use]
pub fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!("cpu=\"{cpu}\" nproc={nproc}")
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one benchmark invocation reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Simulations attempted.
    pub attempted: u64,
    /// Simulations that panicked, blew their budget, or failed a check.
    pub failed: u64,
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .dump()
    }
}

/// The untraced end-to-end run: passes over the workload until `seconds`
/// have elapsed (at least one), every metric the median over passes.
/// Every pass at one seed must reproduce the first pass's results exactly.
#[must_use]
pub fn end_to_end(workload: Workload, machine: Machine, seed: u64, seconds: f64) -> Report {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        passes.push(Pass::run(workload, machine, seed, SETUP_REPEATS));
    }
    let mut notes = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let first: Vec<Option<&SimResult>> = passes[0].sims.iter().map(|s| s.result.as_ref()).collect();
    for (p, pass) in passes.iter().enumerate() {
        for (i, sim) in pass.sims.iter().enumerate() {
            attempted += 1;
            if let Some(msg) = &sim.failure {
                failed += 1;
                notes.push(format!("FAILED pass {p}: {msg}"));
            } else if sim.result.as_ref() != first[i] {
                failed += 1;
                notes.push(format!(
                    "FAILED pass {p}: simulation {i} differs from pass 0"
                ));
            }
        }
    }
    let sim = Simulated::of(passes[0].results());
    let per_pass = |f: &dyn Fn(&Pass) -> f64| {
        let mut xs: Vec<f64> = passes.iter().map(f).collect();
        median(&mut xs)
    };
    let wall_s = per_pass(&Pass::wall_s);
    let metrics = vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new(
            "events_per_s",
            per_pass(&|p| sim.events as f64 / p.wall_s()),
            "ev/s",
        ),
        Metric::new(
            "minstr_per_s",
            per_pass(&|p| sim.instructions as f64 / 1e6 / p.wall_s()),
            "Minstr/s",
        ),
        Metric::new("setup_s", per_pass(&Pass::setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mib().unwrap_or(0.0), "MiB"),
        Metric::new("total_ipc", sim.total_ipc, "instr/cycle"),
        Metric::new("walk_latency_cycles", sim.walk_latency_cycles, "cycles"),
    ];
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.4}", p.wall_s()))
        .collect();
    notes.push(format!(
        "passes={} sims/pass={} events/pass={} instructions/pass={} cycles/pass={} wall_s/pass=[{}]",
        passes.len(),
        passes[0].sims.len(),
        sim.events,
        sim.instructions,
        sim.cycles,
        walls.join(" ")
    ));
    for (spec, outcome) in workload.sims().iter().zip(&passes[0].sims) {
        if let Some(r) = &outcome.result {
            let one = Simulated::of([r]);
            notes.push(format!(
                "sim {}: events={} cycles={} total_ipc={} walk_latency_cycles={}",
                spec.label(),
                one.events,
                one.cycles,
                one.total_ipc,
                one.walk_latency_cycles
            ));
        }
    }
    notes.push(format!(
        "result_digest=0x{:016x}",
        result_digest(passes[0].results())
    ));
    notes.push(format!(
        "failed_frac={} ({failed}/{attempted})",
        ratio(failed, attempted)
    ));
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// `a / b`, or 0 when `b` is 0 (nothing attempted, nothing to average).
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// [`run_sim`] inside a `run.untraced` span.
fn run_untraced(
    sp: &mut spans::Spans,
    parent: spans::SpanId,
    spec: &SimSpec,
    machine: Machine,
    seed: u64,
) -> SimOutcome {
    let s = sp.open("run.untraced", Some(parent));
    let outcome = run_sim(spec, machine, seed, 1);
    sp.close(s);
    outcome
}

/// The traced run: per simulation, a traced run between two untraced
/// ones, all three results equal, and the layer replays (see [`replay`]).
/// Returns every per-layer metric and the recorded spans.
#[must_use]
pub fn traced(workload: Workload, machine: Machine, seed: u64) -> (Report, spans::Spans) {
    let mut sp = spans::Spans::new();
    let root = sp.open("bench.traced", None);
    let mut t = replay::LayerTotals::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut notes = Vec::new();
    let mut results = Vec::new();
    for spec in workload.sims() {
        attempted += 1;
        let sim = sp.open("sim", Some(root));
        // Untraced runs before and after the traced one, so a drift in host
        // speed during the three runs cancels out of the tracing overhead.
        let before = run_untraced(&mut sp, sim, &spec, machine, seed);
        let s = sp.open("run.traced", Some(sim));
        let tr = replay::run_traced(&spec, machine, seed);
        sp.close(s);
        let after = run_untraced(&mut sp, sim, &spec, machine, seed);
        let checked = match (&before.result, &tr.outcome.result, &after.result) {
            (Some(a), Some(b), Some(c)) if a == b && a == c => Ok(a.clone()),
            (Some(_), Some(_), Some(_)) => Err(format!(
                "{}: traced result differs from the untraced one",
                spec.label()
            )),
            _ => Err([&before, &tr.outcome, &after]
                .into_iter()
                .find_map(|o| o.failure.clone())
                .unwrap_or_default()),
        };
        match checked {
            Ok(result) => {
                t.untraced_wall_s += (before.wall_s + after.wall_s) / 2.0;
                t.traced_wall_s += tr.outcome.wall_s;
                let s = sp.open("replay", Some(sim));
                replay::replay_sim(&spec, machine, seed, &tr, &mut t, &mut sp, s);
                sp.close(s);
                results.push(result);
            }
            Err(msg) => {
                failed += 1;
                notes.push(format!("FAILED: {msg}"));
            }
        }
        sp.close(sim);
    }
    sp.close(root);

    if t.replay_instructions != t.sim_instructions {
        failed += 1;
        notes.push(format!(
            "FAILED: the replay regenerated {} instructions where the run completed {}",
            t.replay_instructions, t.sim_instructions
        ));
    }
    let residual = t.dispatch_residual_s();
    if residual < 0.0 {
        failed += 1;
        notes.push(format!(
            "FAILED: layer replays ({:.6} s) exceed the traced wall time ({:.6} s)",
            t.layer_sum_s(),
            t.traced_wall_s
        ));
    }
    let metrics = vec![
        Metric::new("sim-core.events", t.events as f64, "count"),
        Metric::new("sim-core.dispatch_residual_s", residual, "s"),
        Metric::new("workloads.stream_ops", t.stream_ops as f64, "count"),
        Metric::new("workloads.stream_gen_s", t.stream_gen_s, "s"),
        Metric::new(
            "gpu.l1_tlb_probes",
            (t.l1_tlb_hits_run + t.l1_tlb_misses_run) as f64,
            "count",
        ),
        Metric::new(
            "gpu.l1_tlb_hit_ratio",
            ratio(t.l1_tlb_hits_run, t.l1_tlb_hits_run + t.l1_tlb_misses_run),
            "ratio",
        ),
        Metric::new(
            "gpu.l1_cache_hit_ratio",
            ratio(t.l1_cache_hits, t.l1_cache_accesses),
            "ratio",
        ),
        Metric::new("gpu.l1_s", t.l1_s, "s"),
        Metric::new("vm.tlb.l2_probes", t.l2_probes as f64, "count"),
        Metric::new(
            "vm.tlb.l2_miss_ratio",
            ratio(t.l2_misses, t.l2_probes),
            "ratio",
        ),
        Metric::new("vm.tlb.coalesces", t.coalesces as f64, "count"),
        Metric::new("vm.tlb.splinters", t.splinters as f64, "count"),
        Metric::new("vm.tlb.shared_fills", t.shared_fills as f64, "count"),
        Metric::new("vm.tlb.l2_s", t.l2_s, "s"),
        Metric::new("vm.walk.walks", t.walks as f64, "count"),
        Metric::new(
            "vm.walk.reject_ratio",
            ratio(t.rejected, t.attempts),
            "ratio",
        ),
        Metric::new(
            "vm.walk.steal_ratio",
            ratio(t.steal_success, t.steal_attempts),
            "ratio",
        ),
        Metric::new(
            "vm.walk.queue_wait_cycles",
            ratio(t.queue_wait, t.assigned),
            "cycles",
        ),
        Metric::new("vm.walk.s", t.walk_s, "s"),
        Metric::new("vm.pwc.probes", t.pwc_probes as f64, "count"),
        Metric::new(
            "vm.pwc.skip_ratio",
            ratio(t.pwc_levels_skipped, t.pwc_levels),
            "ratio",
        ),
        Metric::new("vm.pwc.s", t.pwc_s, "s"),
        Metric::new("mem.pte_fetches", t.pte_fetches as f64, "count"),
        Metric::new(
            "mem.pte_latency_cycles",
            ratio(t.pte_latency, t.pte_fetches),
            "cycles",
        ),
        Metric::new("mem.data_accesses", t.data_accesses as f64, "count"),
        Metric::new("mem.s", t.mem_s, "s"),
        Metric::new(
            "sim-core.trace.overhead_frac",
            if t.untraced_wall_s > 0.0 {
                t.traced_wall_s / t.untraced_wall_s - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new(
            "fidelity.instructions",
            ratio(t.replay_instructions, t.sim_instructions),
            "ratio",
        ),
        Metric::new(
            "fidelity.l1_tlb_hits",
            ratio(t.l1_tlb_hits_replay, t.l1_tlb_hits_run),
            "ratio",
        ),
        Metric::new(
            "fidelity.l1_tlb_misses",
            ratio(t.l1_tlb_misses_replay, t.l1_tlb_misses_run),
            "ratio",
        ),
        Metric::new(
            "fidelity.l2_tlb_misses",
            ratio(t.l2_misses, t.sim_l2_misses),
            "ratio",
        ),
        Metric::new("fidelity.walks", ratio(t.walks_replayed, t.walks), "ratio"),
        Metric::new(
            "fidelity.layer_share",
            if t.traced_wall_s > 0.0 {
                t.layer_sum_s() / t.traced_wall_s
            } else {
                0.0
            },
            "ratio",
        ),
    ];
    notes.push(format!(
        "traced wall {:.6} s = layers {:.6} s + dispatch residual {:.6} s (untraced wall {:.6} s)",
        t.traced_wall_s,
        t.layer_sum_s(),
        residual,
        t.untraced_wall_s
    ));
    notes.push(format!(
        "replayed vs in-run: instructions {} / {}; L1-TLB hits {} / {}; L1-TLB misses {} / {}; \
         L2-TLB misses {} / {} (demand); walks completed {} / {}",
        t.replay_instructions,
        t.sim_instructions,
        t.l1_tlb_hits_replay,
        t.l1_tlb_hits_run,
        t.l1_tlb_misses_replay,
        t.l1_tlb_misses_run,
        t.l2_misses,
        t.sim_l2_misses,
        t.walks_replayed,
        t.walks
    ));
    notes.push(format!("result_digest=0x{:016x}", result_digest(&results)));
    notes.push(format!(
        "failed_frac={} ({failed}/{attempted})",
        ratio(failed, attempted)
    ));
    (
        Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
            notes,
        },
        sp,
    )
}
