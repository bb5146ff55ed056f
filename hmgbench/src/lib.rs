//! The repository benchmark of the HMG simulator.
//!
//! Four workloads exercise different layers of the simulator:
//!
//! * `ml-broadcast` — `lstm` under no-peer-caching, NHCC, HMG and ideal:
//!   read-only weight broadcast, event-dense, few invalidations.
//! * `graph-sharing` — `bfs` under all seven protocols: irregular
//!   read-write sharing, invalidation fan-out, directory traffic.
//! * `faulty-preempt` — `CoMD` under NHCC and HMG with drops, soft
//!   errors and a dead link, run as preemptible (snapshotting) cells.
//! * `verify` — the bounded litmus sweep (`hmg_check::run_check`) and
//!   the explicit-state model checker (`hmg_audit::model::check_all`).
//!
//! Load model: one client in a closed loop. Cells run one at a time,
//! back to back, on the calling thread; modelled caches start empty in
//! every cell. Every cell's [`RunMetrics`] is reduced to a
//! [`fingerprint`] and checked against the references recorded in
//! `reference.txt`.

pub mod probes;
pub mod trace;

use std::path::Path;
use std::time::Instant;

use hmg::experiments::DEFAULT_SNAPSHOT_INTERVAL;
use hmg::gpu::{EngineConfig, RunMetrics, SnapshotPolicy};
use hmg::protocol::{ProtocolKind, WorkloadTrace};
use hmg::runner::{arm_watchdog, fnv1a64, run_isolated, run_preemptible, scale_capacities};
use hmg::sim::{FaultPlan, SnapWriter, SnapshotWrite};
use hmg::workloads::suite::by_abbrev;
use hmg::workloads::Scale;
use hmg_check::{run_check, CheckConfig, CheckReport};

use crate::trace::Tracer;

/// Seed the references in `reference.txt` are recorded for.
pub const DEFAULT_SEED: u64 = 2020;

/// The fault plan of `faulty-preempt`: message drops and corruptions,
/// L2-line and directory soft errors, and the GPM0–GPM1 link dying at
/// cycle 20000. Its seed is fixed, not taken from the benchmark seed.
pub const FAULT_SPEC: &str =
    "drop=0.02,flip-msg=0.02,flip-line=0.4,flip-dir=0.4,link-down=0-1@20000,seed=9";

/// The recorded reference fingerprints (`scale seed workload cell value`).
pub const REFERENCE: &str = include_str!("../reference.txt");

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `lstm` weight broadcast.
    MlBroadcast,
    /// `bfs` irregular read-write sharing.
    GraphSharing,
    /// `CoMD` under faults, through preemptible cells.
    FaultyPreempt,
    /// Litmus sweep plus model checker.
    Verify,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::MlBroadcast,
        Workload::GraphSharing,
        Workload::FaultyPreempt,
        Workload::Verify,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MlBroadcast => "ml-broadcast",
            Workload::GraphSharing => "graph-sharing",
            Workload::FaultyPreempt => "faulty-preempt",
            Workload::Verify => "verify",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Table III abbreviation of the simulated workload (`None` for
    /// `verify`, whose inputs are litmus programs).
    pub fn abbrev(self) -> Option<&'static str> {
        match self {
            Workload::MlBroadcast => Some("lstm"),
            Workload::GraphSharing => Some("bfs"),
            Workload::FaultyPreempt => Some("CoMD"),
            Workload::Verify => None,
        }
    }

    /// Protocols simulated (for `verify`: the protocols under check).
    pub fn protocols(self) -> &'static [ProtocolKind] {
        use ProtocolKind::*;
        match self {
            Workload::MlBroadcast => &[NoPeerCaching, Nhcc, Hmg, Ideal],
            Workload::GraphSharing => &ProtocolKind::ALL,
            Workload::FaultyPreempt | Workload::Verify => &[Nhcc, Hmg],
        }
    }
}

/// Input size and seed of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload-generation scale (`Scale::Small` for the benchmark).
    pub scale: Scale,
    /// Workload seed; for `verify`, the perturbation-plan seed.
    pub seed: u64,
    /// Engine-run budget of the litmus sweep.
    pub check_budget: u64,
}

impl Params {
    /// The benchmark's parameters at `scale`. The litmus sweep runs 100k
    /// engine runs at `Scale::Small` and 10k at `Scale::Tiny`; both are
    /// past the budget (about 4k at seed 1) where the known R3
    /// kernel-boundary-visibility violations start to show.
    pub fn new(scale: Scale, seed: u64) -> Params {
        let check_budget = match scale {
            Scale::Tiny => 10_000,
            Scale::Small | Scale::Full => 100_000,
        };
        Params {
            scale,
            seed,
            check_budget,
        }
    }

    /// Short scale name, as used in `reference.txt`.
    pub fn scale_name(&self) -> &'static str {
        match self.scale {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }
}

/// One configured (trace, protocol) simulation cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Protocol simulated.
    pub protocol: ProtocolKind,
    /// Fully prepared engine configuration.
    pub cfg: EngineConfig,
}

/// Everything a workload needs before its timed passes.
#[derive(Debug)]
pub struct Setup {
    /// Input traces: the one generated workload trace, or for `verify`
    /// the litmus traces of every class the sweep budget covers.
    pub traces: Vec<WorkloadTrace>,
    /// Simulation cells (empty for `verify`).
    pub cells: Vec<Cell>,
    /// Litmus sweep configuration (`verify` only).
    pub check: Option<CheckConfig>,
    /// Configuration the layer probes take their geometry from.
    pub probe_cfg: EngineConfig,
    /// Host seconds spent generating the traces.
    pub generate_s: f64,
    /// Host seconds spent building engine configurations.
    pub configure_s: f64,
}

impl Setup {
    /// Trace operations across every input trace.
    pub fn trace_ops(&self) -> u64 {
        self.traces
            .iter()
            .flat_map(|t| t.kernels.iter())
            .flat_map(|k| k.ctas.iter())
            .map(|c| c.ops.len() as u64)
            .sum()
    }
}

fn base_config(scale: Scale, protocol: ProtocolKind) -> EngineConfig {
    match scale {
        Scale::Tiny => EngineConfig::small_test(protocol),
        Scale::Small | Scale::Full => EngineConfig::paper_default(protocol),
    }
}

/// Generates the inputs and configures the engines of `w`.
pub fn setup(w: Workload, p: &Params) -> Setup {
    match w.abbrev() {
        Some(abbrev) => {
            let spec = by_abbrev(abbrev).expect("benchmark workloads are in Table III");
            let t0 = Instant::now();
            let trace = spec.generate(p.scale, p.seed);
            let generate_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let faults = (w == Workload::FaultyPreempt)
                .then(|| FaultPlan::parse(FAULT_SPEC).expect("built-in fault plan parses"));
            let cells: Vec<Cell> = w
                .protocols()
                .iter()
                .map(|&protocol| {
                    let mut cfg = base_config(p.scale, protocol);
                    if let Some(f) = &faults {
                        cfg.faults = f.clone();
                    }
                    scale_capacities(&mut cfg, spec.capacity_factor(p.scale));
                    arm_watchdog(&mut cfg, &trace, None);
                    Cell { protocol, cfg }
                })
                .collect();
            let configure_s = t1.elapsed().as_secs_f64();
            let probe_cfg = cells
                .iter()
                .find(|c| c.protocol == ProtocolKind::Hmg)
                .map(|c| c.cfg.clone())
                .expect("every simulation workload has an HMG cell");
            Setup {
                traces: vec![trace],
                cells,
                check: None,
                probe_cfg,
                generate_s,
                configure_s,
            }
        }
        None => {
            let check = CheckConfig {
                budget: p.check_budget,
                seed: p.seed,
                protocols: w.protocols().to_vec(),
                jobs: 1,
                ..CheckConfig::default()
            };
            let t0 = Instant::now();
            let traces = litmus_traces(&check);
            let generate_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let probe_cfg = EngineConfig::small_test(ProtocolKind::Hmg);
            let configure_s = t1.elapsed().as_secs_f64();
            Setup {
                traces,
                cells: Vec::new(),
                check: Some(check),
                probe_cfg,
                generate_s,
                configure_s,
            }
        }
    }
}

/// The litmus traces of every canonical class the sweep's budget
/// covers, in both kernel mappings — the inputs `run_check` simulates.
fn litmus_traces(cfg: &CheckConfig) -> Vec<WorkloadTrace> {
    use hmg_check::enumerate::Enumerator;
    use hmg_check::harness::{cost_of, trace_for};
    use hmg_check::oracle::Mode;
    let mut seen = std::collections::HashSet::new();
    let mut spent = 0u64;
    let mut traces = Vec::new();
    for prog in Enumerator::new() {
        if !prog.has_write() {
            continue;
        }
        let c = prog.canonical();
        if !seen.insert(c.key()) {
            continue;
        }
        spent += cost_of(&c, cfg);
        if spent > cfg.budget {
            break;
        }
        traces.extend(Mode::ALL.into_iter().map(|m| trace_for(&c, m)));
    }
    traces
}

/// A fingerprint of one run's simulated behaviour: FNV-1a over the
/// snapshot encoding of every [`RunMetrics`] field except `events`
/// (host-side work, which an engine optimization may legitimately cut)
/// and `table` (runtime table conformance, slated to move into the
/// protocol spec). Covers cycles, every access and coherence counter,
/// reconfiguration and integrity stats, the final-memory digest, fabric
/// and transport stats, utilizations, the miss-latency histogram and
/// the per-kernel end cycles.
pub fn fingerprint(m: &RunMetrics) -> u64 {
    let mut w = SnapWriter::new();
    m.total_cycles.write_snap(&mut w);
    for v in [
        m.loads,
        m.stores,
        m.l1_hits,
        m.local_l2_hits,
        m.gpu_home_hits,
        m.sys_home_hits,
        m.dram_accesses,
        m.inter_gpu_loads,
        m.inter_gpu_loads_peer_redundant,
        m.invs_from_stores,
        m.invs_from_evictions,
        m.stores_triggering_invs,
        m.evictions_triggering_invs,
        m.lines_invalidated_by_stores,
        m.lines_invalidated_by_evictions,
        m.lines_bulk_invalidated,
        m.stale_fills_dropped,
        m.fences,
        m.writebacks,
        m.downgrades,
        m.nacks,
        m.deferred_reqs,
        m.dir_broadcast_fallbacks,
        m.broadcast_invs,
    ] {
        w.put_u64(v);
    }
    m.reconfig.write_snap(&mut w);
    m.integrity.write_snap(&mut w);
    w.put_u64(m.state_digest);
    m.fabric.write_snap(&mut w);
    w.put_u64(m.dram_bytes);
    m.probe.write_snap(&mut w);
    w.put_f64(m.max_dram_util);
    w.put_f64(m.max_inter_util);
    w.put_f64(m.max_intra_util);
    w.put_u64(m.miss_latency_sum);
    w.put_u64(m.miss_count);
    w.put_u64(m.max_loads_inflight);
    m.kernel_end_cycles.write_snap(&mut w);
    m.miss_latency_hist.write_snap(&mut w);
    fnv1a64(&w.into_bytes())
}

/// One simulated cell of a pass.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Protocol simulated.
    pub protocol: ProtocolKind,
    /// Host seconds of the engine run.
    pub wall_s: f64,
    /// The run's metrics, or the error it returned.
    pub result: Result<RunMetrics, String>,
    /// Snapshots written (preemptible cells only).
    pub snapshots: u64,
    /// Size in bytes of the largest snapshot file left by the run.
    pub snapshot_bytes: u64,
}

impl CellRun {
    /// Fingerprint of a successful run.
    pub fn fingerprint(&self) -> Option<u64> {
        self.result.as_ref().ok().map(fingerprint)
    }
}

/// The litmus sweep and model-checker part of a `verify` pass.
#[derive(Debug, Clone)]
pub struct VerifyRun {
    /// Host seconds in `run_check`.
    pub check_s: f64,
    /// The sweep's report.
    pub check: CheckReport,
    /// Host seconds in `check_all`.
    pub model_s: f64,
    /// Reachable states summed over every spec variant.
    pub model_states: u64,
    /// Variants model-checked.
    pub model_variants: u64,
    /// Invariant violations the model checker found.
    pub model_violations: u64,
    /// Fingerprint over the sweep's and the model checker's results.
    pub fingerprint: u64,
}

/// One back-to-back execution of a workload's cells.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds of the pass's cells (or sweep and model check),
    /// set-up and reference jobs excluded.
    pub wall_s: f64,
    /// Median host seconds of the reference job ([`host_ref_s`]) run
    /// before, between and after the pass's cells (or sweep and model
    /// check).
    pub ref_s: f64,
    /// The pass in units of the reference job: each cell's (or the
    /// sweep's, the model check's) host seconds divided by the mean of
    /// the reference runs just before and after it, summed.
    pub wall_ref: f64,
    /// Simulation cells, in protocol order.
    pub cells: Vec<CellRun>,
    /// The `verify` part, for `verify`.
    pub verify: Option<VerifyRun>,
}

impl Pass {
    /// The cell simulating `protocol`, if the pass has one.
    pub fn cell(&self, protocol: ProtocolKind) -> Option<&CellRun> {
        self.cells.iter().find(|c| c.protocol == protocol)
    }

    /// Simulated cycles summed over the pass's successful cells.
    pub fn sim_cycles(&self) -> u64 {
        self.cells
            .iter()
            .filter_map(|c| c.result.as_ref().ok())
            .map(|m| m.total_cycles.as_u64())
            .sum()
    }
}

/// Runs every cell of `setup` once, with the host reference job run
/// before, between and after them. `faulty-preempt` cells run preemptibly, snapshotting
/// into `snap_dir`.
pub fn run_pass(w: Workload, setup: &Setup, snap_dir: &Path, tracer: &mut Tracer) -> Pass {
    let preempt = (w == Workload::FaultyPreempt).then_some(snap_dir);
    let mut refs = Vec::new();
    let cells: Vec<CellRun> = setup
        .cells
        .iter()
        .map(|cell| {
            refs.push(host_ref_s());
            let span = tracer.enter(&format!("gpu.run.{}", cell.protocol.name()));
            let run = run_cell(cell, &setup.traces[0], preempt);
            tracer.exit(span);
            run
        })
        .collect();
    refs.push(host_ref_s());
    let verify = setup
        .check
        .as_ref()
        .map(|cfg| run_verify(cfg, tracer, &mut refs));
    let units: Vec<f64> = (cells.iter().map(|c| c.wall_s))
        .chain(verify.iter().flat_map(|v| [v.check_s, v.model_s]))
        .collect();
    let wall_ref = (units.iter().zip(refs.windows(2)))
        .map(|(unit, around)| unit / ((around[0] + around[1]) / 2.0))
        .sum();
    Pass {
        wall_s: units.iter().sum(),
        ref_s: median(&refs),
        wall_ref,
        cells,
        verify,
    }
}

/// Runs one cell: through `run_isolated`, or with `snap_dir` through
/// `run_preemptible` at the default snapshot interval. The directory is
/// emptied first so the cell never resumes from an earlier run.
pub fn run_cell(cell: &Cell, trace: &WorkloadTrace, snap_dir: Option<&Path>) -> CellRun {
    let cfg = cell.cfg.clone();
    let t = Instant::now();
    let (result, snapshots) = match snap_dir {
        None => (run_isolated(cfg, trace).map_err(|e| e.to_string()), 0),
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            let name = cell.protocol.name();
            let identity = fnv1a64(format!("hmgbench|{name}").as_bytes());
            let path = dir.join(format!("{name}.snap"));
            let policy = SnapshotPolicy::periodic(path, identity, DEFAULT_SNAPSHOT_INTERVAL);
            match std::fs::create_dir_all(dir) {
                Err(e) => (Err(format!("cannot create {}: {e}", dir.display())), 0),
                Ok(()) => match run_preemptible(cfg, trace, &policy) {
                    Ok((m, report)) => (Ok(m), report.written),
                    Err(e) => (Err(e.to_string()), 0),
                },
            }
        }
    };
    let wall_s = t.elapsed().as_secs_f64();
    CellRun {
        protocol: cell.protocol,
        wall_s,
        result,
        snapshots,
        snapshot_bytes: snap_dir.filter(|_| snapshots > 0).map_or(0, largest_file),
    }
}

/// The cost of snapshotting one cell: `reps` alternating runs with
/// snapshots off and on. Returns the ms per snapshot (fastest run on,
/// less fastest run off, per snapshot written), or an error if any run
/// failed or differed from the others.
pub fn snapshot_cost(
    cell: &Cell,
    trace: &WorkloadTrace,
    snap_dir: &Path,
    reps: usize,
) -> Result<f64, String> {
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    let mut written = 0;
    let mut prints = Vec::new();
    for _ in 0..reps {
        for dir in [None, Some(snap_dir)] {
            let run = run_cell(cell, trace, dir);
            prints.push(run.fingerprint().ok_or(format!("{:?}", run.result.err()))?);
            if dir.is_some() {
                on = on.min(run.wall_s);
                written = run.snapshots;
            } else {
                off = off.min(run.wall_s);
            }
        }
    }
    let _ = std::fs::remove_dir_all(snap_dir);
    if prints.windows(2).any(|p| p[0] != p[1]) {
        return Err("snapshot-on and snapshot-off runs differ".into());
    }
    Ok((on - off) * 1e3 / written.max(1) as f64)
}

fn largest_file(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

fn run_verify(cfg: &CheckConfig, tracer: &mut Tracer, refs: &mut Vec<f64>) -> VerifyRun {
    let span = tracer.enter("check.run_check");
    let t = Instant::now();
    let check = run_check(cfg);
    let check_s = t.elapsed().as_secs_f64();
    tracer.exit(span);

    refs.push(host_ref_s());
    let span = tracer.enter("audit.model.check_all");
    let t = Instant::now();
    let runs = hmg_audit::model::check_all(None, None);
    let model_s = t.elapsed().as_secs_f64();
    tracer.exit(span);
    refs.push(host_ref_s());

    let mut w = SnapWriter::new();
    w.put_u64(check.classes_checked);
    w.put_u64(check.runs);
    w.put_u64(check.outcomes_checked);
    w.put_u64(check.silent_corruptions);
    for v in &check.violations {
        w.put_bytes(v.to_string().as_bytes());
    }
    for c in &check.crashed_classes {
        w.put_bytes(c.as_bytes());
    }
    for r in &runs {
        w.put_bytes(r.report().as_bytes());
    }
    VerifyRun {
        check_s,
        model_s,
        model_states: runs.iter().map(|r| r.reachable).sum(),
        model_variants: runs.len() as u64,
        model_violations: runs.iter().map(|r| r.violations.len() as u64).sum(),
        fingerprint: fnv1a64(&w.into_bytes()),
        check,
    }
}

/// Recorded reference values, keyed by `scale seed workload cell`.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    rows: Vec<(String, String)>,
}

impl Reference {
    /// The key of one cell: `scale seed workload cell`.
    pub fn key(p: &Params, w: Workload, cell: &str) -> String {
        format!("{} {} {} {cell}", p.scale_name(), p.seed, w.name())
    }

    /// Parses `scale seed workload cell value` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Reference {
        let rows = text
            .lines()
            .map(|l| {
                l.split('#')
                    .next()
                    .unwrap_or("")
                    .split_whitespace()
                    .collect::<Vec<_>>()
            })
            .filter(|f| f.len() == 5)
            .map(|f| (f[..4].join(" "), f[4].to_string()))
            .collect();
        Reference { rows }
    }

    /// The recorded value for one cell, if any.
    pub fn get(&self, p: &Params, w: Workload, cell: &str) -> Option<&str> {
        let key = Reference::key(p, w, cell);
        self.rows
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Replaces (or adds) the recorded value for one cell.
    pub fn set(&mut self, p: &Params, w: Workload, cell: &str, value: String) {
        let key = Reference::key(p, w, cell);
        match self.rows.iter_mut().find(|(k, _)| *k == key) {
            Some(row) => row.1 = value,
            None => self.rows.push((key, value)),
        }
    }
}

/// The deterministic values of one pass that the reference records:
/// one fingerprint per cell, and for `verify` the sweep fingerprint and
/// its litmus violation count.
pub fn observed(pass: &Pass) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = pass
        .cells
        .iter()
        .map(|c| {
            let v = match c.fingerprint() {
                Some(f) => format!("{f:016x}"),
                None => "error".to_string(),
            };
            (c.protocol.name().to_string(), v)
        })
        .collect();
    if let Some(v) = &pass.verify {
        out.push(("fingerprint".into(), format!("{:016x}", v.fingerprint)));
        out.push(("violations".into(), v.check.violations.len().to_string()));
    }
    out
}

/// The verdict over every pass of a run.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Operations attempted: cells, litmus engine runs, model variants.
    pub attempted: u64,
    /// Operations that failed: errors and panics, fingerprint
    /// mismatches, litmus oracle violations, model violations.
    pub failed: u64,
    /// Every output matched its reference and every pass agreed; the
    /// litmus violations counted in `failed` are a known defect and
    /// leave this `true` while their count matches the reference.
    pub correct: bool,
    /// Why `correct` is false, one line per finding.
    pub problems: Vec<String>,
}

impl Verdict {
    /// A verdict over no passes yet.
    pub fn new() -> Verdict {
        Verdict {
            correct: true,
            ..Verdict::default()
        }
    }

    /// Judges pass number `i` against `first` (the [`observed`] values
    /// of the run's first pass) and against `reference`.
    pub fn add(
        &mut self,
        (w, p, reference): (Workload, &Params, &Reference),
        first: &[(String, String)],
        i: usize,
        pass: &Pass,
    ) {
        for c in &pass.cells {
            self.attempted += 1;
            if let Err(e) = &c.result {
                self.fail(format!("pass {i} {}: {e}", c.protocol.name()));
            }
        }
        if let Some(r) = &pass.verify {
            self.attempted += r.check.runs + r.model_variants;
            // Litmus violations are the known defect: counted, not fatal.
            self.failed += r.check.violations.len() as u64;
            let broken = r.model_violations + r.check.crashed_classes.len() as u64;
            if broken > 0 {
                self.failed += broken;
                self.correct = false;
                self.problems.push(format!(
                    "pass {i}: {} model violations, {} crashed litmus classes",
                    r.model_violations,
                    r.check.crashed_classes.len()
                ));
            }
        }
        for (cell, value) in observed(pass) {
            let in_first = first
                .iter()
                .find(|(c, _)| *c == cell)
                .map(|(_, f)| f.as_str());
            let recorded = reference.get(p, w, &cell);
            if in_first != Some(value.as_str()) || recorded.is_some_and(|r| r != value) {
                self.fail(format!(
                    "pass {i} {cell}: observed {value}, first pass {}, reference {}",
                    in_first.unwrap_or("-"),
                    recorded.unwrap_or("-")
                ));
            }
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.correct = false;
        self.problems.push(problem);
    }
}

/// Judges `passes` against the first of them and against `reference`.
pub fn judge(w: Workload, p: &Params, passes: &[Pass], reference: &Reference) -> Verdict {
    let first = passes.first().map(observed).unwrap_or_default();
    let mut v = Verdict::new();
    for (i, pass) in passes.iter().enumerate() {
        v.add((w, p, reference), &first, i, pass);
    }
    v
}

/// Resets the process's peak-RSS high-water mark (`VmHWM`) to its
/// current RSS, so the next [`peak_rss_mb`] covers only what follows.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB, 0 where unsupported.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `xs` (mean of the middle two for an even count; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Host seconds of a fixed reference job in the benchmark's own code,
/// shaped like the simulator's host work: a dependent walk over a
/// 16 MiB permutation (cache misses), hash-map updates and binary-heap
/// push/pop. It shares no code with the simulator, so it measures how
/// fast the host runs at that moment, not the program under test.
pub fn host_ref_s() -> f64 {
    use std::collections::{BinaryHeap, HashMap};
    use std::hint::black_box;
    const N: usize = 1 << 22;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut xorshift = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let t = Instant::now();
    let mut next: Vec<u32> = (0..N as u32).collect();
    for i in (1..N).rev() {
        next.swap(i, (xorshift() % (i as u64 + 1)) as usize);
    }
    let mut at = 0usize;
    for _ in 0..N / 4 {
        at = next[at] as usize;
    }
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    for i in 0..100_000u64 {
        let r = xorshift();
        *map.entry(r % 50_000).or_insert(0) += i;
        heap.push(std::cmp::Reverse(r % 1_000_000));
        if heap.len() > 4096 {
            heap.pop();
        }
    }
    black_box((at, map.len(), heap.len()));
    t.elapsed().as_secs_f64()
}
