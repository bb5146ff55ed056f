//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path hmgbench/Cargo.toml -- \
//!     --workload <ml-broadcast|graph-sharing|faulty-preempt|verify|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--scale small|tiny] [--record]
//! ```
//!
//! With `--trace 0` it sets the workload up several times, then runs
//! back-to-back passes over the workload's cells for at least `S`
//! seconds, and reports the end-to-end metrics. With `--trace 1` it runs
//! one untraced and one traced pass plus the layer probes and reports
//! the per-layer metrics and the tracing overhead. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use hmg::protocol::ProtocolKind;
use hmg::sim::FaultPlan;
use hmg::workloads::Scale;
use hmgbench::trace::Tracer;
use hmgbench::{
    judge, median, observed, peak_rss_mb, probes, reset_peak_rss, run_pass, setup, snapshot_cost,
    Params, Pass, Reference, Verdict, Workload, DEFAULT_SEED, FAULT_SPEC, REFERENCE,
};

/// Scratch directory (snapshots, span dumps), relative to the working
/// directory.
const OUT_DIR: &str = ".hmgbench";

/// Longest a run keeps starting new passes, whatever `--seconds` says.
const PASS_CAP_S: f64 = 120.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    record: bool,
}

const USAGE: &str =
    "usage: hmgbench --workload <ml-broadcast|graph-sharing|faulty-preempt|verify|all> \
[--seed N] [--seconds S] [--trace 0|1] [--scale small|tiny] [--record]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Small,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&v).ok_or(format!("unknown workload `{v}`"))?]
                };
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--scale" => {
                args.scale = match value("--scale")?.as_str() {
                    "small" => Scale::Small,
                    "tiny" => Scale::Tiny,
                    v => return Err(format!("--scale takes small or tiny, not `{v}`")),
                }
            }
            "--record" => args.record = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one workload reports.
struct Report {
    /// The metrics of the JSON result line.
    metrics: Vec<Metric>,
    /// Workload-specific headline figures, printed but not in the JSON
    /// line of an untraced run (not every workload defines them).
    headline: Vec<Metric>,
    verdict: Verdict,
    record: Vec<String>,
}

fn push(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    });
}

/// Fewest set-ups whose median `setup_s` reports.
const MIN_SETUPS: usize = 5;

fn run_workload(w: Workload, args: &Args, reference: &Reference, out: &Path) -> Report {
    let p = Params::new(args.scale, args.seed);
    let snap_dir = out.join(format!("snap-{}", std::process::id()));
    let rss_isolated = reset_peak_rss();
    if !rss_isolated {
        eprintln!("[hmgbench] VmHWM reset unsupported: peak_rss_mb is process-wide");
    }
    let report = if args.trace {
        traced_run(w, &p, reference, out, &snap_dir)
    } else {
        measured_run(w, &p, args.seconds, reference, &snap_dir)
    };
    let _ = std::fs::remove_dir_all(&snap_dir);
    report
}

/// Alternates a fresh set-up and a pass over the workload's cells until
/// `seconds` have passed, so set-up and pass times sample the same
/// stretch of host time. Each pass is judged as it finishes and then
/// dropped, so the peak RSS does not grow with the number of passes.
fn measured_run(
    w: Workload,
    p: &Params,
    seconds: f64,
    reference: &Reference,
    snap_dir: &Path,
) -> Report {
    let mut verdict = Verdict::new();
    let mut first: Option<Pass> = None;
    let mut setups = Vec::new();
    // Per pass: wall, wall / reference job, cells, sweep, model check.
    let mut times: [Vec<f64>; 5] = Default::default();
    let start = Instant::now();
    loop {
        let s = setup(w, p);
        setups.push(s.generate_s + s.configure_s);
        let pass = run_pass(w, &s, snap_dir, &mut Tracer::new(false));
        drop(s);
        eprintln!(
            "[hmgbench] {} pass {:.3}s, reference job {:.4}s",
            w.name(),
            pass.wall_s,
            pass.ref_s
        );
        let first_seen = observed(first.get_or_insert_with(|| pass.clone()));
        verdict.add((w, p, reference), &first_seen, times[0].len(), &pass);
        let verify = pass.verify.as_ref();
        times[0].push(pass.wall_s);
        times[1].push(pass.wall_ref);
        times[2].push(pass.cells.iter().map(|c| c.wall_s).sum());
        times[3].push(verify.map_or(0.0, |v| v.check_s));
        times[4].push(verify.map_or(0.0, |v| v.model_s));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds || elapsed + pass.wall_s > PASS_CAP_S {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        let s = setup(w, p);
        setups.push(s.generate_s + s.configure_s);
    }
    let [wall_s, wall_ref, cell_s, check_s, model_s] = times.map(|t| median(&t));
    let mut metrics = Vec::new();
    push(&mut metrics, "wall_ref", wall_ref, "ratio");
    push(&mut metrics, "setup_s", median(&setups), "s");
    push(&mut metrics, "peak_rss_mb", peak_rss_mb(), "MiB");
    let ok = (verdict.attempted - verdict.failed) as f64 / verdict.attempted.max(1) as f64;
    push(&mut metrics, "ok_frac", ok, "ratio");
    let first = first.expect("at least one pass ran");
    let mut head = Vec::new();
    push(&mut head, "wall_s", wall_s, "s");
    headline(&mut head, &first, [cell_s, check_s, model_s], &verdict);
    Report {
        metrics,
        headline: head,
        verdict,
        record: record_lines(w, p, &observed(&first)),
    }
}

/// One untraced pass, one traced pass, then the layer probes.
fn traced_run(
    w: Workload,
    p: &Params,
    reference: &Reference,
    out: &Path,
    snap_dir: &Path,
) -> Report {
    let mut gens = Vec::new();
    let setup = loop {
        let s = setup(w, p);
        gens.push(s.generate_s);
        if gens.len() == MIN_SETUPS {
            break s;
        }
    };
    let generate_s = median(&gens);
    let mut metrics = Vec::new();
    let untraced = run_pass(w, &setup, snap_dir, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let traced = run_pass(w, &setup, snap_dir, &mut tracer);
    eprintln!(
        "[hmgbench] {} untraced {:.3}s traced {:.3}s",
        w.name(),
        untraced.wall_s,
        traced.wall_s
    );
    let faults = FaultPlan::parse(FAULT_SPEC).expect("built-in fault plan parses");
    let span = tracer.enter("probes");
    let pr = probes::run_all(&setup.traces, &setup.probe_cfg, &faults);
    tracer.exit(span);

    // Snapshot cost: the HMG cell with snapshots off and on.
    let mut snap_ms = 0.0;
    let mut snap_problem = None;
    if w == Workload::FaultyPreempt {
        let cell = setup
            .cells
            .iter()
            .find(|c| c.protocol == ProtocolKind::Hmg)
            .expect("every simulation workload has an HMG cell");
        let span = tracer.enter("sim.snap.cost");
        match snapshot_cost(cell, &setup.traces[0], snap_dir, 3) {
            Ok(ms) => snap_ms = ms,
            Err(e) => snap_problem = Some(format!("snapshot cost: {e}")),
        }
        tracer.exit(span);
    }
    let span_file = out.join(format!("spans-{}-{}.tsv", w.name(), p.seed));
    if let Err(e) = tracer.write_tsv(&span_file) {
        eprintln!("[hmgbench] cannot write {}: {e}", span_file.display());
    }

    let passes = [untraced, traced];
    let mut verdict = judge(w, p, &passes, reference);
    if let Some(problem) = snap_problem {
        verdict.failed += 1;
        verdict.correct = false;
        verdict.problems.push(problem);
    }
    let traced = &passes[1];
    layer_metrics(
        &mut metrics,
        &setup,
        generate_s,
        traced,
        &tracer,
        &pr,
        snap_ms,
        &verdict,
    );
    let overhead = passes[1].wall_s - passes[0].wall_s;
    push(&mut metrics, "host.ref_s", passes[1].ref_s, "s");
    push(&mut metrics, "trace.untraced_wall_s", passes[0].wall_s, "s");
    push(&mut metrics, "trace.traced_wall_s", passes[1].wall_s, "s");
    push(&mut metrics, "trace.overhead_s", overhead, "s");
    let record = record_lines(w, p, &observed(&passes[0]));
    Report {
        metrics,
        headline: Vec::new(),
        verdict,
        record,
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Vec<Metric>,
    setup: &hmgbench::Setup,
    generate_s: f64,
    pass: &Pass,
    tracer: &Tracer,
    pr: &probes::LayerProbes,
    snap_ms: f64,
    verdict: &Verdict,
) {
    push(m, "workloads.generate_s", generate_s, "s");
    push(m, "workloads.trace_ops", setup.trace_ops() as f64, "count");

    for proto in ProtocolKind::ALL {
        let s = tracer.secs(&format!("gpu.run.{}", proto.name()));
        push(m, &format!("gpu.run_s.{}", proto.name()), s, "s");
    }
    let events: u64 = pass
        .cells
        .iter()
        .filter_map(|c| c.result.as_ref().ok())
        .map(|r| r.events)
        .sum();
    let cycles = pass.sim_cycles();
    let cell_s: f64 = pass.cells.iter().map(|c| c.wall_s).sum();
    push(
        m,
        "gpu.ns_per_event",
        ratio(cell_s * 1e9, events as f64),
        "ns",
    );
    push(
        m,
        "gpu.events_per_cycle",
        ratio(events as f64, cycles as f64),
        "events/cycle",
    );
    push(m, "gpu.engine_new_us", pr.engine_new_us, "us");
    let hmg = pass
        .cell(ProtocolKind::Hmg)
        .and_then(|c| c.result.as_ref().ok());
    let hmg_or = |f: &dyn Fn(&hmg::gpu::RunMetrics) -> f64| hmg.map_or(0.0, f);
    push(
        m,
        "gpu.miss_latency_mean",
        hmg_or(&|r| r.avg_miss_latency()),
        "cycles",
    );

    push(m, "sim.queue.push_pop_ns", pr.queue_push_pop_ns, "ns");
    push(m, "sim.queue.new_us", pr.queue_new_us, "us");
    push(
        m,
        "sim.queue.population",
        pr.queue_population as f64,
        "count",
    );
    let snap = pass.cell(ProtocolKind::Hmg).filter(|c| c.snapshots > 0);
    push(m, "sim.snap.ms_per_snapshot", snap_ms, "ms");
    push(
        m,
        "sim.snap.bytes",
        snap.map_or(0.0, |c| c.snapshot_bytes as f64),
        "bytes",
    );
    push(
        m,
        "sim.snap.count",
        snap.map_or(0.0, |c| c.snapshots as f64),
        "count",
    );

    use hmg::interconnect::MsgClass;
    push(m, "interconnect.send_ns", pr.send_ns, "ns");
    push(m, "interconnect.send_ns.faulty", pr.send_ns_faulty, "ns");
    let bytes = |r: &hmg::gpu::RunMetrics, inter: bool| -> f64 {
        MsgClass::ALL
            .iter()
            .map(|&c| {
                if inter {
                    r.fabric.inter_bytes(c)
                } else {
                    r.fabric.intra_bytes(c)
                }
            })
            .sum::<u64>() as f64
    };
    push(
        m,
        "interconnect.inter_bytes",
        hmg_or(&|r| bytes(r, true)),
        "bytes",
    );
    push(
        m,
        "interconnect.intra_bytes",
        hmg_or(&|r| bytes(r, false)),
        "bytes",
    );
    push(
        m,
        "interconnect.max_inter_util",
        hmg_or(&|r| r.max_inter_util),
        "ratio",
    );
    let tr = |f: fn(&hmg::interconnect::TransportStats) -> u64| {
        hmg_or(&|r: &hmg::gpu::RunMetrics| f(&r.fabric.transport()) as f64)
    };
    push(
        m,
        "interconnect.retransmissions",
        tr(|t| t.retransmissions),
        "count",
    );
    push(m, "interconnect.reroutes", tr(|t| t.reroutes), "count");
    push(
        m,
        "interconnect.checksum_retransmits",
        tr(|t| t.checksum_retransmits),
        "count",
    );

    push(m, "mem.cache.get_ns", pr.cache_get_ns, "ns");
    push(m, "mem.cache.insert_ns", pr.cache_insert_ns, "ns");
    push(m, "mem.cache.hit_ratio", pr.cache_hit_ratio, "ratio");
    push(m, "mem.dir.lookup_ns", pr.dir_lookup_ns, "ns");
    push(m, "mem.dir.allocate_ns", pr.dir_allocate_ns, "ns");
    push(m, "mem.l1_hits", hmg_or(&|r| r.l1_hits as f64), "count");
    let l2 =
        |r: &hmg::gpu::RunMetrics| (r.local_l2_hits + r.gpu_home_hits + r.sys_home_hits) as f64;
    push(m, "mem.l2_hits", hmg_or(&l2), "count");
    push(
        m,
        "mem.dram_accesses",
        hmg_or(&|r| r.dram_accesses as f64),
        "count",
    );
    let invs = |r: &hmg::gpu::RunMetrics| (r.invs_from_stores + r.invs_from_evictions) as f64;
    push(m, "mem.invs", hmg_or(&invs), "count");
    push(
        m,
        "mem.lines_bulk_invalidated",
        hmg_or(&|r| r.lines_bulk_invalidated as f64),
        "count",
    );
    push(
        m,
        "mem.dir_broadcast_fallbacks",
        hmg_or(&|r| r.dir_broadcast_fallbacks as f64),
        "count",
    );

    push(m, "protocol.spec.row_ns", pr.spec_row_ns, "ns");

    let v = pass.verify.as_ref();
    let runs = v.map_or(0, |v| v.check.runs) as f64;
    push(m, "check.runs", runs, "count");
    let check_s = tracer.secs("check.run_check");
    push(m, "check.run_us", ratio(check_s * 1e6, runs), "us");
    let violations = v.map_or(0, |v| v.check.violations.len()) as f64;
    push(m, "check.violations", violations, "count");
    push(
        m,
        "audit.model.states",
        v.map_or(0, |v| v.model_states) as f64,
        "count",
    );
    let model_s = tracer.secs("audit.model.check_all");
    push(m, "audit.model.s", model_s, "s");

    headline(m, pass, [cell_s, check_s, model_s], verdict);
}

/// The workload-specific headline figures of `pass`, given the host
/// seconds of its cells, its litmus sweep and its model check: simulated
/// cycles per host second, the HMG cell's cycles and share of ideal,
/// litmus runs and model states per host second, and the failed share
/// of operations. Each reads 0 where the workload does not define it.
fn headline(
    m: &mut Vec<Metric>,
    pass: &Pass,
    [cell_s, check_s, model_s]: [f64; 3],
    verdict: &Verdict,
) {
    let cycles_of = |k| {
        pass.cell(k)
            .and_then(|c| c.result.as_ref().ok())
            .map_or(0.0, |r| r.total_cycles.as_u64() as f64)
    };
    push(
        m,
        "sim_cycles_per_s",
        ratio(pass.sim_cycles() as f64, cell_s),
        "cycles/s",
    );
    let hmg_cycles = cycles_of(ProtocolKind::Hmg);
    push(m, "hmg_cycles", hmg_cycles, "cycles");
    let pct = ratio(100.0 * cycles_of(ProtocolKind::Ideal), hmg_cycles);
    push(m, "hmg_pct_of_ideal", pct, "%");
    let v = pass.verify.as_ref();
    let runs = v.map_or(0, |v| v.check.runs) as f64;
    push(m, "litmus_runs_per_s", ratio(runs, check_s), "1/s");
    let states = v.map_or(0, |v| v.model_states) as f64;
    push(m, "model_states_per_s", ratio(states, model_s), "1/s");
    let failed = ratio(verdict.failed as f64, verdict.attempted as f64);
    push(m, "failed_frac", failed, "ratio");
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn record_lines(w: Workload, p: &Params, observed: &[(String, String)]) -> Vec<String> {
    observed
        .iter()
        .map(|(cell, value)| format!("{} {value}", Reference::key(p, w, cell)))
        .collect()
}

fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hmgbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let reference = Reference::parse(REFERENCE);
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("hmgbench: cannot create {}: {e}", out.display());
        return ExitCode::from(1);
    }
    let single = args.workloads.len() == 1;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut all_metrics = Vec::new();
    for &w in &args.workloads {
        let r = run_workload(w, &args, &reference, &out);
        println!(
            "== {} (seed {}, {}) ==",
            w.name(),
            args.seed,
            if args.trace { "traced" } else { "untraced" }
        );
        for m in &r.metrics {
            println!("  {:<36} {:>20} {}", m.name, json_number(m.value), m.unit);
        }
        for m in &r.headline {
            println!(
                "  {:<36} {:>20} {}  (headline)",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        println!(
            "  operations: {} attempted, {} failed, outputs {}",
            r.verdict.attempted,
            r.verdict.failed,
            if r.verdict.correct {
                "match the reference"
            } else {
                "WRONG"
            }
        );
        for problem in r.verdict.problems.iter().take(20) {
            println!("  problem: {problem}");
        }
        if args.record {
            for line in &r.record {
                println!("{line}");
            }
        }
        correct &= r.verdict.correct;
        attempted += r.verdict.attempted;
        failed += r.verdict.failed;
        for m in r.metrics {
            let name = if single {
                m.name
            } else {
                format!("{}.{}", w.name(), m.name)
            };
            all_metrics.push(Metric { name, ..m });
        }
    }
    let body: Vec<String> = all_metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}
