//! Layer probes: each times one layer's public entry points on inputs
//! derived from the workload's own traces and engine configuration, so
//! the working set relative to the modelled caches and the message mix
//! match the workload.
//!
//! The probes call only `EventQueue::{new, push, pop}`, `Fabric::{new,
//! apply_faults, send}`, `Cache::{new, get, insert}`,
//! `Directory::{new, lookup, allocate}`, `ProtocolSpec::row` and
//! `run_isolated`.
//!
//! Probe model of the trace: CTA `i` of a kernel runs on GPM
//! `i mod num_gpms`, and a page's home is the GPM that touches it first.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use hmg::gpu::EngineConfig;
use hmg::interconnect::{Fabric, GpmId, MsgClass};
use hmg::mem::{Cache, Directory};
use hmg::protocol::{
    AccessKind, DirEvent, DirState, GuardCtx, ProtocolSpec, SpecVariant, TraceOp, WorkloadTrace,
};
use hmg::runner::run_isolated;
use hmg::sim::{BlockAddr, Cycle, EventQueue, FaultPlan, LineAddr};

use crate::median;

/// Most trace accesses a probe replays.
const MAX_REPLAY: usize = 1 << 20;

/// One memory access of the trace, placed on the machine.
#[derive(Debug, Clone, Copy)]
pub struct Msg {
    /// Requesting GPM.
    pub src: GpmId,
    /// Home GPM of the accessed page.
    pub dst: GpmId,
    /// Line accessed.
    pub line: LineAddr,
    /// Directory block of the line.
    pub block: BlockAddr,
    /// Load, store or atomic.
    pub kind: AccessKind,
}

/// The trace's accesses in issue order (kernel by kernel, CTA by CTA),
/// plus the SM-side delay that precedes each event the queue probe
/// schedules: the fabric latency of an access's route, or the SM issue
/// gap for every other op.
pub fn replay(traces: &[WorkloadTrace], cfg: &EngineConfig) -> (Vec<Msg>, Vec<u64>) {
    let gpms = cfg.topo.num_gpms().max(1) as usize;
    let mut homes: HashMap<u64, GpmId> = HashMap::new();
    let mut msgs = Vec::new();
    let mut delays = Vec::new();
    'all: for t in traces {
        for k in &t.kernels {
            for (i, cta) in k.ctas.iter().enumerate() {
                let src = GpmId((i % gpms) as u16);
                for op in &cta.ops {
                    if msgs.len() >= MAX_REPLAY {
                        break 'all;
                    }
                    match op {
                        TraceOp::Access(a) => {
                            let page = cfg.geometry.page_of(a.addr).0;
                            let dst = *homes.entry(page).or_insert(src);
                            let line = cfg.geometry.line_of(a.addr);
                            msgs.push(Msg {
                                src,
                                dst,
                                line,
                                block: cfg.geometry.block_of(line),
                                kind: a.kind,
                            });
                            delays.push(if src == dst {
                                u64::from(cfg.issue_cycles)
                            } else if cfg.topo.same_gpu(src, dst) {
                                cfg.fabric.intra_latency.as_u64()
                            } else {
                                cfg.fabric.inter_latency.as_u64()
                            });
                        }
                        _ => delays.push(u64::from(cfg.issue_cycles)),
                    }
                }
            }
        }
    }
    (msgs, delays)
}

/// Results of every layer probe.
#[derive(Debug, Clone, Default)]
pub struct LayerProbes {
    /// Pending events kept in the queue during the push/pop probe.
    pub queue_population: usize,
    /// ns per `EventQueue::push` + `pop` pair at that population.
    pub queue_push_pop_ns: f64,
    /// µs per `EventQueue::new`.
    pub queue_new_us: f64,
    /// ns per fault-free `Fabric::send`.
    pub send_ns: f64,
    /// ns per `Fabric::send` under the `faulty-preempt` fault plan.
    pub send_ns_faulty: f64,
    /// ns per `Cache::get` on the L2-slice replay.
    pub cache_get_ns: f64,
    /// ns per `Cache::insert` (misses of the replay).
    pub cache_insert_ns: f64,
    /// Hits / gets of the L2-slice replay.
    pub cache_hit_ratio: f64,
    /// ns per `Directory::lookup` at the home GPM.
    pub dir_lookup_ns: f64,
    /// ns per `Directory::allocate` (lookups that missed).
    pub dir_allocate_ns: f64,
    /// ns per `ProtocolSpec::row`.
    pub spec_row_ns: f64,
    /// µs to build and run an engine on an empty trace with the
    /// workload's HMG configuration: the per-engine set-up cost.
    pub engine_new_us: f64,
}

/// Runs every probe on the workload's inputs.
pub fn run_all(traces: &[WorkloadTrace], cfg: &EngineConfig, faults: &FaultPlan) -> LayerProbes {
    let (msgs, delays) = replay(traces, cfg);
    let population = queue_population(traces, cfg);
    let (cache_get_ns, cache_insert_ns, cache_hit_ratio) = cache_probe(&msgs, cfg);
    let (dir_lookup_ns, dir_allocate_ns) = dir_probe(&msgs, cfg);
    let empty = WorkloadTrace::new("empty", Vec::new());
    LayerProbes {
        queue_population: population,
        queue_push_pop_ns: queue_probe(&delays, population),
        queue_new_us: per_call_us(50, || black_box(EventQueue::<u32>::new())),
        send_ns: send_probe(&msgs, cfg, None),
        send_ns_faulty: send_probe(&msgs, cfg, Some(faults)),
        cache_get_ns,
        cache_insert_ns,
        cache_hit_ratio,
        dir_lookup_ns,
        dir_allocate_ns,
        spec_row_ns: spec_probe(),
        engine_new_us: per_call_us(10, || run_isolated(cfg.clone(), &empty)),
    }
}

/// Median µs of `reps` calls of `make` (its result dropped untimed).
fn per_call_us<T>(reps: usize, mut make: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let v = black_box(make());
            let dt = t.elapsed().as_secs_f64() * 1e6;
            drop(v);
            dt
        })
        .collect();
    median(&times)
}

/// Events pending at once: one per outstanding load an SM may have,
/// bounded by the largest kernel's access count.
fn queue_population(traces: &[WorkloadTrace], cfg: &EngineConfig) -> usize {
    let largest_kernel = traces
        .iter()
        .flat_map(|t| t.kernels.iter())
        .map(|k| k.num_accesses())
        .max()
        .unwrap_or(0);
    let cap = cfg.total_sms() as usize * cfg.max_outstanding_per_sm as usize;
    largest_kernel.min(cap).max(1)
}

fn queue_probe(delays: &[u64], population: usize) -> f64 {
    if delays.is_empty() {
        return 0.0;
    }
    let mut q = EventQueue::<u32>::new();
    for i in 0..population {
        q.push(Cycle(delays[i % delays.len()]), i as u32);
    }
    let iters = delays.len().max(1 << 18);
    let t = Instant::now();
    for i in 0..iters {
        let (at, e) = q.pop().expect("population stays constant");
        q.push(Cycle(at.as_u64() + delays[i % delays.len()]), black_box(e));
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn send_probe(msgs: &[Msg], cfg: &EngineConfig, faults: Option<&FaultPlan>) -> f64 {
    if msgs.is_empty() {
        return 0.0;
    }
    let mut fabric = Fabric::new(cfg.topo, cfg.fabric);
    if let Some(plan) = faults {
        fabric.apply_faults(plan);
    }
    let step = u64::from(cfg.issue_cycles);
    let t = Instant::now();
    for (i, m) in msgs.iter().enumerate() {
        let (bytes, class) = match m.kind {
            AccessKind::Load => (cfg.msg.load_req, MsgClass::Request),
            AccessKind::Store => (cfg.msg.store, MsgClass::StoreData),
            AccessKind::Atomic => (cfg.msg.atomic_req, MsgClass::Request),
        };
        black_box(fabric.send(Cycle(i as u64 * step), m.src, m.dst, bytes, class));
    }
    t.elapsed().as_nanos() as f64 / msgs.len() as f64
}

/// ns per call of a replay loop over `n` calls.
fn per_call_ns(t: Instant, n: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Replays each GPM's accesses through its own L2 slice: a `get` per
/// access and an `insert` on each miss, then the same `get`s again on
/// the warm slices. `get` costs the second replay's time per call;
/// `insert` is charged the first replay's excess over the second.
/// Returns (get ns, insert ns, hit ratio of the first replay).
fn cache_probe(msgs: &[Msg], cfg: &EngineConfig) -> (f64, f64, f64) {
    let mut slices: Vec<Cache<u64>> = (0..cfg.topo.num_gpms())
        .map(|_| Cache::new(cfg.l2))
        .collect();
    let (mut hits, mut inserts) = (0usize, 0usize);
    let t = Instant::now();
    for m in msgs {
        let slice = &mut slices[m.src.index()];
        if black_box(slice.get(m.line)).is_some() {
            hits += 1;
        } else {
            black_box(slice.insert(m.line, 0));
            inserts += 1;
        }
    }
    let full = per_call_ns(t, msgs.len());
    let t = Instant::now();
    for m in msgs {
        black_box(slices[m.src.index()].get(m.line));
    }
    let get = per_call_ns(t, msgs.len());
    let insert = ((full - get) * msgs.len() as f64 / inserts.max(1) as f64).max(0.0);
    (get, insert, hits as f64 / msgs.len().max(1) as f64)
}

/// Looks each access's block up in its home GPM's directory and
/// allocates an entry on a miss, then repeats the lookups alone on the
/// filled directories; costs are split as in [`cache_probe`].
/// Returns (lookup ns, allocate ns).
fn dir_probe(msgs: &[Msg], cfg: &EngineConfig) -> (f64, f64) {
    let mut dirs: Vec<Directory> = (0..cfg.topo.num_gpms())
        .map(|_| Directory::new(cfg.dir, cfg.topo))
        .collect();
    let mut allocs = 0usize;
    let t = Instant::now();
    for m in msgs {
        let dir = &mut dirs[m.dst.index()];
        if black_box(dir.lookup(m.block)).is_none() {
            black_box(dir.allocate(m.block));
            allocs += 1;
        }
    }
    let full = per_call_ns(t, msgs.len());
    let t = Instant::now();
    for m in msgs {
        black_box(dirs[m.dst.index()].lookup(m.block));
    }
    let lookup = per_call_ns(t, msgs.len());
    let allocate = ((full - lookup) * msgs.len() as f64 / allocs.max(1) as f64).max(0.0);
    (lookup, allocate)
}

/// `ProtocolSpec::row` over every (variant, state, event, guard context).
fn spec_probe() -> f64 {
    const REPS: usize = 2_000;
    let specs: Vec<ProtocolSpec> = SpecVariant::ALL
        .into_iter()
        .map(ProtocolSpec::for_variant)
        .collect();
    let mut calls = 0u64;
    let t = Instant::now();
    for _ in 0..REPS {
        for &spec in &specs {
            for s in DirState::ALL {
                for e in DirEvent::ALL {
                    for ctx in [GuardCtx::FREE, GuardCtx::BUSY] {
                        black_box(black_box(spec).row(s, e, ctx));
                        calls += 1;
                    }
                }
            }
        }
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}
