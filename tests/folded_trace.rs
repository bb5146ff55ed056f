//! Folded traces simulate exactly like their unfolded twins.
//!
//! Generators and `Cta::new` store a positive `Delay` that directly
//! follows an access inside that access. The engine must run such an
//! op exactly as the access-then-delay pair, issue-batch boundary
//! included, so every `RunMetrics` field — `events` too — is the same
//! for both forms. The unfolded twin is built as a `Cta { ops }`
//! literal, which bypasses the fold.

use hmg::prelude::*;
use hmg::runner::auto_livelock_budget;
use hmg::sim::FaultPlan;
use hmg::workloads::suite::table3;
use hmg_mem::Addr;
use hmg_protocol::{Access, Cta, Kernel, TraceOp, WorkloadTrace};

fn ld(addr: u64) -> TraceOp {
    TraceOp::Access(Access::load(Addr(addr)))
}

fn st(addr: u64) -> TraceOp {
    TraceOp::Access(Access::store(Addr(addr)))
}

/// `t` with every folded delay split back out into its own op.
fn unfolded(t: &WorkloadTrace) -> WorkloadTrace {
    let kernels = t
        .kernels
        .iter()
        .map(|k| {
            Kernel::new(
                k.ctas
                    .iter()
                    .map(|c| Cta {
                        ops: c.logical_ops().collect(),
                    })
                    .collect(),
            )
        })
        .collect();
    WorkloadTrace::new(t.name.clone(), kernels)
}

fn ops(t: &WorkloadTrace) -> usize {
    t.kernels
        .iter()
        .flat_map(|k| &k.ctas)
        .map(|c| c.ops.len())
        .sum()
}

/// A trace of one kernel with one CTA per op list; with four or fewer
/// lists, list `i` runs on GPM `i` of the small test machine. Built
/// through `Cta::new`, so it is folded.
fn folded(name: &str, ctas: Vec<Vec<TraceOp>>) -> WorkloadTrace {
    WorkloadTrace::new(
        name,
        vec![Kernel::new(ctas.into_iter().map(Cta::new).collect())],
    )
}

/// Runs `t` folded and unfolded under `cfg` and asserts the full
/// `RunMetrics` agree. Returns the folded run's metrics.
fn assert_same_run(cfg: &EngineConfig, t: &WorkloadTrace, what: &str) -> RunMetrics {
    let twin = unfolded(t);
    let a = Engine::try_new(cfg.clone())
        .unwrap()
        .try_run(t)
        .unwrap_or_else(|e| panic!("{what}: folded run failed: {e}"));
    let b = Engine::try_new(cfg.clone())
        .unwrap()
        .try_run(&twin)
        .unwrap_or_else(|e| panic!("{what}: unfolded run failed: {e}"));
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: RunMetrics");
    a
}

#[test]
fn table_iii_workloads_run_identically_folded_and_unfolded() {
    let runner = Runner::new(Scale::Tiny);
    let mut folds = 0;
    for spec in table3() {
        let trace = spec.generate(Scale::Tiny, 7);
        let twin = unfolded(&trace);
        folds += ops(&twin) - ops(&trace);
        for p in ProtocolKind::ALL {
            assert_same_run(&runner.config(p), &trace, &format!("{}/{p}", spec.abbrev));
        }
    }
    assert!(folds > 0, "the suite's generators fold some delays");
}

#[test]
fn livelock_budget_counts_folded_delays() {
    let cfg = Runner::new(Scale::Tiny).config(ProtocolKind::Hmg);
    for spec in table3() {
        let trace = spec.generate(Scale::Tiny, 7);
        assert_eq!(
            auto_livelock_budget(&cfg, &trace),
            auto_livelock_budget(&cfg, &unfolded(&trace)),
            "{}",
            spec.abbrev
        );
    }
}

#[test]
fn folded_access_on_the_last_op_of_a_batch() {
    // An issue batch is 256 ops. With `lead` plain stores before the
    // first folded pair, the pair's access lands on every op index
    // around the batch boundary, including its last op (lead = 255),
    // where the delay is owed to the next batch.
    let cfg = EngineConfig::small_test(ProtocolKind::Hmg);
    for lead in 250..=260u64 {
        let mut cta: Vec<TraceOp> = (0..lead).map(|i| st((i % 16) * 128)).collect();
        for i in 0..8 {
            cta.extend([ld(4096 + i * 128), TraceOp::Delay(37)]);
        }
        cta.extend((0..300).map(|i| st((i % 8) * 128)));
        let t = folded("batch-edge", vec![cta.clone(), vec![], cta, vec![]]);
        assert_same_run(&cfg, &t, &format!("lead {lead}"));
    }
}

#[test]
fn zero_delays_and_delay_runs_stay_unfolded() {
    // `Delay(0)` is a yield and never folds; of two delays in a row only
    // the first folds.
    let cta = vec![
        ld(0),
        TraceOp::Delay(0),
        ld(128),
        TraceOp::Delay(5),
        TraceOp::Delay(7),
        st(256),
        TraceOp::Delay(0),
        TraceOp::Delay(9),
        ld(384),
        TraceOp::Delay(11),
        TraceOp::Delay(0),
        ld(0),
    ];
    let t = folded("delays", vec![cta.clone(), cta.clone(), cta.clone(), cta]);
    assert_eq!(t.kernels[0].ctas[0].ops.len(), 10, "two of the delays fold");
    for p in ProtocolKind::ALL {
        assert_same_run(&EngineConfig::small_test(p), &t, &format!("{p}"));
    }
}

#[test]
fn folded_load_that_stalls_on_outstanding_misses() {
    // Distinct remote lines with short delays keep more misses in
    // flight than the SM allows; the stalled folded load retries with
    // its delay intact.
    let reader: Vec<TraceOp> = (0..64u64)
        .flat_map(|i| [ld(i * 128), TraceOp::Delay(1)])
        .collect();
    let homing: Vec<TraceOp> = (0..64u64).map(|i| st(i * 128)).collect();
    let t = folded("stall", vec![homing, vec![], reader, vec![]]);
    let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
    let roomy = assert_same_run(&cfg, &t, "roomy");
    cfg.max_outstanding_per_sm = 2;
    let tight = assert_same_run(&cfg, &t, "stalling");
    assert_ne!(
        roomy.total_cycles, tight.total_cycles,
        "the tight limit must actually stall the reader"
    );
}

#[test]
fn poisoned_abort_while_a_delay_is_owed() {
    // Twelve CTAs, three per GPM: GPM0's two SMs run CTAs 0 and 1, CTA 2
    // waits in its queue. CTA 0 stores line 0, the only line in GPM0's
    // L2 (dirty under write-back) when the first scrub period plants an
    // uncorrectable flip. It then loads the line back as the first op
    // of a batch whose last op is a folded store. The poisoned response
    // aborts CTA 0 while that store's delay is owed, and the SM starts
    // CTA 2, which must not inherit the delay.
    let mut victim = vec![st(0), TraceOp::Delay(450), ld(0)];
    victim.extend((0..254).map(|i| st(8192 + (i % 16) * 128)));
    victim.extend([st(16384), TraceOp::Delay(5000), TraceOp::SetFlag(7)]);
    let worker = |i: u64| -> Vec<TraceOp> {
        (0..16u64)
            .flat_map(|j| [ld((i << 20) + j * 128), TraceOp::Delay(3)])
            .collect()
    };
    let mut ctas: Vec<Vec<TraceOp>> = (0..12).map(worker).collect();
    ctas[0] = victim;
    ctas[1].insert(0, TraceOp::Delay(2000));
    ctas[6] = vec![TraceOp::WaitFlag { flag: 7, count: 1 }];
    let t = folded("owed-poison", ctas);
    let mut cfg = EngineConfig::small_test(ProtocolKind::Hmg);
    cfg.l2_write_policy = hmg_gpu::WritePolicy::WriteBack;
    cfg.ecc_double_bit_fraction = 1.0;
    cfg.livelock_budget = Some(200_000);
    cfg.faults = FaultPlan::parse("flip-line=1.0,seed=11").unwrap();
    let m = assert_same_run(&cfg, &t, "owed-poison");
    assert!(m.integrity.aborted_ctas >= 1, "{}", m.integrity);
}
