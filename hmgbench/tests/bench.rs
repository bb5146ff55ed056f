//! The benchmark's own checks, at `Scale::Tiny`: deterministic metrics
//! repeat exactly for a seed, change with the seed, match the recorded
//! reference, do not move when tracing is on, and a perturbed reference
//! shows up as a failed operation.

use std::path::PathBuf;

use hmg::protocol::ProtocolKind;
use hmg::workloads::Scale;
use hmgbench::trace::Tracer;
use hmgbench::{
    judge, observed, run_pass, setup, Params, Pass, Reference, Workload, DEFAULT_SEED, REFERENCE,
};

fn snap_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("hmgbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pass(w: Workload, seed: u64, traced: bool, tag: &str) -> Pass {
    let p = Params::new(Scale::Tiny, seed);
    let s = setup(w, &p);
    run_pass(w, &s, &snap_dir(tag), &mut Tracer::new(traced))
}

/// Every deterministic figure the benchmark reports for one pass.
fn deterministic(pass: &Pass) -> Vec<u64> {
    let mut out = Vec::new();
    for c in &pass.cells {
        let m = c.result.as_ref().expect("tiny cells run clean");
        out.extend([m.total_cycles.as_u64(), m.events, m.dram_bytes]);
        out.extend(hmg::interconnect::MsgClass::ALL.map(|k| m.fabric.inter_bytes(k)));
        out.push(hmgbench::fingerprint(m));
    }
    if let Some(v) = &pass.verify {
        out.extend([
            v.check.runs,
            v.check.violations.len() as u64,
            v.model_states,
        ]);
        out.push(v.fingerprint);
    }
    out
}

#[test]
fn same_seed_repeats_every_deterministic_metric() {
    for w in Workload::ALL {
        let a = pass(w, DEFAULT_SEED, false, &format!("repeat-a-{}", w.name()));
        let b = pass(w, DEFAULT_SEED, false, &format!("repeat-b-{}", w.name()));
        assert_eq!(deterministic(&a), deterministic(&b), "{}", w.name());
        assert_eq!(observed(&a), observed(&b), "{}", w.name());
    }
}

#[test]
fn hmg_share_of_ideal_repeats() {
    let pct = |p: &Pass| {
        let cycles = |k| {
            p.cell(k)
                .unwrap()
                .result
                .as_ref()
                .unwrap()
                .total_cycles
                .as_u64()
        };
        100.0 * cycles(ProtocolKind::Ideal) as f64 / cycles(ProtocolKind::Hmg) as f64
    };
    let a = pass(Workload::GraphSharing, DEFAULT_SEED, false, "pct-a");
    let b = pass(Workload::GraphSharing, DEFAULT_SEED, false, "pct-b");
    assert_eq!(pct(&a).to_bits(), pct(&b).to_bits());
    assert!(pct(&a) > 0.0 && pct(&a) <= 100.0, "{}", pct(&a));
}

#[test]
fn every_workload_matches_the_recorded_reference() {
    let reference = Reference::parse(REFERENCE);
    for w in Workload::ALL {
        let p = Params::new(Scale::Tiny, DEFAULT_SEED);
        let run = pass(w, DEFAULT_SEED, false, &format!("ref-{}", w.name()));
        for (cell, _) in observed(&run) {
            assert!(reference.get(&p, w, &cell).is_some(), "{} {cell}", w.name());
        }
        let v = judge(w, &p, &[run], &reference);
        assert!(v.correct, "{}: {:?}", w.name(), v.problems);
    }
}

#[test]
fn another_seed_changes_the_traces() {
    let a = setup(
        Workload::GraphSharing,
        &Params::new(Scale::Tiny, DEFAULT_SEED),
    );
    let b = setup(
        Workload::GraphSharing,
        &Params::new(Scale::Tiny, DEFAULT_SEED + 1),
    );
    assert_ne!(a.traces, b.traces);
    let pa = pass(Workload::GraphSharing, DEFAULT_SEED, false, "seed-a");
    let pb = pass(Workload::GraphSharing, DEFAULT_SEED + 1, false, "seed-b");
    assert_ne!(observed(&pa), observed(&pb));
}

#[test]
fn tracing_leaves_the_simulation_unchanged() {
    for w in [Workload::FaultyPreempt, Workload::Verify] {
        let plain = pass(w, DEFAULT_SEED, false, &format!("plain-{}", w.name()));
        let traced = pass(w, DEFAULT_SEED, true, &format!("traced-{}", w.name()));
        assert_eq!(
            deterministic(&plain),
            deterministic(&traced),
            "{}",
            w.name()
        );
    }
}

#[test]
fn perturbed_reference_is_a_failed_operation() {
    let w = Workload::FaultyPreempt;
    let p = Params::new(Scale::Tiny, DEFAULT_SEED);
    let run = pass(w, DEFAULT_SEED, false, "perturbed");
    let mut reference = Reference::parse(REFERENCE);
    let good = judge(w, &p, std::slice::from_ref(&run), &reference);
    assert!(good.correct && good.failed == 0, "{:?}", good.problems);

    let recorded = reference
        .get(&p, w, "hmg")
        .expect("hmg is recorded")
        .to_string();
    let flipped = u64::from_str_radix(&recorded, 16).unwrap() ^ 1;
    reference.set(&p, w, "hmg", format!("{flipped:016x}"));
    let bad = judge(w, &p, &[run], &reference);
    assert!(!bad.correct);
    assert_eq!(bad.failed, 1, "{:?}", bad.problems);
    assert_eq!(bad.attempted, good.attempted);
}

#[test]
fn litmus_violations_count_as_failed_operations() {
    let w = Workload::Verify;
    let p = Params::new(Scale::Tiny, DEFAULT_SEED);
    let run = pass(w, DEFAULT_SEED, false, "litmus");
    let violations = run.verify.as_ref().unwrap().check.violations.len() as u64;
    assert!(violations > 0, "the known R3 defect shows at this budget");
    let v = judge(w, &p, &[run], &Reference::parse(REFERENCE));
    assert_eq!(v.failed, violations);
    assert!(v.correct, "{:?}", v.problems);
}
