//! The trace format the workload generators produce and the GPU engine
//! replays.
//!
//! A workload is a sequence of kernels; each kernel is a grid of CTAs;
//! each CTA is a straight-line list of [`TraceOp`]s. Kernels launch in
//! dependency order (the inter-kernel communication pattern the emerging
//! workloads of Section II-B rely on); kernel boundaries carry the
//! implicit `.sys` acquire/release the memory model attaches to kernel
//! launch and completion (Section II-D).
//!
//! Fine-grained synchronization *within* a kernel is expressed with
//! counting flags ([`TraceOp::SetFlag`] / [`TraceOp::WaitFlag`]) plus
//! explicit scoped acquire/release ops — modeling the `.gpu`-scoped
//! synchronization that `cuSolver`, `namd2.10` and `mst` use (Section VI)
//! without simulating spin loops, which the paper's own simulator also
//! cannot model faithfully.
//!
//! Traces are stored *folded*: a positive [`TraceOp::Delay`] directly
//! after an access lives in that access's [`Access::delay`] field, so
//! the common access-then-compute pair costs one op, not two. The
//! folded and unfolded forms simulate identically (DESIGN.md §13);
//! [`Cta::logical_ops`] recovers the unfolded sequence.

use crate::op::Access;
use crate::scope::Scope;

/// One step of a CTA's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A warp-coalesced memory access.
    Access(Access),
    /// Compute time between memory operations, in cycles.
    Delay(u32),
    /// A scoped acquire (invalidates caches per the protocol's rules).
    Acquire(Scope),
    /// A scoped release (drains writes/invalidations per the protocol).
    Release(Scope),
    /// Increments counting flag `flag` (visible to every CTA).
    SetFlag(u32),
    /// Blocks until flag `flag` has been set at least `count` times.
    WaitFlag {
        /// Flag identifier.
        flag: u32,
        /// Required count.
        count: u32,
    },
}

// A later field must not silently grow every trace by half.
const _: () = assert!(std::mem::size_of::<TraceOp>() == 16);

impl TraceOp {
    /// Compute cycles this op spends: a `Delay`'s own, or the delay
    /// folded into an access.
    #[inline]
    pub fn delay_cycles(&self) -> u64 {
        match self {
            TraceOp::Delay(d) => u64::from(*d),
            TraceOp::Access(a) => u64::from(a.delay),
            _ => 0,
        }
    }

    /// The unfolded form of this op: an access with a folded delay
    /// splits into the bare access and its `Delay`; any other op is
    /// returned as is.
    #[inline]
    pub fn unfold(self) -> (TraceOp, Option<TraceOp>) {
        match self {
            TraceOp::Access(a) if a.delay > 0 => (
                TraceOp::Access(Access { delay: 0, ..a }),
                Some(TraceOp::Delay(a.delay)),
            ),
            op => (op, None),
        }
    }

    /// Folds `next` into `self` if `self` is an access without a delay
    /// and `next` a positive `Delay`. Returns whether it did. `Delay(0)`
    /// never folds: it is a yield, not compute.
    #[inline]
    fn absorb(&mut self, next: TraceOp) -> bool {
        match (self, next) {
            (TraceOp::Access(a), TraceOp::Delay(d)) if a.delay == 0 && d > 0 => {
                a.delay = d;
                true
            }
            _ => false,
        }
    }
}

/// Appends `op` to the folded op list `ops`, folding a positive
/// `Delay` into the access right before it.
#[inline]
pub fn push_folded(ops: &mut Vec<TraceOp>, op: TraceOp) {
    if !ops.last_mut().is_some_and(|last| last.absorb(op)) {
        ops.push(op);
    }
}

/// One CTA: a straight-line op list, stored folded (see the module
/// docs). A `Cta { ops }` literal keeps `ops` as given; the engine runs
/// either form identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cta {
    /// The operations, in program order.
    pub ops: Vec<TraceOp>,
}

impl Cta {
    /// Creates a CTA from its ops, folding each positive `Delay` that
    /// directly follows an access into that access. The fold is done in
    /// place and the list trimmed to its exact size.
    #[inline]
    pub fn new(mut ops: Vec<TraceOp>) -> Self {
        ops.dedup_by(|next, last| last.absorb(*next));
        ops.shrink_to_fit();
        Cta { ops }
    }

    /// The ops in unfolded form: every folded delay reappears as a
    /// `Delay` right after its access.
    pub fn logical_ops(&self) -> impl Iterator<Item = TraceOp> + '_ {
        self.ops.iter().flat_map(|op| {
            let (first, second) = op.unfold();
            std::iter::once(first).chain(second)
        })
    }

    /// Number of memory accesses in this CTA.
    pub fn num_accesses(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Access(_)))
            .count()
    }
}

/// One kernel launch: a grid of CTAs, executed between implicit `.sys`
/// synchronization points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Kernel {
    /// The CTAs of the grid; index is the CTA id used for scheduling.
    pub ctas: Vec<Cta>,
}

impl Kernel {
    /// Creates a kernel from its CTAs.
    pub fn new(ctas: Vec<Cta>) -> Self {
        Kernel { ctas }
    }

    /// Number of CTAs in the grid.
    pub fn num_ctas(&self) -> usize {
        self.ctas.len()
    }

    /// Total memory accesses across the grid.
    pub fn num_accesses(&self) -> usize {
        self.ctas.iter().map(Cta::num_accesses).sum()
    }
}

/// A complete workload trace.
///
/// # Example
///
/// ```
/// use hmg_protocol::{WorkloadTrace, Kernel, Cta, TraceOp, Access};
/// use hmg_sim::Addr;
///
/// let cta = Cta::new(vec![TraceOp::Access(Access::load(Addr(0)))]);
/// let trace = WorkloadTrace::new("demo", vec![Kernel::new(vec![cta])]);
/// assert_eq!(trace.num_kernels(), 1);
/// assert_eq!(trace.num_accesses(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadTrace {
    /// Workload name (Table III abbreviation).
    pub name: String,
    /// Kernels in launch (dependency) order.
    pub kernels: Vec<Kernel>,
}

impl WorkloadTrace {
    /// Creates a trace.
    pub fn new(name: impl Into<String>, kernels: Vec<Kernel>) -> Self {
        WorkloadTrace {
            name: name.into(),
            kernels,
        }
    }

    /// Number of kernels.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Total CTAs across all kernels.
    pub fn num_ctas(&self) -> usize {
        self.kernels.iter().map(Kernel::num_ctas).sum()
    }

    /// Total memory accesses across all kernels.
    pub fn num_accesses(&self) -> usize {
        self.kernels.iter().map(Kernel::num_accesses).sum()
    }

    /// The highest byte address referenced plus one — the trace's
    /// nominal footprint. Returns 0 for a trace with no accesses.
    pub fn footprint_bytes(&self) -> u64 {
        let mut max = None::<u64>;
        for k in &self.kernels {
            for c in &k.ctas {
                for op in &c.ops {
                    if let TraceOp::Access(a) = op {
                        max = Some(max.map_or(a.addr.0, |m| m.max(a.addr.0)));
                    }
                }
            }
        }
        max.map_or(0, |m| m + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::AccessKind;
    use hmg_sim::Addr;

    fn access(addr: u64) -> TraceOp {
        TraceOp::Access(Access::load(Addr(addr)))
    }

    #[test]
    fn counting_helpers() {
        let cta1 = Cta::new(vec![access(0), TraceOp::Delay(5), access(128)]);
        let cta2 = Cta::new(vec![access(256)]);
        let k1 = Kernel::new(vec![cta1, cta2]);
        let k2 = Kernel::new(vec![Cta::new(vec![TraceOp::Acquire(Scope::Gpu)])]);
        let t = WorkloadTrace::new("t", vec![k1, k2]);
        assert_eq!(t.num_kernels(), 2);
        assert_eq!(t.num_ctas(), 3);
        assert_eq!(t.num_accesses(), 3);
    }

    #[test]
    fn footprint_tracks_highest_address() {
        let t = WorkloadTrace::new(
            "t",
            vec![Kernel::new(vec![Cta::new(vec![access(100), access(5000)])])],
        );
        assert_eq!(t.footprint_bytes(), 5001);
        let empty = WorkloadTrace::new("e", vec![]);
        assert_eq!(empty.footprint_bytes(), 0);
    }

    #[test]
    fn new_folds_positive_delays_after_accesses() {
        let folded_ld = |addr, delay| {
            TraceOp::Access(Access {
                delay,
                ..Access::load(Addr(addr))
            })
        };
        let unfolded = vec![
            access(0),
            TraceOp::Delay(5),
            TraceOp::Delay(6),
            access(128),
            TraceOp::Delay(0),
            TraceOp::Delay(3),
            TraceOp::SetFlag(1),
            TraceOp::Delay(4),
            access(256),
        ];
        let cta = Cta::new(unfolded.clone());
        assert_eq!(
            cta.ops,
            vec![
                folded_ld(0, 5),
                TraceOp::Delay(6),
                access(128),
                TraceOp::Delay(0),
                TraceOp::Delay(3),
                TraceOp::SetFlag(1),
                TraceOp::Delay(4),
                access(256),
            ]
        );
        assert_eq!(cta.ops.capacity(), cta.ops.len());
        assert_eq!(cta.logical_ops().collect::<Vec<_>>(), unfolded);
        assert_eq!(Cta::new(cta.ops.clone()), cta, "folding is idempotent");
        let mut pushed = Vec::new();
        for op in unfolded {
            push_folded(&mut pushed, op);
        }
        assert_eq!(pushed, cta.ops);
        let delays: u64 = cta.ops.iter().map(TraceOp::delay_cycles).sum();
        assert_eq!(delays, 5 + 6 + 3 + 4);
    }

    #[test]
    fn trace_ops_model_all_sync_forms() {
        let ops = vec![
            TraceOp::Access(Access::new(Addr(0), AccessKind::Store, Scope::Cta)),
            TraceOp::Release(Scope::Gpu),
            TraceOp::SetFlag(3),
            TraceOp::WaitFlag { flag: 3, count: 2 },
            TraceOp::Acquire(Scope::Gpu),
        ];
        let cta = Cta::new(ops);
        assert_eq!(cta.num_accesses(), 1);
        assert_eq!(cta.ops.len(), 5);
    }
}
