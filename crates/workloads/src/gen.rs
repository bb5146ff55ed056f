//! Building blocks for trace generation: a page-granular address space,
//! line-addressable regions, and a CTA op builder.

use hmg_mem::Addr;
use hmg_protocol::{push_folded, Access, AccessKind, Cta, Scope, TraceOp};
use hmg_sim::Rng;

/// Cache-line size the generators emit accesses at.
pub const LINE: u64 = 128;
/// Page size regions are aligned to, so first-touch placement assigns
/// whole regions cleanly.
pub const PAGE: u64 = 2 * 1024 * 1024;

/// A contiguous, page-aligned span of global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: u64,
    bytes: u64,
}

impl Region {
    /// First byte address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of cache lines in the region.
    pub fn lines(&self) -> u64 {
        self.bytes / LINE
    }

    /// Byte address of the `i`-th line (wrapping around the region).
    ///
    /// # Panics
    ///
    /// Panics if the region is empty.
    pub fn line(&self, i: u64) -> Addr {
        assert!(self.lines() > 0, "empty region");
        Addr(self.base + (i % self.lines()) * LINE)
    }

    /// The `i`-th of `n` equal line-aligned tiles.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `n == 0`.
    pub fn tile(&self, i: u64, n: u64) -> Region {
        assert!(n > 0 && i < n, "tile {i} of {n}");
        let lines = self.lines();
        let per = lines / n;
        let lo = i * per;
        let hi = if i == n - 1 { lines } else { (i + 1) * per };
        Region {
            base: self.base + lo * LINE,
            bytes: (hi - lo) * LINE,
        }
    }
}

/// Allocates page-aligned regions from a flat address space.
#[derive(Debug, Default)]
pub struct AddrSpace {
    next: u64,
}

impl AddrSpace {
    /// A fresh, empty address space starting at address 0.
    pub fn new() -> Self {
        AddrSpace::default()
    }

    /// Allocates `bytes` at a page-aligned base. The region's usable size
    /// is `bytes` rounded up to whole cache lines (so small hot regions
    /// keep their intended size); the allocator still advances by whole
    /// pages so distinct regions never share a page.
    pub fn alloc(&mut self, bytes: u64) -> Region {
        let usable = bytes.div_ceil(LINE).max(1) * LINE;
        let r = Region {
            base: self.next,
            bytes: usable,
        };
        self.next += usable.div_ceil(PAGE).max(1) * PAGE;
        r
    }

    /// Total bytes allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

/// Builds one CTA's op list, in folded form: a compute delay right
/// after an access is stored in that access (see `hmg_protocol::Cta`).
#[derive(Debug, Default)]
pub struct CtaBuilder {
    ops: Vec<TraceOp>,
    /// Ops in unfolded form: `ops.len()` plus the folded delays.
    logical: usize,
}

impl CtaBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        CtaBuilder::default()
    }

    fn push(&mut self, op: TraceOp) -> &mut Self {
        self.ops.push(op);
        self.logical += 1;
        self
    }

    /// Appends a plain load of line `i` of `r`.
    pub fn load(&mut self, r: Region, i: u64) -> &mut Self {
        self.push(TraceOp::Access(Access::load(r.line(i))))
    }

    /// Appends a plain store to line `i` of `r`.
    pub fn store(&mut self, r: Region, i: u64) -> &mut Self {
        self.push(TraceOp::Access(Access::store(r.line(i))))
    }

    /// Appends a scoped access.
    pub fn access(&mut self, r: Region, i: u64, kind: AccessKind, scope: Scope) -> &mut Self {
        self.push(TraceOp::Access(Access::new(r.line(i), kind, scope)))
    }

    /// Appends `n` sequential loads starting at line `start` of `r`,
    /// with `delay` compute cycles between consecutive accesses.
    pub fn stream_loads(&mut self, r: Region, start: u64, n: u64, delay: u32) -> &mut Self {
        for k in 0..n {
            self.load(r, start + k);
            self.delay(delay);
        }
        self
    }

    /// Appends `n` sequential stores starting at line `start` of `r`.
    pub fn stream_stores(&mut self, r: Region, start: u64, n: u64, delay: u32) -> &mut Self {
        for k in 0..n {
            self.store(r, start + k);
            self.delay(delay);
        }
        self
    }

    /// Appends `n` uniformly random loads over `r`.
    pub fn random_loads(&mut self, r: Region, n: u64, rng: &mut Rng, delay: u32) -> &mut Self {
        for _ in 0..n {
            self.load(r, rng.gen_range(0, r.lines()));
            self.delay(delay);
        }
        self
    }

    /// Appends `n` Zipf-distributed loads over `r` with exponent `s`.
    pub fn zipf_loads(
        &mut self,
        r: Region,
        n: u64,
        s: f64,
        rng: &mut Rng,
        delay: u32,
    ) -> &mut Self {
        for _ in 0..n {
            self.load(r, rng.gen_zipf(r.lines(), s));
            self.delay(delay);
        }
        self
    }

    /// Appends a compute delay (skipped when zero), folded into the
    /// access before it when there is one.
    pub fn delay(&mut self, cycles: u32) -> &mut Self {
        if cycles > 0 {
            push_folded(&mut self.ops, TraceOp::Delay(cycles));
            self.logical += 1;
        }
        self
    }

    /// Appends a scoped acquire.
    pub fn acquire(&mut self, scope: Scope) -> &mut Self {
        self.push(TraceOp::Acquire(scope))
    }

    /// Appends a scoped release.
    pub fn release(&mut self, scope: Scope) -> &mut Self {
        self.push(TraceOp::Release(scope))
    }

    /// Appends a flag set.
    pub fn set_flag(&mut self, flag: u32) -> &mut Self {
        self.push(TraceOp::SetFlag(flag))
    }

    /// Appends a flag wait.
    pub fn wait_flag(&mut self, flag: u32, count: u32) -> &mut Self {
        self.push(TraceOp::WaitFlag { flag, count })
    }

    /// Finishes the CTA. The ops are already folded, so `Cta::new`'s
    /// fold pass is skipped; the list is trimmed to its exact size.
    pub fn build(mut self) -> Cta {
        self.ops.shrink_to_fit();
        Cta { ops: self.ops }
    }

    /// Finishes the CTA, spreading `tail`'s ops evenly through this
    /// builder's ops. Real kernels emit their output stores as results
    /// are produced, not in a burst at CTA exit; bursty final writes
    /// would otherwise serialize every kernel boundary on the hot DRAM
    /// partitions.
    ///
    /// Placement is by unfolded op index, so a tail op may land between
    /// an access and its delay; the merged list is folded again as it
    /// is built.
    pub fn build_interleaved(self, tail: CtaBuilder) -> Cta {
        if tail.ops.is_empty() {
            return self.build();
        }
        if self.ops.is_empty() {
            return tail.build();
        }
        let stride = self.logical.div_ceil(tail.logical).max(1);
        let mut merged = Vec::with_capacity(self.ops.len() + tail.logical);
        let tail = Cta { ops: tail.ops };
        let mut tail = tail.logical_ops();
        let mut i = 0;
        let mut place = |merged: &mut Vec<TraceOp>, op| {
            push_folded(merged, op);
            i += 1;
            if i % stride == 0 {
                if let Some(w) = tail.next() {
                    push_folded(merged, w);
                }
            }
        };
        // An explicit split, not `flat_map`: this loop runs once per
        // generated op, and the flattening iterator doubles its cost.
        for op in self.ops {
            let (access, delay) = op.unfold();
            place(&mut merged, access);
            if let Some(d) = delay {
                place(&mut merged, d);
            }
        }
        for w in tail {
            push_folded(&mut merged, w);
        }
        merged.shrink_to_fit();
        Cta { ops: merged }
    }

    /// Ops accumulated so far, counted in unfolded form.
    pub fn len(&self) -> usize {
        self.logical
    }

    /// Whether no ops have been added.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_disjoint() {
        let mut a = AddrSpace::new();
        let r1 = a.alloc(100);
        let r2 = a.alloc(PAGE + 1);
        assert_eq!(r1.base() % PAGE, 0);
        // Usable size is line-rounded; the allocator still advances by
        // whole pages.
        assert_eq!(r1.bytes(), LINE);
        assert_eq!(r2.base(), PAGE);
        assert_eq!(r2.bytes(), PAGE + LINE);
        assert_eq!(a.allocated(), 3 * PAGE);
    }

    #[test]
    fn region_line_addresses() {
        let mut a = AddrSpace::new();
        let r = a.alloc(PAGE);
        assert_eq!(r.lines(), PAGE / LINE);
        assert_eq!(r.line(0), Addr(0));
        assert_eq!(r.line(1), Addr(128));
        // Wraps.
        assert_eq!(r.line(r.lines()), Addr(0));
    }

    #[test]
    fn tiles_partition_the_region() {
        let mut a = AddrSpace::new();
        let r = a.alloc(PAGE);
        let n = 7;
        let mut covered = 0;
        for i in 0..n {
            covered += r.tile(i, n).lines();
        }
        assert_eq!(covered, r.lines());
        // Adjacent tiles touch.
        let t0 = r.tile(0, n);
        let t1 = r.tile(1, n);
        assert_eq!(t0.base() + t0.bytes(), t1.base());
    }

    #[test]
    fn builder_emits_expected_ops() {
        let mut a = AddrSpace::new();
        let r = a.alloc(PAGE);
        let mut b = CtaBuilder::new();
        b.stream_loads(r, 0, 3, 5).store(r, 1).set_flag(2);
        assert!(!b.is_empty());
        assert_eq!(b.len(), 8);
        let cta = b.build();
        assert_eq!(cta.num_accesses(), 4);
        assert_eq!(cta.ops.len(), 5, "each stream delay folds into its load");
        assert!(matches!(cta.ops[1], TraceOp::Access(a) if a.delay == 5));
        assert!(matches!(cta.ops.last(), Some(TraceOp::SetFlag(2))));
    }

    /// The builder's folded output equals folding the unfolded op list
    /// the interleave would have produced, op for op.
    #[test]
    fn interleave_places_tail_by_unfolded_index() {
        let mut a = AddrSpace::new();
        let r = a.alloc(PAGE);
        for (reads, writes, delay) in [(7, 3, 2), (6, 2, 1), (5, 5, 0), (4, 9, 3)] {
            let mut b = CtaBuilder::new();
            b.stream_loads(r, 0, reads, delay);
            let mut w = CtaBuilder::new();
            w.stream_stores(r, 0, writes, delay);
            let mut expected = Vec::new();
            let body: Vec<TraceOp> = Cta { ops: b.ops.clone() }.logical_ops().collect();
            let tail_ops: Vec<TraceOp> = Cta { ops: w.ops.clone() }.logical_ops().collect();
            let mut tail = tail_ops.into_iter();
            let stride = body.len().div_ceil(w.len()).max(1);
            for (i, op) in body.iter().enumerate() {
                expected.push(*op);
                if (i + 1) % stride == 0 {
                    expected.extend(tail.next());
                }
            }
            expected.extend(tail);
            let cta = b.build_interleaved(w);
            assert_eq!(cta, Cta::new(expected), "{reads}/{writes}/{delay}");
            assert_eq!(cta.ops.capacity(), cta.ops.len());
        }
    }

    #[test]
    fn random_and_zipf_loads_stay_in_region() {
        let mut a = AddrSpace::new();
        let r = a.alloc(PAGE);
        let mut rng = Rng::new(1);
        let mut b = CtaBuilder::new();
        b.random_loads(r, 100, &mut rng, 0)
            .zipf_loads(r, 100, 0.8, &mut rng, 0);
        for op in &b.ops {
            if let TraceOp::Access(acc) = op {
                assert!(acc.addr.0 >= r.base() && acc.addr.0 < r.base() + r.bytes());
            }
        }
    }
}
