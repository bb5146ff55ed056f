#![warn(missing_docs)]

//! Coherence protocols for hierarchical multi-GPU systems.
//!
//! This crate is the paper's primary contribution, expressed as data and
//! pure logic that the timing model in `hmg-gpu` executes:
//!
//! * [`scope`] — the scoped memory model's `.cta` / `.gpu` / `.sys`
//!   synchronization scopes (Section II-C).
//! * [`op`] — memory access kinds and scoped accesses.
//! * [`msg`] — protocol message types and their on-wire sizes.
//! * [`spec`] — Table I as a guarded-action protocol description: rows
//!   `(state, event, guard) → (actions, next_state)` over a closed
//!   action vocabulary. The single source of truth for the protocol.
//! * [`table`] — the NHCC/HMG coherence-directory transition table
//!   (Table I) as a pure function, exhaustively unit-tested per cell;
//!   since PR 10 a compiled view of [`spec`].
//! * [`conformance`] — runtime conformance/coverage tracking that checks
//!   every directory transition the engine executes against the table.
//! * [`policy`] — the six evaluated coherence configurations and their
//!   caching / invalidation / routing rules (Section VI).
//! * [`trace`] — the trace format the workload generators produce and
//!   the GPU engine replays.
//! * [`tracefile`] — on-disk (de)serialization of traces.

pub mod conformance;
pub mod msg;
pub mod op;
pub mod policy;
pub mod scope;
pub mod spec;
pub mod table;
pub mod trace;
pub mod tracefile;

// The crate root is the one canonical import path: every public type —
// table, spec, conformance, policy — re-exports here, so downstream
// crates never spell a module path (`table::` vs `conformance::`) and
// the PR 5 compat re-exports keep working.
pub use conformance::{Observed, TableConformance};
pub use msg::MsgSizes;
pub use op::{Access, AccessKind};
pub use policy::{AcquireAction, CacheLevel, FenceDomain, ProtocolKind};
pub use scope::Scope;
pub use spec::{Action, Arbitration, Guard, GuardCtx, ProtocolSpec, SpecRow, SpecVariant};
pub use table::{
    row_index, row_of, transition, try_transition, DirEvent, DirState, Outcome, NUM_ROWS,
};
pub use trace::{push_folded, Cta, Kernel, TraceOp, WorkloadTrace};
