//! # perfplay-transform
//!
//! ULCP trace transformation (Section 3 of the PerfPlay paper): turns a
//! recorded trace plus its ULCP analysis into a **ULCP-free trace** whose
//! synchronization keeps only the causal dependencies of true lock
//! contention.
//!
//! The stages are:
//!
//! 1. RULE 1 — the causal-order topology: nodes are critical sections,
//!    edges are TLCPs found by the detector's sequential search;
//! 2. [`Transformer::transform`] — applies RULE 2 (partial-order
//!    preservation), RULE 3 (auxiliary-lock locksets) and RULE 4
//!    (lockset-intersection mutual exclusion), strips null-locks and
//!    standalone nodes, and reports benign pairs as potential data races
//!    (Theorem 1);
//! 3. [`dynamic_lockset`] — the dynamic locking strategy of Figure 9, used by
//!    the replayer to prune locks of already-finished source nodes and keep
//!    lockset maintenance overhead low (Table 3).
//!
//! Both entry points share one RULE 1–4 core whose per-node tables are
//! vectors indexed by section:
//! [`Transformer::transform`] consumes a materialized
//! `perfplay_detect::UlcpAnalysis`, while
//! [`Transformer::transform_from_plan`] consumes the compact single-pass
//! `perfplay_detect::DetectionPlan` (edges + benign pairs, no pair list) and
//! produces the bit-identical [`TransformedTrace`], which borrows the trace
//! and the section table instead of copying them.
//!
//! [`reference_transform`] keeps the historical builder — an explicit
//! [`Topology`] with `BTreeMap` adjacency lists and per-node set lookups —
//! as the executable specification the core is tested against.
//!
//! The output, [`TransformedTrace`], is what `perfplay-replay` replays to
//! measure the performance the program would have had without ULCPs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod plan;
mod reference;

pub use plan::{
    dynamic_lockset, NodeSync, OrderConstraint, RaceWarning, TransformConfig, TransformStats,
    TransformedTrace, Transformer,
};
pub use reference::{reference_transform, Topology};
