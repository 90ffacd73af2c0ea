//! The synchronization re-construction rules (RULES 2–4) and the resulting
//! ULCP-free trace.
//!
//! After RULE 1 built the causal topology, the transformation must decide how
//! each critical section is synchronized in the ULCP-free trace:
//!
//! * **RULE 2** pins the relative order of all causal-edge nodes that shared
//!   a lock in the original execution, so multiple replays of the ULCP-free
//!   trace show stable performance.
//! * **RULE 3** hands every node with outgoing causal edges a fresh auxiliary
//!   lock (`@L` in the paper) and makes every node with incoming edges
//!   acquire the auxiliary locks of its source nodes, giving each node a
//!   *lockset*.
//! * **RULE 4** declares two nodes mutually exclusive exactly when their
//!   locksets intersect.
//!
//! Null-locks and standalone topology nodes lose their lock/unlock events
//! entirely. The *dynamic locking strategy* (DLS, Figure 9) is a replay-time
//! refinement: a node may drop the auxiliary lock of any source node that has
//! already finished, which [`NodeSync::sources`] makes possible.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use perfplay_detect::{CausalEdge, DetectionPlan, UlcpAnalysis, UlcpKind};
use perfplay_trace::{AuxLockId, CriticalSection, LockId, SectionId, Trace};
use serde::{Deserialize, Serialize};

/// How one critical section is synchronized in the ULCP-free trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSync {
    /// The section this plan entry describes.
    pub section: SectionId,
    /// The auxiliary lock assigned by RULE 3 when the node has outgoing
    /// causal edges.
    pub aux_lock: Option<AuxLockId>,
    /// The full lockset of the node: its own auxiliary lock plus the
    /// auxiliary locks of all its causal source nodes.
    pub lockset: BTreeSet<AuxLockId>,
    /// Causal source nodes (used by the dynamic locking strategy to skip
    /// locks of already-finished sources at replay time).
    pub sources: Vec<SectionId>,
    /// True when the original lock/unlock events of the section are removed
    /// entirely (null-locks and standalone nodes).
    pub strip_lock: bool,
}

impl NodeSync {
    /// Number of auxiliary locks the node would take without DLS.
    pub fn static_lockset_size(&self) -> usize {
        self.lockset.len()
    }

    /// RULE 4: two nodes are mutually exclusive iff their locksets intersect.
    pub fn mutually_exclusive_with(&self, other: &NodeSync) -> bool {
        self.lockset.intersection(&other.lockset).next().is_some()
    }
}

/// An ordering constraint produced by RULE 2: `before` must complete its
/// critical section before `after` may enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderConstraint {
    /// The section that must run first.
    pub before: SectionId,
    /// The section that must wait.
    pub after: SectionId,
    /// The original lock whose causal nodes are being ordered.
    pub lock: LockId,
}

/// A potential data race introduced by parallelizing a benign ULCP
/// (Theorem 1's "reporting the data races" case).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaceWarning {
    /// First section of the now-parallel pair.
    pub first: SectionId,
    /// Second section of the now-parallel pair.
    pub second: SectionId,
    /// The lock that used to serialize them.
    pub lock: LockId,
}

/// Summary statistics of a transformation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TransformStats {
    /// Total critical sections (topology nodes).
    pub nodes: usize,
    /// Auxiliary locks introduced by RULE 3.
    pub aux_locks: usize,
    /// Sections whose lock/unlock events were removed.
    pub stripped_sections: usize,
    /// RULE 2 ordering constraints emitted.
    pub order_constraints: usize,
    /// Benign-ULCP race warnings reported.
    pub race_warnings: usize,
    /// Largest lockset assigned to any node.
    pub max_lockset: usize,
    /// Mean lockset size over nodes that keep synchronization.
    pub mean_lockset: f64,
}

/// The ULCP-free trace: the original events plus the new synchronization
/// plan that the replayer enforces instead of the original locks.
///
/// The trace and the section table are borrowed from what the
/// transformation ran over (the recorded trace and the detection output), so
/// building one copies neither; [`into_owned`](Self::into_owned) detaches
/// the result for callers that must outlive them.
#[derive(Debug, Clone)]
pub struct TransformedTrace<'a> {
    /// The original recorded trace (events are not modified; the plan
    /// reinterprets its lock acquire/release events).
    pub original: Cow<'a, Trace>,
    /// Every dynamic critical section of the original trace.
    pub sections: Cow<'a, [CriticalSection]>,
    /// Synchronization plan per section, indexed by [`SectionId::index`].
    pub plan: Vec<NodeSync>,
    /// RULE 2 ordering constraints.
    pub order_constraints: Vec<OrderConstraint>,
    /// Benign pairs that may now overlap (reported, per Theorem 1).
    pub race_warnings: Vec<RaceWarning>,
    /// Number of distinct auxiliary locks introduced.
    pub num_aux_locks: usize,
}

impl TransformedTrace<'_> {
    /// Returns the plan entry for a section.
    pub fn node(&self, id: SectionId) -> &NodeSync {
        &self.plan[id.index()]
    }

    /// Copies the borrowed trace and section table, so the result no longer
    /// borrows from its inputs.
    pub fn into_owned(self) -> TransformedTrace<'static> {
        TransformedTrace {
            original: Cow::Owned(self.original.into_owned()),
            sections: Cow::Owned(self.sections.into_owned()),
            plan: self.plan,
            order_constraints: self.order_constraints,
            race_warnings: self.race_warnings,
            num_aux_locks: self.num_aux_locks,
        }
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> TransformStats {
        let (mut kept, mut lockset_sum, mut max_lockset) = (0usize, 0usize, 0usize);
        for n in self.plan.iter().filter(|n| !n.strip_lock) {
            kept += 1;
            lockset_sum += n.static_lockset_size();
            max_lockset = max_lockset.max(n.static_lockset_size());
        }
        TransformStats {
            nodes: self.plan.len(),
            aux_locks: self.num_aux_locks,
            stripped_sections: self.plan.len() - kept,
            order_constraints: self.order_constraints.len(),
            race_warnings: self.race_warnings.len(),
            max_lockset,
            mean_lockset: if kept == 0 {
                0.0
            } else {
                lockset_sum as f64 / kept as f64
            },
        }
    }
}

/// Configuration of the trace transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformConfig {
    /// Remove lock/unlock events of null-locks and standalone nodes
    /// (the paper always does; disabling is useful for ablation).
    pub strip_unneeded_locks: bool,
}

impl Default for TransformConfig {
    fn default() -> Self {
        TransformConfig {
            strip_unneeded_locks: true,
        }
    }
}

/// PerfPlay's ULCP transformation stage (Section 3 of the paper).
///
/// Both entry points return a [`TransformedTrace`] that borrows the trace
/// and the section table it was given.
#[derive(Debug, Clone, Default)]
pub struct Transformer {
    config: TransformConfig,
}

impl Transformer {
    /// Creates a transformer with the given configuration.
    pub fn new(config: TransformConfig) -> Self {
        Transformer { config }
    }

    /// Transforms the recorded trace into its ULCP-free counterpart.
    pub fn transform<'a>(
        &self,
        trace: &'a Trace,
        analysis: &'a UlcpAnalysis,
    ) -> TransformedTrace<'a> {
        // Theorem 1: benign ULCPs become parallel although they touch the
        // same data; report them as potential races.
        let race_warnings = analysis
            .ulcps
            .iter()
            .filter(|u| u.kind == UlcpKind::Benign)
            .map(|u| RaceWarning {
                first: u.first,
                second: u.second,
                lock: u.lock,
            })
            .collect();
        self.transform_parts(trace, &analysis.sections, &analysis.edges, race_warnings)
    }

    /// Transforms the recorded trace from a single-pass [`DetectionPlan`] —
    /// the O(sections + edges + benign) detection output — producing a
    /// [`TransformedTrace`] bit-identical to
    /// [`transform`](Self::transform) over the materialized analysis of the
    /// same trace: the plan retains the causal edges and benign pairs in the
    /// exact canonical order the analysis lists them.
    ///
    /// The plan's section table must be dense (`sections[i].id.index() ==
    /// i`), which [`DetectionPlan::validate`] checks for a plan of untrusted
    /// provenance.
    pub fn transform_from_plan<'a>(
        &self,
        trace: &'a Trace,
        plan: &'a DetectionPlan,
    ) -> TransformedTrace<'a> {
        let race_warnings = plan
            .benign
            .iter()
            .map(|u| RaceWarning {
                first: u.first,
                second: u.second,
                lock: u.lock,
            })
            .collect();
        self.transform_parts(trace, &plan.sections, &plan.edges, race_warnings)
    }

    /// The shared RULE 1–4 core both entry points feed. Sections are dense
    /// (`sections[i].id.index() == i`), so every per-node table is a `Vec`
    /// indexed by section.
    fn transform_parts<'a>(
        &self,
        trace: &'a Trace,
        sections: &'a [CriticalSection],
        edges: &[CausalEdge],
        race_warnings: Vec<RaceWarning>,
    ) -> TransformedTrace<'a> {
        // RULE 1: the causal topology as degrees plus the incoming edges'
        // sources, grouped per node in edge order (`sources_start[i]..
        // sources_start[i + 1]` indexes `sources_by_node`). An endpoint
        // outside the section table (a plan that fails
        // `DetectionPlan::validate`) names no node: it gets no degree and no
        // auxiliary lock, but stays listed as a source.
        let n = sections.len();
        let mut out_degree = vec![0u32; n];
        let mut sources_start = vec![0usize; n + 1];
        for e in edges {
            if let Some(out) = out_degree.get_mut(e.from.index()) {
                *out += 1;
            }
            if let Some(count) = sources_start.get_mut(e.to.index() + 1) {
                *count += 1;
            }
        }
        for i in 0..n {
            sources_start[i + 1] += sources_start[i];
        }
        let mut fill = sources_start.clone();
        let mut sources_by_node = vec![SectionId::new(0); sources_start[n]];
        for e in edges.iter().filter(|e| e.to.index() < n) {
            let slot = &mut fill[e.to.index()];
            sources_by_node[*slot] = e.from;
            *slot += 1;
        }
        let sources_of = |i: usize| &sources_by_node[sources_start[i]..sources_start[i + 1]];

        // RULE 3: auxiliary locks for nodes with outgoing causal edges,
        // numbered in section order.
        let mut num_aux_locks = 0u32;
        let aux_lock: Vec<Option<AuxLockId>> = out_degree
            .iter()
            .map(|&out| {
                (out > 0).then(|| {
                    num_aux_locks += 1;
                    AuxLockId::new(num_aux_locks - 1)
                })
            })
            .collect();

        let plan: Vec<NodeSync> = sections
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let own = aux_lock[i];
                let sources = sources_of(i);
                let lockset: BTreeSet<AuxLockId> = own
                    .into_iter()
                    .chain(
                        sources
                            .iter()
                            .filter_map(|src| aux_lock.get(src.index()).copied().flatten()),
                    )
                    .collect();
                // Null-locks (no shared access at all) and standalone nodes
                // (no causal edge either way) lose their lock events.
                let standalone = out_degree[i] == 0 && sources.is_empty();
                NodeSync {
                    section: s.id,
                    aux_lock: own,
                    lockset,
                    sources: sources.to_vec(),
                    strip_lock: self.config.strip_unneeded_locks
                        && (s.is_access_free() || standalone),
                }
            })
            .collect();

        // RULE 2: causal-edge nodes of the same original lock keep their
        // original partial order, expressed as consecutive constraints along
        // the timing order.
        let mut order_constraints = Vec::new();
        let mut per_lock: BTreeMap<LockId, Vec<&CriticalSection>> = BTreeMap::new();
        for (i, s) in sections.iter().enumerate() {
            if out_degree[i] > 0 || !sources_of(i).is_empty() {
                per_lock.entry(s.lock).or_default().push(s);
            }
        }
        for (lock, mut nodes) in per_lock {
            nodes.sort_by_key(|s| (s.enter_time, s.id));
            for pair in nodes.windows(2) {
                order_constraints.push(OrderConstraint {
                    before: pair[0].id,
                    after: pair[1].id,
                    lock,
                });
            }
        }

        TransformedTrace {
            original: Cow::Borrowed(trace),
            sections: Cow::Borrowed(sections),
            plan,
            order_constraints,
            race_warnings,
            num_aux_locks: num_aux_locks as usize,
        }
    }
}

/// The dynamic locking strategy (Figure 9): given which sections have
/// already finished at the time a node starts, returns the locks the node
/// still has to take.
pub fn dynamic_lockset(
    node: &NodeSync,
    plan: &[NodeSync],
    is_finished: impl Fn(SectionId) -> bool,
) -> BTreeSet<AuxLockId> {
    let mut lockset = node.lockset.clone();
    for &src in &node.sources {
        if is_finished(src) {
            if let Some(lock) = plan[src.index()].aux_lock {
                lockset.remove(&lock);
            }
        }
    }
    lockset
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_detect::Detector;
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;

    use crate::reference::Topology;

    /// Records the workload and analyzes it; the caller transforms, since
    /// the transformed trace borrows both.
    fn analyzed(build: impl FnOnce(&mut ProgramBuilder)) -> (Trace, UlcpAnalysis) {
        let mut b = ProgramBuilder::new("plan-test");
        build(&mut b);
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let analysis = Detector::default().analyze(&trace);
        (trace, analysis)
    }

    fn figure7_workload(b: &mut ProgramBuilder) {
        // Three threads under one lock: a reader, a reader+writer, and a
        // double-writer, loosely following Figure 7 of the paper.
        let lock = b.lock("L");
        let d1 = b.shared("data1", 0);
        let d2 = b.shared("data2", 0);
        let site_r = b.site("fig7.c", "read1", 1);
        let site_r2 = b.site("fig7.c", "read2", 2);
        let site_w = b.site("fig7.c", "write1", 3);
        b.thread("t1", |t| {
            t.locked(lock, site_r, |cs| {
                cs.read(d1);
            });
            t.locked(lock, site_r2, |cs| {
                cs.read(d2);
            });
        });
        b.thread("t2", |t| {
            t.compute_us(1);
            t.locked(lock, site_r2, |cs| {
                cs.read(d2);
            });
            t.locked(lock, site_w, |cs| {
                let v = cs.read_into(d1);
                cs.write_set(d1, 1);
                let _ = v;
            });
        });
        b.thread("t3", |t| {
            t.compute_us(2);
            t.locked(lock, site_w, |cs| {
                let v = cs.read_into(d1);
                cs.write_set(d1, 2);
                let _ = v;
            });
            t.locked(lock, site_r2, |cs| {
                cs.read(d2);
            });
        });
    }

    #[test]
    fn rule3_assigns_aux_locks_to_out_degree_nodes() {
        let (trace, analysis) = analyzed(figure7_workload);
        let tt = Transformer::default().transform(&trace, &analysis);
        let topo = Topology::from_analysis(&analysis);
        for node in &tt.plan {
            if topo.out_degree(node.section) > 0 {
                assert!(
                    node.aux_lock.is_some(),
                    "node {:?} should own a lock",
                    node.section
                );
                assert!(node.lockset.contains(&node.aux_lock.unwrap()));
            } else {
                assert!(node.aux_lock.is_none());
            }
            // RULE 3 second half: incoming nodes carry their sources' locks.
            for src in &node.sources {
                if let Some(l) = tt.plan[src.index()].aux_lock {
                    assert!(node.lockset.contains(&l));
                }
            }
        }
        assert_eq!(
            tt.num_aux_locks,
            tt.plan.iter().filter(|n| n.aux_lock.is_some()).count()
        );
    }

    #[test]
    fn rule4_mutual_exclusion_follows_lockset_intersection() {
        let (trace, analysis) = analyzed(figure7_workload);
        let tt = Transformer::default().transform(&trace, &analysis);
        for e in tt
            .order_constraints
            .iter()
            .filter(|c| !tt.node(c.before).lockset.is_empty())
        {
            let a = tt.node(e.before);
            let b = tt.node(e.after);
            // Causally related nodes that keep synchronization and share an
            // edge are mutually exclusive whenever the edge contributed a
            // lock to both sides.
            if a.aux_lock.is_some() && b.sources.contains(&a.section) {
                assert!(a.mutually_exclusive_with(b));
            }
        }
        // Two stripped standalone read-only nodes are never mutually
        // exclusive.
        let standalone: Vec<&NodeSync> = tt.plan.iter().filter(|n| n.strip_lock).collect();
        if standalone.len() >= 2 {
            assert!(!standalone[0].mutually_exclusive_with(standalone[1]));
        }
    }

    #[test]
    fn rule2_orders_causal_nodes_by_original_timing() {
        let (trace, analysis) = analyzed(figure7_workload);
        let tt = Transformer::default().transform(&trace, &analysis);
        for c in &tt.order_constraints {
            let before = &tt.sections[c.before.index()];
            let after = &tt.sections[c.after.index()];
            assert!(before.enter_time <= after.enter_time);
            assert_eq!(before.lock, after.lock);
        }
    }

    #[test]
    fn null_and_standalone_sections_are_stripped() {
        let (trace, analysis) = analyzed(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site_null = b.site("n.c", "null", 1);
            let site_read = b.site("n.c", "read", 2);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.locked(lock, site_null, |cs| {
                        cs.compute_ns(10);
                    });
                    t.locked(lock, site_read, |cs| {
                        cs.read(x);
                    });
                });
            }
        });
        let tt = Transformer::default().transform(&trace, &analysis);
        // No conflicts at all: every node is standalone, everything stripped.
        assert!(analysis.edges.is_empty());
        assert!(tt.plan.iter().all(|n| n.strip_lock));
        assert_eq!(tt.stats().stripped_sections, tt.plan.len());
        assert_eq!(tt.num_aux_locks, 0);
    }

    #[test]
    fn strip_can_be_disabled_for_ablation() {
        let mut b = ProgramBuilder::new("ablation");
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site = b.site("a.c", "reader", 1);
        for i in 0..2 {
            b.thread(format!("t{i}"), |t| {
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
            });
        }
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let analysis = Detector::default().analyze(&trace);
        let keep = Transformer::new(TransformConfig {
            strip_unneeded_locks: false,
        })
        .transform(&trace, &analysis);
        assert!(keep.plan.iter().all(|n| !n.strip_lock));
    }

    #[test]
    fn benign_pairs_are_reported_as_race_warnings() {
        let (trace, analysis) = analyzed(|b| {
            let lock = b.lock("m");
            let flag = b.shared("done", 0);
            let site = b.site("bw.c", "set_done", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.locked(lock, site, |cs| {
                        cs.write_set(flag, 1);
                    });
                });
            }
        });
        let tt = Transformer::default().transform(&trace, &analysis);
        assert_eq!(analysis.breakdown.benign, 1);
        assert_eq!(tt.race_warnings.len(), 1);
        assert_eq!(tt.stats().race_warnings, 1);
    }

    #[test]
    fn dynamic_lockset_drops_finished_sources() {
        let (trace, analysis) = analyzed(figure7_workload);
        let tt = Transformer::default().transform(&trace, &analysis);
        // Find a node with at least one source that owns an auxiliary lock.
        let Some(node) = tt.plan.iter().find(|n| {
            n.sources
                .iter()
                .any(|s| tt.plan[s.index()].aux_lock.is_some())
        }) else {
            panic!("expected at least one node with a locked source");
        };
        let full = dynamic_lockset(node, &tt.plan, |_| false);
        assert_eq!(full, node.lockset);
        let finished: BTreeSet<SectionId> = node.sources.iter().copied().collect();
        let pruned = dynamic_lockset(node, &tt.plan, |s| finished.contains(&s));
        assert!(pruned.len() < full.len());
        // Its own lock, if any, is never dropped.
        if let Some(own) = node.aux_lock {
            assert!(pruned.contains(&own));
        }
    }

    #[test]
    fn edges_outside_the_section_table_match_the_reference() {
        let (trace, mut analysis) = analyzed(figure7_workload);
        let n = analysis.sections.len() as u32;
        let lock = analysis.sections[0].lock;
        let (inside, outside) = (SectionId::new(n - 1), SectionId::new(n + 7));
        analysis.edges.extend([
            CausalEdge {
                from: outside,
                to: inside,
                lock,
            },
            CausalEdge {
                from: inside,
                to: outside,
                lock,
            },
        ]);
        let config = TransformConfig::default();
        let tt = Transformer::new(config).transform(&trace, &analysis);
        let expected = crate::reference_transform(config, &trace, &analysis);
        assert_eq!(tt.plan, expected.plan);
        assert_eq!(tt.order_constraints, expected.order_constraints);
        assert_eq!(tt.num_aux_locks, expected.num_aux_locks);
        assert!(tt.node(inside).sources.contains(&outside));
    }

    #[test]
    fn transform_from_plan_is_bit_identical_to_transform() {
        let mut b = ProgramBuilder::new("plan-path-test");
        figure7_workload(&mut b);
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        let analysis = Detector::default().analyze(&trace);
        let from_analysis = Transformer::default().transform(&trace, &analysis);

        let plan = Detector::default().plan(&trace, perfplay_detect::NoGain);
        let from_plan = Transformer::default().transform_from_plan(&trace, &plan);

        assert_eq!(from_plan.sections, from_analysis.sections);
        assert_eq!(from_plan.plan, from_analysis.plan);
        assert_eq!(from_plan.order_constraints, from_analysis.order_constraints);
        assert_eq!(from_plan.race_warnings, from_analysis.race_warnings);
        assert_eq!(from_plan.num_aux_locks, from_analysis.num_aux_locks);
    }

    #[test]
    fn stats_summarize_the_plan() {
        let (trace, analysis) = analyzed(figure7_workload);
        let tt = Transformer::default().transform(&trace, &analysis);
        let stats = tt.stats();
        assert_eq!(stats.nodes, tt.plan.len());
        assert_eq!(stats.aux_locks, tt.num_aux_locks);
        assert!(stats.max_lockset >= 1);
        assert!(stats.mean_lockset > 0.0);
        assert!(stats.order_constraints >= 1);
    }
}
