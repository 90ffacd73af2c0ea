//! The naive RULE 1–4 builder kept as an executable specification.
//!
//! This is the historical implementation of [`Transformer::transform`]: it
//! builds the causal-order [`Topology`] of RULE 1 as `BTreeMap` adjacency
//! lists, assigns RULE 3 auxiliary locks through a `BTreeMap`, and collects
//! the null-lock, standalone and causal node sets as `BTreeSet`s before
//! deriving each node's synchronization. The dense production core in
//! [`plan`](crate::Transformer) must produce bit-identical plans, RULE 2
//! constraints, race warnings and auxiliary-lock counts — the root
//! `plan_equivalence` suite compares the two on random workloads.
//!
//! [`Transformer::transform`]: crate::Transformer::transform

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use perfplay_detect::{CausalEdge, UlcpAnalysis, UlcpKind};
use perfplay_trace::{AuxLockId, CriticalSection, LockId, SectionId, Trace};

use crate::plan::{NodeSync, OrderConstraint, RaceWarning, TransformConfig, TransformedTrace};

/// The ULCP-free causal-order topology built by RULE 1.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<SectionId>,
    edges: Vec<CausalEdge>,
    outgoing: BTreeMap<SectionId, Vec<SectionId>>,
    incoming: BTreeMap<SectionId, Vec<SectionId>>,
}

impl Topology {
    /// Builds the topology from a ULCP analysis: every critical section is a
    /// node, every TLCP found by the sequential search is a causal edge.
    pub fn from_analysis(analysis: &UlcpAnalysis) -> Self {
        Self::from_parts(&analysis.sections, &analysis.edges)
    }

    /// Builds the topology from a section table and an edge list directly.
    /// Edge order is preserved (it determines the adjacency-list order
    /// downstream), so callers must pass edges in the canonical detection
    /// order for bit-identical output.
    pub fn from_parts(sections: &[CriticalSection], edges: &[CausalEdge]) -> Self {
        let nodes = sections.iter().map(|s| s.id).collect();
        let mut outgoing: BTreeMap<SectionId, Vec<SectionId>> = BTreeMap::new();
        let mut incoming: BTreeMap<SectionId, Vec<SectionId>> = BTreeMap::new();
        for e in edges {
            outgoing.entry(e.from).or_default().push(e.to);
            incoming.entry(e.to).or_default().push(e.from);
        }
        Topology {
            nodes,
            edges: edges.to_vec(),
            outgoing,
            incoming,
        }
    }

    /// All nodes (critical sections) in id order.
    pub fn nodes(&self) -> &[SectionId] {
        &self.nodes
    }

    /// All causal edges.
    pub fn edges(&self) -> &[CausalEdge] {
        &self.edges
    }

    /// Number of outgoing causal edges of a node.
    pub fn out_degree(&self, node: SectionId) -> usize {
        self.outgoing.get(&node).map(Vec::len).unwrap_or(0)
    }

    /// Number of incoming causal edges of a node.
    pub fn in_degree(&self, node: SectionId) -> usize {
        self.incoming.get(&node).map(Vec::len).unwrap_or(0)
    }

    /// Causal predecessors (source nodes) of a node.
    pub fn sources_of(&self, node: SectionId) -> &[SectionId] {
        self.incoming.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Causal successors of a node.
    pub fn successors_of(&self, node: SectionId) -> &[SectionId] {
        self.outgoing.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Nodes with neither incoming nor outgoing causal edges. The paper's
    /// RULE 3 step removes the lock/unlock events of these (and of
    /// null-locks) entirely.
    pub fn standalone_nodes(&self) -> Vec<SectionId> {
        self.nodes
            .iter()
            .copied()
            .filter(|n| self.out_degree(*n) == 0 && self.in_degree(*n) == 0)
            .collect()
    }

    /// Nodes that participate in at least one causal edge.
    pub fn causal_nodes(&self) -> BTreeSet<SectionId> {
        let mut set = BTreeSet::new();
        for e in &self.edges {
            set.insert(e.from);
            set.insert(e.to);
        }
        set
    }

    /// Checks that the causal edges are acyclic (they must be, because every
    /// edge goes from an earlier section id to a later one).
    pub fn is_acyclic(&self) -> bool {
        self.edges.iter().all(|e| e.from < e.to)
    }
}

/// Transforms the recorded trace into its ULCP-free counterpart the naive
/// way: RULE 1's [`Topology`], then RULES 2–4 over `BTreeMap`/`BTreeSet`
/// lookups per node.
///
/// The result must equal [`Transformer::transform`] (and
/// [`Transformer::transform_from_plan`] over the same trace's plan) field for
/// field.
///
/// [`Transformer::transform`]: crate::Transformer::transform
/// [`Transformer::transform_from_plan`]: crate::Transformer::transform_from_plan
pub fn reference_transform<'a>(
    config: TransformConfig,
    trace: &'a Trace,
    analysis: &'a UlcpAnalysis,
) -> TransformedTrace<'a> {
    let sections = &analysis.sections;
    let topology = Topology::from_analysis(analysis);

    // RULE 3: assign auxiliary locks to nodes with outgoing causal edges.
    let mut aux_locks: BTreeMap<SectionId, AuxLockId> = BTreeMap::new();
    for &node in topology.nodes() {
        if topology.out_degree(node) > 0 {
            let id = AuxLockId::new(aux_locks.len() as u32);
            aux_locks.insert(node, id);
        }
    }

    // Null-locks: sections with no shared access at all.
    let null_sections: BTreeSet<SectionId> = sections
        .iter()
        .filter(|s| s.is_access_free())
        .map(|s| s.id)
        .collect();
    let standalone: BTreeSet<SectionId> = topology.standalone_nodes().into_iter().collect();

    let plan: Vec<NodeSync> = sections
        .iter()
        .map(|s| {
            let own = aux_locks.get(&s.id).copied();
            let sources: Vec<SectionId> = topology.sources_of(s.id).to_vec();
            let mut lockset: BTreeSet<AuxLockId> = BTreeSet::new();
            if let Some(l) = own {
                lockset.insert(l);
            }
            for src in &sources {
                if let Some(l) = aux_locks.get(src) {
                    lockset.insert(*l);
                }
            }
            let strip_lock = config.strip_unneeded_locks
                && (null_sections.contains(&s.id) || standalone.contains(&s.id));
            NodeSync {
                section: s.id,
                aux_lock: own,
                lockset,
                sources,
                strip_lock,
            }
        })
        .collect();

    // RULE 2: causal-edge nodes of the same original lock keep their
    // original partial order, expressed as consecutive constraints along the
    // timing order.
    let mut order_constraints = Vec::new();
    let causal = topology.causal_nodes();
    let mut per_lock: BTreeMap<LockId, Vec<&CriticalSection>> = BTreeMap::new();
    for s in sections {
        if causal.contains(&s.id) {
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

    // Theorem 1: benign ULCPs become parallel although they touch the same
    // data; report them as potential races.
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

    TransformedTrace {
        original: Cow::Borrowed(trace),
        sections: Cow::Borrowed(sections),
        plan,
        order_constraints,
        race_warnings,
        num_aux_locks: aux_locks.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_detect::Detector;
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;

    fn analyze(build: impl FnOnce(&mut ProgramBuilder)) -> UlcpAnalysis {
        let mut b = ProgramBuilder::new("topology-test");
        build(&mut b);
        let trace = Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace;
        Detector::default().analyze(&trace)
    }

    fn mixed_workload(b: &mut ProgramBuilder) {
        let lock = b.lock("m");
        let x = b.shared("x", 0);
        let site_r = b.site("t.c", "reader", 1);
        let site_w = b.site("t.c", "writer", 2);
        b.thread("t0", |t| {
            t.locked(lock, site_r, |cs| {
                cs.read(x);
            });
            t.compute_us(20);
        });
        b.thread("t1", |t| {
            t.compute_us(2);
            t.locked(lock, site_r, |cs| {
                cs.read(x);
            });
            t.locked(lock, site_w, |cs| {
                let v = cs.read_into(x);
                cs.write_set(x, 1);
                let _ = v;
            });
        });
    }

    #[test]
    fn topology_has_one_node_per_section_and_edges_from_tlcps() {
        let analysis = analyze(mixed_workload);
        let topo = Topology::from_analysis(&analysis);
        assert_eq!(topo.nodes().len(), analysis.sections.len());
        assert_eq!(topo.edges().len(), analysis.edges.len());
        assert!(topo.is_acyclic());
        assert!(!topo.edges().is_empty());
    }

    #[test]
    fn degrees_and_sources_match_edges() {
        let analysis = analyze(mixed_workload);
        let topo = Topology::from_analysis(&analysis);
        for e in topo.edges() {
            assert!(topo.out_degree(e.from) >= 1);
            assert!(topo.in_degree(e.to) >= 1);
            assert!(topo.sources_of(e.to).contains(&e.from));
            assert!(topo.successors_of(e.from).contains(&e.to));
        }
    }

    #[test]
    fn standalone_and_causal_nodes_partition_the_graph() {
        let analysis = analyze(mixed_workload);
        let topo = Topology::from_analysis(&analysis);
        let standalone: BTreeSet<_> = topo.standalone_nodes().into_iter().collect();
        let causal = topo.causal_nodes();
        assert!(standalone.is_disjoint(&causal));
        assert_eq!(standalone.len() + causal.len(), topo.nodes().len());
    }

    #[test]
    fn pure_read_workload_has_only_standalone_nodes() {
        let analysis = analyze(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("t.c", "reader", 1);
            for i in 0..3 {
                b.thread(format!("t{i}"), |t| {
                    t.locked(lock, site, |cs| {
                        cs.read(x);
                    });
                });
            }
        });
        let topo = Topology::from_analysis(&analysis);
        assert!(topo.edges().is_empty());
        assert_eq!(topo.standalone_nodes().len(), topo.nodes().len());
        assert!(topo.causal_nodes().is_empty());
    }
}
