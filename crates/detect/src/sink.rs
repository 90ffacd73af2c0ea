//! Sink-based pair emission: where detection output goes.
//!
//! Every detection engine in this crate — the batch [`Detector`], the
//! streaming engine (inline through [`StreamingDetector`], threaded through
//! [`ParallelStreamingDetector`]) and the naive [`reference_analyze`] —
//! emits each classified pair through a [`UlcpSink`] instead of pushing into
//! a hard-wired `Vec`. The sink decides what to keep:
//!
//! * [`CollectPairs`] materializes every [`Ulcp`] and [`CausalEdge`],
//!   reproducing the historical [`UlcpAnalysis`] bit-for-bit. Memory is
//!   O(pairs) — on dense traces the pair list dwarfs every other term
//!   (153M pairs on the 12M-event acceptance workload).
//! * [`SiteAggregator`] folds each pair at emission time into a
//!   per-(first-site, second-site, kind) aggregate with saturating counts and
//!   gains — the seeds of the report layer's Algorithm 2 fusion — keeping
//!   memory O(code sites) regardless of how many dynamic pairs the scan
//!   classifies. Rows are hashed by site ids, so each pair costs one
//!   expected-O(1) probe; the ascending key order of [`SiteAggregates`] is
//!   restored once, by sorting in [`SiteAggregator::finish`].
//!
//! Emission order is engine-specific (the streaming engine emits each lock's
//! pairs into its own forked lane in per-chunk sweep order, the batch and
//! reference engines in canonical order); [`UlcpSink::seal`] runs once at
//! the end of every analysis so order-sensitive sinks can restore the
//! canonical `(lock, first, second-thread, second)` order. Order-insensitive
//! sinks (saturating-add folds are commutative and associative) ignore it.
//!
//! [`Detector`]: crate::Detector
//! [`StreamingDetector`]: crate::StreamingDetector
//! [`ParallelStreamingDetector`]: crate::ParallelStreamingDetector
//! [`reference_analyze`]: crate::reference_analyze
//! [`UlcpAnalysis`]: crate::UlcpAnalysis

use std::collections::HashMap;

use perfplay_trace::{CodeSiteId, CriticalSection, SectionId, ThreadId, Time};
use serde::{Deserialize, Serialize};

use crate::id_hash::IdBuildHasher;
use crate::kinds::UlcpKind;
use crate::pairing::{CausalEdge, Ulcp, UlcpBreakdown};

/// The classification context of one emitted pair: borrowed views of the two
/// critical sections, so sinks can attribute the pair (code sites, costs,
/// threads) without a section-table lookup of their own.
#[derive(Debug, Clone, Copy)]
pub struct SectionCtx<'a> {
    /// The earlier critical section of the pair.
    pub first: &'a CriticalSection,
    /// The later critical section of the pair.
    pub second: &'a CriticalSection,
}

/// Consumer of the detection engines' pair stream.
///
/// Engines call [`emit`](Self::emit) for every ULCP and
/// [`emit_edge`](Self::emit_edge) for every causal edge (TLCP), then
/// [`seal`](Self::seal) exactly once when the scan is complete. The
/// streaming engine (inline and threaded) additionally builds one shard per
/// lock with [`fork`](Self::fork) and merges them back — in ascending lock
/// order, so the merged output is deterministic — with
/// [`absorb`](Self::absorb). The sink passed to the inline streaming engine
/// never leaves the calling thread and need not be `Send`.
pub trait UlcpSink {
    /// Receives one unnecessary lock contention pair.
    fn emit(&mut self, ulcp: Ulcp, ctx: &SectionCtx<'_>);

    /// Receives one pair together with the second section's thread, which
    /// the caller already knows without a section-table access. The default
    /// forwards to [`emit`](Self::emit) and ignores the thread; sinks that
    /// capture it at emission time (to build the canonical sort key later)
    /// override this so the per-pair hot path never touches the section
    /// rows. Implementations must behave exactly like `emit` — the thread
    /// is `ctx.second.thread`, passed separately purely as an optimization.
    fn emit_threaded(&mut self, ulcp: Ulcp, second_thread: ThreadId, ctx: &SectionCtx<'_>) {
        let _ = second_thread;
        self.emit(ulcp, ctx);
    }

    /// Receives one causal edge (true lock contention pair).
    fn emit_edge(&mut self, edge: CausalEdge, ctx: &SectionCtx<'_>);

    /// Creates an empty sink of the same kind (carrying this sink's
    /// configuration) for one per-lock shard.
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Merges a shard produced by [`fork`](Self::fork) into this sink.
    /// Shards are absorbed in ascending lock order, each holding its pairs in
    /// emission order, so order-preserving sinks reconstruct the exact
    /// sequential output.
    fn absorb(&mut self, shard: Self)
    where
        Self: Sized;

    /// Renumbers recorded section ids after the streaming engine compacts
    /// never-closed placeholder sections away. `remap[old.index()]` is the
    /// new id, or `None` for a dropped section (dropped sections are never
    /// part of an emitted pair). The default is a no-op for sinks that do not
    /// retain section ids.
    fn remap_sections(&mut self, remap: &[Option<SectionId>]) {
        let _ = remap;
    }

    /// Called exactly once when the scan is complete, with the final section
    /// table. Sinks that guarantee the canonical output order restore it
    /// here; the default is a no-op.
    fn seal(&mut self, sections: &[CriticalSection]) {
        let _ = sections;
    }

    /// Number of entries the sink currently holds resident — pairs for a
    /// collecting sink, table rows for an aggregating one. The streaming
    /// engine samples this for its peak-memory accounting.
    fn resident_entries(&self) -> usize;
}

/// Two sinks fed side by side — e.g. an aggregator plus an edge collector.
impl<A: UlcpSink, B: UlcpSink> UlcpSink for (A, B) {
    fn emit(&mut self, ulcp: Ulcp, ctx: &SectionCtx<'_>) {
        self.0.emit(ulcp, ctx);
        self.1.emit(ulcp, ctx);
    }

    fn emit_threaded(&mut self, ulcp: Ulcp, second_thread: ThreadId, ctx: &SectionCtx<'_>) {
        self.0.emit_threaded(ulcp, second_thread, ctx);
        self.1.emit_threaded(ulcp, second_thread, ctx);
    }

    fn emit_edge(&mut self, edge: CausalEdge, ctx: &SectionCtx<'_>) {
        self.0.emit_edge(edge, ctx);
        self.1.emit_edge(edge, ctx);
    }

    fn fork(&self) -> Self {
        (self.0.fork(), self.1.fork())
    }

    fn absorb(&mut self, shard: Self) {
        self.0.absorb(shard.0);
        self.1.absorb(shard.1);
    }

    fn remap_sections(&mut self, remap: &[Option<SectionId>]) {
        self.0.remap_sections(remap);
        self.1.remap_sections(remap);
    }

    fn seal(&mut self, sections: &[CriticalSection]) {
        self.0.seal(sections);
        self.1.seal(sections);
    }

    fn resident_entries(&self) -> usize {
        self.0.resident_entries() + self.1.resident_entries()
    }
}

/// The materializing sink: collects every pair and edge, reproducing the
/// historical `UlcpAnalysis` vectors bit-identically. Memory is O(pairs).
#[derive(Debug, Clone, Default)]
pub struct CollectPairs {
    /// All unnecessary lock contention pairs, in canonical order after
    /// [`seal`](UlcpSink::seal).
    pub ulcps: Vec<Ulcp>,
    /// All causal edges, in canonical order after [`seal`](UlcpSink::seal).
    pub edges: Vec<CausalEdge>,
}

impl UlcpSink for CollectPairs {
    fn emit(&mut self, ulcp: Ulcp, _ctx: &SectionCtx<'_>) {
        self.ulcps.push(ulcp);
    }

    fn emit_edge(&mut self, edge: CausalEdge, _ctx: &SectionCtx<'_>) {
        self.edges.push(edge);
    }

    fn fork(&self) -> Self {
        CollectPairs::default()
    }

    fn absorb(&mut self, shard: Self) {
        self.ulcps.extend(shard.ulcps);
        self.edges.extend(shard.edges);
    }

    fn remap_sections(&mut self, remap: &[Option<SectionId>]) {
        let map = |id: SectionId| remap[id.index()].expect("paired section survives compaction");
        for u in &mut self.ulcps {
            u.first = map(u.first);
            u.second = map(u.second);
        }
        for e in &mut self.edges {
            e.from = map(e.from);
            e.to = map(e.to);
        }
    }

    /// Restores the canonical order: ascending lock, then the first section's
    /// timing index, then the candidate's thread, then the candidate's timing
    /// index. The batch engines already emit in exactly this order, so for
    /// them the sort is a detected-sorted-run no-op; the streaming engine
    /// emits in delivery order and relies on it.
    fn seal(&mut self, sections: &[CriticalSection]) {
        self.ulcps.sort_unstable_by_key(|u| {
            (u.lock, u.first, sections[u.second.index()].thread, u.second)
        });
        self.edges
            .sort_unstable_by_key(|e| (e.lock, e.from, sections[e.to.index()].thread, e.to));
    }

    fn resident_entries(&self) -> usize {
        self.ulcps.len() + self.edges.len()
    }
}

/// A per-pair performance-gain evaluator, consulted by [`SiteAggregator`] at
/// emission time. Must be a pure function of the pair and its sections, so
/// aggregation stays order-independent.
pub trait GainSource {
    /// The gain attributed to one pair, in nanoseconds. Negative gains are
    /// clamped at zero before accumulation, mirroring the report layer's
    /// treatment of Equation 1 gains.
    fn pair_gain_ns(&self, ulcp: &Ulcp, ctx: &SectionCtx<'_>) -> i64;
}

/// Attributes no gain to any pair: the aggregator degenerates to pure
/// per-site pair counting (the Table 1 shape).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGain;

impl GainSource for NoGain {
    fn pair_gain_ns(&self, _ulcp: &Ulcp, _ctx: &SectionCtx<'_>) -> i64 {
        0
    }
}

/// A detection-time gain proxy: the smaller of the two section bodies, i.e.
/// the serialization the pair could at most have cost if the two bodies had
/// otherwise run fully in parallel. Needs no replay, so a detection-only run
/// can still rank site pairs by optimization opportunity.
#[derive(Debug, Clone, Copy, Default)]
pub struct BodyOverlapGain;

impl GainSource for BodyOverlapGain {
    fn pair_gain_ns(&self, _ulcp: &Ulcp, ctx: &SectionCtx<'_>) -> i64 {
        let overlap: Time = ctx.first.body_cost.min(ctx.second.body_cost);
        i64::try_from(overlap.as_nanos()).unwrap_or(i64::MAX)
    }
}

/// One row of the aggregate table: every dynamic ULCP of one kind between one
/// (unordered) pair of code sites, collapsed into a count and a gain sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteAggregate {
    /// The smaller code site of the pair (sites are normalized so
    /// `site_first <= site_second`, matching the report layer's fusion
    /// seeds).
    pub site_first: CodeSiteId,
    /// The larger code site of the pair.
    pub site_second: CodeSiteId,
    /// The ULCP category.
    pub kind: UlcpKind,
    /// Dynamic pairs folded into this row (saturating).
    pub dynamic_pairs: u64,
    /// Accumulated clamped gain in nanoseconds (saturating).
    pub gain_ns: u64,
}

/// One row of the edge aggregate table: every causal edge between one
/// (unordered) pair of code sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeAggregate {
    /// The smaller code site of the pair.
    pub site_first: CodeSiteId,
    /// The larger code site of the pair.
    pub site_second: CodeSiteId,
    /// Causal edges folded into this row (saturating).
    pub edges: u64,
}

/// The finished output of a [`SiteAggregator`] run: the per-site ULCP and
/// edge tables in ascending key order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteAggregates {
    /// Per-(site, site, kind) ULCP aggregates, ascending key order.
    pub ulcps: Vec<SiteAggregate>,
    /// Per-(site, site) causal-edge aggregates, ascending key order.
    pub edges: Vec<EdgeAggregate>,
}

impl SiteAggregates {
    /// Total dynamic ULCPs across all rows (saturating).
    pub fn total_pairs(&self) -> u64 {
        self.ulcps
            .iter()
            .fold(0u64, |acc, a| acc.saturating_add(a.dynamic_pairs))
    }

    /// Total accumulated gain across all rows (saturating).
    pub fn total_gain_ns(&self) -> u64 {
        self.ulcps
            .iter()
            .fold(0u64, |acc, a| acc.saturating_add(a.gain_ns))
    }

    /// Number of rows across both tables.
    pub fn len(&self) -> usize {
        self.ulcps.len() + self.edges.len()
    }

    /// Returns true if no pair or edge was ever aggregated.
    pub fn is_empty(&self) -> bool {
        self.ulcps.is_empty() && self.edges.is_empty()
    }

    /// Fuses another aggregate table into this one with saturating addition,
    /// keeping ascending key order. Saturating add is commutative and
    /// associative, so merging N tables yields the identical result in any
    /// order — the property the multi-trace batch driver relies on to fuse
    /// concurrently-analyzed traces deterministically.
    pub fn merge(&mut self, other: &SiteAggregates) {
        let mut fused = SiteAggregator::new(NoGain);
        fused.add_rows(self);
        fused.add_rows(other);
        *self = fused.finish();
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PairCell {
    pairs: u64,
    gain_ns: u64,
}

/// The aggregating sink: folds each emitted pair into a per-(first-site,
/// second-site, kind) row at emission time, keeping memory O(code sites)
/// instead of O(pairs).
///
/// Rows live in hash maps keyed by site ids (the crate's multiplicative id
/// hasher), so folding one pair is an expected O(1) probe however many rows
/// the table holds. Site ids in chunk files are untrusted: a colliding id set
/// only lengthens probes, and the table never holds more than one entry per
/// row. [`finish`](Self::finish) sorts the rows once into the ascending key
/// order [`SiteAggregates`] promises.
///
/// Counts and gains accumulate with saturating addition, which is commutative
/// and associative (the result is `min(true sum, u64::MAX)`), so the
/// aggregate is independent of emission and absorption order — the batch
/// and streaming engines, inline or threaded, all produce the identical
/// table.
#[derive(Debug, Clone, Default)]
pub struct SiteAggregator<G: GainSource = NoGain> {
    gain: G,
    pairs: HashMap<PairKey, PairCell, IdBuildHasher>,
    edges: HashMap<EdgeKey, u64, IdBuildHasher>,
}

/// `(site_first, site_second, kind)` of one ULCP row.
type PairKey = (CodeSiteId, CodeSiteId, UlcpKind);

/// `(site_first, site_second)` of one edge row.
type EdgeKey = (CodeSiteId, CodeSiteId);

/// Unordered site-pair key, normalized exactly as the report layer's fusion
/// seeds are.
fn site_key(ctx: &SectionCtx<'_>) -> EdgeKey {
    let (a, b) = (ctx.first.site, ctx.second.site);
    if a.raw() <= b.raw() {
        (a, b)
    } else {
        (b, a)
    }
}

impl<G: GainSource> SiteAggregator<G> {
    /// Creates an aggregator using the given gain source.
    pub fn new(gain: G) -> Self {
        SiteAggregator {
            gain,
            pairs: HashMap::default(),
            edges: HashMap::default(),
        }
    }

    /// Consumes the aggregator into its finished tables, sorted into
    /// ascending key order (keys are unique, so the order is total).
    pub fn finish(self) -> SiteAggregates {
        let mut ulcps: Vec<SiteAggregate> = self
            .pairs
            .into_iter()
            .map(|((site_first, site_second, kind), cell)| SiteAggregate {
                site_first,
                site_second,
                kind,
                dynamic_pairs: cell.pairs,
                gain_ns: cell.gain_ns,
            })
            .collect();
        ulcps.sort_unstable_by_key(|row| (row.site_first, row.site_second, row.kind));
        let mut edges: Vec<EdgeAggregate> = self
            .edges
            .into_iter()
            .map(|((site_first, site_second), edges)| EdgeAggregate {
                site_first,
                site_second,
                edges,
            })
            .collect();
        edges.sort_unstable_by_key(|row| (row.site_first, row.site_second));
        SiteAggregates { ulcps, edges }
    }

    fn add_cell(&mut self, key: PairKey, pairs: u64, gain_ns: u64) {
        let cell = self.pairs.entry(key).or_default();
        cell.pairs = cell.pairs.saturating_add(pairs);
        cell.gain_ns = cell.gain_ns.saturating_add(gain_ns);
    }

    fn add_edges(&mut self, key: EdgeKey, edges: u64) {
        let count = self.edges.entry(key).or_default();
        *count = count.saturating_add(edges);
    }

    /// Folds every row of a finished table back in.
    fn add_rows(&mut self, table: &SiteAggregates) {
        for row in &table.ulcps {
            let key = (row.site_first, row.site_second, row.kind);
            self.add_cell(key, row.dynamic_pairs, row.gain_ns);
        }
        for row in &table.edges {
            self.add_edges((row.site_first, row.site_second), row.edges);
        }
    }
}

impl<G: GainSource + Clone> UlcpSink for SiteAggregator<G> {
    fn emit(&mut self, ulcp: Ulcp, ctx: &SectionCtx<'_>) {
        let (site_first, site_second) = site_key(ctx);
        let gain = self.gain.pair_gain_ns(&ulcp, ctx).max(0) as u64;
        self.add_cell((site_first, site_second, ulcp.kind), 1, gain);
    }

    fn emit_edge(&mut self, _edge: CausalEdge, ctx: &SectionCtx<'_>) {
        self.add_edges(site_key(ctx), 1);
    }

    fn fork(&self) -> Self {
        SiteAggregator::new(self.gain.clone())
    }

    fn absorb(&mut self, shard: Self) {
        for (key, cell) in shard.pairs {
            self.add_cell(key, cell.pairs, cell.gain_ns);
        }
        for (key, count) in shard.edges {
            self.add_edges(key, count);
        }
    }

    fn resident_entries(&self) -> usize {
        self.pairs.len() + self.edges.len()
    }
}

/// The result of running a detection engine into a caller-supplied sink: the
/// section table, the per-category breakdown (which every engine maintains
/// independently of the sink), and the sink itself.
#[derive(Debug, Clone)]
pub struct SinkAnalysis<S> {
    /// Every dynamic critical section, indexed by `SectionId::index`.
    pub sections: Vec<CriticalSection>,
    /// Per-category pair counts.
    pub breakdown: UlcpBreakdown,
    /// The sink, holding whatever it retained of the pair stream.
    pub sink: S,
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_trace::{Footprint, LockId, ThreadId};

    fn section(id: u32, thread: u32, site: u32, body_ns: u64) -> CriticalSection {
        CriticalSection {
            id: SectionId::new(id),
            thread: ThreadId::new(thread),
            lock: LockId::new(0),
            site: CodeSiteId::new(site),
            acquire_index: 0,
            release_index: 1,
            enter_time: Time::from_nanos(u64::from(id) * 10),
            exit_time: Time::from_nanos(u64::from(id) * 10 + 5),
            reads: Footprint::new(),
            writes: Footprint::new(),
            accesses: Vec::new(),
            body_cost: Time::from_nanos(body_ns),
            depth: 0,
        }
    }

    fn ulcp(first: u32, second: u32, kind: UlcpKind) -> Ulcp {
        Ulcp {
            first: SectionId::new(first),
            second: SectionId::new(second),
            lock: LockId::new(0),
            kind,
        }
    }

    #[test]
    fn aggregator_normalizes_site_pairs_and_saturates() {
        let a = section(0, 0, 7, 100);
        let b = section(1, 1, 3, 40);
        let mut agg = SiteAggregator::new(BodyOverlapGain);
        // Emit the same site pair in both orientations; they must land in
        // one row keyed (3, 7).
        agg.emit(
            ulcp(0, 1, UlcpKind::ReadRead),
            &SectionCtx {
                first: &a,
                second: &b,
            },
        );
        agg.emit(
            ulcp(1, 0, UlcpKind::ReadRead),
            &SectionCtx {
                first: &b,
                second: &a,
            },
        );
        let out = agg.finish();
        assert_eq!(out.ulcps.len(), 1);
        let row = &out.ulcps[0];
        assert_eq!(row.site_first, CodeSiteId::new(3));
        assert_eq!(row.site_second, CodeSiteId::new(7));
        assert_eq!(row.dynamic_pairs, 2);
        assert_eq!(row.gain_ns, 80, "min(100, 40) twice");
        assert_eq!(out.total_pairs(), 2);
        assert_eq!(out.total_gain_ns(), 80);
    }

    #[test]
    fn aggregator_gain_accumulation_saturates() {
        struct Huge;
        impl GainSource for Huge {
            fn pair_gain_ns(&self, _: &Ulcp, _: &SectionCtx<'_>) -> i64 {
                i64::MAX
            }
        }
        impl Clone for Huge {
            fn clone(&self) -> Self {
                Huge
            }
        }
        let a = section(0, 0, 1, 0);
        let b = section(1, 1, 1, 0);
        let ctx = SectionCtx {
            first: &a,
            second: &b,
        };
        let mut agg = SiteAggregator::new(Huge);
        for _ in 0..3 {
            agg.emit(ulcp(0, 1, UlcpKind::Benign), &ctx);
        }
        let out = agg.finish();
        assert_eq!(out.ulcps[0].gain_ns, u64::MAX);
        assert_eq!(out.total_gain_ns(), u64::MAX);
    }

    #[test]
    fn aggregator_absorb_matches_single_sink() {
        let secs: Vec<_> = (0..4)
            .map(|i| section(i, i % 2, i % 3, 10 * u64::from(i + 1)))
            .collect();
        let emit_all = |sink: &mut SiteAggregator<BodyOverlapGain>, lo: usize, hi: usize| {
            for i in lo..hi {
                for j in (i + 1)..hi {
                    let ctx = SectionCtx {
                        first: &secs[i],
                        second: &secs[j],
                    };
                    sink.emit(ulcp(i as u32, j as u32, UlcpKind::NullLock), &ctx);
                    sink.emit_edge(
                        CausalEdge {
                            from: secs[i].id,
                            to: secs[j].id,
                            lock: LockId::new(0),
                        },
                        &ctx,
                    );
                }
            }
        };
        let mut single = SiteAggregator::new(BodyOverlapGain);
        emit_all(&mut single, 0, 4);

        let mut merged = SiteAggregator::new(BodyOverlapGain);
        let mut shard_a = merged.fork();
        let mut shard_b = merged.fork();
        emit_all(&mut shard_a, 0, 4);
        // Split differently: re-emit nothing into b, everything into a —
        // then also test a genuine split.
        emit_all(&mut shard_b, 0, 0);
        merged.absorb(shard_a);
        merged.absorb(shard_b);
        assert_eq!(single.finish(), merged.finish());
    }

    #[test]
    fn tuple_sink_feeds_both_components() {
        let a = section(0, 0, 1, 5);
        let b = section(1, 1, 2, 5);
        let ctx = SectionCtx {
            first: &a,
            second: &b,
        };
        let mut sink = (CollectPairs::default(), SiteAggregator::new(NoGain));
        sink.emit(ulcp(0, 1, UlcpKind::ReadRead), &ctx);
        sink.emit_edge(
            CausalEdge {
                from: a.id,
                to: b.id,
                lock: LockId::new(0),
            },
            &ctx,
        );
        assert_eq!(sink.0.ulcps.len(), 1);
        assert_eq!(sink.0.edges.len(), 1);
        assert_eq!(sink.resident_entries(), 2 + 2);
        let sections = vec![a, b];
        sink.seal(&sections);
        let aggregates = sink.1.finish();
        assert_eq!(aggregates.ulcps.len(), 1);
        assert_eq!(aggregates.edges.len(), 1);
        assert!(!aggregates.is_empty());
        assert_eq!(aggregates.len(), 2);
    }

    #[test]
    fn collect_pairs_seal_restores_canonical_order() {
        // Emit out of order (as the streaming engine may) and seal.
        let secs = vec![
            section(0, 0, 1, 5),
            section(1, 1, 2, 5),
            section(2, 1, 2, 5),
        ];
        let mut sink = CollectPairs::default();
        let ctx02 = SectionCtx {
            first: &secs[0],
            second: &secs[2],
        };
        let ctx01 = SectionCtx {
            first: &secs[0],
            second: &secs[1],
        };
        sink.emit(ulcp(0, 2, UlcpKind::ReadRead), &ctx02);
        sink.emit(ulcp(0, 1, UlcpKind::ReadRead), &ctx01);
        sink.seal(&secs);
        assert_eq!(sink.ulcps[0].second, SectionId::new(1));
        assert_eq!(sink.ulcps[1].second, SectionId::new(2));
    }
}
