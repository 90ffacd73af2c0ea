//! Pairing of critical sections into ULCPs and TLCP causal edges.
//!
//! The matching procedure follows Section 3.1 of the paper: every critical
//! section is compared, per other thread, against the later critical sections
//! protected by the same lock in timing-index order ("sequential searching");
//! non-conflicting pairs encountered on the way are ULCPs, and the first true
//! contention found per thread ends the search and yields the causal edge
//! RULE 1 keeps in the ULCP-free topology.
//!
//! The engine is *snapshot-free*: instead of cloning a full shadow-memory
//! snapshot per critical section (O(sections x objects) memory), one
//! [`LastWriteIndex`] is built per trace and the reversed-replay benign check
//! fetches the footprint values it needs lazily in O(log E) each. Locks are
//! independent, so [`DetectorConfig::parallel`] fans the per-lock searches
//! out across OS threads; per-lock results are merged back in ascending lock
//! order, keeping the output bit-identical to the sequential path.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use perfplay_trace::{
    extract_critical_sections, sections_by_lock, CriticalSection, LockId, SectionId, Trace,
};
use serde::{Deserialize, Serialize};

use crate::classify::classify_pair;
use crate::kinds::{PairClass, UlcpKind};
use crate::shadow::LastWriteIndex;
use crate::sink::{CollectPairs, SectionCtx, SinkAnalysis, UlcpSink};

/// One unnecessary lock contention pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ulcp {
    /// The earlier critical section of the pair (by original timing).
    pub first: SectionId,
    /// The later critical section of the pair.
    pub second: SectionId,
    /// The lock both sections are protected by.
    pub lock: LockId,
    /// The ULCP category.
    pub kind: UlcpKind,
}

/// A causal edge between two truly conflicting critical sections (a TLCP),
/// kept by RULE 1 when the ULCP-free topology is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalEdge {
    /// Source node (earlier section).
    pub from: SectionId,
    /// Destination node (later section).
    pub to: SectionId,
    /// The lock that made the two sections contend.
    pub lock: LockId,
}

/// Per-category ULCP counts for one application — one row of Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UlcpBreakdown {
    /// Dynamic lock acquisitions in the trace (the "# Locks" column).
    pub lock_acquisitions: usize,
    /// Null-lock ULCPs.
    pub null_lock: usize,
    /// Read-read ULCPs.
    pub read_read: usize,
    /// Disjoint-write ULCPs.
    pub disjoint_write: usize,
    /// Benign ULCPs.
    pub benign: usize,
    /// True lock contention pairs (causal edges retained).
    pub tlcp_edges: usize,
}

impl UlcpBreakdown {
    /// Total number of ULCPs across all categories.
    pub fn total_ulcps(&self) -> usize {
        self.null_lock + self.read_read + self.disjoint_write + self.benign
    }

    /// Count for a specific category.
    pub fn count(&self, kind: UlcpKind) -> usize {
        match kind {
            UlcpKind::NullLock => self.null_lock,
            UlcpKind::ReadRead => self.read_read,
            UlcpKind::DisjointWrite => self.disjoint_write,
            UlcpKind::Benign => self.benign,
        }
    }

    pub(crate) fn add(&mut self, kind: UlcpKind) {
        match kind {
            UlcpKind::NullLock => self.null_lock += 1,
            UlcpKind::ReadRead => self.read_read += 1,
            UlcpKind::DisjointWrite => self.disjoint_write += 1,
            UlcpKind::Benign => self.benign += 1,
        }
    }

    /// Sums every field of another *whole-trace* breakdown into this one —
    /// the fused Table 1 row of the multi-trace batch driver. Unlike the
    /// per-lock shard merge, `lock_acquisitions` accumulates too: each input
    /// is a complete trace's count.
    pub fn merge_totals(&mut self, other: &UlcpBreakdown) {
        self.lock_acquisitions += other.lock_acquisitions;
        self.merge_pair_counts(other);
    }

    /// Accumulates another breakdown's pair counts into this one.
    /// `lock_acquisitions` is a whole-trace property, not a per-lock count,
    /// and is deliberately not summed.
    pub(crate) fn merge_pair_counts(&mut self, other: &UlcpBreakdown) {
        self.null_lock += other.null_lock;
        self.read_read += other.read_read;
        self.disjoint_write += other.disjoint_write;
        self.benign += other.benign;
        self.tlcp_edges += other.tlcp_edges;
    }
}

/// Configuration of the ULCP detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Refine conflicting pairs with the reversed-replay benign check
    /// (Section 3.1). Disabling this is the ablation the bench harness
    /// exposes: every conflict becomes a TLCP.
    pub use_reversed_replay: bool,
    /// Optional cap on how many candidate pairs are *classified* per
    /// (section, other-thread) search before the search gives up. `None`
    /// scans until the first TLCP as the paper describes.
    ///
    /// The cap counts classifications actually performed: a TLCP discovered
    /// by the cap-th classification is still recorded (the search would have
    /// stopped there anyway); only candidates *beyond* the cap go unseen.
    pub max_scan_per_thread: Option<usize>,
    /// Fan the independent per-lock searches out across OS threads. Results
    /// are merged deterministically (ascending lock order, original search
    /// order within each lock), so output is bit-identical to the
    /// sequential path.
    ///
    /// How each engine composes with this flag:
    ///
    /// | entry point | `parallel: false` | `parallel: true` |
    /// |---|---|---|
    /// | [`Detector::analyze`] / `analyze_with` | sequential per-lock loop | per-lock work-queue fan-out |
    /// | [`StreamingDetector::analyze`](crate::StreamingDetector::analyze) (+ `analyze_trace`) | streaming engine, inline on the calling thread | delegates to the threaded [`ParallelStreamingDetector`](crate::ParallelStreamingDetector) (one worker per core) |
    /// | [`StreamingDetector::analyze_with`](crate::StreamingDetector::analyze_with) (+ `analyze_trace_with`) | streaming engine, inline on the calling thread | [`StreamError::Config`](perfplay_trace::StreamError::Config) — the sink is not required to be `Send`; call the parallel detector directly |
    /// | [`ParallelStreamingDetector`](crate::ParallelStreamingDetector) | ignored — the worker count comes from the constructor: inline at 1, threaded above | ignored |
    pub parallel: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            use_reversed_replay: true,
            max_scan_per_thread: None,
            parallel: false,
        }
    }
}

/// The result of ULCP identification over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct UlcpAnalysis {
    /// Every dynamic critical section, indexed by [`SectionId::index`].
    pub sections: Vec<CriticalSection>,
    /// All unnecessary lock contention pairs found.
    pub ulcps: Vec<Ulcp>,
    /// All causal edges (true contention pairs) found.
    pub edges: Vec<CausalEdge>,
    /// Per-category counts.
    pub breakdown: UlcpBreakdown,
}

impl UlcpAnalysis {
    /// Returns the critical section for an id.
    pub fn section(&self, id: SectionId) -> &CriticalSection {
        &self.sections[id.index()]
    }

    /// Groups the ULCPs by the lock that produced them.
    pub fn ulcps_by_lock(&self) -> BTreeMap<LockId, Vec<&Ulcp>> {
        let mut map: BTreeMap<LockId, Vec<&Ulcp>> = BTreeMap::new();
        for u in &self.ulcps {
            map.entry(u.lock).or_default().push(u);
        }
        map
    }
}

/// PerfPlay's ULCP identification stage.
#[derive(Debug, Clone, Default)]
pub struct Detector {
    config: DetectorConfig,
}

impl Detector {
    /// Creates a detector with the given configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Detector { config }
    }

    /// Identifies all ULCPs and causal edges in a recorded trace,
    /// materializing every pair. Equivalent to
    /// [`analyze_with`](Self::analyze_with) into a
    /// [`CollectPairs`](crate::CollectPairs) sink.
    pub fn analyze(&self, trace: &Trace) -> UlcpAnalysis {
        let SinkAnalysis {
            sections,
            breakdown,
            sink,
        } = self.analyze_with(trace, CollectPairs::default());
        UlcpAnalysis {
            sections,
            ulcps: sink.ulcps,
            edges: sink.edges,
            breakdown,
        }
    }

    /// Identifies all ULCPs and causal edges in a recorded trace, emitting
    /// every pair through the caller's sink.
    ///
    /// The sink must be `Send + Sync` because `DetectorConfig::parallel`
    /// forks one shard per lock across worker threads; shards are absorbed
    /// back in ascending lock order, so an order-preserving sink sees the
    /// exact sequential emission order and the output is bit-identical to
    /// the sequential path.
    pub fn analyze_with<S: UlcpSink + Send + Sync>(
        &self,
        trace: &Trace,
        mut sink: S,
    ) -> SinkAnalysis<S> {
        let sections = extract_critical_sections(trace);
        // The index only feeds the reversed-replay benign check; in the
        // ablation mode (`use_reversed_replay: false`) no state is ever
        // consulted, so skip the O(E log E) build entirely.
        let index = if self.config.use_reversed_replay {
            LastWriteIndex::build(trace)
        } else {
            LastWriteIndex::default()
        };
        let by_lock = sections_by_lock(&sections);
        let locks: Vec<(LockId, Vec<&CriticalSection>)> = by_lock.into_iter().collect();

        let mut breakdown = UlcpBreakdown {
            lock_acquisitions: trace.num_acquisitions(),
            ..UlcpBreakdown::default()
        };
        if self.config.parallel && locks.len() > 1 {
            // Ascending lock order (BTreeMap order preserved in `locks`);
            // within a lock the search order itself is deterministic, so the
            // absorbed output matches the sequential path exactly.
            for (shard, shard_breakdown) in self.analyze_locks_parallel(&locks, &index, &sink) {
                sink.absorb(shard);
                breakdown.merge_pair_counts(&shard_breakdown);
            }
        } else {
            for (lock, lock_sections) in &locks {
                analyze_lock_into(
                    *lock,
                    lock_sections,
                    &index,
                    self.config,
                    &mut sink,
                    &mut breakdown,
                );
            }
        }
        sink.seal(&sections);

        SinkAnalysis {
            sections,
            breakdown,
            sink,
        }
    }

    /// Fans the per-lock searches out over a shared work queue of lock
    /// indices. Per-lock cost is wildly skewed on real workloads (one guard
    /// mutex often dominates), so workers pop the next lock instead of being
    /// handed a fixed chunk — a hot lock occupies one worker while the rest
    /// drain the remainder. Each index is processed exactly once, so sorting
    /// the collected `(index, shard)` pairs restores the deterministic
    /// ascending-lock order.
    fn analyze_locks_parallel<S: UlcpSink + Send + Sync>(
        &self,
        locks: &[(LockId, Vec<&CriticalSection>)],
        index: &LastWriteIndex,
        sink: &S,
    ) -> Vec<(S, UlcpBreakdown)> {
        let workers = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            .min(locks.len());
        let next = AtomicUsize::new(0);
        let config = self.config;
        let mut collected: Vec<(usize, S, UlcpBreakdown)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some((lock, lock_sections)) = locks.get(i) else {
                                break;
                            };
                            let mut shard = sink.fork();
                            let mut shard_breakdown = UlcpBreakdown::default();
                            analyze_lock_into(
                                *lock,
                                lock_sections,
                                index,
                                config,
                                &mut shard,
                                &mut shard_breakdown,
                            );
                            local.push((i, shard, shard_breakdown));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("detector worker never panics"))
                .collect()
        });
        collected.sort_unstable_by_key(|entry| entry.0);
        collected
            .into_iter()
            .map(|(_, shard, breakdown)| (shard, breakdown))
            .collect()
    }
}

/// Runs the sequential-search pairing for one lock's critical sections,
/// emitting every classified pair into the sink.
fn analyze_lock_into<S: UlcpSink>(
    lock: LockId,
    lock_sections: &[&CriticalSection],
    index: &LastWriteIndex,
    config: DetectorConfig,
    sink: &mut S,
    breakdown: &mut UlcpBreakdown,
) {
    // Per-thread lists in ascending thread order (the search order), each
    // preserving timing order. Section threads index the trace's thread
    // table, so the dense scratch vector is bounded by the thread count.
    let num_threads = lock_sections
        .iter()
        .map(|s| s.thread.index() + 1)
        .max()
        .unwrap_or(0);
    let mut per_thread: Vec<Vec<&CriticalSection>> = vec![Vec::new(); num_threads];
    for s in lock_sections {
        per_thread[s.thread.index()].push(s);
    }
    per_thread.retain(|others| !others.is_empty());
    // One cursor per other-thread list: the index of its first section
    // later than the current one. Currents are visited in ascending id, so
    // every cursor only moves forward and finding each search's start costs
    // amortized O(1) instead of a binary search per (section, thread).
    let mut cursors = vec![0usize; per_thread.len()];
    for current in lock_sections {
        let state_before = index.state_before(current.enter_time);
        for (others, cursor) in per_thread.iter().zip(&mut cursors) {
            if others[0].thread == current.thread {
                continue;
            }
            while others.get(*cursor).is_some_and(|s| s.id <= current.id) {
                *cursor += 1;
            }
            // `scanned` counts classifications performed; the cap stops the
            // search *before* classifying candidate `cap + 1`, never after a
            // classification whose result is still pending — so a TLCP found
            // exactly at the cap is recorded, not dropped. The counter stays
            // explicit (not `enumerate`) because "classifications performed"
            // is the unit the cap is defined in.
            let mut scanned = 0usize;
            #[allow(clippy::explicit_counter_loop)]
            for candidate in &others[*cursor..] {
                if config.max_scan_per_thread.is_some_and(|cap| scanned >= cap) {
                    break;
                }
                let class = classify_pair(
                    current,
                    candidate,
                    &state_before,
                    config.use_reversed_replay,
                );
                scanned += 1;
                let ctx = SectionCtx {
                    first: current,
                    second: candidate,
                };
                match class {
                    PairClass::Tlcp => {
                        sink.emit_edge(
                            CausalEdge {
                                from: current.id,
                                to: candidate.id,
                                lock,
                            },
                            &ctx,
                        );
                        breakdown.tlcp_edges += 1;
                        break;
                    }
                    PairClass::Ulcp(kind) => {
                        breakdown.add(kind);
                        sink.emit(
                            Ulcp {
                                first: current.id,
                                second: candidate.id,
                                lock,
                                kind,
                            },
                            &ctx,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay_program::ProgramBuilder;
    use perfplay_record::Recorder;
    use perfplay_sim::SimConfig;

    fn record(build: impl FnOnce(&mut ProgramBuilder)) -> Trace {
        let mut b = ProgramBuilder::new("detect-test");
        build(&mut b);
        Recorder::new(SimConfig::default())
            .record(&b.build())
            .unwrap()
            .trace
    }

    #[test]
    fn read_read_workload_produces_read_read_ulcps() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("rr.c", "reader", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.loop_n(3, |l| {
                        l.locked(lock, site, |cs| {
                            cs.read(x);
                            cs.compute_ns(100);
                        });
                        l.compute_ns(50);
                    });
                });
            }
        });
        let analysis = Detector::default().analyze(&trace);
        assert_eq!(analysis.breakdown.lock_acquisitions, 6);
        assert!(analysis.breakdown.read_read > 0);
        assert_eq!(analysis.breakdown.tlcp_edges, 0);
        assert_eq!(analysis.breakdown.null_lock, 0);
        assert_eq!(analysis.breakdown.total_ulcps(), analysis.ulcps.len());
        // All pairs are cross-thread and ordered by id.
        for u in &analysis.ulcps {
            assert!(u.first < u.second);
            assert_ne!(
                analysis.section(u.first).thread,
                analysis.section(u.second).thread
            );
        }
    }

    #[test]
    fn conflicting_workload_produces_tlcp_edges_not_ulcps() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("w.c", "writer", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.locked(lock, site, |cs| {
                        let v = cs.read_into(x);
                        cs.write_set(x, 1);
                        // Use the local so the read is meaningful.
                        cs.if_then(
                            perfplay_program::Cond::eq(perfplay_program::ValueSource::Local(v), 99),
                            |then| {
                                then.compute_ns(1);
                            },
                        );
                    });
                });
            }
        });
        let analysis = Detector::default().analyze(&trace);
        assert_eq!(analysis.breakdown.tlcp_edges, 1);
        assert_eq!(analysis.breakdown.total_ulcps(), 0);
        assert_eq!(analysis.edges.len(), 1);
        assert!(analysis.edges[0].from < analysis.edges[0].to);
    }

    #[test]
    fn null_lock_workload_is_classified_null() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let _x = b.shared("x", 0);
            let site = b.site("nl.c", "maybe_update", 1);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.loop_n(2, |l| {
                        // The branch on a local that is always 0 means the
                        // shared update never happens: a null-lock.
                        l.locked(lock, site, |cs| {
                            cs.compute_ns(40);
                        });
                        l.compute_ns(10);
                    });
                });
            }
        });
        let analysis = Detector::default().analyze(&trace);
        assert!(analysis.breakdown.null_lock > 0);
        assert_eq!(analysis.breakdown.tlcp_edges, 0);
    }

    #[test]
    fn disjoint_writes_under_one_lock_are_detected() {
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let y = b.shared("y", 0);
            let site_a = b.site("dw.c", "update_x", 1);
            let site_b = b.site("dw.c", "update_y", 2);
            b.thread("tx", |t| {
                t.locked(lock, site_a, |cs| {
                    cs.write_add(x, 1);
                });
            });
            b.thread("ty", |t| {
                t.locked(lock, site_b, |cs| {
                    cs.write_add(y, 1);
                });
            });
        });
        let analysis = Detector::default().analyze(&trace);
        assert_eq!(analysis.breakdown.disjoint_write, 1);
        assert_eq!(analysis.breakdown.tlcp_edges, 0);
    }

    #[test]
    fn benign_redundant_writes_need_reversed_replay() {
        let build = |b: &mut ProgramBuilder| {
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
        };
        let trace = record(build);
        let with_rr = Detector::default().analyze(&trace);
        assert_eq!(with_rr.breakdown.benign, 1);
        assert_eq!(with_rr.breakdown.tlcp_edges, 0);

        let without_rr = Detector::new(DetectorConfig {
            use_reversed_replay: false,
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        assert_eq!(without_rr.breakdown.benign, 0);
        assert_eq!(without_rr.breakdown.tlcp_edges, 1);
    }

    #[test]
    fn tlcp_stops_the_sequential_search() {
        // Thread 1 performs: read-only CS, then a writing CS, then another
        // read-only CS. Thread 0 performs one read-only CS before all of them.
        // The search from thread 0's section must stop at the writing CS, so
        // the trailing read-only CS does not form a ULCP with it.
        let trace = record(|b| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("seq.c", "f", 1);
            b.thread("t0", |t| {
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
                t.compute_us(50);
            });
            b.thread("t1", |t| {
                t.compute_us(5);
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
                t.locked(lock, site, |cs| {
                    cs.write_add(x, 1);
                    cs.read(x);
                });
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
            });
        });
        let analysis = Detector::default().analyze(&trace);
        // t0's section pairs with t1's first read-only section (ULCP), then
        // hits the writing section (TLCP edge) and stops.
        let t0_first = analysis
            .sections
            .iter()
            .find(|s| s.thread == perfplay_trace::ThreadId::new(0))
            .unwrap()
            .id;
        let ulcps_from_t0: Vec<_> = analysis
            .ulcps
            .iter()
            .filter(|u| u.first == t0_first)
            .collect();
        assert_eq!(ulcps_from_t0.len(), 1);
        let edges_from_t0: Vec<_> = analysis
            .edges
            .iter()
            .filter(|e| e.from == t0_first)
            .collect();
        assert_eq!(edges_from_t0.len(), 1);
    }

    #[test]
    fn scan_cap_limits_pairs() {
        let build = |b: &mut ProgramBuilder| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("cap.c", "reader", 1);
            b.thread("t0", |t| {
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
                t.compute_us(100);
            });
            b.thread("t1", |t| {
                t.compute_us(10);
                t.loop_n(6, |l| {
                    l.locked(lock, site, |cs| {
                        cs.read(x);
                    });
                });
            });
        };
        let trace = record(build);
        let unlimited = Detector::default().analyze(&trace);
        let capped = Detector::new(DetectorConfig {
            max_scan_per_thread: Some(2),
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        assert!(capped.breakdown.total_ulcps() < unlimited.breakdown.total_ulcps());
    }

    #[test]
    fn scan_cap_still_records_tlcp_found_at_the_cap_boundary() {
        // Thread 1's sections (after thread 0's): [read-only, writer, ...].
        // With cap = 2 the second classification is the conflicting pair —
        // the cap must not swallow that edge (the historical off-by-one
        // risk), while cap = 1 stops before ever seeing the writer.
        let build = |b: &mut ProgramBuilder| {
            let lock = b.lock("m");
            let x = b.shared("x", 0);
            let site = b.site("capedge.c", "f", 1);
            b.thread("t0", |t| {
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
                t.compute_us(100);
            });
            b.thread("t1", |t| {
                t.compute_us(10);
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
                t.locked(lock, site, |cs| {
                    cs.write_add(x, 1);
                    cs.read(x);
                });
                t.locked(lock, site, |cs| {
                    cs.read(x);
                });
            });
        };
        let trace = record(build);

        let at_cap = Detector::new(DetectorConfig {
            max_scan_per_thread: Some(2),
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        let t0_first = at_cap
            .sections
            .iter()
            .find(|s| s.thread == perfplay_trace::ThreadId::new(0))
            .unwrap()
            .id;
        assert_eq!(
            at_cap.edges.iter().filter(|e| e.from == t0_first).count(),
            1,
            "TLCP classified exactly at the cap must be recorded"
        );
        assert_eq!(
            at_cap.ulcps.iter().filter(|u| u.first == t0_first).count(),
            1
        );

        let below_cap = Detector::new(DetectorConfig {
            max_scan_per_thread: Some(1),
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        assert_eq!(
            below_cap
                .edges
                .iter()
                .filter(|e| e.from == t0_first)
                .count(),
            0,
            "cap = 1 stops the search before the writer is ever classified"
        );
        assert_eq!(
            below_cap
                .ulcps
                .iter()
                .filter(|u| u.first == t0_first)
                .count(),
            1
        );
    }

    #[test]
    fn parallel_analysis_is_bit_identical_to_sequential() {
        let trace = record(|b| {
            let locks: Vec<_> = (0..4).map(|i| b.lock(format!("l{i}"))).collect();
            let objs: Vec<_> = (0..4).map(|i| b.shared(format!("o{i}"), 0)).collect();
            let site = b.site("par.c", "worker", 1);
            for i in 0..3 {
                let locks = locks.clone();
                let objs = objs.clone();
                b.thread(format!("t{i}"), |t| {
                    for k in 0..4 {
                        t.locked(locks[k], site, |cs| {
                            if k % 2 == 0 {
                                cs.read(objs[k]);
                            } else {
                                cs.write_add(objs[k], 1);
                            }
                            cs.compute_ns(30);
                        });
                        t.compute_ns(20);
                    }
                });
            }
        });
        let sequential = Detector::default().analyze(&trace);
        let parallel = Detector::new(DetectorConfig {
            parallel: true,
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        assert_eq!(sequential.breakdown, parallel.breakdown);
        assert_eq!(sequential.ulcps, parallel.ulcps);
        assert_eq!(sequential.edges, parallel.edges);
        assert_eq!(sequential.sections, parallel.sections);
    }

    #[test]
    fn parallel_matches_sequential_on_a_skewed_hot_lock() {
        // One guard mutex takes almost every section (the common real-world
        // shape); the work-queue fan-out must still merge deterministically.
        let trace = record(|b| {
            let hot = b.lock("guard");
            let cold = b.lock("side");
            let x = b.shared("x", 0);
            let y = b.shared("y", 0);
            let site = b.site("skew.c", "worker", 1);
            for i in 0..3 {
                b.thread(format!("t{i}"), |t| {
                    t.loop_n(8, |l| {
                        l.locked(hot, site, |cs| {
                            cs.read(x);
                            if i == 0 {
                                cs.write_add(x, 1);
                            }
                        });
                        l.compute_ns(15);
                    });
                    t.locked(cold, site, |cs| {
                        cs.read(y);
                    });
                });
            }
        });
        let sequential = Detector::default().analyze(&trace);
        let parallel = Detector::new(DetectorConfig {
            parallel: true,
            ..DetectorConfig::default()
        })
        .analyze(&trace);
        assert_eq!(sequential.breakdown, parallel.breakdown);
        assert_eq!(sequential.ulcps, parallel.ulcps);
        assert_eq!(sequential.edges, parallel.edges);
    }

    #[test]
    fn ulcps_by_lock_groups_pairs() {
        let trace = record(|b| {
            let l0 = b.lock("a");
            let l1 = b.lock("b");
            let x = b.shared("x", 0);
            let y = b.shared("y", 0);
            let s0 = b.site("g.c", "fa", 1);
            let s1 = b.site("g.c", "fb", 2);
            for i in 0..2 {
                b.thread(format!("t{i}"), |t| {
                    t.locked(l0, s0, |cs| {
                        cs.read(x);
                    });
                    t.locked(l1, s1, |cs| {
                        cs.read(y);
                    });
                });
            }
        });
        let analysis = Detector::default().analyze(&trace);
        let grouped = analysis.ulcps_by_lock();
        assert_eq!(grouped.len(), 2);
        assert!(grouped.values().all(|v| v.len() == 1));
    }
}
