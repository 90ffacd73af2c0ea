//! Property tests: the scan-time `SiteAggregator` reproduces the report
//! layer's per-pair fusion exactly — group for group, count for count,
//! saturated gain for saturated gain — across random workloads, detector
//! configurations and gain sources, and the aggregate-seeded `PerfReport`
//! path is identical to the materializing one. The table itself is pinned
//! order-independent: any emission order and any fork/absorb split of one
//! pair stream finish into the identical, strictly ascending table.

use proptest::prelude::*;

use perfplay_detect::{
    BodyOverlapGain, CausalEdge, Detector, DetectorConfig, GainSource, NoGain,
    ParallelStreamingDetector, SectionCtx, SiteAggregates, SiteAggregator, StreamingDetector, Ulcp,
    UlcpAnalysis, UlcpKind, UlcpSink,
};
use perfplay_record::Recorder;
use perfplay_replay::{ReplaySchedule, Replayer, UlcpFreeReplayer};
use perfplay_report::{
    fuse_aggregates, fuse_ulcp_gains, rank_groups, PerfReport, ReplayGains, UlcpGain,
};
use perfplay_sim::SimConfig;
use perfplay_trace::{
    CodeSiteId, CriticalSection, Footprint, LockId, SectionId, ThreadId, Time, Trace,
};
use perfplay_transform::Transformer;
use perfplay_workloads::{random_workload, GeneratorConfig};

/// A gain source large enough that a handful of pairs saturates the u64
/// accumulators — exercising the saturating-sum equivalence.
#[derive(Clone, Copy)]
struct HugeGain;

impl GainSource for HugeGain {
    fn pair_gain_ns(&self, _: &Ulcp, _: &SectionCtx<'_>) -> i64 {
        i64::MAX
    }
}

/// A gain source that varies per pair (and goes negative, exercising the
/// clamp), so group sums genuinely depend on which pairs fold where.
#[derive(Clone, Copy)]
struct PairHashGain;

impl GainSource for PairHashGain {
    fn pair_gain_ns(&self, ulcp: &Ulcp, _: &SectionCtx<'_>) -> i64 {
        let mix = (ulcp.first.index() as i64 * 31 + ulcp.second.index() as i64 * 7)
            .wrapping_mul(2654435761);
        mix % 10_007 - 1_000
    }
}

fn generator_config() -> impl Strategy<Value = GeneratorConfig> {
    (2usize..5, 1usize..4, 2usize..6, 4u32..14).prop_map(
        |(threads, locks, objects, sections_per_thread)| GeneratorConfig {
            threads,
            locks,
            objects,
            sections_per_thread,
        },
    )
}

fn detector_configs() -> impl Strategy<Value = DetectorConfig> {
    (0u32..2, 0usize..4, 0u32..2).prop_map(|(ablate, cap, parallel)| DetectorConfig {
        use_reversed_replay: ablate == 0,
        max_scan_per_thread: if cap == 0 { None } else { Some(cap) },
        parallel: parallel == 1,
    })
}

fn record(seed: u64, config: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, config);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

/// Per-pair gains computed by the same source the aggregator uses, streamed
/// into the pair-path fusion.
fn pair_path_groups<G: GainSource>(
    analysis: &UlcpAnalysis,
    gain: &G,
) -> Vec<perfplay_report::GroupedUlcp> {
    fuse_ulcp_gains(
        analysis,
        analysis.ulcps.iter().map(|u| UlcpGain {
            ulcp: *u,
            gain_ns: gain.pair_gain_ns(
                u,
                &SectionCtx {
                    first: analysis.section(u.first),
                    second: analysis.section(u.second),
                },
            ),
        }),
    )
}

fn assert_aggregates_match<G: GainSource + Clone + Send>(
    trace: &Trace,
    config: DetectorConfig,
    gain: G,
) -> Result<(), TestCaseError> {
    let analysis = Detector::new(config).analyze(trace);
    let from_pairs = pair_path_groups(&analysis, &gain);

    let batch = Detector::new(config).analyze_with(trace, SiteAggregator::new(gain.clone()));
    prop_assert_eq!(batch.breakdown, analysis.breakdown);
    let aggregates = batch.sink.finish();
    let from_aggregates = fuse_aggregates(&aggregates);
    prop_assert_eq!(&from_aggregates, &from_pairs);

    // The per-kind aggregate totals are exactly the breakdown counts.
    for kind in UlcpKind::ALL {
        let total: u64 = aggregates
            .ulcps
            .iter()
            .filter(|row| row.kind == kind)
            .map(|row| row.dynamic_pairs)
            .sum();
        prop_assert_eq!(total as usize, analysis.breakdown.count(kind));
    }
    let edge_total: u64 = aggregates.edges.iter().map(|row| row.edges).sum();
    prop_assert_eq!(edge_total as usize, analysis.breakdown.tlcp_edges);

    // The streaming engine, inline and threaded, folds into the identical
    // table regardless of chunking (its emission order differs; saturating
    // folds commute). Neither engine reads `parallel`.
    let streamed = StreamingDetector::new(config)
        .analyze_trace_with(trace, 7, SiteAggregator::new(gain.clone()))
        .unwrap();
    prop_assert_eq!(streamed.breakdown, analysis.breakdown);
    let streamed_table = streamed.sink.finish();
    prop_assert_eq!(&streamed_table, &aggregates);
    let parallel = ParallelStreamingDetector::with_workers(config, 3)
        .analyze_trace_with(trace, 7, SiteAggregator::new(gain))
        .unwrap();
    prop_assert_eq!(parallel.breakdown, analysis.breakdown);
    let parallel_table = parallel.sink.finish();
    prop_assert_eq!(&parallel_table, &aggregates);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `SiteAggregator` output equals `fuse_ulcps` over the collected pair
    /// list — groups, counts, kinds and saturated gains — for every engine,
    /// workload, detector config and gain source.
    #[test]
    fn site_aggregator_matches_per_pair_fusion(
        seed in 0u64..5_000,
        gen in generator_config(),
        config in detector_configs(),
        gain_mode in 0u32..4,
    ) {
        let trace = record(seed, &gen);
        match gain_mode {
            0 => assert_aggregates_match(&trace, config, NoGain)?,
            1 => assert_aggregates_match(&trace, config, BodyOverlapGain)?,
            2 => assert_aggregates_match(&trace, config, HugeGain)?,
            _ => assert_aggregates_match(&trace, config, PairHashGain)?,
        }
    }
}

/// The aggregate-seeded report path (`PerfReport::from_aggregates`, fed by a
/// `SiteAggregator<ReplayGains>` second pass) produces the identical report
/// the materializing path (`PerfReport::build`) does: same recommendations,
/// same impact split, same rendering.
#[test]
fn report_from_aggregates_matches_build() {
    let trace = record(
        23,
        &GeneratorConfig {
            threads: 3,
            locks: 2,
            objects: 4,
            sections_per_thread: 10,
        },
    );
    let config = DetectorConfig::default();
    let analysis = Detector::new(config).analyze(&trace);
    let transformed = Transformer::default().transform(&trace, &analysis);
    let original = Replayer::default()
        .replay(&trace, ReplaySchedule::elsc())
        .unwrap();
    let free = UlcpFreeReplayer::default().replay(&transformed).unwrap();
    let built = PerfReport::build(&trace, &analysis, &transformed, &original, &free);

    // Second detection pass with the aggregating sink: Equation 1 gains are
    // folded per site pair at emission time; no pair list exists.
    let gains = ReplayGains::new(&trace, &original, &free);
    let aggregated = Detector::new(config).analyze_with(&trace, SiteAggregator::new(gains));
    assert_eq!(aggregated.breakdown, analysis.breakdown);
    let aggregates: SiteAggregates = aggregated.sink.finish();
    let from_aggregates = PerfReport::from_aggregates(
        &trace,
        aggregated.breakdown,
        &aggregates,
        &transformed,
        &original,
        &free,
    );

    assert_eq!(from_aggregates.recommendations, built.recommendations);
    assert_eq!(from_aggregates.impact, built.impact);
    assert_eq!(from_aggregates.breakdown, built.breakdown);
    assert_eq!(from_aggregates.render(&trace), built.render(&trace));
    assert_eq!(from_aggregates, built);

    // And the ranking path from aggregates is the ranking path from pairs.
    let ranked_pairs = rank_groups(pair_path_groups(&analysis, &gains));
    let ranked_aggregates = rank_groups(fuse_aggregates(&aggregates));
    assert_eq!(ranked_pairs, ranked_aggregates);
}

/// One emission of a synthetic pair stream: the two section indices, and the
/// ULCP kind — or `None` for a causal edge.
type Emission = (usize, usize, Option<UlcpKind>);

/// A section with only the fields the aggregator reads set meaningfully:
/// its code site and body cost.
fn synthetic_section(index: usize, site: u32, body_ns: u64) -> CriticalSection {
    CriticalSection {
        id: SectionId::new(index as u32),
        thread: ThreadId::new(index as u32 % 4),
        lock: LockId::new(0),
        site: CodeSiteId::new(site),
        acquire_index: 0,
        release_index: 1,
        enter_time: Time::from_nanos(index as u64 * 10),
        exit_time: Time::from_nanos(index as u64 * 10 + 5),
        reads: Footprint::new(),
        writes: Footprint::new(),
        accesses: Vec::new(),
        body_cost: Time::from_nanos(body_ns),
        depth: 0,
    }
}

/// SplitMix64: the seeded source of the synthetic pair streams (the
/// vendored proptest draws only integers, tuples and unions).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `sections` synthetic sections and `emissions` random emissions over
/// them. Code sites come from a small dense range (many emissions per row)
/// and from the top of the id space (untrusted ids far from any dense
/// table).
fn pair_stream(
    rng: &mut SplitMix,
    sections: usize,
    emissions: usize,
) -> (Vec<CriticalSection>, Vec<Emission>) {
    let sections: Vec<CriticalSection> = (0..sections)
        .map(|i| {
            let site = if rng.below(2) == 0 {
                rng.below(6) as u32
            } else {
                u32::MAX - rng.below(4) as u32
            };
            synthetic_section(i, site, rng.next() % 1_000)
        })
        .collect();
    let n = sections.len();
    let emissions = (0..emissions)
        .map(|_| {
            let kind = match rng.below(5) {
                4 => None,
                k => Some(UlcpKind::ALL[k]),
            };
            (rng.below(n), rng.below(n), kind)
        })
        .collect();
    (sections, emissions)
}

fn feed<G: GainSource + Clone>(
    sink: &mut SiteAggregator<G>,
    sections: &[CriticalSection],
    emissions: &[Emission],
) {
    for &(i, j, kind) in emissions {
        let ctx = SectionCtx {
            first: &sections[i],
            second: &sections[j],
        };
        match kind {
            Some(kind) => sink.emit(
                Ulcp {
                    first: sections[i].id,
                    second: sections[j].id,
                    lock: LockId::new(0),
                    kind,
                },
                &ctx,
            ),
            None => sink.emit_edge(
                CausalEdge {
                    from: sections[i].id,
                    to: sections[j].id,
                    lock: LockId::new(0),
                },
                &ctx,
            ),
        }
    }
}

/// Feeds `emissions` in the given order, in a shuffled order, and split
/// across `shards` forked shards absorbed in a shuffled order; all three
/// must finish identically, into strictly ascending rows.
fn assert_order_independent<G: GainSource + Clone>(
    gain: G,
    rng: &mut SplitMix,
    sections: &[CriticalSection],
    emissions: &[Emission],
    shards: usize,
) -> Result<(), TestCaseError> {
    let mut in_order = SiteAggregator::new(gain.clone());
    feed(&mut in_order, sections, emissions);
    let expected = in_order.finish();

    let mut shuffled = emissions.to_vec();
    for k in (1..shuffled.len()).rev() {
        shuffled.swap(k, rng.below(k + 1));
    }
    let mut reordered = SiteAggregator::new(gain.clone());
    feed(&mut reordered, sections, &shuffled);
    prop_assert_eq!(&reordered.finish(), &expected);

    let mut merged = SiteAggregator::new(gain);
    let mut forks: Vec<_> = (0..shards).map(|_| merged.fork()).collect();
    for emission in emissions {
        feed(&mut forks[rng.below(shards)], sections, &[*emission]);
    }
    while !forks.is_empty() {
        let shard = forks.swap_remove(rng.below(forks.len()));
        merged.absorb(shard);
    }
    prop_assert_eq!(&merged.finish(), &expected);

    let ulcp_keys: Vec<_> = expected
        .ulcps
        .iter()
        .map(|r| (r.site_first, r.site_second, r.kind))
        .collect();
    prop_assert!(ulcp_keys.windows(2).all(|w| w[0] < w[1]), "{:?}", ulcp_keys);
    let edge_keys: Vec<_> = expected
        .edges
        .iter()
        .map(|r| (r.site_first, r.site_second))
        .collect();
    prop_assert!(edge_keys.windows(2).all(|w| w[0] < w[1]), "{:?}", edge_keys);
    let emitted_pairs = emissions.iter().filter(|e| e.2.is_some()).count();
    prop_assert_eq!(expected.total_pairs(), emitted_pairs as u64);
    let edge_total: u64 = expected.edges.iter().map(|r| r.edges).sum();
    prop_assert_eq!(edge_total, (emissions.len() - emitted_pairs) as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SiteAggregator::finish` depends only on the multiset of emitted
    /// pairs: any emission order, and any split across `fork`ed shards
    /// absorbed in any order, gives the identical table, whose rows are
    /// strictly ascending by key.
    #[test]
    fn site_aggregator_is_order_and_split_independent(
        seed in 0u64..u64::MAX,
        sections in 2usize..12,
        emissions in 0usize..200,
        shards in 1usize..5,
        gain_mode in 0u32..3,
    ) {
        let mut rng = SplitMix(seed);
        let (sections, emissions) = pair_stream(&mut rng, sections, emissions);
        match gain_mode {
            0 => assert_order_independent(NoGain, &mut rng, &sections, &emissions, shards)?,
            1 => assert_order_independent(
                BodyOverlapGain, &mut rng, &sections, &emissions, shards,
            )?,
            _ => assert_order_independent(HugeGain, &mut rng, &sections, &emissions, shards)?,
        }
    }
}
