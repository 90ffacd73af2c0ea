//! Property tests: all detection engines agree through both sinks when the
//! `max_scan_per_thread` cap truncates sequential searches — including
//! truncations landing exactly on a chunk boundary of the streaming engine.

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_detect::{reference_analyze, reference_analyze_with};
use perfplay_trace::Trace;

fn record(seed: u64, config: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, config);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

/// Runs every engine with a `CollectPairs` and a `SiteAggregator` sink and
/// asserts full agreement: identical pair lists across the batch,
/// reference and streaming (inline and threaded) engines, and one identical
/// aggregate table from all of them.
fn assert_all_engines_agree(
    trace: &Trace,
    config: DetectorConfig,
    chunk_events: usize,
) -> Result<(), TestCaseError> {
    let sequential = Detector::new(config).analyze(trace);
    let reference = reference_analyze(trace, config);
    let streamed = StreamingDetector::new(config)
        .analyze_trace(trace, chunk_events)
        .unwrap();
    let threaded = ParallelStreamingDetector::with_workers(config, 2)
        .analyze_trace(trace, chunk_events)
        .unwrap();

    for other in [&sequential, &streamed.analysis, &threaded.analysis] {
        prop_assert_eq!(&reference.ulcps, &other.ulcps);
        prop_assert_eq!(&reference.edges, &other.edges);
        prop_assert_eq!(&reference.breakdown, &other.breakdown);
        prop_assert_eq!(&reference.sections, &other.sections);
    }

    let gain = BodyOverlapGain;
    let batch_agg = Detector::new(config)
        .analyze_with(trace, SiteAggregator::new(gain))
        .sink
        .finish();
    let streamed_agg = StreamingDetector::new(config)
        .analyze_trace_with(trace, chunk_events, SiteAggregator::new(gain))
        .unwrap()
        .sink
        .finish();
    let threaded_agg = ParallelStreamingDetector::with_workers(config, 2)
        .analyze_trace_with(trace, chunk_events, SiteAggregator::new(gain))
        .unwrap()
        .sink
        .finish();
    let reference_agg = reference_analyze_with(trace, config, SiteAggregator::new(gain))
        .sink
        .finish();
    prop_assert_eq!(&batch_agg, &reference_agg);
    prop_assert_eq!(&batch_agg, &streamed_agg);
    prop_assert_eq!(&batch_agg, &threaded_agg);
    prop_assert_eq!(batch_agg.total_pairs() as usize, sequential.ulcps.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// Single-lock, high-contention workloads with tiny chunks and small
    /// caps: most searches are cut off by the cap, and with chunk sizes this
    /// small many of those cut-offs land exactly on a chunk boundary.
    #[test]
    fn capped_searches_agree_across_engines_and_sinks(
        seed in 0u64..5_000,
        threads in 2usize..5,
        sections_per_thread in 4u32..14,
        cap in 1usize..5,
        chunk_events in 1usize..12,
        ablate in 0u32..2,
    ) {
        let trace = record(seed, &GeneratorConfig {
            threads,
            locks: 1,
            objects: 3,
            sections_per_thread,
        });
        let config = DetectorConfig {
            use_reversed_replay: ablate == 0,
            max_scan_per_thread: Some(cap),
            parallel: false,
        };
        assert_all_engines_agree(&trace, config, chunk_events)?;
    }

    /// Multi-lock workloads under a cap, with chunk sizes around the
    /// section density, so cap exhaustion and lock interleaving both cross
    /// chunk boundaries.
    #[test]
    fn capped_multi_lock_workloads_agree(
        seed in 0u64..5_000,
        cap in 1usize..4,
        chunk_events in 1usize..40,
    ) {
        let trace = record(seed, &GeneratorConfig {
            threads: 3,
            locks: 3,
            objects: 4,
            sections_per_thread: 8,
        });
        let config = DetectorConfig {
            max_scan_per_thread: Some(cap),
            ..DetectorConfig::default()
        };
        assert_all_engines_agree(&trace, config, chunk_events)?;
    }
}

/// Deterministic cap-at-the-boundary regression: a trace whose cap-ending
/// classification is swept across *every* possible chunk boundary placement.
/// The search from thread 0's section classifies exactly `cap` candidates
/// (the second being a TLCP at the cap), so for some chunk size the search's
/// last classification is the final event of a chunk — the historical
/// off-by-one risk the streaming cursor must not trip over.
#[test]
fn scan_cap_truncation_is_exact_at_every_chunk_boundary() {
    let mut b = ProgramBuilder::new("cap-boundary");
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
    let trace = Recorder::new(SimConfig::default())
        .record(&b.build())
        .unwrap()
        .trace;
    for cap in 1..=4usize {
        let config = DetectorConfig {
            max_scan_per_thread: Some(cap),
            ..DetectorConfig::default()
        };
        let batch = Detector::new(config).analyze(&trace);
        for chunk_events in 1..=trace.num_events() {
            let streamed = StreamingDetector::new(config)
                .analyze_trace(&trace, chunk_events)
                .unwrap();
            assert_eq!(
                batch.ulcps, streamed.analysis.ulcps,
                "cap {cap}, chunk {chunk_events}"
            );
            assert_eq!(
                batch.edges, streamed.analysis.edges,
                "cap {cap}, chunk {chunk_events}"
            );
            let agg = StreamingDetector::new(config)
                .analyze_trace_with(&trace, chunk_events, SiteAggregator::new(NoGain))
                .unwrap()
                .sink
                .finish();
            assert_eq!(
                agg.total_pairs() as usize,
                batch.ulcps.len(),
                "cap {cap}, chunk {chunk_events}"
            );
        }
    }
}
