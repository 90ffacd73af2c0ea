//! Property tests: the plan-driven transformation is bit-identical to the
//! materializing one — `Transformer::transform_from_plan` over a
//! `DetectionPlan` equals `Transformer::transform` over the full
//! `UlcpAnalysis` — across random workloads, detector configurations,
//! transform configurations and every engine feeding the plan sink (the
//! naive reference, batch sequential, `DetectorConfig::parallel`, streaming
//! inline and threaded at arbitrary chunk sizes), and the single-pass report
//! equals the two-pass aggregate report. Both transformer entry points are
//! also checked against `reference_transform`, the independent naive
//! RULE 1–4 builder.

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_detect::reference_analyze_with;
use perfplay_trace::Trace;
use perfplay_transform::reference_transform;

fn record(seed: u64, config: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, config);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

fn generator_config() -> impl Strategy<Value = GeneratorConfig> {
    (2usize..5, 1usize..4, 2usize..6, 4u32..12).prop_map(
        |(threads, locks, objects, sections_per_thread)| GeneratorConfig {
            threads,
            locks,
            objects,
            sections_per_thread,
        },
    )
}

fn detector_configs() -> impl Strategy<Value = DetectorConfig> {
    (0u32..2, 0usize..4).prop_map(|(ablate, cap)| DetectorConfig {
        use_reversed_replay: ablate == 0,
        max_scan_per_thread: if cap == 0 { None } else { Some(cap) },
        parallel: false,
    })
}

/// Field-wise bit-identity of two transformed traces (`TransformedTrace`
/// deliberately has no `PartialEq`: the embedded original trace makes
/// whole-value comparison a footgun in production code).
fn assert_transforms_identical(
    a: &TransformedTrace,
    b: &TransformedTrace,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.original, &b.original);
    prop_assert_eq!(&a.sections, &b.sections);
    prop_assert_eq!(&a.plan, &b.plan);
    prop_assert_eq!(&a.order_constraints, &b.order_constraints);
    prop_assert_eq!(&a.race_warnings, &b.race_warnings);
    prop_assert_eq!(a.num_aux_locks, b.num_aux_locks);
    Ok(())
}

/// Few threads and many objects, so conflicts are rare and most sections
/// are standalone and stripped — `plan_narrow`'s shape, scaled down.
fn stripped_heavy_config() -> impl Strategy<Value = GeneratorConfig> {
    (24usize..64, 8u32..40).prop_map(|(objects, sections_per_thread)| GeneratorConfig {
        threads: 2,
        locks: 2,
        objects,
        sections_per_thread,
    })
}

/// Field-wise equality of the synchronization a transformation computed.
fn assert_sync_identical(a: &TransformedTrace, b: &TransformedTrace) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.plan, &b.plan);
    prop_assert_eq!(&a.order_constraints, &b.order_constraints);
    prop_assert_eq!(&a.race_warnings, &b.race_warnings);
    prop_assert_eq!(a.num_aux_locks, b.num_aux_locks);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Both transformer entry points equal `reference_transform`, the naive
    /// `Topology`/`BTreeMap` RULE 1–4 builder, on random and stripped-heavy
    /// workloads with stripping on and off.
    #[test]
    fn transform_matches_the_reference_spec(
        seed in 0u64..5_000,
        gen in prop_oneof![generator_config(), stripped_heavy_config()],
        config in detector_configs(),
        strip in 0u32..2,
    ) {
        let trace = record(seed, &gen);
        let transform_config = TransformConfig {
            strip_unneeded_locks: strip == 1,
        };
        let transformer = Transformer::new(transform_config);
        let analysis = Detector::new(config).analyze(&trace);
        let expected = reference_transform(transform_config, &trace, &analysis);
        assert_sync_identical(&transformer.transform(&trace, &analysis), &expected)?;
        let plan = Detector::new(config).plan(&trace, BodyOverlapGain);
        assert_sync_identical(&transformer.transform_from_plan(&trace, &plan), &expected)?;
    }

    /// `transform_from_plan` over every engine's `DetectionPlan` equals
    /// `transform` over the materialized analysis, and the plan itself is
    /// engine-independent.
    #[test]
    fn transform_from_plan_matches_transform(
        seed in 0u64..5_000,
        gen in generator_config(),
        config in detector_configs(),
        chunk_events in 1usize..48,
        strip in 0u32..2,
    ) {
        let trace = record(seed, &gen);
        let transformer = Transformer::new(TransformConfig {
            strip_unneeded_locks: strip == 1,
        });

        let analysis = Detector::new(config).analyze(&trace);
        let expected = transformer.transform(&trace, &analysis);

        // Batch sequential engine, pinned to the naive reference.
        let plan = Detector::new(config).plan(&trace, BodyOverlapGain);
        let reference = reference_analyze_with(&trace, config, PlanAggregator::new(BodyOverlapGain));
        prop_assert_eq!(
            &reference.sink.into_plan(reference.sections, reference.breakdown),
            &plan
        );
        assert_transforms_identical(
            &transformer.transform_from_plan(&trace, &plan),
            &expected,
        )?;

        // The streaming engine, inline and threaded, at an arbitrary chunk
        // size produces the identical plan.
        let streamed = StreamingDetector::new(config)
            .analyze_trace_with(&trace, chunk_events, PlanAggregator::new(BodyOverlapGain))
            .unwrap();
        let (stream_plan, _) = DetectionPlan::from_streaming(streamed);
        prop_assert_eq!(&stream_plan, &plan);
        let threaded = ParallelStreamingDetector::with_workers(config, 2)
            .analyze_trace_with(&trace, chunk_events, PlanAggregator::new(BodyOverlapGain))
            .unwrap();
        prop_assert_eq!(&DetectionPlan::from_streaming(threaded).0, &plan);
        assert_transforms_identical(
            &transformer.transform_from_plan(&trace, &stream_plan),
            &expected,
        )?;
    }

    /// The single-pass pipeline report equals the two-pass flow (materialize
    /// for transform + replays, second aggregate detection pass for the
    /// report) when both accumulate the same detection-time gain source.
    #[test]
    fn single_pass_report_matches_two_pass_flow(
        seed in 0u64..5_000,
        gen in generator_config(),
        cap in 0usize..4,
    ) {
        let config = DetectorConfig {
            max_scan_per_thread: if cap == 0 { None } else { Some(cap) },
            ..DetectorConfig::default()
        };
        let trace = record(seed, &gen);
        let pipeline = PipelineConfig {
            detector: config,
            ..PipelineConfig::default()
        };
        let single = analyze_plan(&trace, &pipeline).unwrap();

        // Two-pass flow.
        let analysis = Detector::new(config).analyze(&trace);
        let transformed = Transformer::default().transform(&trace, &analysis);
        let original = Replayer::default().replay(&trace, ReplaySchedule::elsc()).unwrap();
        let free = UlcpFreeReplayer::default().replay(&transformed).unwrap();
        let aggregated = Detector::new(config)
            .analyze_with(&trace, SiteAggregator::new(BodyOverlapGain));
        let two_pass = PerfReport::from_aggregates(
            &trace,
            aggregated.breakdown,
            &aggregated.sink.finish(),
            &transformed,
            &original,
            &free,
        );
        prop_assert_eq!(&single.report, &two_pass);
        prop_assert_eq!(&single.original_replay, &original);
        prop_assert_eq!(&single.ulcp_free_replay, &free);
    }
}
