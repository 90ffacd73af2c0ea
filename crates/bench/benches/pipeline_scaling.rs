//! Criterion bench: the single-pass pipeline vs the historical two-pass
//! flow, end to end on an already-recorded trace.
//!
//! `single_pass` runs one detection pass through the plan sink
//! (`Detector::plan`) whose compact output drives the transformation, both
//! replays and the aggregate-seeded report. `two_pass` is the flow the
//! single-pass refactor replaced: a materializing detection pass
//! (`CollectPairs`) for the transformation and the replays, then a second
//! aggregating pass (`SiteAggregator`) for the O(code sites) report. Both
//! produce the identical `PerfReport` (pinned by `BENCH_pipeline.json` and
//! the `plan_equivalence` proptests); the bench tracks the wall-clock gap —
//! one scan of the section table instead of two, with no pair vector.
//!
//! Set `PERFPLAY_BENCH_FAST=1` for a CI-sized smoke run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perfplay::prelude::{
    analyze_plan, BodyOverlapGain, Detector, PerfReport, PipelineConfig, ReplaySchedule, Replayer,
    SiteAggregator, Transformer, UlcpFreeReplayer,
};
use perfplay_bench::{detect_bench_config, stream_trace, StreamWorkload};

fn bench_pipeline_scaling(c: &mut Criterion) {
    let fast = std::env::var_os("PERFPLAY_BENCH_FAST").is_some_and(|v| v != "0");
    let shapes: &[StreamWorkload] = if fast {
        &[StreamWorkload {
            threads: 8,
            locks: 8,
            objects: 64,
            target_events: 20_000,
        }]
    } else {
        &[
            StreamWorkload {
                threads: 8,
                locks: 8,
                objects: 128,
                target_events: 100_000,
            },
            StreamWorkload {
                threads: 16,
                locks: 16,
                objects: 256,
                target_events: 400_000,
            },
        ]
    };

    let config = PipelineConfig {
        detector: detect_bench_config(),
        ..PipelineConfig::default()
    };
    let mut group = c.benchmark_group("pipeline_scaling");
    group.sample_size(10);
    for shape in shapes {
        let trace = stream_trace(*shape);
        let label = format!("{}ev", trace.num_events());
        group.bench_with_input(BenchmarkId::new("single_pass", &label), &trace, |b, t| {
            b.iter(|| {
                analyze_plan(t, &config)
                    .expect("pipeline analyzes")
                    .report
                    .grouped_ulcps()
            })
        });
        group.bench_with_input(BenchmarkId::new("two_pass", &label), &trace, |b, t| {
            b.iter(|| {
                let detector = Detector::new(config.detector);
                let analysis = detector.analyze(t);
                let transformed = Transformer::default().transform(t, &analysis).into_owned();
                drop(analysis);
                let original = Replayer::default()
                    .replay(t, ReplaySchedule::elsc())
                    .expect("original replays");
                let free = UlcpFreeReplayer::default()
                    .replay(&transformed)
                    .expect("ULCP-free replays");
                let aggregated = detector.analyze_with(t, SiteAggregator::new(BodyOverlapGain));
                PerfReport::from_aggregates(
                    t,
                    aggregated.breakdown,
                    &aggregated.sink.finish(),
                    &transformed,
                    &original,
                    &free,
                )
                .grouped_ulcps()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline_scaling);
criterion_main!(benches);
