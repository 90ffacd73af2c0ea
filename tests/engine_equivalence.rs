//! The streaming engine pinned to the naive reference under the Tier-1
//! command (`cargo test`).
//!
//! One streaming engine serves every entry point: inline at one worker
//! (`StreamingDetector`, `ParallelStreamingDetector::with_workers(_, 1)`)
//! and threaded beyond. Each mode is compared here against
//! [`reference_analyze`] — never against the other mode — on the full
//! [`UlcpAnalysis`], the [`DetectionPlan`] and the single-pass
//! [`PerfReport`], over random workloads, chunk sizes and scan caps, and
//! over gapped streams against the reference run on exactly the surviving
//! events. A last test pins that the inline mode never leaves the calling
//! thread.

mod common;

use std::cell::RefCell;
use std::rc::Rc;
use std::thread::ThreadId;

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_detect::{reference_analyze, reference_analyze_with, CausalEdge, SectionCtx};
use perfplay_trace::Trace;

/// Worker counts every case runs: inline, and two threaded shardings.
const WORKERS: [usize; 3] = [1, 2, 3];

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
    (0u32..2, 0usize..6).prop_map(|(ablate, cap)| DetectorConfig {
        use_reversed_replay: ablate == 0,
        max_scan_per_thread: if cap == 0 { None } else { Some(cap) },
        parallel: false,
    })
}

fn record(seed: u64, config: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, config);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

/// The single-pass pipeline's report composed over the reference plan,
/// exactly as `analyze_plan` composes it from its own detection.
fn reference_report(trace: &Trace, plan: &DetectionPlan, pipeline: &PipelineConfig) -> PerfReport {
    let transformed = Transformer::new(pipeline.transform).transform_from_plan(trace, plan);
    let original = Replayer::new(pipeline.replay)
        .replay(trace, ReplaySchedule::for_kind(pipeline.original_schedule))
        .unwrap();
    let free = UlcpFreeReplayer::new(pipeline.replay)
        .with_dls(pipeline.use_dls)
        .replay(&transformed)
        .unwrap();
    PerfReport::from_plan(trace, plan, &transformed, &original, &free).with_stream_gaps(0, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Inline (1 worker) and threaded (2 and 3 workers) streaming are each
    /// bit-identical to the reference: analysis, plan and report.
    #[test]
    fn inline_threaded_and_reference_are_bit_identical(
        seed in 0u64..5_000,
        gen in generator_config(),
        config in detector_configs(),
        chunk_events in 1usize..300,
    ) {
        let trace = record(seed, &gen);
        let reference = reference_analyze(&trace, config);
        let planned = reference_analyze_with(&trace, config, PlanAggregator::new(BodyOverlapGain));
        let reference_plan = planned.sink.into_plan(planned.sections, planned.breakdown);

        let facade = StreamingDetector::new(config)
            .analyze_trace(&trace, chunk_events)
            .unwrap();
        prop_assert!(facade.analysis == reference, "StreamingDetector");

        let pipeline = PipelineConfig {
            detector: config,
            chunk_events: Some(chunk_events),
            ..PipelineConfig::default()
        };
        let expected_report = reference_report(&trace, &reference_plan, &pipeline);
        for workers in WORKERS {
            let detector = ParallelStreamingDetector::with_workers(config, workers);
            let streamed = detector.analyze_trace(&trace, chunk_events).unwrap();
            prop_assert!(streamed.analysis == reference, "analysis, {} workers", workers);
            prop_assert_eq!(streamed.stats.events, trace.num_events());
            prop_assert_eq!(streamed.stats.sections, reference.sections.len());

            let sunk = detector
                .analyze_trace_with(&trace, chunk_events, PlanAggregator::new(BodyOverlapGain))
                .unwrap();
            let (plan, _) = DetectionPlan::from_streaming(sunk);
            prop_assert!(plan == reference_plan, "plan, {} workers", workers);

            // `parallel_streams: 1` resolves to the inline engine inside the
            // pipeline, larger values to the threaded one.
            let single_pass = analyze_plan(
                &trace,
                &PipelineConfig {
                    parallel_streams: workers,
                    ..pipeline
                },
            )
            .unwrap();
            prop_assert!(single_pass.plan == reference_plan, "pipeline plan, {} workers", workers);
            prop_assert!(single_pass.report == expected_report, "report, {} workers", workers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Gapped streams: a trace spilled to a chunk file, corrupted on disk
    /// by a seeded fault, read back under `SkipChunk` and optionally cut
    /// short in flight by a [`FaultInjector`]. Every worker count either
    /// reproduces the reference over exactly the surviving events — with
    /// the same gap and loss accounting — or fails with the same error.
    #[test]
    fn gapped_streams_match_the_reference_over_the_survivors(
        seed in 0u64..5_000,
        gen in generator_config(),
        config in detector_configs(),
        chunk_events in 1usize..64,
        kind_index in 0usize..FaultKind::ALL.len(),
        fault_seed in 0u64..1_000,
        cut_in_flight in prop_oneof![Just(false), Just(true)],
        pbin in prop_oneof![Just(false), Just(true)],
    ) {
        let trace = record(seed, &gen);
        let ext = if pbin { "pbin" } else { "jsonl" };
        let dir = std::env::temp_dir();
        let tag = format!("{}-{seed}-{kind_index}-{fault_seed}", std::process::id());
        let clean = dir.join(format!("perfplay-engine-eqv-{tag}.{ext}"));
        let dst = dir.join(format!("perfplay-engine-eqv-{tag}-bad.{ext}"));
        spill_trace(&trace, &clean, chunk_events).unwrap();
        let kind = FaultKind::ALL[kind_index];
        corrupt_chunk_file(&clean, &dst, kind, fault_seed).unwrap();
        std::fs::remove_file(&clean).ok();

        // A cut aimed past the stream's end passes everything through.
        let mut plan = FaultPlan::seeded(fault_seed, FaultKind::TruncateAtBoundary, 8);
        if !cut_in_flight {
            plan.target = u64::MAX;
        }
        let source = || -> Result<_, StreamError> {
            let reader = ChunkFileReader::with_policy(&dst, RecoveryPolicy::SkipChunk)?;
            Ok(FaultInjector::new(reader, plan))
        };
        let survivors = source().and_then(|mut s| common::Survivors::collect(&mut s));
        let mut first_error: Option<StreamError> = None;
        for workers in WORKERS {
            let detector = ParallelStreamingDetector::with_workers(config, workers);
            let streamed = source().and_then(|mut s| detector.analyze(&mut s));
            let sunk = source().and_then(|mut s| {
                detector.analyze_with(&mut s, PlanAggregator::new(BodyOverlapGain))
            });
            match (streamed, sunk, &survivors) {
                (Ok(streamed), Ok(sunk), Ok(survivors)) => {
                    prop_assert!(first_error.is_none(), "{} workers analyzed where another failed", workers);
                    prop_assert!(streamed.analysis == survivors.reference(config), "{} {} workers", kind, workers);
                    prop_assert_eq!(streamed.stats.gaps, survivors.gaps);
                    prop_assert_eq!(streamed.stats.events_lost, survivors.events_lost);
                    prop_assert_eq!(streamed.stats.events, survivors.events());
                    let (plan, _) = DetectionPlan::from_streaming(sunk);
                    prop_assert_eq!(&plan, &survivors.reference_plan(config, BodyOverlapGain));
                }
                (Err(a), Err(b), _) => {
                    prop_assert_eq!(&a, &b);
                    match &first_error {
                        Some(e) => prop_assert!(e == &a, "{} workers", workers),
                        None if workers == WORKERS[0] => first_error = Some(a),
                        None => prop_assert!(false, "{} workers failed where another analyzed", workers),
                    }
                }
                (a, b, s) => prop_assert!(
                    false,
                    "{} {} workers: inconsistent endings {:?} / {:?} / source ok {}",
                    kind, workers, a.err(), b.err(), s.is_ok()
                ),
            }
        }
        std::fs::remove_file(&dst).ok();
    }
}

/// A sink that cannot leave its thread: it holds an `Rc` (so it is not
/// `Send`) and records the thread of every emission.
#[derive(Default)]
struct ThreadBound {
    seen: Rc<RefCell<Vec<ThreadId>>>,
    emissions: usize,
}

impl UlcpSink for ThreadBound {
    fn emit(&mut self, _ulcp: Ulcp, _ctx: &SectionCtx<'_>) {
        self.seen.borrow_mut().push(std::thread::current().id());
        self.emissions += 1;
    }

    fn emit_edge(&mut self, _edge: CausalEdge, _ctx: &SectionCtx<'_>) {
        self.seen.borrow_mut().push(std::thread::current().id());
        self.emissions += 1;
    }

    fn fork(&self) -> Self {
        ThreadBound {
            seen: Rc::clone(&self.seen),
            emissions: 0,
        }
    }

    fn absorb(&mut self, shard: Self) {
        self.emissions += shard.emissions;
    }

    fn resident_entries(&self) -> usize {
        0
    }
}

/// The inline engine accepts a sink that is not `Send` — which proves at
/// compile time that no `Send` bound crept into `StreamingDetector` — and
/// every pair it classifies is emitted on the caller's own thread.
#[test]
fn inline_mode_never_leaves_the_calling_thread() {
    let trace = record(
        41,
        &GeneratorConfig {
            threads: 4,
            locks: 3,
            objects: 5,
            sections_per_thread: 12,
        },
    );
    let config = DetectorConfig::default();
    let reference = reference_analyze(&trace, config);
    for chunk_events in [1usize, 16, 100_000] {
        let sink = ThreadBound::default();
        let seen = Rc::clone(&sink.seen);
        let run = StreamingDetector::new(config)
            .analyze_trace_with(&trace, chunk_events, sink)
            .unwrap();
        assert_eq!(
            run.sink.emissions,
            reference.ulcps.len() + reference.edges.len(),
            "chunk {chunk_events}: every classified pair reaches the sink"
        );
        let me = std::thread::current().id();
        let seen = seen.borrow();
        assert_eq!(seen.len(), run.sink.emissions);
        assert!(
            seen.iter().all(|&id| id == me),
            "chunk {chunk_events}: an emission ran off the calling thread"
        );
    }
}
