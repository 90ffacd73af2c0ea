//! Property-based tests over randomly generated lock programs, exercising
//! the invariants the PerfPlay pipeline promises on inputs nobody
//! hand-crafted.

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay::PerfPlay;
use perfplay_trace::{CodeSiteId, Event, LockId, ObjectId, TraceMeta, WriteOp};

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

/// Every detector configuration the reference comparison sweeps: the
/// default uncapped search, the reversed-replay ablation, and the
/// `max_scan_per_thread` caps `0`, `1`, `3` and `4`.
fn detector_configs() -> Vec<DetectorConfig> {
    let mut configs = vec![
        DetectorConfig::default(),
        DetectorConfig {
            use_reversed_replay: false,
            ..DetectorConfig::default()
        },
    ];
    configs.extend([0, 1, 3, 4].map(|cap| DetectorConfig {
        max_scan_per_thread: Some(cap),
        ..DetectorConfig::default()
    }));
    configs
}

/// `Detector::analyze`, sequential and `parallel: true`, against
/// `reference_analyze`: breakdown, pairs, edges and sections.
fn assert_detector_matches_reference(
    trace: &Trace,
    det_config: DetectorConfig,
) -> Result<(), TestCaseError> {
    let reference = perfplay_detect::reference_analyze(trace, det_config);
    let sequential = Detector::new(det_config).analyze(trace);
    let parallel = Detector::new(DetectorConfig {
        parallel: true,
        ..det_config
    })
    .analyze(trace);
    prop_assert_eq!(&reference.breakdown, &sequential.breakdown);
    prop_assert_eq!(&reference.ulcps, &sequential.ulcps);
    prop_assert_eq!(&reference.edges, &sequential.edges);
    prop_assert_eq!(&reference.sections, &sequential.sections);
    prop_assert_eq!(&sequential.breakdown, &parallel.breakdown);
    prop_assert_eq!(&sequential.ulcps, &parallel.ulcps);
    prop_assert_eq!(&sequential.edges, &parallel.edges);
    prop_assert_eq!(&sequential.sections, &parallel.sections);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recorded traces of arbitrary generated programs are well-formed.
    #[test]
    fn recorded_traces_are_well_formed(seed in 0u64..5_000, config in generator_config()) {
        let program = random_workload(seed, &config);
        let recording = Recorder::new(SimConfig::default()).record(&program).unwrap();
        prop_assert!(recording.trace.validate().is_ok());
        prop_assert_eq!(recording.trace.num_threads(), config.threads);
        // Balanced locking means acquisitions equal extracted sections.
        let sections = perfplay_trace::extract_critical_sections(&recording.trace);
        prop_assert_eq!(sections.len(), recording.trace.num_acquisitions());
        prop_assert_eq!(recording.trace.lock_schedule.len(), sections.len());
    }

    /// ULCP classification is consistent: a pair is never both a ULCP and a
    /// causal edge, and every reported pair is cross-thread, same-lock, and
    /// ordered by timing index.
    #[test]
    fn detection_invariants(seed in 0u64..5_000, config in generator_config()) {
        let program = random_workload(seed, &config);
        let trace = Recorder::new(SimConfig::default()).record(&program).unwrap().trace;
        let analysis = Detector::default().analyze(&trace);

        let ulcp_pairs: std::collections::BTreeSet<_> =
            analysis.ulcps.iter().map(|u| (u.first, u.second)).collect();
        for edge in &analysis.edges {
            prop_assert!(!ulcp_pairs.contains(&(edge.from, edge.to)));
            prop_assert!(edge.from < edge.to);
        }
        for u in &analysis.ulcps {
            prop_assert!(u.first < u.second);
            let a = analysis.section(u.first);
            let b = analysis.section(u.second);
            prop_assert_eq!(a.lock, b.lock);
            prop_assert_ne!(a.thread, b.thread);
        }
        prop_assert_eq!(analysis.breakdown.total_ulcps(), analysis.ulcps.len());
        prop_assert_eq!(analysis.breakdown.tlcp_edges, analysis.edges.len());
    }

    /// The transformation plan respects RULE 3 structurally, and the ELSC
    /// replay of the original trace is deterministic and faithful.
    #[test]
    fn transform_and_replay_invariants(seed in 0u64..5_000, config in generator_config()) {
        let program = random_workload(seed, &config);
        let trace = Recorder::new(SimConfig::default()).record(&program).unwrap().trace;
        let analysis = Detector::default().analyze(&trace);
        let transformed = Transformer::default().transform(&trace, &analysis);

        for node in &transformed.plan {
            // A node's own auxiliary lock is always in its lockset.
            if let Some(own) = node.aux_lock {
                prop_assert!(node.lockset.contains(&own));
            }
            // Stripped nodes carry no source constraints that matter.
            if !node.sources.is_empty() {
                prop_assert!(!node.strip_lock);
            }
        }

        let r1 = Replayer::default().replay(&trace, ReplaySchedule::elsc()).unwrap();
        let r2 = Replayer::default().replay(&trace, ReplaySchedule::elsc()).unwrap();
        prop_assert_eq!(&r1, &r2);
        let recorded = trace.total_time.as_nanos() as f64;
        let replayed = r1.total_time.as_nanos() as f64;
        prop_assert!((replayed - recorded).abs() / recorded.max(1.0) < 0.10);
    }

    /// The optimized snapshot-free detector — sequential and parallel — is
    /// bit-identical to the retained naive snapshot-cloning reference, for
    /// the default configuration, the reversed-replay ablation, and capped
    /// searches at every cap edge: none, one, a few and more.
    #[test]
    fn optimized_detector_matches_naive_reference(seed in 0u64..5_000, config in generator_config()) {
        let program = random_workload(seed, &config);
        let trace = Recorder::new(SimConfig::default()).record(&program).unwrap().trace;
        for det_config in detector_configs() {
            assert_detector_matches_reference(&trace, det_config)?;
        }
    }

    /// The end-to-end pipeline never reports an ULCP-free execution that is
    /// meaningfully slower than the original, and its opportunity ranking is
    /// a valid distribution.
    #[test]
    fn pipeline_invariants(seed in 0u64..2_000, config in generator_config()) {
        let program = random_workload(seed, &config);
        let analysis = PerfPlay::new().analyze_program(&program).unwrap();
        let original = analysis.report.impact.original_time.as_nanos() as f64;
        let free = analysis.report.impact.ulcp_free_time.as_nanos() as f64;
        prop_assert!(free <= original * 1.15 + 1_000.0);
        let total: f64 = analysis.report.recommendations.iter().map(|r| r.opportunity).sum();
        prop_assert!(total <= 1.0 + 1e-9);
        for rec in &analysis.report.recommendations {
            prop_assert!(rec.opportunity >= 0.0);
            prop_assert!(rec.group.dynamic_pairs >= 1);
        }
    }
}

/// A hand-built trace the generator never produces: every thread enters
/// lock 0 at the same instant (ids then break the tie by thread), and
/// threads re-enter a lock they already hold, so one thread's sections on
/// one lock overlap in time.
fn tied_reentrant_trace() -> Trace {
    let acquire = |lock: u32, site: u32| Event::LockAcquire {
        lock: LockId::new(lock),
        site: CodeSiteId::new(site),
    };
    let release = |lock: u32| Event::LockRelease {
        lock: LockId::new(lock),
    };
    let read = |obj: u64| Event::Read {
        obj: ObjectId::new(obj),
        value: 0,
    };
    let write = |obj: u64, value: i64| Event::Write {
        obj: ObjectId::new(obj),
        op: WriteOp::Set(value),
        value,
    };
    let threads: [Vec<(u64, Event)>; 3] = [
        vec![
            (10, acquire(0, 0)),
            (10, acquire(0, 1)), // re-entrant, same instant
            (11, read(0)),
            (12, release(0)),
            (13, write(1, 1)),
            (14, release(0)),
            (20, acquire(1, 2)),
            (21, read(0)),
            (22, release(1)),
            (30, acquire(0, 3)),
            (31, release(0)),
        ],
        vec![
            (10, acquire(0, 1)),
            (11, read(0)),
            (12, release(0)),
            (20, acquire(0, 4)),
            (21, write(1, 1)),
            (22, release(0)),
            (30, acquire(1, 2)),
            (30, acquire(1, 5)), // re-entrant on lock 1
            (31, write(0, 7)),
            (32, release(1)),
            (33, read(0)),
            (34, release(1)),
        ],
        vec![
            (10, acquire(0, 0)),
            (10, write(0, 3)),
            (11, release(0)),
            (20, acquire(1, 2)),
            (21, read(1)),
            (22, release(1)),
            (30, acquire(0, 3)),
            (31, read(1)),
            (32, acquire(0, 6)), // re-entrant, nested after an access
            (33, write(1, 1)),
            (34, release(0)),
            (35, release(0)),
        ],
    ];
    let mut trace = Trace::new(
        TraceMeta {
            program: "tied-reentrant".into(),
            num_threads: threads.len(),
            num_locks: 2,
            num_objects: 2,
            input: "hand-built".into(),
        },
        threads.len(),
    );
    for (t, events) in threads.into_iter().enumerate() {
        for (at, event) in events {
            trace.threads[t].push(Time::from_nanos(at), event);
        }
    }
    trace
}

/// The cursor-started searches of the batch engine handle enter-time ties
/// and re-entrant same-lock nesting exactly like the reference, under every
/// cap.
#[test]
fn tied_and_reentrant_sections_match_the_reference() {
    let trace = tied_reentrant_trace();
    trace.validate().unwrap();
    let sections = perfplay_trace::extract_critical_sections(&trace);
    assert!(
        sections.iter().any(|s| s.depth > 0),
        "the trace must nest re-entrantly"
    );
    let reference = perfplay_detect::reference_analyze(&trace, DetectorConfig::default());
    assert!(reference.breakdown.total_ulcps() > 0 && reference.breakdown.tlcp_edges > 0);
    for det_config in detector_configs() {
        if let Err(e) = assert_detector_matches_reference(&trace, det_config) {
            panic!("{det_config:?}: {e}");
        }
    }
}
