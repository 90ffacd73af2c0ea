//! Property tests: the streaming engine — inline and threaded — is
//! bit-identical to both in-memory engines on arbitrary generated
//! workloads, across arbitrary chunk sizes and worker counts, and through
//! the chunked-file spill/re-ingest roundtrip, gaps included.

mod common;

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_detect::reference_analyze;
use perfplay_trace::{
    read_chunked_trace, ChunkFileReader, CriticalSection, RecoveryPolicy, SectionId, StreamError,
    Trace,
};

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
    (0u32..2, 0usize..4).prop_map(|(ablate, cap)| DetectorConfig {
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

fn assert_analyses_equal(
    label: &str,
    a: &UlcpAnalysis,
    b: &UlcpAnalysis,
) -> Result<(), TestCaseError> {
    prop_assert!(a.sections == b.sections, "{label}: sections differ");
    prop_assert!(a.ulcps == b.ulcps, "{label}: ulcps differ");
    prop_assert!(a.edges == b.edges, "{label}: edges differ");
    prop_assert!(a.breakdown == b.breakdown, "{label}: breakdown differs");
    Ok(())
}

/// The report layer accepts the streaming analysis output unchanged: the
/// whole downstream pipeline (transform, both replays, Equation 1, fusion,
/// ranking) produces the identical report from either detector.
#[test]
fn report_pipeline_accepts_streaming_output_unchanged() {
    let trace = record(
        11,
        &GeneratorConfig {
            threads: 3,
            locks: 2,
            objects: 4,
            sections_per_thread: 10,
        },
    );
    let batch = Detector::default().analyze(&trace);
    let streamed = StreamingDetector::default()
        .analyze_trace(&trace, 64)
        .unwrap()
        .analysis;

    let parallel = ParallelStreamingDetector::with_workers(DetectorConfig::default(), 3)
        .analyze_trace(&trace, 64)
        .unwrap()
        .analysis;

    let build_report = |analysis: &UlcpAnalysis| {
        let transformed = Transformer::default().transform(&trace, analysis);
        let original = Replayer::default()
            .replay(&trace, ReplaySchedule::elsc())
            .unwrap();
        let free = UlcpFreeReplayer::default().replay(&transformed).unwrap();
        PerfReport::build(&trace, analysis, &transformed, &original, &free)
    };
    let from_batch = build_report(&batch);
    let from_stream = build_report(&streamed);
    assert_eq!(from_batch.breakdown, from_stream.breakdown);
    assert_eq!(from_batch.recommendations, from_stream.recommendations);
    assert_eq!(from_batch.impact, from_stream.impact);
    assert_eq!(from_batch.render(&trace), from_stream.render(&trace));
    // PerfReport parity extends through the sharded parallel engine: same
    // pairs in, same report out.
    let from_parallel = build_report(&parallel);
    assert_eq!(from_batch, from_parallel);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The streaming engine — inline and threaded at any worker count —
    /// reproduces the in-memory engine and the naive snapshot-cloning
    /// reference bit-for-bit regardless of chunking.
    #[test]
    fn streaming_is_bit_identical_to_both_engines(
        seed in 0u64..5_000,
        gen in generator_config(),
        config in detector_configs(),
        chunk_events in 1usize..400,
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let trace = record(seed, &gen);
        let batch = Detector::new(config).analyze(&trace);
        let naive = reference_analyze(&trace, config);
        assert_analyses_equal("naive vs batch", &naive, &batch)?;

        let streamed = StreamingDetector::new(config)
            .analyze_trace(&trace, chunk_events)
            .unwrap();
        assert_analyses_equal("stream vs batch", &streamed.analysis, &batch)?;

        // The resident-state accounting covers exactly what the chunk
        // adapter delivered.
        let mut source = TraceChunks::new(&trace, chunk_events);
        let (mut chunks, mut peak_chunk) = (0usize, 0usize);
        while let Some(chunk) = source.next_chunk().unwrap() {
            chunks += 1;
            peak_chunk = peak_chunk.max(chunk.num_events());
        }
        prop_assert_eq!(streamed.stats.chunks, chunks);
        prop_assert_eq!(streamed.stats.events, trace.num_events());
        prop_assert_eq!(streamed.stats.sections, batch.sections.len());
        prop_assert_eq!(streamed.stats.peak_chunk_events, peak_chunk);

        // Every worker count agrees with the batch engine too: one worker
        // (inline), a middle shard count, and beyond #locks.
        let parallel = ParallelStreamingDetector::with_workers(config, workers)
            .analyze_trace(&trace, chunk_events)
            .unwrap();
        assert_analyses_equal("parallel vs batch", &parallel.analysis, &batch)?;
        prop_assert_eq!(parallel.stats.chunks, chunks);
        prop_assert_eq!(parallel.stats.events, trace.num_events());
        prop_assert_eq!(parallel.stats.sections, batch.sections.len());
        prop_assert_eq!(parallel.stats.peak_chunk_events, peak_chunk);
    }

    /// Spilling to a chunked trace file and re-ingesting it — either
    /// streamed directly into the detector or reassembled into a trace —
    /// loses nothing.
    #[test]
    fn chunked_file_roundtrip_is_lossless(
        seed in 0u64..5_000,
        gen in generator_config(),
        chunk_events in 1usize..200,
    ) {
        let trace = record(seed, &gen);
        let path = std::env::temp_dir().join(format!(
            "perfplay-eqv-{}-{}.jsonl",
            std::process::id(),
            seed,
        ));
        let summary = spill_trace(&trace, &path, chunk_events).unwrap();
        prop_assert_eq!(summary.events as usize, trace.num_events());

        // Reassembled trace is exactly the original.
        let back = read_chunked_trace(&path).unwrap();
        prop_assert_eq!(&back, &trace);

        // Streaming the detector straight off the file matches the batch
        // engine on the original trace.
        let config = DetectorConfig {
            max_scan_per_thread: Some(3),
            ..DetectorConfig::default()
        };
        let batch = Detector::new(config).analyze(&trace);
        let mut reader = ChunkFileReader::open(&path).unwrap();
        let streamed = StreamingDetector::new(config).analyze(&mut reader).unwrap();
        std::fs::remove_file(&path).ok();
        assert_analyses_equal("file stream vs batch", &streamed.analysis, &batch)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The binary spill roundtrip: `Trace -> ChunkedWriter(pbin) ->
    /// ChunkFileReader -> StreamingDetector` is bit-identical to the
    /// in-memory batch engine, the reassembled trace is exactly the
    /// original, the JSON spill of the same trace streams to the identical
    /// analysis, and the full report pipeline (transform, both replays,
    /// Equation 1, ranking) produces the identical [`PerfReport`] from
    /// either side.
    #[test]
    fn pbin_file_roundtrip_is_lossless_and_report_identical(
        seed in 0u64..5_000,
        gen in generator_config(),
        chunk_events in 1usize..200,
    ) {
        let trace = record(seed, &gen);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let pbin = dir.join(format!("perfplay-eqv-{pid}-{seed}.pbin"));
        let json = dir.join(format!("perfplay-eqv-{pid}-{seed}-twin.jsonl"));
        let summary =
            spill_trace_with_format(&trace, &pbin, chunk_events, ChunkFormat::Pbin).unwrap();
        prop_assert_eq!(summary.events as usize, trace.num_events());
        spill_trace(&trace, &json, chunk_events).unwrap();

        // Reassembly is exact.
        let back = read_chunked_trace(&pbin).unwrap();
        prop_assert_eq!(&back, &trace);

        let config = DetectorConfig {
            max_scan_per_thread: Some(3),
            ..DetectorConfig::default()
        };
        let batch = Detector::new(config).analyze(&trace);
        let mut reader = ChunkFileReader::open(&pbin).unwrap();
        prop_assert_eq!(reader.format(), ChunkFormat::Pbin);
        let streamed = StreamingDetector::new(config).analyze(&mut reader).unwrap();
        assert_analyses_equal("pbin stream vs batch", &streamed.analysis, &batch)?;

        // The JSON twin of the same trace streams to the identical analysis.
        let mut reader = ChunkFileReader::open(&json).unwrap();
        let json_streamed = StreamingDetector::new(config).analyze(&mut reader).unwrap();
        std::fs::remove_file(&pbin).ok();
        std::fs::remove_file(&json).ok();
        assert_analyses_equal(
            "pbin vs json stream",
            &streamed.analysis,
            &json_streamed.analysis,
        )?;

        // Report parity end-to-end.
        let build = |analysis: &UlcpAnalysis| {
            let transformed = Transformer::default().transform(&trace, analysis);
            let original = Replayer::default()
                .replay(&trace, ReplaySchedule::elsc())
                .unwrap();
            let free = UlcpFreeReplayer::default().replay(&transformed).unwrap();
            PerfReport::build(&trace, analysis, &transformed, &original, &free)
        };
        prop_assert_eq!(build(&streamed.analysis), build(&batch));
    }
}

/// Gap equivalence: over a corrupted chunk file recovered under `SkipChunk`,
/// every worker count — inline and threaded — reproduces the reference
/// engine run over exactly the surviving events, bit for bit, and accounts
/// for the same gaps and losses the reader reported, per fault kind.
#[test]
fn parallel_streaming_matches_sequential_over_gapped_streams() {
    let trace = record(
        23,
        &GeneratorConfig {
            threads: 4,
            locks: 3,
            objects: 5,
            sections_per_thread: 9,
        },
    );
    let clean = std::env::temp_dir().join(format!(
        "perfplay-parallel-gaps-clean-{}.jsonl",
        std::process::id()
    ));
    spill_trace(&trace, &clean, 24).unwrap();

    let config = DetectorConfig {
        max_scan_per_thread: Some(3),
        ..DetectorConfig::default()
    };
    for kind in [FaultKind::DropChunk, FaultKind::TruncateAtBoundary] {
        for seed in [1u64, 7, 42] {
            let dst = std::env::temp_dir().join(format!(
                "perfplay-parallel-gaps-{}-{seed}-{}.jsonl",
                kind.name(),
                std::process::id()
            ));
            corrupt_chunk_file(&clean, &dst, kind, seed).unwrap();

            let mut reader = ChunkFileReader::with_policy(&dst, RecoveryPolicy::SkipChunk).unwrap();
            let survivors = common::Survivors::collect(&mut reader).unwrap();
            assert!(
                survivors.gaps > 0,
                "{kind} seed {seed} must actually lose events"
            );
            let reference = survivors.reference(config);

            let mut reader = ChunkFileReader::with_policy(&dst, RecoveryPolicy::SkipChunk).unwrap();
            let inline = StreamingDetector::new(config).analyze(&mut reader).unwrap();
            assert_eq!(
                inline.analysis, reference,
                "{kind} seed {seed} inline: analysis diverged from the reference"
            );
            for workers in [1usize, 2, 4] {
                let mut reader =
                    ChunkFileReader::with_policy(&dst, RecoveryPolicy::SkipChunk).unwrap();
                let parallel = ParallelStreamingDetector::with_workers(config, workers)
                    .analyze(&mut reader)
                    .unwrap();
                assert_eq!(
                    parallel.analysis, reference,
                    "{kind} seed {seed} workers {workers}: analysis diverged from the reference"
                );
                assert_eq!(parallel.stats.gaps, survivors.gaps);
                assert_eq!(parallel.stats.events_lost, survivors.events_lost);
                assert_eq!(parallel.stats.events, survivors.events());
            }
            std::fs::remove_file(&dst).ok();
        }
    }
    std::fs::remove_file(&clean).ok();
}

/// A `CollectPairs` that also holds an `Rc`, so it is not `Send`: only an
/// engine that keeps the sink on the calling thread can accept it.
#[derive(Debug, Default)]
struct LocalSink {
    pairs: CollectPairs,
    _not_send: std::rc::Rc<()>,
}

impl UlcpSink for LocalSink {
    fn emit(&mut self, ulcp: Ulcp, ctx: &SectionCtx<'_>) {
        self.pairs.emit(ulcp, ctx);
    }

    fn emit_edge(&mut self, edge: perfplay_detect::CausalEdge, ctx: &SectionCtx<'_>) {
        self.pairs.emit_edge(edge, ctx);
    }

    fn fork(&self) -> Self {
        LocalSink {
            pairs: self.pairs.fork(),
            _not_send: self._not_send.clone(),
        }
    }

    fn absorb(&mut self, shard: Self) {
        self.pairs.absorb(shard.pairs);
    }

    fn remap_sections(&mut self, remap: &[Option<SectionId>]) {
        self.pairs.remap_sections(remap);
    }

    fn seal(&mut self, sections: &[CriticalSection]) {
        self.pairs.seal(sections);
    }

    fn resident_entries(&self) -> usize {
        self.pairs.resident_entries()
    }
}

/// `StreamingDetector` is the inline engine whatever `DetectorConfig::parallel`
/// says: `analyze` equals the batch engine, and `analyze_with` accepts a
/// sink that is not `Send` and yields the same pairs.
#[test]
fn streaming_detector_stays_inline_under_the_parallel_flag() {
    let trace = record(
        31,
        &GeneratorConfig {
            threads: 3,
            locks: 2,
            objects: 4,
            sections_per_thread: 8,
        },
    );
    let flagged = StreamingDetector::new(DetectorConfig {
        parallel: true,
        ..DetectorConfig::default()
    });
    let batch = Detector::default().analyze(&trace);
    assert_eq!(flagged.analyze_trace(&trace, 32).unwrap().analysis, batch);

    let local = flagged
        .analyze_trace_with(&trace, 32, LocalSink::default())
        .unwrap();
    assert_eq!(local.sections, batch.sections);
    assert_eq!(local.breakdown, batch.breakdown);
    assert_eq!(local.sink.pairs.ulcps, batch.ulcps);
    assert_eq!(local.sink.pairs.edges, batch.edges);
}

/// Spills a small trace to a chunk file and returns its path and lines.
fn spilled_lines(tag: &str) -> (std::path::PathBuf, Vec<String>) {
    let trace = record(
        77,
        &GeneratorConfig {
            threads: 3,
            locks: 2,
            objects: 4,
            sections_per_thread: 6,
        },
    );
    let path = std::env::temp_dir().join(format!(
        "perfplay-truncated-{tag}-{}.jsonl",
        std::process::id()
    ));
    spill_trace(&trace, &path, 16).unwrap();
    let lines: Vec<String> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert!(lines.len() >= 3, "need header + chunk(s) + trailer");
    (path, lines)
}

/// Drains a reader until end-of-stream or the first error.
fn drain(reader: &mut ChunkFileReader) -> Result<(), StreamError> {
    while reader.next_chunk()?.is_some() {}
    Ok(())
}

/// Regression: a chunk file cut off after a complete chunk record — e.g. a
/// crashed recorder that never wrote its trailer — must surface as a
/// structured `StreamError::Format`, not a panic or a silent short read that
/// would analyze a partial trace as if it were complete.
#[test]
fn truncated_file_without_trailer_is_a_structured_error() {
    let (path, lines) = spilled_lines("no-trailer");
    // Drop the trailer line.
    std::fs::write(&path, format!("{}\n", lines[..lines.len() - 1].join("\n"))).unwrap();

    let mut reader = ChunkFileReader::open(&path).unwrap();
    let err = drain(&mut reader).expect_err("missing trailer must be an error");
    assert!(
        matches!(err.root_cause(), StreamError::Format(msg) if msg.contains("trailer")),
        "expected a format error naming the missing trailer, got {err:?}"
    );
    // The error is located: path and line of the failure travel with it.
    assert!(
        matches!(&err, StreamError::At { path: p, .. } if path.to_str().unwrap() == p),
        "expected a located error carrying the file path, got {err:?}"
    );
    assert!(reader.trailer().is_none());

    // The whole-trace reassembly path reports the same structured error.
    let err = read_chunked_trace(&path).expect_err("reassembly must fail too");
    assert!(matches!(err.root_cause(), StreamError::Format(_)));
    std::fs::remove_file(&path).ok();
}

/// Regression: a file cut off *mid-chunk* (a partial final line, the shape a
/// killed process leaves behind) must surface as `StreamError::Parse` with
/// the failing line number — never a panic.
#[test]
fn truncated_file_mid_chunk_is_a_parse_error() {
    let (path, lines) = spilled_lines("mid-chunk");
    // Keep the header intact and cut the second record in half.
    let half = &lines[1][..lines[1].len() / 2];
    std::fs::write(&path, format!("{}\n{half}\n", lines[0])).unwrap();

    let mut reader = ChunkFileReader::open(&path).unwrap();
    let err = drain(&mut reader).expect_err("mid-chunk EOF must be an error");
    match &err {
        StreamError::At {
            path: p,
            line,
            offset,
            ..
        } => {
            assert_eq!(p, path.to_str().unwrap());
            assert_eq!(*line, 2, "the cut line is line 2");
            // Line 2 starts right after the header line and its newline.
            assert_eq!(*offset, lines[0].len() as u64 + 1);
        }
        other => panic!("expected a located error, got {other:?}"),
    }
    match err.root_cause() {
        StreamError::Parse { line, .. } => assert_eq!(*line, 2),
        other => panic!("expected a parse error underneath, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Regression: a trailer whose chunk/event counts disagree with what was
/// actually read (a file with a chunk record excised but the trailer intact)
/// is rejected instead of silently under-reporting.
#[test]
fn trailer_count_mismatch_is_a_structured_error() {
    let (path, lines) = spilled_lines("count-mismatch");
    // Drop the *last* chunk record, keeping header + trailer: with no later
    // chunk left to trip the contiguity check, the trailer reconciliation is
    // what must catch the loss.
    let mut kept: Vec<&str> = lines.iter().map(String::as_str).collect();
    kept.remove(kept.len() - 2);
    std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();

    let mut reader = ChunkFileReader::open(&path).unwrap();
    let err = drain(&mut reader).expect_err("count mismatch must be an error");
    assert!(
        matches!(err.root_cause(), StreamError::Format(msg) if msg.contains("trailer claims")),
        "expected the trailer-mismatch format error, got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}

/// Regression: a chunk record excised from the *middle* of the file is caught
/// before the trailer, by the per-thread span-contiguity check, as a located
/// structured error — never a silent splice.
#[test]
fn missing_middle_chunk_is_a_contiguity_error() {
    let (path, lines) = spilled_lines("missing-middle");
    let mut kept: Vec<&str> = lines.iter().map(String::as_str).collect();
    kept.remove(1);
    std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();

    let mut reader = ChunkFileReader::open(&path).unwrap();
    let err = drain(&mut reader).expect_err("missing chunk must be an error");
    assert!(
        matches!(&err, StreamError::At { path: p, .. } if p == path.to_str().unwrap()),
        "expected a located error carrying the file path, got {err:?}"
    );
    assert!(
        matches!(err.root_cause(), StreamError::Format(msg) if msg.contains("non-contiguous")),
        "expected the span-contiguity format error, got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}
