//! Fault-tolerance suite: the chaos no-panic invariant, truncation at every
//! record boundary, and recovery soundness.
//!
//! The pinned invariant: **no corrupted, truncated or perturbed input makes
//! the ingestion pipeline panic** — every run ends in a report, a
//! gap-annotated report, or a structured [`StreamError`], and identical
//! inputs end identically (the fault layer is fully seeded). Every run that
//! does end in a report is also checked against the reference engine over
//! exactly the events that survived.

mod common;

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, GeneratorConfig};
use perfplay_trace::{
    ChunkFileReader, ChunkFileRecord, ChunkFormat, PipelinedChunkReader, RawChunkRecords,
    RecoveryPolicy, StreamError, Trace, TraceChunk, MAX_LINE_BYTES,
};

const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::Fail,
    RecoveryPolicy::SkipChunk,
    RecoveryPolicy::SkipStream,
];

fn config() -> DetectorConfig {
    DetectorConfig {
        max_scan_per_thread: Some(3),
        ..DetectorConfig::default()
    }
}

fn record(seed: u64, gen: &GeneratorConfig) -> Trace {
    let program = random_workload(seed, gen);
    Recorder::new(SimConfig::default())
        .record(&program)
        .unwrap()
        .trace
}

/// The shared clean corpus: one recorded trace spilled to a chunk file in
/// both formats, plus the same chunking in memory so tests know exactly what
/// each record holds.
struct Corpus {
    trace: Trace,
    path: PathBuf,
    pbin_path: PathBuf,
    lines: Vec<String>,
    chunks: Vec<TraceChunk>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let trace = record(
            9,
            &GeneratorConfig {
                threads: 4,
                locks: 2,
                objects: 5,
                sections_per_thread: 9,
            },
        );
        let path =
            std::env::temp_dir().join(format!("perfplay-chaos-clean-{}.jsonl", std::process::id()));
        spill_trace(&trace, &path, 24).unwrap();
        let lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        // The writer windows by time completion, so learn the actual
        // chunking by reading the clean file back.
        let mut chunks = Vec::new();
        let mut source = ChunkFileReader::open(&path).unwrap();
        while let Some(chunk) = source.next_chunk().unwrap() {
            chunks.push(chunk);
        }
        assert_eq!(
            lines.len(),
            chunks.len() + 2,
            "file is header + chunks + trailer"
        );
        assert!(chunks.len() >= 4, "corpus needs several chunks");
        // The binary twin: the same trace, the same chunking, PBIN framing.
        let pbin_path =
            std::env::temp_dir().join(format!("perfplay-chaos-clean-{}.pbin", std::process::id()));
        spill_trace(&trace, &pbin_path, 24).unwrap();
        let mut source = ChunkFileReader::open(&pbin_path).unwrap();
        assert_eq!(source.format(), ChunkFormat::Pbin, "magic autodetection");
        let mut pbin_chunks = Vec::new();
        while let Some(chunk) = source.next_chunk().unwrap() {
            pbin_chunks.push(chunk);
        }
        assert_eq!(
            pbin_chunks, chunks,
            "both formats hold the identical chunk stream"
        );
        Corpus {
            trace,
            path,
            pbin_path,
            lines,
            chunks,
        }
    })
}

/// Ingests one chunk file under `catch_unwind`. `workers == 0` runs the
/// inline engine through [`StreamingDetector`]; otherwise
/// [`ParallelStreamingDetector`] with that many workers. The outer `Err` is
/// a panic.
fn ingest(
    path: &Path,
    policy: RecoveryPolicy,
    workers: usize,
) -> std::thread::Result<Result<StreamingAnalysis, StreamError>> {
    std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<_, StreamError> {
        let mut reader = ChunkFileReader::with_policy(path, policy)?;
        if workers == 0 {
            StreamingDetector::new(config()).analyze(&mut reader)
        } else {
            ParallelStreamingDetector::with_workers(config(), workers).analyze(&mut reader)
        }
    }))
}

/// Reduces one ending to a comparable string: `report …` / `gap-report …` /
/// `error …` / `panic`.
fn describe(outcome: &std::thread::Result<Result<StreamingAnalysis, StreamError>>) -> String {
    match outcome {
        Err(_) => "panic".to_string(),
        Ok(Ok(streamed)) => {
            let s = format!(
                "events={} gaps={} lost={} ulcps={} edges={} {:?}",
                streamed.stats.events,
                streamed.stats.gaps,
                streamed.stats.events_lost,
                streamed.analysis.ulcps.len(),
                streamed.analysis.edges.len(),
                streamed.analysis.breakdown,
            );
            if streamed.stats.is_gapped() {
                format!("gap-report {s}")
            } else {
                format!("report {s}")
            }
        }
        Ok(Err(e)) => format!("error {e}"),
    }
}

/// [`ingest`] reduced by [`describe`]. Equal strings mean bit-identical
/// analysis content.
fn run_file(path: &Path, policy: RecoveryPolicy, workers: usize) -> String {
    describe(&ingest(path, policy, workers))
}

/// Checks a finished run against the reference engine over exactly the
/// events the same reader delivers: full analysis, gap count, loss and
/// event accounting. Error and panic endings have no reference and pass.
fn assert_matches_survivors(
    path: &Path,
    policy: RecoveryPolicy,
    outcome: &std::thread::Result<Result<StreamingAnalysis, StreamError>>,
    label: &str,
) {
    let Ok(Ok(streamed)) = outcome else { return };
    let mut reader = ChunkFileReader::with_policy(path, policy).unwrap();
    let survivors = common::Survivors::collect(&mut reader).unwrap();
    assert_eq!(
        streamed.analysis,
        survivors.reference(config()),
        "{label}: analysis diverged from the reference over the surviving events"
    );
    assert_eq!(streamed.stats.gaps, survivors.gaps, "{label}: gaps");
    assert_eq!(
        streamed.stats.events_lost, survivors.events_lost,
        "{label}: loss"
    );
    assert_eq!(streamed.stats.events, survivors.events(), "{label}: events");
}

/// The full chaos matrix: every fault kind realized on disk **in both
/// formats**, ingested under every recovery policy inline (twice) and
/// threaded. Nothing panics, reruns are identical, every report matches the
/// reference engine over the surviving events, and the threaded engine ends
/// every cell — report, gap-report or structured error — exactly like the
/// inline one.
///
/// Outcomes are *not* asserted equal across formats: a bit flip lands on
/// different bytes in different encodings, so its detectability legitimately
/// differs. The invariants (no panic, determinism, engine parity) hold for
/// each format independently.
#[test]
fn chaos_matrix_never_panics_and_is_deterministic() {
    let corpus = corpus();
    for (ext, clean) in [("jsonl", &corpus.path), ("pbin", &corpus.pbin_path)] {
        for kind in FaultKind::ALL {
            for seed in [1u64, 7, 42] {
                let dst = std::env::temp_dir().join(format!(
                    "perfplay-chaos-{}-{seed}-{}.{ext}",
                    kind.name(),
                    std::process::id()
                ));
                let fault = corrupt_chunk_file(clean, &dst, kind, seed).unwrap();
                for policy in POLICIES {
                    let outcome = ingest(&dst, policy, 0);
                    let first = describe(&outcome);
                    assert!(
                        first != "panic",
                        "{ext} {kind} seed {seed} under {policy:?} panicked ({fault})"
                    );
                    assert_matches_survivors(
                        &dst,
                        policy,
                        &outcome,
                        &format!("{ext} {kind} seed {seed} under {policy:?} ({fault})"),
                    );
                    let second = run_file(&dst, policy, 0);
                    assert_eq!(
                        first, second,
                        "{ext} {kind} seed {seed} under {policy:?} is nondeterministic ({fault})"
                    );
                    let parallel = run_file(&dst, policy, 2);
                    assert_eq!(
                        first, parallel,
                        "{ext} {kind} seed {seed} under {policy:?}: threaded streaming \
                         diverged from inline ({fault})"
                    );
                }
                std::fs::remove_file(&dst).ok();
            }
        }
    }
}

/// The same matrix applied in flight: a seeded [`FaultInjector`] between the
/// file reader and the detector. Nothing panics, reruns are identical, and
/// every run that ends in a report matches the reference engine over
/// exactly the chunks the injector let through.
#[test]
fn in_flight_faults_never_panic_and_are_deterministic() {
    let corpus = corpus();
    for kind in FaultKind::ALL.into_iter().filter(|k| k.stream_applicable()) {
        for seed in [1u64, 7, 42] {
            let plan = FaultPlan::seeded(seed, kind, corpus.chunks.len() as u64);
            let injected =
                || FaultInjector::new(ChunkFileReader::open(&corpus.path).unwrap(), plan);
            let run = || {
                let outcome =
                    std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<_, StreamError> {
                        let streamed = StreamingDetector::new(config()).analyze(&mut injected())?;
                        let survivors = common::Survivors::collect(&mut injected())?;
                        assert_eq!(
                            streamed.analysis,
                            survivors.reference(config()),
                            "in-flight {kind} seed {seed}: diverged from the reference"
                        );
                        Ok((streamed.analysis.breakdown, streamed.stats.events))
                    }));
                match outcome {
                    Err(_) => "panic".to_string(),
                    Ok(Ok(t)) => format!("ok {t:?}"),
                    Ok(Err(e)) => format!("error {e}"),
                }
            };
            let first = run();
            assert!(first != "panic", "in-flight {kind} seed {seed} panicked");
            assert_eq!(
                first,
                run(),
                "in-flight {kind} seed {seed} nondeterministic"
            );
        }
    }
}

/// Recovery soundness: `SkipChunk` detection over a stream with one
/// corrupted chunk record equals batch detection over the same trace with
/// that chunk's events removed, and the gap annotation accounts for exactly
/// the lost events.
#[test]
fn skip_chunk_recovery_matches_detection_with_the_chunk_removed() {
    let corpus = corpus();
    let victim = corpus.chunks.len() / 2;
    let victim_chunk = &corpus.chunks[victim];
    let victim_events = victim_chunk.num_events();
    assert!(victim_events > 0, "victim chunk must lose something");

    // Corrupt the victim's record line beyond parsing (line 0 is the header).
    let mut lines = corpus.lines.clone();
    let cut = lines[victim + 1].len() / 2;
    lines[victim + 1].truncate(cut);
    let path = std::env::temp_dir().join(format!(
        "perfplay-recovery-soundness-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

    let mut reader = ChunkFileReader::with_policy(&path, RecoveryPolicy::SkipChunk).unwrap();
    let streamed = StreamingDetector::new(config())
        .analyze(&mut reader)
        .unwrap();
    std::fs::remove_file(&path).ok();

    // The gap annotation counts the loss: one unparseable-record gap (size
    // unknown at that point) plus the trailer reconciliation gap carrying
    // the residual — exactly the victim's events.
    assert_eq!(streamed.stats.gaps, 2, "parse gap + trailer reconciliation");
    assert_eq!(streamed.stats.events_lost, victim_events as u64);
    assert_eq!(
        streamed.stats.events,
        corpus.trace.num_events() - victim_events
    );

    // The executable spec: the same trace with the victim chunk's events
    // spliced out, analyzed by the in-memory batch engine.
    let mut expected = corpus.trace.clone();
    for span in &victim_chunk.spans {
        expected.threads[span.thread.index()]
            .events
            .drain(span.base_index..span.base_index + span.events.len());
    }
    let batch = Detector::new(config()).analyze(&expected);

    assert_eq!(streamed.analysis.breakdown, batch.breakdown);
    assert_eq!(streamed.analysis.ulcps, batch.ulcps);
    assert_eq!(streamed.analysis.edges, batch.edges);
    // Sections match in everything but the per-thread event indexes (the
    // gapped stream keeps the original numbering; the spliced trace
    // renumbers).
    assert_eq!(streamed.analysis.sections.len(), batch.sections.len());
    for (s, b) in streamed.analysis.sections.iter().zip(&batch.sections) {
        assert_eq!(s.id, b.id);
        assert_eq!(s.thread, b.thread);
        assert_eq!(s.lock, b.lock);
        assert_eq!(s.site, b.site);
        assert_eq!(s.enter_time, b.enter_time);
        assert_eq!(s.exit_time, b.exit_time);
        assert_eq!(s.reads, b.reads);
        assert_eq!(s.writes, b.writes);
        assert_eq!(s.body_cost, b.body_cost);
    }
}

/// The binary twin of the recovery-soundness test: a payload byte flipped
/// deep inside one chunk frame is rejected by the frame CRC, and `SkipChunk`
/// accounts for exactly that chunk — same gap count, same residual loss,
/// same analysis as the spliced batch run.
#[test]
fn pbin_skip_chunk_recovery_accounts_for_the_exact_loss() {
    let corpus = corpus();
    // Learn the byte extent of every record in the binary twin (extents tile
    // the file: record 1 absorbs the 8-byte prelude).
    let mut extents: Vec<(usize, usize)> = Vec::new();
    for raw in RawChunkRecords::open(&corpus.pbin_path).unwrap() {
        assert!(raw.record.is_ok(), "clean corpus record parses");
        extents.push((raw.offset as usize, raw.bytes as usize));
    }
    assert_eq!(extents.len(), corpus.chunks.len() + 2);

    let victim = corpus.chunks.len() / 2;
    let victim_chunk = &corpus.chunks[victim];
    let victim_events = victim_chunk.num_events();
    assert!(victim_events > 0, "victim chunk must lose something");

    let (start, len) = extents[victim + 1];
    let mut bytes = std::fs::read(&corpus.pbin_path).unwrap();
    bytes[start + len / 2] ^= 0x40;
    let path = std::env::temp_dir().join(format!(
        "perfplay-pbin-recovery-soundness-{}.pbin",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();

    let mut reader = ChunkFileReader::with_policy(&path, RecoveryPolicy::SkipChunk).unwrap();
    let streamed = StreamingDetector::new(config())
        .analyze(&mut reader)
        .unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(streamed.stats.gaps, 2, "CRC gap + trailer reconciliation");
    assert_eq!(streamed.stats.events_lost, victim_events as u64);
    assert_eq!(
        streamed.stats.events,
        corpus.trace.num_events() - victim_events
    );

    let mut expected = corpus.trace.clone();
    for span in &victim_chunk.spans {
        expected.threads[span.thread.index()]
            .events
            .drain(span.base_index..span.base_index + span.events.len());
    }
    let batch = Detector::new(config()).analyze(&expected);
    assert_eq!(streamed.analysis.breakdown, batch.breakdown);
    assert_eq!(streamed.analysis.ulcps, batch.ulcps);
    assert_eq!(streamed.analysis.edges, batch.edges);
}

/// Truncation sweep: the file cut at every record boundary and at several
/// byte offsets inside every record. `Fail` rejects every incomplete file
/// with a structured error; the recovery policies analyze exactly the clean
/// prefix and annotate the gap; nothing ever panics.
#[test]
fn truncation_at_every_boundary_is_contained() {
    let corpus = corpus();
    let n = corpus.lines.len();
    let dst = std::env::temp_dir().join(format!(
        "perfplay-truncate-sweep-{}.jsonl",
        std::process::id()
    ));
    for keep in 1..=n {
        let line = corpus.lines[keep - 1].as_bytes();
        // None: clean cut after `keep` whole lines. Some(b): `keep - 1`
        // whole lines plus `b` bytes of the next record, no trailing
        // newline — the shape a killed writer leaves.
        let mut cuts: Vec<Option<usize>> = vec![None];
        for b in [1, line.len() / 2, line.len().saturating_sub(1)] {
            if b > 0 && b < line.len() && cuts.iter().all(|c| *c != Some(b)) {
                cuts.push(Some(b));
            }
        }
        for cut in cuts {
            let mut content: Vec<u8> = Vec::new();
            for full in &corpus.lines[..keep - 1] {
                content.extend_from_slice(full.as_bytes());
                content.push(b'\n');
            }
            match cut {
                None => {
                    content.extend_from_slice(line);
                    content.push(b'\n');
                }
                Some(b) => content.extend_from_slice(&line[..b]),
            }
            std::fs::write(&dst, &content).unwrap();

            let complete = keep == n && cut.is_none();
            let whole_lines = if cut.is_none() { keep } else { keep - 1 };
            // Chunk records fully present: lines 1..=chunks.len().
            let kept_chunks = whole_lines.saturating_sub(1).min(corpus.chunks.len());
            let expected_events: usize = corpus.chunks[..kept_chunks]
                .iter()
                .map(TraceChunk::num_events)
                .sum();

            for policy in POLICIES {
                let out = run_file(&dst, policy, 0);
                assert!(
                    out != "panic",
                    "keep {keep} cut {cut:?} under {policy:?} panicked"
                );
                match policy {
                    RecoveryPolicy::Fail => {
                        if complete {
                            assert!(
                                out.starts_with("report"),
                                "complete file must analyze cleanly, got {out}"
                            );
                        } else {
                            assert!(
                                out.starts_with("error"),
                                "Fail must reject keep {keep} cut {cut:?}, got {out}"
                            );
                        }
                    }
                    _ => {
                        if complete {
                            assert!(out.starts_with("report"), "got {out}");
                        } else if keep == 1 && cut.is_some() {
                            // The header itself is unreadable: a structured
                            // error is the only honest outcome.
                            assert!(out.starts_with("error"), "got {out}");
                        } else {
                            assert!(
                                out.starts_with("gap-report"),
                                "recovery must keep the clean prefix of keep {keep} \
                                 cut {cut:?}, got {out}"
                            );
                            let events = format!("events={expected_events} ");
                            assert!(
                                out.contains(&events),
                                "prefix of keep {keep} cut {cut:?} holds \
                                 {expected_events} events, got {out}"
                            );
                        }
                    }
                }
            }
        }
    }
    std::fs::remove_file(&dst).ok();
}

/// A compact binary corpus for the exhaustive byte-level sweeps below:
/// every single byte offset of this file gets truncated and bit-flipped, so
/// it is recorded deliberately small.
struct SweepCorpus {
    bytes: Vec<u8>,
    /// `(offset, bytes)` extent of each record; the extents tile the file
    /// (record 1 absorbs the 8-byte prelude).
    extents: Vec<(usize, usize)>,
    chunks: Vec<TraceChunk>,
}

fn sweep_corpus() -> &'static SweepCorpus {
    static SWEEP: OnceLock<SweepCorpus> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let trace = record(
            11,
            &GeneratorConfig {
                threads: 2,
                locks: 2,
                objects: 3,
                sections_per_thread: 3,
            },
        );
        let path =
            std::env::temp_dir().join(format!("perfplay-chaos-sweep-{}.pbin", std::process::id()));
        spill_trace(&trace, &path, 16).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut extents = Vec::new();
        let mut chunks = Vec::new();
        for raw in RawChunkRecords::open(&path).unwrap() {
            extents.push((raw.offset as usize, raw.bytes as usize));
            if let Ok(ChunkFileRecord::Chunk(chunk)) = raw.record {
                chunks.push(chunk);
            }
        }
        std::fs::remove_file(&path).ok();
        assert!(chunks.len() >= 3, "sweep corpus needs several chunks");
        let tiled: usize = extents.iter().map(|(_, b)| b).sum();
        assert_eq!(tiled, bytes.len(), "record extents tile the file");
        SweepCorpus {
            bytes,
            extents,
            chunks,
        }
    })
}

/// PBIN truncation sweep at **every byte offset** of the file. `Fail`
/// rejects every incomplete file; the recovery policies analyze exactly the
/// whole records before the cut and annotate the rest as gaps; cuts inside
/// the prelude or header frame fail the open with a structured error;
/// nothing ever panics.
#[test]
fn pbin_truncation_at_every_byte_offset_is_contained() {
    let sweep = sweep_corpus();
    let dst = std::env::temp_dir().join(format!(
        "perfplay-pbin-trunc-sweep-{}.pbin",
        std::process::id()
    ));
    for cut in 0..=sweep.bytes.len() {
        std::fs::write(&dst, &sweep.bytes[..cut]).unwrap();
        let complete = cut == sweep.bytes.len();
        let whole = sweep.extents.iter().filter(|(o, b)| o + b <= cut).count();
        let kept_chunks = whole.saturating_sub(1).min(sweep.chunks.len());
        let expected_events: usize = sweep.chunks[..kept_chunks]
            .iter()
            .map(TraceChunk::num_events)
            .sum();
        for policy in POLICIES {
            let out = run_file(&dst, policy, 0);
            assert!(out != "panic", "cut {cut} under {policy:?} panicked");
            if complete {
                assert!(
                    out.starts_with("report"),
                    "complete file analyzes cleanly under {policy:?}, got {out}"
                );
            } else if matches!(policy, RecoveryPolicy::Fail) {
                assert!(
                    out.starts_with("error"),
                    "Fail must reject cut {cut}, got {out}"
                );
            } else if whole == 0 {
                // The header frame itself is incomplete: no stream exists.
                assert!(
                    out.starts_with("error"),
                    "headerless cut {cut} must error under {policy:?}, got {out}"
                );
            } else {
                assert!(
                    out.starts_with("gap-report"),
                    "recovery must keep the clean prefix at cut {cut} \
                     under {policy:?}, got {out}"
                );
                let events = format!("events={expected_events} ");
                assert!(
                    out.contains(&events),
                    "cut {cut} keeps {expected_events} events, got {out}"
                );
            }
        }
    }
    std::fs::remove_file(&dst).ok();
}

/// PBIN bit-flip sweep: one bit flipped at **every byte offset** of the
/// file. Nothing panics, every outcome is deterministic, and any flip past
/// the header record is *detected* — the frame CRC (or framing resync)
/// turns it into a located error under `Fail` and a gap under `SkipChunk`,
/// never silent corruption and never a stream-ending error mid-recovery.
#[test]
fn pbin_single_bit_flips_are_contained_at_every_byte_offset() {
    let sweep = sweep_corpus();
    let (header_start, header_len) = sweep.extents[0];
    let header_end = header_start + header_len;
    let dst = std::env::temp_dir().join(format!(
        "perfplay-pbin-flip-sweep-{}.pbin",
        std::process::id()
    ));
    for pos in 0..sweep.bytes.len() {
        let mut bytes = sweep.bytes.clone();
        bytes[pos] ^= 1 << (pos % 8);
        std::fs::write(&dst, &bytes).unwrap();
        let skip = run_file(&dst, RecoveryPolicy::SkipChunk, 0);
        assert!(skip != "panic", "flip at {pos} panicked under SkipChunk");
        assert_eq!(
            skip,
            run_file(&dst, RecoveryPolicy::SkipChunk, 0),
            "flip at {pos} is nondeterministic"
        );
        let fail = run_file(&dst, RecoveryPolicy::Fail, 0);
        assert!(fail != "panic", "flip at {pos} panicked under Fail");
        if pos >= header_end {
            assert!(
                skip.starts_with("gap-report"),
                "flip at {pos} must become a gap under SkipChunk, got {skip}"
            );
            assert!(
                fail.starts_with("error"),
                "flip at {pos} must be rejected under Fail, got {fail}"
            );
        }
    }
    std::fs::remove_file(&dst).ok();
}

/// SplitMix64: a seeded stream of test choices.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw from `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// LEB128, as the PBIN payload encodes every integer.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Hostile-but-honest PBIN frames: the frame CRC is valid, so only payload
/// decoding can catch them, and each claims an adversarial element count —
/// span, event or grant counts of a chunk, or the finish-time count of the
/// trailer — up to the most the remaining payload bytes admit, over seeded
/// filler. Decoding must fail without reserving what the count claims; the
/// frame then yields a located error under `Fail` and a gap under
/// `SkipChunk` (which still matches the reference over what survived), and
/// nothing panics.
#[test]
fn pbin_hostile_counts_are_contained() {
    let sweep = sweep_corpus();
    let last = sweep.extents.len() - 1;
    let dst =
        std::env::temp_dir().join(format!("perfplay-pbin-hostile-{}.pbin", std::process::id()));
    for seed in 0u64..12 {
        let mut rng = SplitMix(seed);
        // Victim: a chunk frame (records 1..last) or the trailer (last).
        let victim = if seed % 4 == 3 {
            last
        } else {
            rng.range(1, last as u64) as usize
        };
        // Only the header's extent absorbs the 8-byte prelude, so every
        // later extent starts exactly at its frame marker — the same four
        // bytes the header frame opens with after the prelude.
        let (frame_start, len) = sweep.extents[victim];
        let marker_and_kind = &sweep.bytes[frame_start..frame_start + 5];
        assert_eq!(marker_and_kind[..4], sweep.bytes[8..12], "frame marker");

        let filler = rng.range(1 << 12, 1 << 18) as usize;
        let claim = match rng.range(0, 4) {
            0 => filler as u64,
            1 => filler as u64 - 1,
            2 => filler as u64 / 2 + 1,
            _ => u64::from(u32::MAX) + rng.range(0, 1_000),
        };
        let mut payload = Vec::new();
        let field = if victim == last {
            put_varint(&mut payload, rng.range(0, 1_000_000)); // total time
            "finish-time"
        } else {
            put_varint(&mut payload, rng.range(0, 64)); // seq
            put_varint(&mut payload, rng.range(0, 1_000_000)); // window end
            match seed % 3 {
                0 => "span",
                1 => {
                    put_varint(&mut payload, 1); // one span...
                    put_varint(&mut payload, 0); // ...of thread 0...
                    put_varint(&mut payload, 0); // ...at base 0
                    "event"
                }
                _ => {
                    put_varint(&mut payload, 0); // no spans
                    "grant"
                }
            }
        };
        put_varint(&mut payload, claim);
        payload.extend((0..filler).map(|_| rng.next() as u8));

        let mut frame = marker_and_kind.to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        let crc = perfplay_trace::pbin::crc32(&frame[4..]);
        frame.extend_from_slice(&crc.to_le_bytes());

        let mut bytes = sweep.bytes[..frame_start].to_vec();
        bytes.extend_from_slice(&frame);
        bytes.extend_from_slice(&sweep.bytes[frame_start + len..]);
        std::fs::write(&dst, &bytes).unwrap();
        let label = format!("seed {seed}: {field} count {claim} over {filler} bytes");

        match ingest(&dst, RecoveryPolicy::Fail, 0) {
            Err(_) => panic!("{label} panicked under Fail"),
            Ok(Ok(_)) => panic!("{label} analyzed cleanly under Fail"),
            Ok(Err(e)) => assert!(
                matches!(e, StreamError::At { .. }),
                "{label}: expected a located error, got {e:?}"
            ),
        }
        let skip = ingest(&dst, RecoveryPolicy::SkipChunk, 0);
        assert!(
            describe(&skip).starts_with("gap-report"),
            "{label} must become a gap under SkipChunk, got {}",
            describe(&skip)
        );
        assert_matches_survivors(&dst, RecoveryPolicy::SkipChunk, &skip, &label);
    }
    std::fs::remove_file(&dst).ok();
}

/// Peak resident set of this process in bytes, where the OS reports it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = kib.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib * 1024)
}

/// Over-long JSON-lines records: a seeded chunk line is replaced by a
/// newline-free run of zero bytes past [`MAX_LINE_BYTES`] — either just past
/// it and terminated, so the file goes on, or running three limits to end of
/// file. The run is a sparse hole, so the file costs no disk. Both the
/// sequential and the pipelined reader skip the run without buffering more
/// than the limit: the line yields a located error under `Fail` and a gap
/// under the recovery policies (matching the reference over what survived),
/// the readers agree, nothing panics, and the process peak stays under two
/// limits above where it started (a reader that buffered the whole run
/// would need three; the slack covers a copying reallocation).
#[test]
fn jsonl_overlong_lines_are_contained() {
    use std::io::{Seek, SeekFrom, Write};

    let corpus = corpus();
    let limit = MAX_LINE_BYTES as u64;
    let baseline = peak_rss_bytes();
    let dst = std::env::temp_dir().join(format!(
        "perfplay-jsonl-overlong-{}.jsonl",
        std::process::id()
    ));
    for seed in 0u64..3 {
        let mut rng = SplitMix(seed);
        // A chunk line: never the header (line 0) or the trailer (last).
        let victim = rng.range(1, corpus.lines.len() as u64 - 1) as usize;
        let to_eof = seed == 2;
        let run = if to_eof {
            3 * limit + rng.range(1, 1 << 16)
        } else {
            limit + rng.range(0, 1 << 16)
        };
        let label = format!(
            "seed {seed}: line {} of {run} bytes, to_eof {to_eof}",
            victim + 1
        );

        let mut file = std::fs::File::create(&dst).unwrap();
        for line in &corpus.lines[..victim] {
            writeln!(file, "{line}").unwrap();
        }
        let hole = file.stream_position().unwrap();
        file.set_len(hole + run).unwrap();
        file.seek(SeekFrom::End(0)).unwrap();
        if !to_eof {
            writeln!(file).unwrap();
            for line in &corpus.lines[victim + 1..] {
                writeln!(file, "{line}").unwrap();
            }
        }
        drop(file);

        match ingest(&dst, RecoveryPolicy::Fail, 0) {
            Err(_) => panic!("{label} panicked under Fail"),
            Ok(Ok(_)) => panic!("{label} analyzed cleanly under Fail"),
            Ok(Err(e)) => match &e {
                StreamError::At { line, offset, .. } => {
                    assert_eq!(*line, victim + 1, "{label}: error line");
                    assert_eq!(*offset, hole, "{label}: error offset");
                    assert!(
                        e.to_string().contains("line limit"),
                        "{label}: unexpected cause {e}"
                    );
                }
                _ => panic!("{label}: expected a located error, got {e:?}"),
            },
        }
        for policy in [RecoveryPolicy::SkipChunk, RecoveryPolicy::SkipStream] {
            let outcome = ingest(&dst, policy, 0);
            let sequential = describe(&outcome);
            assert!(
                sequential.starts_with("gap-report"),
                "{label} must become a gap under {policy:?}, got {sequential}"
            );
            assert_matches_survivors(&dst, policy, &outcome, &label);

            let pipelined = describe(&std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut reader = PipelinedChunkReader::with_options(&dst, policy, None, 2)?;
                StreamingDetector::new(config()).analyze(&mut reader)
            })));
            assert_eq!(pipelined, sequential, "{label}: pipelined reader diverged");
        }
    }
    std::fs::remove_file(&dst).ok();
    if let (Some(before), Some(after)) = (baseline, peak_rss_bytes()) {
        assert!(
            after < before + 2 * limit,
            "peak RSS grew by {} bytes reading over-long lines (limit {limit})",
            after.saturating_sub(before)
        );
    }
}

/// A corrupted member of a multi-file batch is isolated as a structured
/// per-item failure while the clean members analyze and fuse.
#[test]
fn chunk_file_batch_isolates_a_corrupted_member() {
    let corpus = corpus();
    let bad = std::env::temp_dir().join(format!(
        "perfplay-chaos-batch-bad-{}.jsonl",
        std::process::id()
    ));
    corrupt_chunk_file(&corpus.path, &bad, FaultKind::TruncateMidRecord, 7).unwrap();

    let paths = [&corpus.path, &bad];
    let batch = analyze_chunk_files(&paths, &PipelineConfig::default(), RecoveryPolicy::Fail);
    assert_eq!(batch.per_stream.len(), 1, "the clean file analyzes");
    assert_eq!(batch.failures.len(), 1, "the corrupted file fails alone");
    assert_eq!(batch.failures[0].trace_index, 1);
    assert!(!batch.recommendations.is_empty());

    // Under recovery the same corrupted file degrades to a gapped stream
    // instead of failing, and the fused result annotates the loss.
    let recovered = analyze_chunk_files(
        &paths,
        &PipelineConfig::default(),
        RecoveryPolicy::SkipChunk,
    );
    assert!(recovered.failures.is_empty());
    assert_eq!(recovered.per_stream.len(), 2);
    assert!(recovered.total_gaps() > 0);
    std::fs::remove_file(&bad).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeded random corner of the chaos space beyond the fixed matrix:
    /// arbitrary `(seed, fault, policy, format)` cells still never panic.
    #[test]
    fn random_faults_never_panic(
        seed in 0u64..10_000,
        kind_index in 0usize..FaultKind::ALL.len(),
        policy_index in 0usize..3,
        workers in prop_oneof![Just(0usize), Just(2)],
        use_pbin in prop_oneof![Just(false), Just(true)],
    ) {
        let corpus = corpus();
        let kind = FaultKind::ALL[kind_index];
        let (ext, clean) = if use_pbin {
            ("pbin", &corpus.pbin_path)
        } else {
            ("jsonl", &corpus.path)
        };
        let dst = std::env::temp_dir().join(format!(
            "perfplay-chaos-prop-{seed}-{kind_index}-{}.{ext}",
            std::process::id()
        ));
        corrupt_chunk_file(clean, &dst, kind, seed).unwrap();
        let out = run_file(&dst, POLICIES[policy_index], workers);
        std::fs::remove_file(&dst).ok();
        prop_assert!(
            out != "panic",
            "{} {} seed {} under {:?} ({} workers) panicked",
            ext, kind, seed, POLICIES[policy_index], workers
        );
    }
}
