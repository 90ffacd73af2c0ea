//! `repro` — reproduces the headline numbers of this repository and emits
//! machine-readable benchmark artifacts.
//!
//! * `repro detect [--quick] [--out PATH]` runs the ULCP-detection scaling
//!   comparison: the naive snapshot-cloning reference engine vs the optimized
//!   snapshot-free batch engine on a large synthetic trace, verifies both
//!   produce bit-identical results, and writes `BENCH_detect.json`.
//! * `repro detect --stream [--quick] [--out PATH]` runs the streaming
//!   ingestion comparison: the in-memory engine vs the chunk-by-chunk
//!   streaming engine run inline (`StreamingDetector`) on a >=10M-event
//!   synthetic trace (CI-sized with
//!   `--quick`), verifies bit-identical results plus the chunked-file
//!   spill/re-ingest roundtrip — one row per on-disk format (`jsonl` and
//!   `pbin`) — reports the peak resident state, and writes
//!   `BENCH_stream.json`.
//! * `repro ingest [--quick] [--out PATH]` runs the on-disk ingestion
//!   benchmark: the >=10M-event workload is spilled through `ChunkedWriter`
//!   in both chunk-file formats and streamed back through the detector,
//!   pinning events/sec and bytes/event per format plus bit-identical
//!   detection digests (content + ranked report) across formats, written as
//!   `BENCH_ingest.json`. On the full workload the binary format must
//!   ingest >=4x faster than JSON-lines at <=1/3 the bytes/event.
//! * `repro convert --chunk-file SRC --out DST [--format json|pbin]`
//!   translates a chunk file between the on-disk formats (streaming,
//!   chunk-bounded memory), autodetecting the source by magic bytes and the
//!   destination by extension unless `--format` overrides it.
//! * `repro detect --aggregate [--quick] [--out PATH]` runs the sink
//!   comparison on the same >=10M-event workload: the materializing
//!   pair-list path (batch `CollectPairs` + per-pair fusion) vs the
//!   streaming `SiteAggregator` path that folds each pair into a per-site
//!   aggregate at emission time. It verifies the `UlcpBreakdown` and the
//!   ranked report digests are identical, records the peak aggregate-table
//!   size against the materialized pair count, and writes
//!   `BENCH_aggregate.json`. Exits non-zero on any divergence.
//! * `repro detect --stream --chunk-file PATH [--out PATH]` streams the
//!   detector off an on-disk chunked trace file (`ChunkFileReader`), the
//!   format `perfplay-record`'s `ChunkedWriter` spills — detection of traces
//!   that never existed in memory.
//! * `repro replay [--quick] [--out PATH]` runs the replay scaling
//!   comparison: the naive scan-and-wake-all reference loop vs the unified
//!   indexed-ready-set engine on 64/128/256-thread synthetic workloads,
//!   across all four schedule kinds plus the ULCP-free lockset replay,
//!   verifies bit-identical results by content digest, and writes
//!   `BENCH_replay.json`.
//! * `repro pipeline [--quick] [--out PATH]` prints one Table-1-style row per
//!   application model, analyzed by the **single-pass** pipeline (one
//!   detection pass per trace, no materialized pair list, all traces
//!   concurrently through the batch driver). With `--out`, it additionally
//!   runs the single-pass vs two-pass comparison on a large synthetic
//!   workload — pinning identical breakdown + ranked-report digests, the
//!   wall-clock win of eliminating the second detection pass, and the
//!   O(code sites) peak-memory story — and writes `BENCH_pipeline.json`,
//!   embedding the `BENCH_replay.json` artifact when present.
//! * `repro detect --inject SPEC [--out PATH]` runs the deterministic
//!   fault-injection harness: a clean chunked trace is corrupted (on disk
//!   and in flight) per SPEC (`all` or a fault name, optionally `:SEED`),
//!   ingested under every `RecoveryPolicy` with each attempt wrapped in
//!   `catch_unwind`, and the outcome matrix is printed. Exits non-zero if
//!   any trial panics — the pipeline's no-panic invariant as a smoke test.
//! * `repro batch --chunk-dir DIR [--quick] [--out PATH]` runs the batch
//!   sweep over on-disk chunk files: every `*.jsonl` and `*.pbin` in DIR
//!   (spilling the app models first when DIR is empty, alternating formats)
//!   is streamed through the detector under `SkipChunk` recovery and fused
//!   into one ranked report, with gap totals for any file that needed
//!   recovery.
//! * `repro lint --chunk-file PATH [--json]` statically lints one chunk file
//!   (well-formedness + lock-order analysis, no detection, no replay) and
//!   prints the coded diagnostics; exits non-zero when any error-severity
//!   finding exists. `--chunk-dir DIR` lints every `*.jsonl` and `*.pbin`
//!   in a directory.
//! * `repro lint --matrix` runs the fixed-seed fault→diagnostic-code matrix:
//!   each of the nine `FaultKind`s is injected (on disk and, where
//!   applicable, in flight) at several seeds and the lint report is checked
//!   against the documented contract (`codes_for_fault`). Exits non-zero on
//!   any contract violation — the linter's detection guarantees as a smoke
//!   test.
//! * `repro lint [--quick] [--out PATH]` runs the lint throughput benchmark:
//!   a >=10M-event synthetic trace (CI-sized with `--quick`) is spilled to a
//!   chunk file and statically linted, reporting events/sec and bytes/event
//!   with a determinism digest, written as `BENCH_lint.json`. The workload
//!   must lint clean.
//! * `repro batch [--quick] [--out PATH]` runs the multi-trace batch driver
//!   over every application model (the paper's Table 1 sweep as one call):
//!   N traces analyzed concurrently, their aggregate tables fused with the
//!   order-independent saturating merge, one fused ranked report — verified
//!   identical to sequential per-trace analysis + in-order merge, written as
//!   `BENCH_batch.json`.

use std::time::Instant;

use perfplay::prelude::{
    analyze_batch, analyze_batch_sequential, analyze_chunk_files, convert_chunk_file_pipelined,
    corrupt_chunk_file, default_decode_workers, fuse_aggregates, fuse_ulcp_gains, rank_groups,
    spill_trace, spill_trace_with_format, BatchAnalysis, BodyOverlapGain, ChunkFileReader,
    ChunkFormat, Detector, DetectorConfig, EventSource, FaultInjector, FaultKind, FaultPlan,
    GainSource, ParallelStreamingDetector, PerfReport, PipelineConfig, PipelinedChunkReader,
    Recommendation, RecoveryPolicy, SectionCtx, SiteAggregator, StreamingDetector, StreamingStats,
    Trace, Transformer, UlcpGain,
};
use perfplay::prelude::{codes_for_fault, lint_chunk_file, lint_source, lint_trace, LintConfig};
use perfplay::prelude::{ReplayConfig, ReplayResult, ReplaySchedule, Replayer, UlcpFreeReplayer};
use perfplay::workloads::{App, InputSize};
use perfplay_bench::{
    detect_bench_config, detect_trace, pct, record_app, replay_trace, stream_trace, DetectWorkload,
    ReplayWorkload, StreamWorkload,
};
use perfplay_detect::{reference_analyze, LastWriteIndex, UlcpAnalysis};
use perfplay_replay::{reference_replay_free, reference_replay_original};
use serde::{Deserialize, Serialize};

#[derive(Debug, Serialize)]
struct WorkloadReport {
    threads: usize,
    sections_per_thread: u32,
    locks: usize,
    objects: usize,
    total_sections: usize,
    trace_events: usize,
}

#[derive(Debug, Serialize)]
struct BreakdownReport {
    lock_acquisitions: usize,
    null_lock: usize,
    read_read: usize,
    disjoint_write: usize,
    benign: usize,
    tlcp_edges: usize,
}

impl From<&perfplay::prelude::UlcpBreakdown> for BreakdownReport {
    fn from(b: &perfplay::prelude::UlcpBreakdown) -> Self {
        BreakdownReport {
            lock_acquisitions: b.lock_acquisitions,
            null_lock: b.null_lock,
            read_read: b.read_read,
            disjoint_write: b.disjoint_write,
            benign: b.benign,
            tlcp_edges: b.tlcp_edges,
        }
    }
}

/// Peak resident detection state, reported under the same field names by
/// every BENCH artifact (`detect`, `stream`, `aggregate`) so the memory
/// trajectory is comparable across the engine generations: materialized
/// pairs (or aggregate-table rows), live pairing-state sections, and
/// retained shadow-memory history entries.
#[derive(Debug, Clone, Copy, Serialize)]
struct MemoryReport {
    peak_live_pairs: usize,
    peak_live_sections: usize,
    peak_history_entries: usize,
}

impl MemoryReport {
    fn from_streaming(stats: &StreamingStats) -> Self {
        MemoryReport {
            peak_live_pairs: stats.peak_live_pairs,
            peak_live_sections: stats.peak_live_sections,
            peak_history_entries: stats.peak_history_entries,
        }
    }
}

#[derive(Debug, Serialize)]
struct DetectReport {
    workload: WorkloadReport,
    record_ms: f64,
    naive_ms: f64,
    optimized_seq_ms: f64,
    speedup_seq: f64,
    results_identical: bool,
    /// Batch engines materialize everything, so the peaks are the totals.
    memory: MemoryReport,
    breakdown: BreakdownReport,
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Times `f` over `runs` runs, dropping each result before the next run.
/// Returns the digest of the (determinism-checked) result and the median
/// wall-clock — the naive engine's allocator-heavy profile makes single
/// samples swing by 2-3x, so one sample is not a number worth publishing.
fn measure(label: &str, runs: usize, mut f: impl FnMut() -> UlcpAnalysis) -> (ResultDigest, f64) {
    let mut times = Vec::with_capacity(runs);
    let mut first_digest: Option<ResultDigest> = None;
    for run in 0..runs.max(1) {
        let (analysis, ms) = time_ms(&mut f);
        eprintln!("{label} run {}/{}: {ms:.0}ms", run + 1, runs.max(1));
        times.push(ms);
        let d = digest(&analysis);
        match &first_digest {
            None => first_digest = Some(d),
            Some(expected) => assert_eq!(expected, &d, "{label} is nondeterministic"),
        }
    }
    times.sort_by(f64::total_cmp);
    let median = times[times.len() / 2];
    (first_digest.expect("at least one run"), median)
}

/// Compact content digest of an analysis: the exact breakdown and pair/edge
/// counts, plus an FNV-1a hash over every (first, second, lock, kind) tuple.
/// Comparing digests lets each engine be timed — and its multi-hundred-MB
/// result freed — before the next engine runs, so every engine sees the same
/// resident heap.
#[derive(Debug, PartialEq)]
struct ResultDigest {
    breakdown: perfplay::prelude::UlcpBreakdown,
    ulcps: usize,
    edges: usize,
    content_hash: u64,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn mix(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }
}

fn digest(a: &UlcpAnalysis) -> ResultDigest {
    let mut hash = Fnv::new();
    for u in &a.ulcps {
        hash.mix(u.first.index() as u64);
        hash.mix(u.second.index() as u64);
        hash.mix(u64::from(u.lock.raw()));
        hash.mix(u.kind as u64);
    }
    for e in &a.edges {
        hash.mix(e.from.index() as u64);
        hash.mix(e.to.index() as u64);
        hash.mix(u64::from(e.lock.raw()));
    }
    ResultDigest {
        breakdown: a.breakdown,
        ulcps: a.ulcps.len(),
        edges: a.edges.len(),
        content_hash: hash.0,
    }
}

fn run_detect(quick: bool, out: &str) {
    let workload = if quick {
        DetectWorkload {
            threads: 8,
            sections_per_thread: 100,
            locks: 8,
            objects: 64,
        }
    } else {
        DetectWorkload {
            threads: 64,
            sections_per_thread: 1600,
            locks: 64,
            objects: 2048,
        }
    };
    eprintln!(
        "recording synthetic workload: {} threads x {} sections ({} total)...",
        workload.threads,
        workload.sections_per_thread,
        workload.total_sections()
    );
    let (trace, record_ms) = time_ms(|| detect_trace(workload));
    eprintln!("recorded {} events in {record_ms:.0}ms", trace.num_events());
    // Counted while only the trace is resident (the engines build and drop
    // their own index internally; this probe is just for the memory report).
    let history_entries = LastWriteIndex::build(&trace).num_entries();

    let config = detect_bench_config();
    let runs = if quick { 1 } else { 3 };
    // Each engine is timed with only the trace (and small digests) resident:
    // every result — hundreds of MB of pairs on the full workload — is
    // reduced to a digest and freed before the next timed run.
    let (naive_digest, naive_ms) = measure("naive reference", runs, || {
        reference_analyze(&trace, config)
    });
    let (seq_digest, optimized_seq_ms) = measure("optimized sequential", runs, || {
        Detector::new(config).analyze(&trace)
    });
    let breakdown = seq_digest.breakdown;

    let results_identical = naive_digest == seq_digest;

    let memory = MemoryReport {
        peak_live_pairs: seq_digest.ulcps + seq_digest.edges,
        peak_live_sections: workload.total_sections(),
        peak_history_entries: history_entries,
    };
    let report = DetectReport {
        workload: WorkloadReport {
            threads: workload.threads,
            sections_per_thread: workload.sections_per_thread,
            locks: workload.locks,
            objects: workload.objects,
            total_sections: workload.total_sections(),
            trace_events: trace.num_events(),
        },
        record_ms,
        naive_ms,
        optimized_seq_ms,
        speedup_seq: naive_ms / optimized_seq_ms,
        results_identical,
        memory,
        breakdown: (&breakdown).into(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out, format!("{json}\n")).expect("write benchmark artifact");
    println!("{json}");
    // Assert only after the artifact is on disk, so a divergence leaves a
    // machine-readable record (results_identical: false) instead of nothing.
    assert!(
        results_identical,
        "optimized engine diverged from the naive reference:\nnaive: {naive_digest:?}\nseq:   {seq_digest:?}"
    );
    eprintln!("speedup: {:.1}x sequential -> {out}", report.speedup_seq);
}

#[derive(Debug, Serialize)]
struct StreamWorkloadReport {
    threads: usize,
    locks: usize,
    objects: usize,
    target_events: u64,
    trace_events: usize,
    total_sections: usize,
}

/// One on-disk format's spill + re-ingest measurement. The same row shape
/// appears in `BENCH_stream.json` (`file_roundtrip`) and `BENCH_ingest.json`
/// (`rows`) so the two artifacts can't drift.
#[derive(Debug, Serialize)]
struct FormatRoundtripReport {
    /// On-disk chunk-file format: `jsonl` or `pbin`.
    format: String,
    events: u64,
    chunks: u64,
    bytes: u64,
    write_ms: f64,
    /// Decode-only drain of the file: open, read and decode every chunk,
    /// run no detection. This isolates the codec — the only thing the
    /// on-disk format can change.
    ingest_ms: f64,
    /// The same decode-only drain through the three-stage
    /// `PipelinedChunkReader` (framing thread + decode workers). On a
    /// 1-CPU box this is expected to be no faster than `ingest_ms` —
    /// compare it against `available_parallelism` before reading it as a
    /// speedup claim.
    pipelined_ingest_ms: f64,
    /// Full streaming detection off the file (decode + detect), for the
    /// digest-identity check against the in-memory engine.
    stream_from_file_ms: f64,
    /// Decode throughput of the drain leg (`events` over `ingest_ms`) —
    /// the number the chunk-file codec is graded on.
    events_per_sec: f64,
    /// On-disk density of the chunked format (`bytes` / `events`).
    bytes_per_event: f64,
    identical_to_batch: bool,
    /// Ranked-report digest of the file-streamed analysis.
    report_digest: String,
}

/// Spills `trace` to `path` in `format`, drains the file once decode-only,
/// streams the detector back off it, and reduces the leg to one
/// [`FormatRoundtripReport`] row compared against the in-memory batch
/// digests. The file is removed unless `keep`.
fn roundtrip_row(
    trace: &Trace,
    format: ChunkFormat,
    path: &std::path::Path,
    keep: bool,
    chunk_events: usize,
    config: DetectorConfig,
    batch: &ResultDigest,
) -> FormatRoundtripReport {
    let (summary, write_ms) = time_ms(|| {
        spill_trace_with_format(trace, path, chunk_events, format).expect("spill succeeds")
    });
    let (drained, ingest_ms) = time_ms(|| {
        let mut reader = ChunkFileReader::open(path).expect("chunk file opens");
        assert_eq!(reader.format(), format, "magic autodetection");
        let mut events = 0u64;
        while let Some(chunk) = reader.next_chunk().expect("clean file drains") {
            events += chunk.num_events() as u64;
        }
        events
    });
    assert_eq!(drained, summary.events, "drain saw every spilled event");
    let (pipelined_drained, pipelined_ingest_ms) = time_ms(|| {
        let mut reader = PipelinedChunkReader::open(path).expect("chunk file opens");
        assert_eq!(reader.format(), format, "magic autodetection");
        let mut events = 0u64;
        while let Some(chunk) = reader.next_chunk().expect("clean file drains") {
            events += chunk.num_events() as u64;
        }
        events
    });
    assert_eq!(
        pipelined_drained, summary.events,
        "pipelined drain saw every spilled event"
    );
    let (result, stream_from_file_ms) = time_ms(|| {
        let mut reader = ChunkFileReader::open(path).expect("chunk file opens");
        StreamingDetector::new(config)
            .analyze(&mut reader)
            .expect("file stream analyzes")
    });
    if keep {
        eprintln!("chunked trace file kept at {}", path.display());
    } else {
        std::fs::remove_file(path).ok();
    }
    eprintln!(
        "{} roundtrip: {} events, {} bytes, write {write_ms:.0}ms, \
         drain {ingest_ms:.0}ms (pipelined {pipelined_ingest_ms:.0}ms), \
         re-ingest+detect {stream_from_file_ms:.0}ms",
        format.name(),
        summary.events,
        summary.bytes,
    );
    FormatRoundtripReport {
        format: format.name().to_string(),
        events: summary.events,
        chunks: summary.chunks,
        bytes: summary.bytes,
        write_ms,
        ingest_ms,
        pipelined_ingest_ms,
        stream_from_file_ms,
        events_per_sec: summary.events as f64 / (ingest_ms / 1e3).max(1e-9),
        bytes_per_event: summary.bytes as f64 / summary.events.max(1) as f64,
        identical_to_batch: digest(&result.analysis) == *batch,
        report_digest: format!("{:016x}", ranked_digest(&result.analysis)),
    }
}

/// The sharded-worker streaming run (`--parallel`), reported next to the
/// inline streaming run; both must match the batch engine bit-for-bit.
#[derive(Debug, Serialize)]
struct ParallelStreamReport {
    workers: usize,
    stream_ms: f64,
    /// Inline (one-worker) streaming wall-clock over threaded streaming
    /// wall-clock. The field keeps its historical name.
    speedup_vs_sequential: f64,
    /// Content digest (breakdown + every pair/edge) equal to the in-memory
    /// batch run's, and ranked-report digest equal to the inline run's.
    results_identical: bool,
    report_digest: String,
    /// Peak resident state summed across the decoder and all worker shards.
    streaming: StreamingStats,
    memory: MemoryReport,
}

#[derive(Debug, Serialize)]
struct StreamReport {
    workload: StreamWorkloadReport,
    chunk_events: usize,
    /// Cores visible to this run — read the `parallel` block's worker count
    /// and speedup against it (a 1-CPU CI box cannot show a real speedup).
    available_parallelism: usize,
    record_ms: f64,
    batch_ms: f64,
    stream_ms: f64,
    results_identical: bool,
    /// The sharded per-lock worker pipeline, when run with `--parallel`.
    parallel: Option<ParallelStreamReport>,
    /// Peak resident state of the streaming run; `peak_live_sections` /
    /// `total_sections` is the boundedness headline.
    streaming: StreamingStats,
    /// The cross-artifact comparable view of the same peaks.
    memory: MemoryReport,
    peak_live_fraction: f64,
    /// End-to-end spill + re-ingest through the chunked trace file, run on
    /// a CI-sized slice (text parsing cost keeps it out of the 10M run) —
    /// one row per on-disk format. The full-scale per-format comparison
    /// lives in `BENCH_ingest.json` (`repro ingest`), which shares this row
    /// shape.
    file_roundtrip: Vec<FormatRoundtripReport>,
    breakdown: BreakdownReport,
}

/// The machine's available parallelism — recorded in the artifacts so
/// worker counts and speedup claims stay interpretable on 1-CPU CI boxes.
fn available_parallelism_now() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Worker count for the `--parallel` runs: every core, floored at 8 so the
/// acceptance artifact always exercises a real shard fan-out.
fn parallel_workers() -> usize {
    available_parallelism_now().max(8)
}

/// Ranked-report digest of an analysis under the detection-time
/// [`BodyOverlapGain`] proxy — the report-level half of the parallel
/// streaming equivalence check (the content digest is the other half).
fn ranked_digest(analysis: &UlcpAnalysis) -> u64 {
    let gain = BodyOverlapGain;
    report_digest(&rank_groups(fuse_ulcp_gains(
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
    )))
}

/// `repro detect --stream`: the streaming ingestion path. Records a
/// synthetic workload (>=10M events unless `--quick`), analyzes it with the
/// in-memory engine and the chunk-by-chunk [`StreamingDetector`], verifies
/// the results are bit-identical, exercises the chunked-file spill/re-ingest
/// roundtrip, and writes `BENCH_stream.json`. With `--parallel`, the same
/// workload additionally runs through the sharded-per-lock-worker
/// [`ParallelStreamingDetector`] and the artifact gains a `parallel` block
/// pinning bit-identical results (content + ranked-report digests) and the
/// wall-clock ratio. With `--spill PATH`, the roundtrip row whose format
/// matches `PATH`'s extension (`.pbin` for binary, anything else JSON-lines)
/// writes its chunked trace file to `PATH` and keeps it, ready for
/// `repro detect --stream --chunk-file PATH`.
fn run_stream(quick: bool, out: &str, spill: Option<&str>, parallel: bool) {
    let workload = if quick {
        StreamWorkload::quick()
    } else {
        StreamWorkload::ten_million()
    };
    let chunk_events = if quick { 4_096 } else { 262_144 };
    eprintln!(
        "recording streaming workload: {} threads, target {} events...",
        workload.threads, workload.target_events
    );
    let (trace, record_ms) = time_ms(|| stream_trace(workload));
    let trace_events = trace.num_events();
    eprintln!("recorded {trace_events} events in {record_ms:.0}ms");
    if !quick {
        assert!(
            trace_events >= 10_000_000,
            "acceptance workload must exceed 10M events, got {trace_events}"
        );
    }

    let config = detect_bench_config();
    let runs = 1;
    let (batch_digest, batch_ms) = measure("in-memory batch", runs, || {
        Detector::new(config).analyze(&trace)
    });
    // Inline streaming is timed explicitly (not through `measure`) so the
    // analysis survives long enough for a ranked-report digest — the second
    // half of the parallel equivalence check.
    let (streamed, stream_ms) = time_ms(|| {
        StreamingDetector::new(config)
            .analyze_trace(&trace, chunk_events)
            .expect("in-memory chunk stream never fails")
    });
    eprintln!("streaming       run 1/1: {stream_ms:.0}ms");
    let stats = streamed.stats;
    let stream_digest = digest(&streamed.analysis);
    let stream_ranked = ranked_digest(&streamed.analysis);
    drop(streamed);
    let results_identical = batch_digest == stream_digest;
    let total_sections = stats.sections;

    // The sharded per-lock worker pipeline: decoder -> bounded channel ->
    // N workers -> in-order shard absorption. Timed against the inline
    // streaming run; its content is pinned to the batch engine's.
    let parallel = parallel.then(|| {
        let workers = parallel_workers();
        let (par, par_ms) = time_ms(|| {
            ParallelStreamingDetector::with_workers(config, workers)
                .analyze_trace(&trace, chunk_events)
                .expect("in-memory chunk stream never fails")
        });
        eprintln!("parallel x{workers:<4} run 1/1: {par_ms:.0}ms");
        let par_digest = digest(&par.analysis);
        let par_ranked = ranked_digest(&par.analysis);
        ParallelStreamReport {
            workers,
            stream_ms: par_ms,
            speedup_vs_sequential: stream_ms / par_ms,
            results_identical: par_digest == batch_digest && par_ranked == stream_ranked,
            report_digest: format!("{par_ranked:016x}"),
            memory: MemoryReport::from_streaming(&par.stats),
            streaming: par.stats,
        }
    });

    // File roundtrip on a CI-sized slice, once per on-disk format: spill to
    // a chunked file, stream the detector from the file, compare against
    // the batch engine. With `--spill PATH`, the row whose format matches
    // PATH's extension writes there and the file is kept.
    let rt_workload = StreamWorkload::quick();
    let rt_trace = if quick {
        trace
    } else {
        stream_trace(rt_workload)
    };
    let rt_batch = digest(&Detector::new(config).analyze(&rt_trace));
    let spill_path = spill.map(std::path::PathBuf::from);
    let spill_format = spill_path.as_deref().map(ChunkFormat::for_path);
    let file_roundtrip: Vec<FormatRoundtripReport> = [ChunkFormat::Json, ChunkFormat::Pbin]
        .into_iter()
        .map(|format| {
            let (rt_path, keep) = match &spill_path {
                Some(p) if spill_format == Some(format) => (p.clone(), true),
                _ => (
                    std::env::temp_dir().join(format!(
                        "perfplay-stream-{}.{}",
                        std::process::id(),
                        format.name()
                    )),
                    false,
                ),
            };
            roundtrip_row(&rt_trace, format, &rt_path, keep, 4_096, config, &rt_batch)
        })
        .collect();

    let breakdown = stream_digest.breakdown;
    let report = StreamReport {
        workload: StreamWorkloadReport {
            threads: workload.threads,
            locks: workload.locks,
            objects: workload.objects,
            target_events: workload.target_events,
            trace_events,
            total_sections,
        },
        chunk_events,
        available_parallelism: available_parallelism_now(),
        record_ms,
        batch_ms,
        stream_ms,
        results_identical,
        parallel,
        peak_live_fraction: stats.peak_live_sections as f64 / total_sections.max(1) as f64,
        memory: MemoryReport::from_streaming(&stats),
        streaming: stats,
        file_roundtrip,
        breakdown: (&breakdown).into(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out, format!("{json}\n")).expect("write benchmark artifact");
    println!("{json}");
    // Assert only after the artifact is on disk, so a divergence leaves a
    // machine-readable record instead of nothing.
    assert!(
        report.results_identical,
        "streaming detector diverged from the in-memory engine:\nbatch:  {batch_digest:?}\nstream: {stream_digest:?}"
    );
    for rt in &report.file_roundtrip {
        assert!(
            rt.identical_to_batch,
            "chunked-file roundtrip ({}) diverged from the in-memory engine",
            rt.format
        );
    }
    if let Some(par) = &report.parallel {
        assert!(
            par.results_identical,
            "threaded streaming detector diverged from the batch engine \
             (workers {}, digest {})",
            par.workers, par.report_digest
        );
        eprintln!(
            "parallel streaming x{}: {:.0}ms ({:.2}x vs inline streaming), identical",
            par.workers, par.stream_ms, par.speedup_vs_sequential
        );
    }
    eprintln!(
        "streaming {} events: peak live sections {} / {} ({:.3}%), peak chunk {} events -> {out}",
        trace_events,
        report.streaming.peak_live_sections,
        total_sections,
        100.0 * report.peak_live_fraction,
        report.streaming.peak_chunk_events,
    );
}

/// One format's run through the pipelined ingestion path: the
/// `PipelinedChunkReader` (framing thread + decode workers) feeding the
/// sharded `ParallelStreamingDetector` — the "on-disk analysis at in-memory
/// speed" leg of `BENCH_ingest.json`.
#[derive(Debug, Serialize)]
struct PipelinedIngestRow {
    /// On-disk chunk-file format: `jsonl` or `pbin`.
    format: String,
    /// Re-ingest + detect wall clock through the pipelined path.
    stream_from_file_ms: f64,
    /// This row's wall clock over the in-memory parallel yardstick
    /// (`in_memory_parallel_ms`). The acceptance bound is <= 2.0 for pbin
    /// on the full workload.
    ratio_vs_in_memory: f64,
    /// Content digest and ranked-report digest both equal to the in-memory
    /// batch engine's.
    identical_to_batch: bool,
    report_digest: String,
}

/// The pipelined-ingestion block of `BENCH_ingest.json`: worker counts, the
/// in-memory parallel yardstick, and one row per on-disk format.
#[derive(Debug, Serialize)]
struct PipelinedIngestReport {
    /// Cores visible to this run — the ratio rows are only meaningful
    /// relative to this (a 1-CPU box pays pipeline overhead for nothing).
    available_parallelism: usize,
    /// Decode-worker pool size of the pipelined reader.
    decode_workers: usize,
    /// Sharded per-lock worker count of the parallel detector.
    detect_workers: usize,
    /// In-memory `ParallelStreamingDetector` on the same trace — the
    /// yardstick `ratio_vs_in_memory` is measured against.
    in_memory_parallel_ms: f64,
    rows: Vec<PipelinedIngestRow>,
    /// Every pipelined stream (and the in-memory parallel run) matched the
    /// in-memory batch engine bit-for-bit.
    results_identical: bool,
    report_digest: String,
}

#[derive(Debug, Serialize)]
struct IngestReport {
    workload: StreamWorkloadReport,
    chunk_events: usize,
    /// Cores visible to this run.
    available_parallelism: usize,
    record_ms: f64,
    /// In-memory batch analysis of the same trace — the digest reference
    /// and the "as fast as in-memory" yardstick.
    batch_ms: f64,
    /// One spill + re-ingest row per on-disk format, same shape as
    /// `BENCH_stream.json`'s `file_roundtrip` rows.
    rows: Vec<FormatRoundtripReport>,
    /// The pipelined parallel ingestion path: `PipelinedChunkReader` into
    /// `ParallelStreamingDetector`, graded against the in-memory parallel
    /// yardstick.
    pipelined: PipelinedIngestReport,
    /// pbin events/sec over jsonl events/sec on the re-ingest leg.
    ingest_speedup: f64,
    /// pbin bytes/event over jsonl bytes/event (below 1 means denser).
    density_ratio: f64,
    /// Every file stream matched the in-memory engine bit-for-bit: content
    /// digests and ranked-report digests all identical.
    results_identical: bool,
    report_digest: String,
    breakdown: BreakdownReport,
}

/// `repro ingest`: the on-disk ingestion benchmark behind the binary chunk
/// format. Records the >=10M-event streaming workload once, spills it
/// through `ChunkedWriter` in both formats, streams the detector back off
/// each file, and writes `BENCH_ingest.json` pinning events/sec and
/// bytes/event per format plus bit-identical detection digests (content +
/// ranked report) across formats and against the in-memory engine. On the
/// full workload the binary format must ingest >=4x faster than JSON-lines
/// at <=1/3 the bytes/event — asserted after the artifact is written, so a
/// regression leaves a machine-readable record.
fn run_ingest(quick: bool, out: &str) {
    let workload = if quick {
        StreamWorkload::quick()
    } else {
        StreamWorkload::ten_million()
    };
    let chunk_events = if quick { 4_096 } else { 262_144 };
    eprintln!(
        "recording ingest workload: {} threads, target {} events...",
        workload.threads, workload.target_events
    );
    let (trace, record_ms) = time_ms(|| stream_trace(workload));
    let trace_events = trace.num_events();
    eprintln!("recorded {trace_events} events in {record_ms:.0}ms");
    if !quick {
        assert!(
            trace_events >= 10_000_000,
            "acceptance workload must exceed 10M events, got {trace_events}"
        );
    }

    let config = detect_bench_config();
    let (batch_analysis, batch_ms) = time_ms(|| Detector::new(config).analyze(&trace));
    eprintln!("in-memory batch: {batch_ms:.0}ms");
    let batch = digest(&batch_analysis);
    let batch_ranked = format!("{:016x}", ranked_digest(&batch_analysis));
    let total_sections = batch_analysis.sections.len();
    drop(batch_analysis);

    let files: Vec<(ChunkFormat, std::path::PathBuf)> = [ChunkFormat::Json, ChunkFormat::Pbin]
        .into_iter()
        .map(|format| {
            let path = std::env::temp_dir().join(format!(
                "perfplay-ingest-{}.{}",
                std::process::id(),
                format.name()
            ));
            (format, path)
        })
        .collect();
    // Keep the spilled files alive past the sequential rows — the pipelined
    // legs below re-read them.
    let rows: Vec<FormatRoundtripReport> = files
        .iter()
        .map(|(format, path)| {
            roundtrip_row(&trace, *format, path, true, chunk_events, config, &batch)
        })
        .collect();
    let ingest_speedup = rows[1].events_per_sec / rows[0].events_per_sec.max(1e-9);
    let density_ratio = rows[1].bytes_per_event / rows[0].bytes_per_event.max(1e-9);
    let results_identical = rows
        .iter()
        .all(|r| r.identical_to_batch && r.report_digest == batch_ranked);

    // The pipelined parallel path: first the in-memory parallel yardstick
    // (the speed on-disk analysis is supposed to approach), then the
    // pipelined reader feeding the same sharded detector off each file.
    let detect_workers = parallel_workers();
    let decode_workers = default_decode_workers();
    let (par, in_memory_parallel_ms) = time_ms(|| {
        ParallelStreamingDetector::with_workers(config, detect_workers)
            .analyze_trace(&trace, chunk_events)
            .expect("in-memory chunk stream never fails")
    });
    eprintln!("in-memory parallel x{detect_workers}: {in_memory_parallel_ms:.0}ms");
    let par_identical = digest(&par.analysis) == batch
        && format!("{:016x}", ranked_digest(&par.analysis)) == batch_ranked;
    drop(par);
    let pipelined_rows: Vec<PipelinedIngestRow> = files
        .iter()
        .map(|(format, path)| {
            let (result, stream_from_file_ms) = time_ms(|| {
                let mut reader = PipelinedChunkReader::with_options(
                    path,
                    RecoveryPolicy::Fail,
                    None,
                    decode_workers,
                )
                .expect("chunk file opens");
                ParallelStreamingDetector::with_workers(config, detect_workers)
                    .analyze(&mut reader)
                    .expect("file stream analyzes")
            });
            let row_digest = format!("{:016x}", ranked_digest(&result.analysis));
            let identical_to_batch =
                digest(&result.analysis) == batch && row_digest == batch_ranked;
            eprintln!(
                "{} pipelined re-ingest+detect: {stream_from_file_ms:.0}ms \
                 ({:.2}x in-memory parallel)",
                format.name(),
                stream_from_file_ms / in_memory_parallel_ms.max(1e-9),
            );
            PipelinedIngestRow {
                format: format.name().to_string(),
                stream_from_file_ms,
                ratio_vs_in_memory: stream_from_file_ms / in_memory_parallel_ms.max(1e-9),
                identical_to_batch,
                report_digest: row_digest,
            }
        })
        .collect();
    for (_, path) in &files {
        std::fs::remove_file(path).ok();
    }
    let pipelined = PipelinedIngestReport {
        available_parallelism: available_parallelism_now(),
        decode_workers,
        detect_workers,
        in_memory_parallel_ms,
        results_identical: par_identical && pipelined_rows.iter().all(|r| r.identical_to_batch),
        rows: pipelined_rows,
        report_digest: batch_ranked.clone(),
    };

    let breakdown = batch.breakdown;
    let report = IngestReport {
        workload: StreamWorkloadReport {
            threads: workload.threads,
            locks: workload.locks,
            objects: workload.objects,
            target_events: workload.target_events,
            trace_events,
            total_sections,
        },
        chunk_events,
        available_parallelism: available_parallelism_now(),
        record_ms,
        batch_ms,
        rows,
        pipelined,
        ingest_speedup,
        density_ratio,
        results_identical,
        report_digest: batch_ranked,
        breakdown: (&breakdown).into(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out, format!("{json}\n")).expect("write benchmark artifact");
    println!("{json}");
    // Assert only after the artifact is on disk, so a divergence leaves a
    // machine-readable record instead of nothing.
    assert!(
        report.results_identical,
        "file-streamed detection diverged across formats or from the in-memory engine"
    );
    assert!(
        report.pipelined.results_identical,
        "pipelined file-streamed detection diverged from the in-memory engine"
    );
    if !quick {
        assert!(
            report.ingest_speedup >= 4.0,
            "pbin ingest speedup {:.2}x is below the 4x acceptance floor",
            report.ingest_speedup
        );
        assert!(
            report.density_ratio <= 1.0 / 3.0,
            "pbin density ratio {:.3} exceeds the 1/3 acceptance ceiling",
            report.density_ratio
        );
        let pbin = report
            .pipelined
            .rows
            .iter()
            .find(|r| r.format == "pbin")
            .expect("pbin pipelined row exists");
        assert!(
            pbin.ratio_vs_in_memory <= 2.0,
            "pipelined pbin re-ingest+detect is {:.2}x the in-memory parallel time \
             (acceptance ceiling: 2x)",
            pbin.ratio_vs_in_memory
        );
    }
    eprintln!(
        "ingest: pbin {:.2}x events/sec at {:.2}x bytes/event vs jsonl, digests identical -> {out}",
        report.ingest_speedup, report.density_ratio
    );
    for row in &report.pipelined.rows {
        eprintln!(
            "pipelined {}: {:.0}ms, {:.2}x in-memory parallel ({:.0}ms), identical",
            row.format,
            row.stream_from_file_ms,
            row.ratio_vs_in_memory,
            report.pipelined.in_memory_parallel_ms
        );
    }
}

#[derive(Debug, Serialize)]
struct ConvertArtifact {
    src: String,
    dst: String,
    from: String,
    to: String,
    records: u64,
    chunks: u64,
    events: u64,
    bytes_in: u64,
    bytes_out: u64,
    convert_ms: f64,
    /// Decode-worker pool size of the pipelined source scanner.
    decode_workers: usize,
}

/// `repro convert --chunk-file SRC --out DST [--format json|pbin]`:
/// translates a chunk file between the on-disk formats, streaming record by
/// record (chunk-bounded memory). The source format is autodetected by
/// magic bytes; the destination format follows DST's extension unless
/// `--format` overrides it. Exits non-zero with the located `StreamError`
/// when the source is malformed.
fn run_convert(src: &str, dst: &str, format: Option<&str>) {
    let to = match format {
        None => None,
        Some(name) => match ChunkFormat::parse(name) {
            Some(f) => Some(f),
            None => {
                eprintln!("unknown format `{name}`; available: json, pbin");
                std::process::exit(2);
            }
        },
    };
    // Conversion reads through the pipelined scanner: source framing and
    // decoding overlap with re-encoding and writing. The output file and
    // every error are identical to the sequential path's.
    let decode_workers = default_decode_workers();
    let (result, convert_ms) =
        time_ms(|| convert_chunk_file_pipelined(src, dst, to, decode_workers));
    let summary = match result {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("conversion of {src} failed: {e}");
            std::process::exit(1);
        }
    };
    let artifact = ConvertArtifact {
        src: src.to_string(),
        dst: dst.to_string(),
        from: summary.from.name().to_string(),
        to: summary.to.name().to_string(),
        records: summary.records,
        chunks: summary.chunks,
        events: summary.events,
        bytes_in: summary.bytes_in,
        bytes_out: summary.bytes_out,
        convert_ms,
        decode_workers,
    };
    let json = serde_json::to_string_pretty(&artifact).expect("summary serializes");
    println!("{json}");
    eprintln!(
        "converted {src} ({}) -> {dst} ({}): {} records, {} events, {} -> {} bytes",
        artifact.from,
        artifact.to,
        artifact.records,
        artifact.events,
        artifact.bytes_in,
        artifact.bytes_out
    );
}

/// Content digest of a ranked recommendation list: an FNV-1a hash over every
/// group's code regions, fused pair count, accumulated gain and opportunity
/// bits. Equal digests mean the two report paths ranked identical groups.
fn report_digest(recommendations: &[Recommendation]) -> u64 {
    let mut hash = Fnv::new();
    for rec in recommendations {
        for site in rec.group.region_first.iter() {
            hash.mix(u64::from(site.raw()));
        }
        for site in rec.group.region_second.iter() {
            hash.mix(u64::from(site.raw()) | (1 << 32));
        }
        hash.mix(rec.group.dynamic_pairs as u64);
        hash.mix(rec.group.gain_ns);
        hash.mix(rec.opportunity.to_bits());
    }
    hash.0
}

#[derive(Debug, Serialize)]
struct AggregateReport {
    workload: StreamWorkloadReport,
    chunk_events: usize,
    record_ms: f64,
    /// Materializing path: batch engine collecting every pair, then per-pair
    /// fusion (`fuse_ulcps` over the full list).
    pairs_ms: f64,
    fuse_pairs_ms: f64,
    /// Aggregating path: streaming engine folding pairs into the per-site
    /// table at emission time, then seeding fusion from the table.
    aggregate_ms: f64,
    fuse_aggregate_ms: f64,
    breakdown_identical: bool,
    report_digest_identical: bool,
    report_digest: String,
    /// Materialized pairs the collecting path held resident.
    materialized_pairs: usize,
    /// Rows in the scan-time aggregate table (ULCP rows + edge rows).
    aggregate_rows: usize,
    /// `materialized_pairs / aggregate_rows`: how much output memory the
    /// aggregating sink saves.
    pair_reduction_factor: f64,
    /// Fused code-region groups both report paths produced.
    groups: usize,
    /// Peak resident state of the aggregating streaming run.
    memory: MemoryReport,
    /// Peak resident state of the materializing batch run, for contrast.
    memory_pairs: MemoryReport,
    breakdown: BreakdownReport,
}

/// `repro detect --aggregate`: the sink comparison. Runs the materializing
/// pair-list path (batch `CollectPairs`, per-pair fusion) and the streaming
/// `SiteAggregator` path (pairs folded into per-site rows at emission time,
/// fusion seeded from the table) on the same >=10M-event workload, verifies
/// identical `UlcpBreakdown` and ranked-report digests, and writes
/// `BENCH_aggregate.json` with the peak-memory comparison.
fn run_aggregate(quick: bool, out: &str) {
    let workload = if quick {
        StreamWorkload::quick()
    } else {
        StreamWorkload::ten_million()
    };
    let chunk_events = if quick { 4_096 } else { 262_144 };
    eprintln!(
        "recording aggregation workload: {} threads, target {} events...",
        workload.threads, workload.target_events
    );
    let (trace, record_ms) = time_ms(|| stream_trace(workload));
    let trace_events = trace.num_events();
    eprintln!("recorded {trace_events} events in {record_ms:.0}ms");
    // Counted while only the trace is resident, not next to the pair list.
    let history_entries = LastWriteIndex::build(&trace).num_entries();

    let config = detect_bench_config();
    let gain = BodyOverlapGain;

    // Materializing path: every pair resident, then fused per pair. The
    // gains stream through `fuse_ulcp_gains`, so no `Vec<UlcpGain>` is ever
    // materialized next to the pair list.
    let (analysis, pairs_ms) = time_ms(|| Detector::new(config).analyze(&trace));
    eprintln!(
        "pair path: {} pairs materialized in {pairs_ms:.0}ms",
        analysis.ulcps.len()
    );
    let (pair_recommendations, fuse_pairs_ms) = time_ms(|| {
        rank_groups(fuse_ulcp_gains(
            &analysis,
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
        ))
    });
    let pair_digest = report_digest(&pair_recommendations);
    let materialized_pairs = analysis.ulcps.len() + analysis.edges.len();
    let pair_breakdown = analysis.breakdown;
    let memory_pairs = MemoryReport {
        peak_live_pairs: materialized_pairs,
        peak_live_sections: analysis.sections.len(),
        peak_history_entries: history_entries,
    };
    drop(pair_recommendations);
    drop(analysis);

    // Aggregating path: the streaming engine folds each pair into the
    // per-site table the moment it is classified; nothing pair-shaped
    // survives the scan.
    let (aggregated, aggregate_ms) = time_ms(|| {
        StreamingDetector::new(config)
            .analyze_trace_with(&trace, chunk_events, SiteAggregator::new(gain))
            .expect("in-memory chunk stream never fails")
    });
    let aggregates = aggregated.sink.finish();
    let (agg_recommendations, fuse_aggregate_ms) =
        time_ms(|| rank_groups(fuse_aggregates(&aggregates)));
    let agg_digest = report_digest(&agg_recommendations);

    let breakdown_identical = pair_breakdown == aggregated.breakdown;
    let report_digest_identical = pair_digest == agg_digest;
    let aggregate_rows = aggregates.len();
    let breakdown = aggregated.breakdown;
    let report = AggregateReport {
        workload: StreamWorkloadReport {
            threads: workload.threads,
            locks: workload.locks,
            objects: workload.objects,
            target_events: workload.target_events,
            trace_events,
            total_sections: aggregated.stats.sections,
        },
        chunk_events,
        record_ms,
        pairs_ms,
        fuse_pairs_ms,
        aggregate_ms,
        fuse_aggregate_ms,
        breakdown_identical,
        report_digest_identical,
        report_digest: format!("{agg_digest:016x}"),
        materialized_pairs,
        aggregate_rows,
        pair_reduction_factor: materialized_pairs as f64 / aggregate_rows.max(1) as f64,
        groups: agg_recommendations.len(),
        memory: MemoryReport::from_streaming(&aggregated.stats),
        memory_pairs,
        breakdown: (&breakdown).into(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out, format!("{json}\n")).expect("write benchmark artifact");
    println!("{json}");
    // Assert only after the artifact is on disk, so a divergence leaves a
    // machine-readable record instead of nothing.
    assert!(
        report.breakdown_identical,
        "aggregate path breakdown diverged from the pair path:\npairs: {pair_breakdown:?}\nagg:   {breakdown:?}"
    );
    assert!(
        report.report_digest_identical,
        "aggregate report digest {agg_digest:016x} diverged from pair-path digest {pair_digest:016x}"
    );
    eprintln!(
        "aggregation over {} pairs: {} table rows ({:.0}x smaller), digests identical -> {out}",
        report.materialized_pairs, report.aggregate_rows, report.pair_reduction_factor
    );
}

/// Content digest of one replay outcome: an FNV-1a hash over the makespan,
/// every per-thread timing account, every per-event completion time, and
/// the lockset counters. Equal digests mean bit-identical `ReplayResult`s.
fn replay_digest(r: &ReplayResult) -> u64 {
    let mut hash = Fnv::new();
    hash.mix(r.total_time.as_nanos());
    for t in &r.per_thread {
        hash.mix(t.finish_time.as_nanos());
        hash.mix(t.busy.as_nanos());
        hash.mix(t.lock_wait.as_nanos());
        hash.mix(t.sync_wait.as_nanos());
    }
    for times in &r.event_times {
        for t in times {
            hash.mix(t.as_nanos());
        }
    }
    hash.mix(r.lockset_ops);
    hash.mix(r.lockset_overhead.as_nanos());
    hash.0
}

/// Times one replay engine over `runs` runs: determinism-checks the digest
/// across runs and returns (digest, median ms).
fn measure_replay(label: &str, runs: usize, f: impl Fn() -> ReplayResult) -> (u64, f64) {
    let mut times = Vec::with_capacity(runs);
    let mut first_digest: Option<u64> = None;
    for run in 0..runs.max(1) {
        let (result, ms) = time_ms(&f);
        eprintln!("  {label} run {}/{}: {ms:.1}ms", run + 1, runs.max(1));
        times.push(ms);
        let d = replay_digest(&result);
        match first_digest {
            None => first_digest = Some(d),
            Some(expected) => assert_eq!(expected, d, "{label} is nondeterministic"),
        }
    }
    (first_digest.expect("at least one run"), median(&mut times))
}

#[derive(Debug, Serialize, Deserialize)]
struct ReplaySchemeRow {
    scheme: String,
    reference_ms: f64,
    engine_ms: f64,
    speedup: f64,
    identical: bool,
    digest: String,
}

#[derive(Debug, Serialize, Deserialize)]
struct ReplayWorkloadReport {
    threads: usize,
    sections_per_thread: u32,
    locks: usize,
    objects: usize,
    trace_events: usize,
    record_ms: f64,
    schemes: Vec<ReplaySchemeRow>,
    median_speedup: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct ReplayReport {
    workloads: Vec<ReplayWorkloadReport>,
    headline_threads: usize,
    headline_median_speedup: f64,
    all_identical: bool,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn run_replay_workload(threads: usize, runs: usize) -> ReplayWorkloadReport {
    let workload = ReplayWorkload::scaling(threads);
    eprintln!(
        "recording replay workload: {} threads x {} sections ({} total), {} locks...",
        workload.threads,
        workload.sections_per_thread,
        workload.total_sections(),
        workload.locks
    );
    let (trace, record_ms) = time_ms(|| replay_trace(workload));
    eprintln!("recorded {} events in {record_ms:.0}ms", trace.num_events());

    let config = ReplayConfig::default();
    let replayer = Replayer::default();
    let mut schemes = Vec::new();
    for schedule in [
        ReplaySchedule::orig(7),
        ReplaySchedule::elsc(),
        ReplaySchedule::sync(),
        ReplaySchedule::mem(),
    ] {
        let label = schedule.kind.label();
        eprintln!("{label} @ {threads} threads:");
        let (ref_digest, reference_ms) = measure_replay("reference", runs, || {
            reference_replay_original(&config, &trace, schedule).expect("reference replays")
        });
        let (eng_digest, engine_ms) = measure_replay("engine   ", runs, || {
            replayer.replay(&trace, schedule).expect("engine replays")
        });
        schemes.push(ReplaySchemeRow {
            scheme: label.to_string(),
            reference_ms,
            engine_ms,
            speedup: reference_ms / engine_ms,
            identical: ref_digest == eng_digest,
            digest: format!("{eng_digest:016x}"),
        });
    }

    // The ULCP-free lockset replay rides the same engine: compare it too.
    let analysis = Detector::new(detect_bench_config()).analyze(&trace);
    let transformed = perfplay::prelude::Transformer::default().transform(&trace, &analysis);
    eprintln!("ULCP-FREE @ {threads} threads:");
    let (ref_digest, reference_ms) = measure_replay("reference", runs, || {
        reference_replay_free(&config, true, &transformed).expect("reference replays")
    });
    let (eng_digest, engine_ms) = measure_replay("engine   ", runs, || {
        UlcpFreeReplayer::new(config)
            .replay(&transformed)
            .expect("engine replays")
    });
    schemes.push(ReplaySchemeRow {
        scheme: "ULCP-FREE".to_string(),
        reference_ms,
        engine_ms,
        speedup: reference_ms / engine_ms,
        identical: ref_digest == eng_digest,
        digest: format!("{eng_digest:016x}"),
    });

    let mut speedups: Vec<f64> = schemes.iter().map(|s| s.speedup).collect();
    ReplayWorkloadReport {
        threads: workload.threads,
        sections_per_thread: workload.sections_per_thread,
        locks: workload.locks,
        objects: workload.objects,
        trace_events: trace.num_events(),
        record_ms,
        median_speedup: median(&mut speedups),
        schemes,
    }
}

/// Default artifact path shared by `repro replay` (writer) and
/// `repro pipeline --out` (reader/embedder).
const REPLAY_ARTIFACT: &str = "BENCH_replay.json";

fn run_replay(quick: bool, out: &str) {
    let (thread_counts, runs): (&[usize], usize) = if quick {
        (&[8, 16], 1)
    } else {
        (&[64, 128, 256], 3)
    };
    let workloads: Vec<ReplayWorkloadReport> = thread_counts
        .iter()
        .map(|&t| run_replay_workload(t, runs))
        .collect();
    // The 128-thread shape is the acceptance benchmark this repo reports
    // (ISSUE 2 / ROADMAP); fall back to the largest sweep member when the
    // sweep does not include it (e.g. --quick).
    let headline = workloads
        .iter()
        .find(|w| w.threads == 128)
        .or_else(|| workloads.iter().max_by_key(|w| w.threads))
        .expect("at least one workload");
    let all_identical = workloads
        .iter()
        .all(|w| w.schemes.iter().all(|s| s.identical));
    let report = ReplayReport {
        headline_threads: headline.threads,
        headline_median_speedup: headline.median_speedup,
        all_identical,
        workloads,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out, format!("{json}\n")).expect("write benchmark artifact");
    println!("{json}");
    // Assert only after the artifact is on disk, so a divergence leaves a
    // machine-readable record (identical: false) instead of nothing.
    assert!(
        report.all_identical,
        "the unified engine diverged from the reference loop"
    );
    eprintln!(
        "median speedup at {} threads: {:.1}x -> {out}",
        report.headline_threads, report.headline_median_speedup
    );
}

#[derive(Debug, Serialize)]
struct PipelineRow {
    app: String,
    lock_acquisitions: usize,
    null_lock: usize,
    read_read: usize,
    disjoint_write: usize,
    benign: usize,
    tlcp_edges: usize,
    original_ms: f64,
    ulcp_free_ms: f64,
    normalized_degradation: f64,
}

impl PipelineRow {
    fn from_report(app: &str, report: &PerfReport) -> Self {
        let b = &report.breakdown;
        PipelineRow {
            app: app.to_string(),
            lock_acquisitions: b.lock_acquisitions,
            null_lock: b.null_lock,
            read_read: b.read_read,
            disjoint_write: b.disjoint_write,
            benign: b.benign,
            tlcp_edges: b.tlcp_edges,
            original_ms: report.impact.original_time.as_nanos() as f64 / 1e6,
            ulcp_free_ms: report.impact.ulcp_free_time.as_nanos() as f64 / 1e6,
            normalized_degradation: report.normalized_degradation(),
        }
    }
}

/// Summary of the multi-trace batch fusion embedded in the pipeline
/// artifact: the fused Table 1 sweep across every application model.
#[derive(Debug, Serialize)]
struct BatchSummary {
    traces: usize,
    analyze_ms: f64,
    fused_breakdown: BreakdownReport,
    fused_aggregate_rows: usize,
    fused_groups: usize,
    top_opportunity: f64,
    fused_report_digest: String,
}

impl BatchSummary {
    fn new(batch: &BatchAnalysis, analyze_ms: f64) -> Self {
        BatchSummary {
            traces: batch.num_traces(),
            analyze_ms,
            fused_breakdown: (&batch.fused_breakdown).into(),
            fused_aggregate_rows: batch.fused_aggregates.len(),
            fused_groups: batch.recommendations.len(),
            top_opportunity: batch.top_opportunity(),
            fused_report_digest: format!("{:016x}", report_digest(&batch.recommendations)),
        }
    }
}

/// Per-stage wall-clock of the single-pass pipeline flow.
#[derive(Debug, Serialize)]
struct SinglePassTimings {
    detect_plan_ms: f64,
    transform_ms: f64,
    replay_original_ms: f64,
    replay_free_ms: f64,
    report_ms: f64,
    total_ms: f64,
}

/// Per-stage wall-clock of the historical two-pass flow: one materializing
/// detection pass for transform + replays, a second aggregating pass for the
/// O(code sites) report.
#[derive(Debug, Serialize)]
struct TwoPassTimings {
    detect_pairs_ms: f64,
    transform_ms: f64,
    replay_original_ms: f64,
    replay_free_ms: f64,
    detect_aggregate_ms: f64,
    report_ms: f64,
    total_ms: f64,
}

#[derive(Debug, Serialize)]
struct PipelineComparison {
    workload: StreamWorkloadReport,
    record_ms: f64,
    single_pass: SinglePassTimings,
    two_pass: TwoPassTimings,
    /// End-to-end wall-clock ratio (two-pass / single-pass).
    wall_clock_speedup: f64,
    /// Detection-only ratio: (pass 1 + pass 2) / plan pass.
    detection_speedup: f64,
    report_identical: bool,
    breakdown_identical: bool,
    report_digest_identical: bool,
    report_digest: String,
    /// Aggregate rows + retained edges + benign pairs the plan held — the
    /// single-pass counterpart of `materialized_pairs`.
    plan_resident_entries: usize,
    materialized_pairs: usize,
    pair_reduction_factor: f64,
    /// Peak resident detection state of the single-pass flow.
    memory: MemoryReport,
    /// Peak resident detection state of the two-pass flow, for contrast.
    memory_two_pass: MemoryReport,
    breakdown: BreakdownReport,
}

/// Runs both pipeline flows end-to-end on one synthetic workload and pins
/// their equivalence: identical `PerfReport`s (breakdown, impact, ranked
/// recommendations) from one detection pass instead of two, with no pair
/// vector resident at any point of the single-pass flow.
fn pipeline_comparison(quick: bool) -> PipelineComparison {
    let workload = if quick {
        StreamWorkload::quick()
    } else {
        StreamWorkload::ten_million()
    };
    eprintln!(
        "recording comparison workload: {} threads, target {} events...",
        workload.threads, workload.target_events
    );
    let (trace, record_ms) = time_ms(|| stream_trace(workload));
    eprintln!("recorded {} events in {record_ms:.0}ms", trace.num_events());
    // Counted while only the trace is resident (both flows build and drop
    // the index internally; this probe feeds the memory report).
    let history_entries = LastWriteIndex::build(&trace).num_entries();

    let config = detect_bench_config();
    let replay_config = ReplayConfig::default();
    let transformer = Transformer::default();
    let gain = BodyOverlapGain;

    // --- Two-pass flow: materialize pairs, transform, replay, re-detect
    // into the aggregate table, report.
    eprintln!("two-pass flow:");
    let (analysis, detect_pairs_ms) = time_ms(|| Detector::new(config).analyze(&trace));
    eprintln!("  detect (pairs): {detect_pairs_ms:.0}ms");
    let materialized_pairs = analysis.ulcps.len() + analysis.edges.len();
    let total_sections = analysis.sections.len();
    // Owned, so the analysis can go before the replays.
    let (transformed, tp_transform_ms) =
        time_ms(|| transformer.transform(&trace, &analysis).into_owned());
    eprintln!("  transform: {tp_transform_ms:.0}ms");
    // The pair list has served its only two-pass purpose (transform); drop
    // it before the replays so both flows replay under the same heap.
    drop(analysis);
    let (tp_original, tp_replay_original_ms) = time_ms(|| {
        Replayer::new(replay_config)
            .replay(&trace, ReplaySchedule::elsc())
            .expect("original replay succeeds")
    });
    eprintln!("  replay original: {tp_replay_original_ms:.0}ms");
    let (tp_free, tp_replay_free_ms) = time_ms(|| {
        UlcpFreeReplayer::new(replay_config)
            .replay(&transformed)
            .expect("ULCP-free replay succeeds")
    });
    eprintln!("  replay ULCP-free: {tp_replay_free_ms:.0}ms");
    let (aggregated, detect_aggregate_ms) =
        time_ms(|| Detector::new(config).analyze_with(&trace, SiteAggregator::new(gain)));
    eprintln!("  detect (aggregate, 2nd pass): {detect_aggregate_ms:.0}ms");
    let two_breakdown = aggregated.breakdown;
    let aggregates = aggregated.sink.finish();
    let (two_report, tp_report_ms) = time_ms(|| {
        PerfReport::from_aggregates(
            &trace,
            two_breakdown,
            &aggregates,
            &transformed,
            &tp_original,
            &tp_free,
        )
    });
    drop((transformed, tp_original, tp_free, aggregates));
    let two_total_ms = detect_pairs_ms
        + tp_transform_ms
        + tp_replay_original_ms
        + tp_replay_free_ms
        + detect_aggregate_ms
        + tp_report_ms;

    // --- Single-pass flow: one detection pass produces the plan that
    // drives everything downstream.
    eprintln!("single-pass flow:");
    let (plan, detect_plan_ms) = time_ms(|| Detector::new(config).plan(&trace, gain));
    eprintln!("  detect (plan): {detect_plan_ms:.0}ms");
    let plan_resident_entries = plan.resident_entries();
    let (transformed, sp_transform_ms) = time_ms(|| transformer.transform_from_plan(&trace, &plan));
    eprintln!("  transform from plan: {sp_transform_ms:.0}ms");
    let (sp_original, sp_replay_original_ms) = time_ms(|| {
        Replayer::new(replay_config)
            .replay(&trace, ReplaySchedule::elsc())
            .expect("original replay succeeds")
    });
    eprintln!("  replay original: {sp_replay_original_ms:.0}ms");
    let (sp_free, sp_replay_free_ms) = time_ms(|| {
        UlcpFreeReplayer::new(replay_config)
            .replay(&transformed)
            .expect("ULCP-free replay succeeds")
    });
    eprintln!("  replay ULCP-free: {sp_replay_free_ms:.0}ms");
    let (single_report, sp_report_ms) =
        time_ms(|| PerfReport::from_plan(&trace, &plan, &transformed, &sp_original, &sp_free));
    let single_total_ms =
        detect_plan_ms + sp_transform_ms + sp_replay_original_ms + sp_replay_free_ms + sp_report_ms;

    let single_digest = report_digest(&single_report.recommendations);
    let two_digest = report_digest(&two_report.recommendations);
    PipelineComparison {
        workload: StreamWorkloadReport {
            threads: workload.threads,
            locks: workload.locks,
            objects: workload.objects,
            target_events: workload.target_events,
            trace_events: trace.num_events(),
            total_sections,
        },
        record_ms,
        wall_clock_speedup: two_total_ms / single_total_ms,
        detection_speedup: (detect_pairs_ms + detect_aggregate_ms) / detect_plan_ms,
        single_pass: SinglePassTimings {
            detect_plan_ms,
            transform_ms: sp_transform_ms,
            replay_original_ms: sp_replay_original_ms,
            replay_free_ms: sp_replay_free_ms,
            report_ms: sp_report_ms,
            total_ms: single_total_ms,
        },
        two_pass: TwoPassTimings {
            detect_pairs_ms,
            transform_ms: tp_transform_ms,
            replay_original_ms: tp_replay_original_ms,
            replay_free_ms: tp_replay_free_ms,
            detect_aggregate_ms,
            report_ms: tp_report_ms,
            total_ms: two_total_ms,
        },
        report_identical: single_report == two_report,
        breakdown_identical: single_report.breakdown == two_breakdown,
        report_digest_identical: single_digest == two_digest,
        report_digest: format!("{single_digest:016x}"),
        plan_resident_entries,
        materialized_pairs,
        pair_reduction_factor: materialized_pairs as f64 / plan_resident_entries.max(1) as f64,
        memory: MemoryReport {
            peak_live_pairs: plan_resident_entries,
            peak_live_sections: total_sections,
            peak_history_entries: history_entries,
        },
        memory_two_pass: MemoryReport {
            peak_live_pairs: materialized_pairs,
            peak_live_sections: total_sections,
            peak_history_entries: history_entries,
        },
        breakdown: (&single_report.breakdown).into(),
    }
}

#[derive(Debug, Serialize)]
struct PipelineReport {
    rows: Vec<PipelineRow>,
    /// The fused multi-trace batch result over the same app sweep.
    batch: BatchSummary,
    /// Single-pass vs two-pass equivalence + cost comparison.
    comparison: PipelineComparison,
    /// The replay scaling artifact (`BENCH_replay.json`), embedded when it
    /// exists next to the working directory, so one file carries both the
    /// per-app pipeline numbers and the engine comparison.
    replay_bench: Option<ReplayReport>,
}

/// The recorded app sweep plus its batch analysis — one value, so every
/// consumer reports the exact workload shape it was measured under.
struct AppSweep {
    threads: usize,
    input: InputSize,
    traces: Vec<Trace>,
    rows: Vec<PipelineRow>,
    batch: BatchAnalysis,
    analyze_ms: f64,
}

/// Records every application model and analyzes the traces through the
/// multi-trace batch driver: each trace's pipeline runs **one** detection
/// pass (plan sink), and the per-trace aggregate tables fuse into one ranked
/// sweep report.
fn analyze_app_sweep(quick: bool) -> AppSweep {
    let (threads, input) = if quick {
        (2, InputSize::SimSmall)
    } else {
        (4, InputSize::SimMedium)
    };
    let traces: Vec<Trace> = App::ALL
        .iter()
        .map(|app| record_app(*app, threads, input))
        .collect();
    let (batch, analyze_ms) = time_ms(|| analyze_batch(&traces, &PipelineConfig::default()));
    assert!(
        batch.is_complete(),
        "app models always analyze, but {} trace(s) failed: {:?}",
        batch.failures.len(),
        batch.failures
    );
    let rows: Vec<PipelineRow> = App::ALL
        .iter()
        .zip(&batch.per_trace)
        .map(|(app, analysis)| PipelineRow::from_report(app.name(), &analysis.report))
        .collect();
    AppSweep {
        threads,
        input,
        traces,
        rows,
        batch,
        analyze_ms,
    }
}

fn print_rows(rows: &[PipelineRow]) {
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>12} {:>12} {:>8}",
        "app", "locks", "NL", "RR", "DW", "Benign", "TLCP", "orig(ms)", "free(ms)", "waste"
    );
    for row in rows {
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>12.3} {:>12.3} {:>8}",
            row.app,
            row.lock_acquisitions,
            row.null_lock,
            row.read_read,
            row.disjoint_write,
            row.benign,
            row.tlcp_edges,
            row.original_ms,
            row.ulcp_free_ms,
            pct(row.normalized_degradation),
        );
    }
}

/// Prints one row per application model — analyzed single-pass through the
/// batch driver — plus the fused sweep summary. With `--out`, additionally
/// runs the single-pass vs two-pass comparison and writes
/// `BENCH_pipeline.json`, embedding the replay artifact
/// (`--replay-artifact`, default `BENCH_replay.json`) when present.
fn run_pipeline(quick: bool, out: Option<&str>, replay_artifact: &str) {
    let sweep = analyze_app_sweep(quick);
    print_rows(&sweep.rows);
    let analyze_ms = sweep.analyze_ms;
    let summary = BatchSummary::new(&sweep.batch, analyze_ms);
    eprintln!(
        "fused sweep: {} traces -> {} groups, top opportunity {:.1}% ({analyze_ms:.0}ms, one detection pass per trace)",
        summary.traces,
        summary.fused_groups,
        100.0 * summary.top_opportunity
    );
    let rows = sweep.rows;
    let Some(out) = out else { return };

    let comparison = pipeline_comparison(quick);
    let replay_bench = match std::fs::read_to_string(replay_artifact) {
        Err(_) => {
            eprintln!(
                "note: {replay_artifact} not found (run `repro replay` first); writing rows only"
            );
            None
        }
        Ok(s) => match serde_json::from_str::<ReplayReport>(&s) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!(
                    "warning: {replay_artifact} exists but does not parse ({e:?}); \
                     regenerate it with `repro replay`; writing rows only"
                );
                None
            }
        },
    };
    let report = PipelineReport {
        rows,
        batch: summary,
        comparison,
        replay_bench,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out, format!("{json}\n")).expect("write pipeline artifact");
    // Assert only after the artifact is on disk, so a divergence leaves a
    // machine-readable record instead of nothing.
    assert!(
        report.comparison.report_identical
            && report.comparison.breakdown_identical
            && report.comparison.report_digest_identical,
        "single-pass pipeline diverged from the two-pass flow"
    );
    eprintln!(
        "single-pass vs two-pass: {:.2}x wall-clock, {:.2}x detection-only, \
         {} plan entries vs {} pairs ({:.0}x smaller), reports identical -> {out}",
        report.comparison.wall_clock_speedup,
        report.comparison.detection_speedup,
        report.comparison.plan_resident_entries,
        report.comparison.materialized_pairs,
        report.comparison.pair_reduction_factor,
    );
}

#[derive(Debug, Serialize)]
struct BatchReportArtifact {
    threads: usize,
    input: String,
    rows: Vec<PipelineRow>,
    fused: BatchSummary,
    sequential_ms: f64,
    identical_to_sequential: bool,
    /// Largest single-trace plan footprint across the sweep — the batch
    /// driver's peak detection output per worker.
    max_plan_resident_entries: usize,
}

/// `repro batch`: the paper's Table 1 sweep as one call. Analyzes every
/// application model concurrently through the single-pass batch driver,
/// fuses the aggregate tables, and verifies the fused ranked report is
/// identical to sequential per-trace analysis + in-order merge.
fn run_batch(quick: bool, out: &str) {
    let sweep = analyze_app_sweep(quick);
    print_rows(&sweep.rows);

    // The executable spec: sequential per-trace analysis, in-order merge.
    let (sequential, sequential_ms) =
        time_ms(|| analyze_batch_sequential(&sweep.traces, &PipelineConfig::default()));
    assert!(
        sequential.is_complete(),
        "app models always analyze, but {} trace(s) failed: {:?}",
        sequential.failures.len(),
        sequential.failures
    );

    let batch = &sweep.batch;
    let identical_to_sequential = batch.fused_aggregates == sequential.fused_aggregates
        && batch.fused_breakdown == sequential.fused_breakdown
        && batch.recommendations == sequential.recommendations
        && batch
            .per_trace
            .iter()
            .zip(&sequential.per_trace)
            .all(|(c, s)| c.report == s.report);

    let fused = BatchSummary::new(batch, sweep.analyze_ms);
    eprintln!(
        "fused sweep: {} traces, {} aggregate rows, {} groups, digest {}",
        fused.traces, fused.fused_aggregate_rows, fused.fused_groups, fused.fused_report_digest
    );
    let report = BatchReportArtifact {
        threads: sweep.threads,
        input: format!("{:?}", sweep.input),
        rows: sweep.rows,
        fused,
        sequential_ms,
        identical_to_sequential,
        max_plan_resident_entries: batch
            .per_trace
            .iter()
            .map(|a| a.plan.resident_entries())
            .max()
            .unwrap_or(0),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out, format!("{json}\n")).expect("write batch artifact");
    println!("{json}");
    // Assert only after the artifact is on disk.
    assert!(
        report.identical_to_sequential,
        "concurrent batch fusion diverged from sequential per-trace analysis + merge"
    );
    eprintln!(
        "batch over {} traces identical to sequential + merge -> {out}",
        report.rows.len()
    );
}

/// One fault-injection trial: a `(kind, layer, policy)` cell of the chaos
/// matrix and how the pipeline ended.
#[derive(Debug, Serialize)]
struct InjectTrial {
    kind: String,
    /// `file` (corrupted bytes on disk) or `stream` (in-flight injector).
    layer: String,
    policy: String,
    /// What the injector actually did, for reproduction.
    fault: String,
    /// `report` | `gap-report` | `error` — `panic` fails the run.
    outcome: String,
    detail: String,
}

#[derive(Debug, Serialize)]
struct InjectReport {
    spec: String,
    seed: u64,
    trials: Vec<InjectTrial>,
    clean_reports: usize,
    gap_reports: usize,
    structured_errors: usize,
    panics: usize,
}

/// Runs one ingestion attempt under `catch_unwind` and classifies the ending.
fn inject_outcome(
    run: impl FnOnce() -> Result<StreamingStats, perfplay::prelude::StreamError>,
) -> (String, String) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            ("panic".to_string(), msg)
        }
        Ok(Ok(stats)) if stats.gaps > 0 => (
            "gap-report".to_string(),
            format!("{} gap(s), {} event(s) lost", stats.gaps, stats.events_lost),
        ),
        Ok(Ok(stats)) => (
            "report".to_string(),
            format!("{} events, {} sections", stats.events, stats.sections),
        ),
        Ok(Err(e)) => ("error".to_string(), e.to_string()),
    }
}

/// `repro detect --inject SPEC`: the deterministic chaos harness. Spills a
/// clean chunked trace, applies each requested fault — at the byte level via
/// [`corrupt_chunk_file`] and in flight via [`FaultInjector`] — and ingests
/// every corrupted artifact under every [`RecoveryPolicy`], each attempt
/// wrapped in `catch_unwind`. SPEC is `all` or a fault name
/// (`drop-chunk`, `dup-chunk`, `dup-event`, `reorder`, `time-regress`,
/// `truncate`, `truncate-mid`, `bit-flip`, `trailer-mismatch`), optionally
/// suffixed `:SEED`. Exits non-zero if any trial panics: the pinned
/// invariant is that every run ends in a report, a gap-annotated report, or
/// a structured error.
fn run_inject(spec: &str, out: Option<&str>) {
    let (kind_part, seed) = match spec.split_once(':') {
        Some((k, s)) => match s.parse::<u64>() {
            Ok(seed) => (k, seed),
            Err(_) => {
                eprintln!("--inject seed must be an integer, got `{s}`");
                std::process::exit(2);
            }
        },
        None => (spec, 42),
    };
    let kinds: Vec<FaultKind> = if kind_part == "all" {
        FaultKind::ALL.to_vec()
    } else {
        match FaultKind::parse(kind_part) {
            Some(kind) => vec![kind],
            None => {
                eprintln!(
                    "unknown fault `{kind_part}`; available: all, {}",
                    FaultKind::ALL.map(FaultKind::name).join(", ")
                );
                std::process::exit(2);
            }
        }
    };

    let trace = record_app(App::ALL[0], 2, InputSize::SimSmall);
    let dir = std::env::temp_dir().join(format!("perfplay-inject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create inject scratch dir");
    let clean_json = dir.join("clean.jsonl");
    let summary = spill_trace(&trace, &clean_json, 256).expect("spill clean chunk file");
    let clean_pbin = dir.join("clean.pbin");
    spill_trace(&trace, &clean_pbin, 256).expect("spill clean binary chunk file");
    eprintln!(
        "clean workload: {} events in {} chunks -> {} (+ binary twin)",
        summary.events,
        summary.chunks,
        clean_json.display()
    );

    let config = DetectorConfig::default();
    let policies = [
        RecoveryPolicy::Fail,
        RecoveryPolicy::SkipChunk,
        RecoveryPolicy::SkipStream,
    ];
    let mut trials = Vec::new();
    for kind in &kinds {
        // Byte level: a corrupted file in each on-disk format, read back
        // under each policy.
        for (ext, clean) in [("jsonl", &clean_json), ("pbin", &clean_pbin)] {
            let corrupted = dir.join(format!("{}-{seed}.{ext}", kind.name()));
            let fault = corrupt_chunk_file(clean, &corrupted, *kind, seed)
                .expect("corruption applies to a valid chunk file");
            for policy in policies {
                let (outcome, detail) = inject_outcome(|| {
                    let mut reader = ChunkFileReader::with_policy(&corrupted, policy)?;
                    let streamed = StreamingDetector::new(config).analyze(&mut reader)?;
                    Ok(streamed.stats)
                });
                trials.push(InjectTrial {
                    kind: kind.name().to_string(),
                    layer: format!("file:{ext}"),
                    policy: format!("{policy:?}"),
                    fault: fault.clone(),
                    outcome,
                    detail,
                });
            }
            // Threaded streaming over the same corrupted artifact: the
            // sharded engine inherits the no-panic invariant and must end
            // the trial — report, gap-report or structured error — like the
            // inline one.
            let (outcome, detail) = inject_outcome(|| {
                let mut reader =
                    ChunkFileReader::with_policy(&corrupted, RecoveryPolicy::SkipChunk)?;
                let streamed =
                    ParallelStreamingDetector::with_workers(config, 2).analyze(&mut reader)?;
                Ok(streamed.stats)
            });
            trials.push(InjectTrial {
                kind: kind.name().to_string(),
                layer: format!("file-parallel:{ext}"),
                policy: "SkipChunk".to_string(),
                fault,
                outcome,
                detail,
            });
        }
        // In flight: the same fault injected between reader and detector
        // (format-independent — the injector mutates decoded chunks).
        if kind.stream_applicable() {
            let plan = FaultPlan::seeded(seed, *kind, summary.chunks);
            let (outcome, detail) = inject_outcome(|| {
                let reader = ChunkFileReader::open(&clean_json)?;
                let mut source = FaultInjector::new(reader, plan);
                let streamed = StreamingDetector::new(config).analyze(&mut source)?;
                Ok(streamed.stats)
            });
            trials.push(InjectTrial {
                kind: kind.name().to_string(),
                layer: "stream".to_string(),
                policy: "-".to_string(),
                fault: format!("in-flight {} at chunk {}", kind.name(), plan.target),
                outcome,
                detail,
            });
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    let count = |o: &str| trials.iter().filter(|t| t.outcome == o).count();
    let report = InjectReport {
        spec: spec.to_string(),
        seed,
        clean_reports: count("report"),
        gap_reports: count("gap-report"),
        structured_errors: count("error"),
        panics: count("panic"),
        trials,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{json}");
    if let Some(out) = out {
        std::fs::write(out, format!("{json}\n")).expect("write inject artifact");
    }
    eprintln!(
        "{} trials: {} clean, {} gap-annotated, {} structured errors, {} panics",
        report.trials.len(),
        report.clean_reports,
        report.gap_reports,
        report.structured_errors,
        report.panics
    );
    if report.panics > 0 {
        for t in report.trials.iter().filter(|t| t.outcome == "panic") {
            eprintln!(
                "PANIC: {} ({}, policy {}): {} -> {}",
                t.kind, t.layer, t.policy, t.fault, t.detail
            );
        }
        eprintln!("no-panic invariant violated");
        std::process::exit(1);
    }
}

/// One ingested chunk file of a `--chunk-dir` sweep.
#[derive(Debug, Serialize)]
struct ChunkDirRow {
    path: String,
    events: usize,
    sections: usize,
    gaps: usize,
    events_lost: u64,
    breakdown: BreakdownReport,
}

#[derive(Debug, Serialize)]
struct ChunkDirReport {
    dir: String,
    policy: String,
    streams: Vec<ChunkDirRow>,
    failures: Vec<String>,
    total_gaps: usize,
    total_events_lost: u64,
    analyze_ms: f64,
    fused_breakdown: BreakdownReport,
    fused_aggregate_rows: usize,
    fused_groups: usize,
    fused_report_digest: String,
}

/// `repro batch --chunk-dir DIR`: the Table 1 sweep over on-disk chunk
/// files. Every `*.jsonl` and `*.pbin` in DIR is streamed through the
/// detector under `SkipChunk` recovery and the per-file aggregate tables
/// fuse into one ranked report — traces that never existed in memory, with
/// gap totals reported for any file that needed recovery. An empty (or
/// missing) DIR is first populated by spilling every application model,
/// alternating between the two formats so the sweep always exercises both.
/// Exits non-zero if any file fails outright.
fn run_batch_chunk_dir(dir: &str, quick: bool, out: &str) {
    let dir_path = std::path::Path::new(dir);
    std::fs::create_dir_all(dir_path).expect("create chunk dir");
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir_path)
        .expect("read chunk dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension()
                .is_some_and(|ext| ext == "jsonl" || ext == "pbin")
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        let (threads, input) = if quick {
            (2, InputSize::SimSmall)
        } else {
            (4, InputSize::SimMedium)
        };
        eprintln!("{dir} has no chunk files; spilling the app sweep into it...");
        for (i, app) in App::ALL.iter().enumerate() {
            let trace = record_app(*app, threads, input);
            let ext = if i % 2 == 0 { "jsonl" } else { "pbin" };
            let path = dir_path.join(format!("{}.{ext}", app.name()));
            spill_trace(&trace, &path, 4_096).expect("spill app trace");
            paths.push(path);
        }
    }
    eprintln!("analyzing {} chunk file(s) from {dir}...", paths.len());

    let policy = RecoveryPolicy::SkipChunk;
    let (batch, analyze_ms) =
        time_ms(|| analyze_chunk_files(&paths, &PipelineConfig::default(), policy));
    let streams: Vec<ChunkDirRow> = batch
        .per_stream
        .iter()
        .map(|s| ChunkDirRow {
            path: s.path.clone(),
            events: s.stats.events,
            sections: s.stats.sections,
            gaps: s.stats.gaps,
            events_lost: s.stats.events_lost,
            breakdown: (&s.plan.breakdown).into(),
        })
        .collect();
    let report = ChunkDirReport {
        dir: dir.to_string(),
        policy: format!("{policy:?}"),
        streams,
        failures: batch.failures.iter().map(ToString::to_string).collect(),
        total_gaps: batch.total_gaps(),
        total_events_lost: batch.total_events_lost(),
        analyze_ms,
        fused_breakdown: (&batch.fused_breakdown).into(),
        fused_aggregate_rows: batch.fused_aggregates.len(),
        fused_groups: batch.recommendations.len(),
        fused_report_digest: format!("{:016x}", report_digest(&batch.recommendations)),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out, format!("{json}\n")).expect("write chunk-dir artifact");
    println!("{json}");
    eprintln!(
        "fused {} stream(s): {} groups, {} gap(s), {} event(s) lost, digest {} -> {out}",
        report.streams.len(),
        report.fused_groups,
        report.total_gaps,
        report.total_events_lost,
        report.fused_report_digest
    );
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("FAILED: {f}");
        }
        std::process::exit(1);
    }
}

#[derive(Debug, Serialize)]
struct ChunkFileReport {
    path: String,
    /// Worker count of the threaded engine; `None` for the inline one.
    workers: Option<usize>,
    /// Decode-worker pool of the pipelined reader; `None` when the
    /// sequential reader ran.
    decode_workers: Option<usize>,
    analyze_ms: f64,
    events: usize,
    sections: usize,
    /// Ranked-report digest — the cross-path identity check between the
    /// sequential and pipelined runs over the same file.
    report_digest: String,
    streaming: StreamingStats,
    memory: MemoryReport,
    breakdown: BreakdownReport,
}

/// `repro detect --stream --chunk-file PATH`: streams the detector off an
/// on-disk chunked trace file — the `ChunkedWriter` format — so traces
/// spilled at record time are analyzed without ever materializing the event
/// log. With `--parallel`, the threaded [`ParallelStreamingDetector`]
/// classifies behind the pipelined reader instead of the inline engine.
/// Exits non-zero with the
/// structured `StreamError` on a malformed or truncated file.
fn run_stream_file(path: &str, out: Option<&str>, parallel: bool) {
    let config = detect_bench_config();
    let workers = parallel.then(parallel_workers);
    let decode_workers = parallel.then(default_decode_workers);
    // The parallel run pairs the pipelined reader with the threaded
    // detector; the inline run keeps the single-threaded reader. Both
    // yield bit-identical streams, reports, and error diagnostics.
    let (result, analyze_ms) = match workers {
        Some(workers) => {
            let mut reader = match PipelinedChunkReader::open(path) {
                Ok(reader) => reader,
                Err(e) => {
                    eprintln!("cannot open chunk file {path}: {e}");
                    std::process::exit(1);
                }
            };
            time_ms(|| {
                ParallelStreamingDetector::with_workers(config, workers).analyze(&mut reader)
            })
        }
        None => {
            let mut reader = match ChunkFileReader::open(path) {
                Ok(reader) => reader,
                Err(e) => {
                    eprintln!("cannot open chunk file {path}: {e}");
                    std::process::exit(1);
                }
            };
            time_ms(|| StreamingDetector::new(config).analyze(&mut reader))
        }
    };
    let streamed = match result {
        Ok(streamed) => streamed,
        Err(e) => {
            eprintln!("streaming detection over {path} failed: {e}");
            std::process::exit(1);
        }
    };
    let report = ChunkFileReport {
        path: path.to_string(),
        workers,
        decode_workers,
        analyze_ms,
        events: streamed.stats.events,
        sections: streamed.stats.sections,
        report_digest: format!("{:016x}", ranked_digest(&streamed.analysis)),
        memory: MemoryReport::from_streaming(&streamed.stats),
        streaming: streamed.stats,
        breakdown: (&streamed.analysis.breakdown).into(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{json}");
    if let Some(out) = out {
        std::fs::write(out, format!("{json}\n")).expect("write chunk-file artifact");
        eprintln!("chunk-file detection -> {out}");
    }
}

/// Prints one lint report (human or JSON) and returns whether it is free of
/// error-severity findings.
fn print_lint_report(path: &str, report: &perfplay::prelude::LintReport, json: bool) -> bool {
    if json {
        println!("{}", report.to_json());
    } else {
        println!("{path}:");
        println!("{}", report.render_human());
    }
    report.errors() == 0
}

/// `repro lint --chunk-file PATH`: statically lints one chunk file.
fn run_lint_file(path: &str, json: bool) {
    let report = lint_chunk_file(path, &LintConfig::default());
    let ok = print_lint_report(path, &report, json);
    std::process::exit(if ok { 0 } else { 1 });
}

/// `repro lint --chunk-dir DIR`: lints every `*.jsonl` and `*.pbin` chunk
/// file in DIR.
fn run_lint_dir(dir: &str, json: bool) {
    let mut paths: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.extension()
                    .is_some_and(|ext| ext == "jsonl" || ext == "pbin")
            })
            .collect(),
        Err(e) => {
            eprintln!("cannot read chunk dir {dir}: {e}");
            std::process::exit(1);
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("no *.jsonl or *.pbin chunk files in {dir}");
        std::process::exit(2);
    }
    let mut all_ok = true;
    for path in &paths {
        let path = path.display().to_string();
        let report = lint_chunk_file(&path, &LintConfig::default());
        all_ok &= print_lint_report(&path, &report, json);
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}

/// `repro lint --matrix`: injects every fault kind at fixed seeds — on disk
/// via [`corrupt_chunk_file`] in both chunk-file formats and in flight via
/// [`FaultInjector`] — and checks each lint report against the documented
/// fault→code contract ([`codes_for_fault`]). Exits non-zero on any
/// contract violation.
fn run_lint_matrix() {
    const SEEDS: [u64; 3] = [1, 7, 42];
    let trace = record_app(App::ALL[0], 2, InputSize::SimSmall);
    let dir = std::env::temp_dir().join(format!("perfplay-lint-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create lint matrix scratch dir");
    let clean_json = dir.join("clean.jsonl");
    let summary = spill_trace(&trace, &clean_json, 256).expect("spill clean chunk file");
    let clean_pbin = dir.join("clean.pbin");
    spill_trace(&trace, &clean_pbin, 256).expect("spill clean binary chunk file");
    let stream_config = LintConfig {
        expected_events: Some(trace.num_events() as u64),
        expected_grants: Some(trace.lock_schedule.len() as u64),
        ..LintConfig::default()
    };

    // The uncorrupted artifacts must lint clean in both layers, or the
    // matrix below proves nothing.
    for clean in [&clean_json, &clean_pbin] {
        let baseline = lint_chunk_file(clean.display().to_string(), &LintConfig::default());
        assert!(
            baseline.is_clean(),
            "clean chunk file {} does not lint clean:\n{}",
            clean.display(),
            baseline.render_human()
        );
    }
    let clean_json_str = clean_json.display().to_string();
    let mut reader = ChunkFileReader::open(&clean_json_str).expect("open clean chunk file");
    let baseline_stream = lint_source(&mut reader, &stream_config);
    assert!(
        baseline_stream.is_clean(),
        "clean stream does not lint clean:\n{}",
        baseline_stream.render_human()
    );

    let mut failures = 0usize;
    let mut trials = 0usize;
    let mut check = |kind: FaultKind,
                     seed: u64,
                     layer: &str,
                     must: &[perfplay::prelude::DiagnosticCode],
                     may_be_clean: bool,
                     report: &perfplay::prelude::LintReport| {
        trials += 1;
        let found: Vec<&'static str> = {
            let mut codes: Vec<&'static str> = report
                .diagnostics
                .iter()
                .map(|d| d.code.code_str())
                .collect();
            codes.sort_unstable();
            codes.dedup();
            codes
        };
        let missing: Vec<&'static str> = must
            .iter()
            .filter(|code| !found.contains(&code.code_str()))
            .map(|code| code.code_str())
            .collect();
        let silent = report.is_clean() && !may_be_clean;
        let ok = missing.is_empty() && !silent;
        println!(
            "{:<16} seed={:<3} {:<7} codes=[{}] {}",
            kind.name(),
            seed,
            layer,
            found.join(","),
            if ok { "ok" } else { "CONTRACT VIOLATION" }
        );
        if !ok {
            if !missing.is_empty() {
                eprintln!("  expected codes missing: {}", missing.join(","));
            }
            if silent {
                eprintln!("  fault left the artifact lint-clean but the contract forbids it");
            }
            failures += 1;
        }
    };

    for kind in FaultKind::ALL {
        let expectation = codes_for_fault(kind);
        for seed in SEEDS {
            for (ext, clean) in [("jsonl", &clean_json), ("pbin", &clean_pbin)] {
                let faulty = dir.join(format!("{}-{seed}.{ext}", kind.name()));
                corrupt_chunk_file(clean, &faulty, kind, seed).expect("corrupt chunk file");
                let report = lint_chunk_file(faulty.display().to_string(), &LintConfig::default());
                check(
                    kind,
                    seed,
                    ext,
                    expectation.file_must,
                    expectation.file_may_be_clean,
                    &report,
                );
            }
            if kind.stream_applicable() {
                let plan = FaultPlan::seeded(seed, kind, summary.chunks);
                let reader = ChunkFileReader::open(&clean_json_str).expect("open clean file");
                let mut source = FaultInjector::new(reader, plan);
                let report = lint_source(&mut source, &stream_config);
                check(
                    kind,
                    seed,
                    "stream",
                    expectation.stream_must,
                    expectation.stream_may_be_clean,
                    &report,
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if failures > 0 {
        eprintln!("{failures}/{trials} matrix trials violated the fault→code contract");
        std::process::exit(1);
    }
    eprintln!("all {trials} matrix trials honoured the fault→code contract");
}

#[derive(Debug, Serialize)]
struct LintBenchReport {
    threads: usize,
    trace_events: usize,
    chunk_events: usize,
    record_ms: f64,
    spill_ms: f64,
    file_bytes: u64,
    lint_trace_ms: f64,
    lint_file_ms: f64,
    file_events_per_sec: f64,
    bytes_per_event: f64,
    diagnostics: usize,
    clean: bool,
    deterministic: bool,
    digest: String,
}

/// FNV-1a digest of a lint report: every diagnostic's rendered form plus
/// the stream totals, so two passes over the same file can be compared.
fn lint_digest(report: &perfplay::prelude::LintReport) -> u64 {
    let mut hash = Fnv::new();
    for d in &report.diagnostics {
        for byte in d.to_string().bytes() {
            hash.mix(byte as u64);
        }
    }
    hash.mix(report.stats.chunks);
    hash.mix(report.stats.events);
    hash.mix(report.stats.grants);
    hash.mix(report.stats.bytes);
    hash.0
}

/// `repro lint [--quick] [--out PATH]`: lint throughput on the >=10M-event
/// streaming workload — in memory (chunk-bounded over `TraceChunks`) and
/// over the spilled chunk file (record-by-record scan), with a determinism
/// digest. The synthetic workload must lint clean.
fn run_lint_bench(quick: bool, out: &str) {
    let workload = if quick {
        StreamWorkload::quick()
    } else {
        StreamWorkload::ten_million()
    };
    let chunk_events = if quick { 4_096 } else { 262_144 };
    eprintln!(
        "recording lint workload: {} threads, target {} events...",
        workload.threads, workload.target_events
    );
    let threads = workload.threads;
    let (trace, record_ms) = time_ms(|| stream_trace(workload));
    let trace_events = trace.num_events();
    eprintln!("recorded {trace_events} events in {record_ms:.0}ms");

    let (memory_report, lint_trace_ms) = time_ms(|| lint_trace(&trace, chunk_events));
    assert!(
        memory_report.is_clean(),
        "in-memory lint of the synthetic workload is not clean:\n{}",
        memory_report.render_human()
    );
    eprintln!("in-memory lint: clean in {lint_trace_ms:.0}ms");

    let path =
        std::env::temp_dir().join(format!("perfplay-lint-bench-{}.jsonl", std::process::id()));
    let (_, spill_ms) = time_ms(|| spill_trace(&trace, &path, chunk_events).expect("spill trace"));
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    drop(trace);

    let path_str = path.display().to_string();
    let mut reports = Vec::new();
    let mut times = Vec::new();
    for run in 0..2 {
        let (report, ms) = time_ms(|| lint_chunk_file(&path_str, &LintConfig::default()));
        eprintln!(
            "file lint run {}/2: {ms:.0}ms, {} diagnostics",
            run + 1,
            report.diagnostics.len()
        );
        times.push(ms);
        reports.push(report);
    }
    let _ = std::fs::remove_file(&path);
    let deterministic = lint_digest(&reports[0]) == lint_digest(&reports[1]);
    times.sort_by(f64::total_cmp);
    let lint_file_ms = times[0];
    let report = &reports[0];
    let bench = LintBenchReport {
        threads,
        trace_events,
        chunk_events,
        record_ms,
        spill_ms,
        file_bytes,
        lint_trace_ms,
        lint_file_ms,
        file_events_per_sec: report.stats.events as f64 / (lint_file_ms / 1e3),
        bytes_per_event: if report.stats.events > 0 {
            file_bytes as f64 / report.stats.events as f64
        } else {
            0.0
        },
        diagnostics: report.diagnostics.len(),
        clean: report.is_clean(),
        deterministic,
        digest: format!("{:016x}", lint_digest(report)),
    };
    let json = serde_json::to_string_pretty(&bench).expect("report serializes");
    std::fs::write(out, format!("{json}\n")).expect("write benchmark artifact");
    println!("{json}");
    // Assert only after the artifact is on disk, so a failure leaves a
    // machine-readable record (clean: false) instead of nothing.
    assert!(
        bench.clean,
        "the synthetic workload's chunk file does not lint clean:\n{}",
        report.render_human()
    );
    assert!(bench.deterministic, "file lint is nondeterministic");
    eprintln!(
        "lint throughput: {:.1}M events/sec ({:.1} bytes/event) -> {out}",
        bench.file_events_per_sec / 1e6,
        bench.bytes_per_event
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command: Option<String> = None;
    let mut quick = false;
    let mut stream = false;
    let mut aggregate = false;
    let mut parallel = false;
    let mut out: Option<String> = None;
    let mut replay_artifact: Option<String> = None;
    let mut chunk_file: Option<String> = None;
    let mut spill: Option<String> = None;
    let mut inject: Option<String> = None;
    let mut chunk_dir: Option<String> = None;
    let mut json = false;
    let mut matrix = false;
    let mut format: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--stream" => stream = true,
            "--aggregate" => aggregate = true,
            "--parallel" => parallel = true,
            "--json" => json = true,
            "--matrix" => matrix = true,
            "--out" => match iter.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("--out requires a path argument");
                    std::process::exit(2);
                }
            },
            "--chunk-file" => match iter.next() {
                Some(path) => chunk_file = Some(path.clone()),
                None => {
                    eprintln!("--chunk-file requires a path argument");
                    std::process::exit(2);
                }
            },
            "--spill" => match iter.next() {
                Some(path) => spill = Some(path.clone()),
                None => {
                    eprintln!("--spill requires a path argument");
                    std::process::exit(2);
                }
            },
            "--inject" => match iter.next() {
                Some(spec) => inject = Some(spec.clone()),
                None => {
                    eprintln!("--inject requires a fault spec (`all` or a fault name[:SEED])");
                    std::process::exit(2);
                }
            },
            "--chunk-dir" => match iter.next() {
                Some(path) => chunk_dir = Some(path.clone()),
                None => {
                    eprintln!("--chunk-dir requires a directory argument");
                    std::process::exit(2);
                }
            },
            "--format" => match iter.next() {
                Some(name) => format = Some(name.clone()),
                None => {
                    eprintln!("--format requires a format name (json|pbin)");
                    std::process::exit(2);
                }
            },
            "--replay-artifact" => match iter.next() {
                Some(path) => replay_artifact = Some(path.clone()),
                None => {
                    eprintln!("--replay-artifact requires a path argument");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag}");
                std::process::exit(2);
            }
            cmd => {
                if let Some(previous) = &command {
                    eprintln!("unexpected extra command `{cmd}` after `{previous}`");
                    std::process::exit(2);
                }
                command = Some(cmd.to_string());
            }
        }
    }
    let linting = command.as_deref() == Some("lint");
    let converting = command.as_deref() == Some("convert");
    if chunk_file.is_some() && !stream && !linting && !converting {
        eprintln!(
            "--chunk-file requires --stream (it feeds the streaming detector), \
             `lint` or `convert`"
        );
        std::process::exit(2);
    }
    if format.is_some() && !converting {
        eprintln!("--format only applies to `repro convert`");
        std::process::exit(2);
    }
    if (json || matrix) && !linting {
        eprintln!("--json and --matrix only apply to `repro lint`");
        std::process::exit(2);
    }
    if parallel && !stream {
        eprintln!("--parallel selects the sharded streaming engine; it requires --stream");
        std::process::exit(2);
    }
    if spill.is_some() && (!stream || chunk_file.is_some()) {
        eprintln!(
            "--spill only applies to `detect --stream` without --chunk-file \
             (it keeps the workload's spilled chunk file)"
        );
        std::process::exit(2);
    }
    if inject.is_some()
        && (stream || aggregate || !matches!(command.as_deref(), Some("detect") | None))
    {
        eprintln!("--inject is a `detect` mode and excludes --stream/--aggregate");
        std::process::exit(2);
    }
    if chunk_dir.is_some() && !matches!(command.as_deref(), Some("batch") | Some("lint")) {
        eprintln!("--chunk-dir only applies to `repro batch` and `repro lint`");
        std::process::exit(2);
    }
    match command.as_deref() {
        Some("detect") | None if stream && aggregate => {
            eprintln!("--stream and --aggregate are mutually exclusive");
            std::process::exit(2);
        }
        Some("detect") | None if inject.is_some() => {
            run_inject(inject.as_deref().expect("checked above"), out.as_deref());
        }
        Some("detect") | None if aggregate => {
            run_aggregate(quick, out.as_deref().unwrap_or("BENCH_aggregate.json"));
        }
        Some("detect") | None if stream => match chunk_file {
            Some(path) => run_stream_file(&path, out.as_deref(), parallel),
            None => run_stream(
                quick,
                out.as_deref().unwrap_or("BENCH_stream.json"),
                spill.as_deref(),
                parallel,
            ),
        },
        Some("detect") | None => {
            run_detect(quick, out.as_deref().unwrap_or("BENCH_detect.json"));
        }
        Some("replay") => {
            run_replay(quick, out.as_deref().unwrap_or(REPLAY_ARTIFACT));
        }
        Some("pipeline") => {
            run_pipeline(
                quick,
                out.as_deref(),
                replay_artifact.as_deref().unwrap_or(REPLAY_ARTIFACT),
            );
        }
        Some("lint") if matrix => run_lint_matrix(),
        Some("lint") => match (chunk_file, chunk_dir) {
            (Some(_), Some(_)) => {
                eprintln!("--chunk-file and --chunk-dir are mutually exclusive for `lint`");
                std::process::exit(2);
            }
            (Some(path), None) => run_lint_file(&path, json),
            (None, Some(dir)) => run_lint_dir(&dir, json),
            (None, None) => run_lint_bench(quick, out.as_deref().unwrap_or("BENCH_lint.json")),
        },
        Some("batch") => match chunk_dir {
            Some(dir) => run_batch_chunk_dir(
                &dir,
                quick,
                out.as_deref().unwrap_or("BENCH_batch_chunks.json"),
            ),
            None => run_batch(quick, out.as_deref().unwrap_or("BENCH_batch.json")),
        },
        Some("ingest") => {
            run_ingest(quick, out.as_deref().unwrap_or("BENCH_ingest.json"));
        }
        Some("convert") => match (chunk_file, out) {
            (Some(src), Some(dst)) => run_convert(&src, &dst, format.as_deref()),
            _ => {
                eprintln!(
                    "`repro convert` requires --chunk-file SRC and --out DST \
                     (add --format json|pbin to override the DST extension)"
                );
                std::process::exit(2);
            }
        },
        Some(other) => {
            eprintln!(
                "unknown command `{other}`; available: detect, replay, pipeline, batch, \
                 lint, ingest, convert"
            );
            std::process::exit(2);
        }
    }
}
