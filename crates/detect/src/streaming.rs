//! Incremental ULCP identification over a chunked event stream: the result
//! types every streaming run returns, and the [`StreamingDetector`] entry
//! point.
//!
//! [`Detector::analyze`](crate::Detector::analyze) needs the whole [`Trace`]
//! resident before it can start. A streaming run consumes an
//! [`EventSource`] chunk by chunk instead, keeping only bounded incremental
//! state: per-thread open sections, a horizon-pruned shadow-memory history,
//! and per-lock pairing cursors that retire as soon as no later section can
//! change their outcome.
//!
//! There is one streaming engine, behind [`ParallelStreamingDetector`]: a
//! decoder stage (chunk-contract validation, section extraction, id
//! assignment) feeding a per-lock pairing stage. [`StreamingDetector`] is that engine's *inline*
//! mode — one pairing worker, driven on the calling thread with no thread,
//! channel or shard merge — and [`ParallelStreamingDetector`] with
//! `workers > 1` runs the same stages on sharded worker threads. Both are
//! **bit-identical** to [`Detector::analyze`](crate::Detector::analyze) and
//! [`reference_analyze`](crate::reference_analyze); the equivalence is
//! property-tested against the reference in `tests/engine_equivalence.rs`.
//!
//! Without a `max_scan_per_thread` cap, read-heavy workloads can keep
//! sections pairing-live for a long time, so the resident-state bound is
//! strongest with a cap configured (the bench harness always sets one).
//!
//! [`ParallelStreamingDetector`]: crate::ParallelStreamingDetector

use perfplay_trace::{CriticalSection, EventSource, StreamError, Trace, TraceChunks};

use crate::pairing::{DetectorConfig, UlcpAnalysis, UlcpBreakdown};
use crate::parallel_stream::{analyze_inline, ParallelStreamingDetector};
use crate::sink::UlcpSink;

/// Peak-resident-state accounting of one streaming run: the evidence that
/// memory stayed bounded instead of growing with the event count.
///
/// The `peak_*` fields are exact for an inline (one-worker) run. A threaded
/// run samples each worker separately and reports the peaks *summed* — an
/// upper bound on the true simultaneous peak, still bounded by the chunk
/// size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StreamingStats {
    /// Chunks consumed.
    pub chunks: usize,
    /// Total events consumed.
    pub events: usize,
    /// Critical sections extracted.
    pub sections: usize,
    /// Largest single chunk (events) held resident.
    pub peak_chunk_events: usize,
    /// Peak count of sections whose pairing state was live at once
    /// (id assigned and awaiting delivery, or still searching).
    pub peak_live_sections: usize,
    /// Peak number of retained write-log entries in the pruned history.
    pub peak_history_entries: usize,
    /// Peak number of entries the output sink held resident — individual
    /// pairs for a collecting sink, aggregate-table rows for an aggregating
    /// one. The field all BENCH artifacts report peak pair memory under.
    pub peak_live_pairs: usize,
    /// Sections whose pairing state was retired before the stream ended.
    pub retired_before_end: usize,
    /// Stream gaps a recovering source reported (0 on a clean stream).
    pub gaps: usize,
    /// Events known lost across those gaps.
    pub events_lost: u64,
}

impl StreamingStats {
    /// True if the source reported any gaps: the analysis is sound on what
    /// was seen, but not complete.
    pub fn is_gapped(&self) -> bool {
        self.gaps > 0
    }
}

/// The output of a streaming run: the analysis (bit-identical to the batch
/// engines) plus the resident-state accounting.
#[derive(Debug, Clone)]
pub struct StreamingAnalysis {
    /// The ULCP analysis.
    pub analysis: UlcpAnalysis,
    /// Resident-state statistics of the run.
    pub stats: StreamingStats,
}

/// The output of a streaming run into a caller-supplied sink: sections and
/// breakdown (maintained by the engine), the sink, and the resident-state
/// accounting.
#[derive(Debug, Clone)]
pub struct StreamingSinkAnalysis<S> {
    /// Every closed critical section, indexed by `SectionId::index`.
    pub sections: Vec<CriticalSection>,
    /// Per-category pair counts.
    pub breakdown: UlcpBreakdown,
    /// The sink, sealed in the canonical batch-engine order.
    pub sink: S,
    /// Resident-state statistics of the run.
    pub stats: StreamingStats,
}

/// PerfPlay's ULCP identification stage over a chunked event stream, run
/// on the calling thread.
///
/// This is the streaming engine's inline mode: each chunk is decoded and
/// paired by the calling thread before the next one is pulled, so no thread
/// is spawned and the sink need not be `Send`. The output is bit-identical
/// to [`ParallelStreamingDetector`] at any worker count.
#[derive(Debug, Clone, Default)]
pub struct StreamingDetector {
    config: DetectorConfig,
}

impl StreamingDetector {
    /// Creates a streaming detector with the given configuration. It always
    /// runs inline; threaded streaming is
    /// [`ParallelStreamingDetector::with_workers`].
    pub fn new(config: DetectorConfig) -> Self {
        StreamingDetector { config }
    }

    /// Consumes the source to exhaustion and returns the analysis, which is
    /// bit-identical to [`Detector::analyze`](crate::Detector::analyze) over
    /// the same events.
    ///
    /// # Errors
    ///
    /// Propagates source errors and rejects streams that violate the chunk
    /// contract or per-thread timestamp monotonicity.
    pub fn analyze<Src: EventSource>(
        &self,
        source: &mut Src,
    ) -> Result<StreamingAnalysis, StreamError> {
        ParallelStreamingDetector::with_workers(self.config, 1).analyze(source)
    }

    /// Consumes the source to exhaustion, emitting every classified pair
    /// through the caller's sink. With an aggregating sink the resident
    /// state — pairing cursors, pruned history *and* output — stays bounded
    /// by the chunk size and the code-site count, never by the pair count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`analyze`](Self::analyze).
    pub fn analyze_with<Src: EventSource, S: UlcpSink>(
        &self,
        source: &mut Src,
        sink: S,
    ) -> Result<StreamingSinkAnalysis<S>, StreamError> {
        analyze_inline(self.config, source, sink)
    }

    /// Convenience wrapper: streams an in-memory trace through a
    /// [`TraceChunks`] adapter with the given chunk size.
    ///
    /// # Errors
    ///
    /// Same conditions as [`analyze`](Self::analyze).
    pub fn analyze_trace(
        &self,
        trace: &Trace,
        chunk_events: usize,
    ) -> Result<StreamingAnalysis, StreamError> {
        self.analyze(&mut TraceChunks::new(trace, chunk_events))
    }

    /// Convenience wrapper: [`analyze_with`](Self::analyze_with) over a
    /// [`TraceChunks`] adapter with the given chunk size.
    ///
    /// # Errors
    ///
    /// Same conditions as [`analyze_with`](Self::analyze_with).
    pub fn analyze_trace_with<S: UlcpSink>(
        &self,
        trace: &Trace,
        chunk_events: usize,
        sink: S,
    ) -> Result<StreamingSinkAnalysis<S>, StreamError> {
        self.analyze_with(&mut TraceChunks::new(trace, chunk_events), sink)
    }
}
