//! The traced run: both front doors re-composed from the public stage calls
//! they are made of, each stage timed from outside. Each composition must
//! reproduce its front door's output exactly, so the per-layer figures
//! describe the same program the timed runs measure.

use std::collections::BTreeMap;
use std::time::Instant;

use perfplay::prelude::*;

use crate::workload::{Door, Inputs, Outcome, Workload};

/// Every per-layer metric, with its unit, in report order.
pub const METRICS: [(&str, &str); 26] = [
    ("trace.drain_s", "s"),
    ("trace.events", "count"),
    ("trace.bytes", "B"),
    ("trace.chunks", "count"),
    ("trace.gaps", "count"),
    ("detect.plan_s", "s"),
    ("detect.files_s", "s"),
    ("detect.sections", "count"),
    ("detect.pairs", "count"),
    ("detect.ulcp_frac", "ratio"),
    ("detect.aggregate_rows", "count"),
    ("detect.peak_live_sections", "count"),
    ("detect.peak_history_entries", "count"),
    ("transform.s", "s"),
    ("transform.nodes", "count"),
    ("transform.aux_locks", "count"),
    ("transform.stripped_sections", "count"),
    ("replay.orig_s", "s"),
    ("replay.free_s", "s"),
    ("replay.events", "count"),
    ("replay.lockset_ops", "count"),
    ("report.build_s", "s"),
    ("report.fuse_s", "s"),
    ("report.groups", "count"),
    ("report.degradation", "ratio"),
    ("unattributed_s", "s"),
];

/// Per-layer figures of one traced pass, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.0.entry(name).or_insert(value);
        *slot = slot.max(value);
    }

    /// Runs `f`, adding its wall seconds to `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_secs_f64());
        out
    }
}

/// One traced pass over `inputs` (spilled). `memory` and `files` are the two
/// front doors' own outputs on the same inputs; each composition is checked
/// against its door.
pub fn traced(
    workload: Workload,
    inputs: &Inputs,
    memory: &[PerfReport],
    files: &ChunkBatchAnalysis,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    drain(inputs, &mut layers)?;

    let config = workload.config(Door::Memory);
    let memory_start = Instant::now();
    let reports = inputs
        .traces
        .iter()
        .map(|trace| compose_plan(trace, &config, &mut layers))
        .collect::<Result<Vec<_>, _>>()?;
    let memory_wall = memory_start.elapsed().as_secs_f64();
    if reports != memory {
        return Err("stage-by-stage reports differ from the in-memory front door's".into());
    }

    let files_start = Instant::now();
    let composed = compose_files(workload, inputs, &mut layers)?;
    let files_wall = files_start.elapsed().as_secs_f64();
    let expected = crate::workload::outcome_of(files);
    if composed != expected {
        return Err("stage-by-stage chunk-file sweep differs from analyze_chunk_files'".into());
    }

    // Orchestration outside the stage calls, on the door the timed runs use.
    let unattributed = match workload.timed_door() {
        Door::Memory => memory_wall - stage_sum(&layers, MEMORY_STAGES),
        Door::Files => files_wall - stage_sum(&layers, FILE_STAGES),
    };
    layers.add("unattributed_s", unattributed);

    let breakdown = composed.breakdown;
    let pairs = breakdown.total_ulcps() + breakdown.tlcp_edges;
    layers.add("detect.pairs", pairs as f64);
    layers.add(
        "detect.ulcp_frac",
        breakdown.total_ulcps() as f64 / pairs.max(1) as f64,
    );
    layers.add("report.groups", composed.recommendations.len() as f64);
    let original: u64 = memory
        .iter()
        .map(|r| r.impact.original_time.as_nanos())
        .sum();
    let degradation: u64 = memory.iter().map(|r| r.impact.degradation.as_nanos()).sum();
    layers.add(
        "report.degradation",
        degradation as f64 / original.max(1) as f64,
    );
    Ok(layers)
}

const MEMORY_STAGES: &[&str] = &[
    "detect.plan_s",
    "transform.s",
    "replay.orig_s",
    "replay.free_s",
    "report.build_s",
];

const FILE_STAGES: &[&str] = &["detect.files_s", "report.fuse_s"];

fn stage_sum(layers: &Layers, stages: &[&str]) -> f64 {
    stages.iter().filter_map(|s| layers.0.get(s)).sum()
}

/// Reads every chunk file to the end with no detection.
fn drain(inputs: &Inputs, layers: &mut Layers) -> Result<(), String> {
    for path in &inputs.paths {
        let (chunks, events, gaps) = layers
            .time("trace.drain_s", || -> Result<_, StreamError> {
                let mut reader = ChunkFileReader::with_policy(path, RecoveryPolicy::SkipChunk)?;
                let (mut chunks, mut events, mut gaps) = (0usize, 0usize, 0usize);
                while let Some(item) = reader.next_item()? {
                    match item {
                        StreamItem::Chunk(chunk) => {
                            chunks += 1;
                            events += chunk.num_events();
                        }
                        StreamItem::Gap(_) => gaps += 1,
                    }
                }
                Ok((chunks, events, gaps))
            })
            .map_err(|e| e.to_string())?;
        layers.add("trace.chunks", chunks as f64);
        layers.add("trace.events", events as f64);
        layers.add("trace.gaps", gaps as f64);
        let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        layers.add("trace.bytes", bytes as f64);
    }
    Ok(())
}

/// `analyze_plan` (batch detection, no preflight) one stage call at a time.
fn compose_plan(
    trace: &Trace,
    config: &PipelineConfig,
    layers: &mut Layers,
) -> Result<PerfReport, String> {
    assert!(
        config.chunk_events.is_none() && !config.preflight,
        "the composition mirrors batch detection without preflight"
    );
    let plan = layers.time("detect.plan_s", || {
        Detector::new(config.detector).plan(trace, BodyOverlapGain)
    });
    let transformed = layers.time("transform.s", || {
        Transformer::new(config.transform).transform_from_plan(trace, &plan)
    });
    let original = layers
        .time("replay.orig_s", || {
            Replayer::new(config.replay)
                .replay(trace, ReplaySchedule::for_kind(config.original_schedule))
        })
        .map_err(|e| e.to_string())?;
    let free = layers
        .time("replay.free_s", || {
            UlcpFreeReplayer::new(config.replay)
                .with_dls(config.use_dls)
                .replay(&transformed)
        })
        .map_err(|e| e.to_string())?;
    let report = layers.time("report.build_s", || {
        PerfReport::from_plan(trace, &plan, &transformed, &original, &free)
    });

    layers.add("detect.sections", plan.sections.len() as f64);
    layers.add("detect.aggregate_rows", plan.aggregates.len() as f64);
    let stats = &report.transform_stats;
    layers.add("transform.nodes", stats.nodes as f64);
    layers.add("transform.aux_locks", stats.aux_locks as f64);
    layers.add(
        "transform.stripped_sections",
        stats.stripped_sections as f64,
    );
    let replayed: usize = [&original, &free]
        .iter()
        .flat_map(|r| &r.event_times)
        .map(Vec::len)
        .sum();
    layers.add("replay.events", replayed as f64);
    layers.add("replay.lockset_ops", free.lockset_ops as f64);
    Ok(report)
}

/// `analyze_chunk_files` (no preflight) one stage call at a time: streaming
/// detection per file, then the cross-file fusion and ranking.
fn compose_files(
    workload: Workload,
    inputs: &Inputs,
    layers: &mut Layers,
) -> Result<Outcome, String> {
    let config = workload.config(Door::Files);
    assert!(
        !config.preflight,
        "the composition mirrors a sweep without preflight"
    );
    let mut plans = Vec::with_capacity(inputs.paths.len());
    for path in &inputs.paths {
        let (plan, stats) = layers
            .time("detect.files_s", || -> Result<_, StreamError> {
                let sink = PlanAggregator::new(BodyOverlapGain);
                let streamed = match config.stream_workers() {
                    Some(workers) => {
                        let mut reader = PipelinedChunkReader::with_options(
                            path,
                            RecoveryPolicy::SkipChunk,
                            None,
                            config.decode_workers,
                        )?;
                        ParallelStreamingDetector::with_workers(config.detector, workers)
                            .analyze_with(&mut reader, sink)?
                    }
                    None => {
                        let mut reader =
                            ChunkFileReader::with_policy(path, RecoveryPolicy::SkipChunk)?;
                        StreamingDetector::new(DetectorConfig {
                            parallel: false,
                            ..config.detector
                        })
                        .analyze_with(&mut reader, sink)?
                    }
                };
                Ok(DetectionPlan::from_streaming(streamed))
            })
            .map_err(|e| e.to_string())?;
        layers.max("detect.peak_live_sections", stats.peak_live_sections as f64);
        layers.max(
            "detect.peak_history_entries",
            stats.peak_history_entries as f64,
        );
        plans.push(plan);
    }
    Ok(layers.time("report.fuse_s", || {
        let mut aggregates = SiteAggregates::default();
        let mut breakdown = UlcpBreakdown::default();
        for plan in &plans {
            aggregates.merge(&plan.aggregates);
            breakdown.merge_totals(&plan.breakdown);
        }
        Outcome {
            recommendations: rank_groups(fuse_aggregates(&aggregates)),
            breakdown,
        }
    }))
}
