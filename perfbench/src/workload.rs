//! The three workloads: how each makes its inputs from the seed, the front
//! door its timed analysis goes through, and the other front door its
//! reference comes from.

use std::path::{Path, PathBuf};

use perfplay::prelude::*;
use perfplay::workloads::{random_workload, App, GeneratorConfig, InputSize, WorkloadConfig};

/// Events per chunk when a trace is spilled to pbin, as `repro batch
/// --chunk-dir` spills the application sweep.
const SPILL_CHUNK_EVENTS: usize = 4_096;

/// Detection workers of the reference run of the in-memory workloads. The
/// default sequential streaming engine takes minutes on these shapes.
const REFERENCE_STREAM_WORKERS: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 threads, 16 locks, 2,048 objects, about 2M events through
    /// `analyze_plan`: detection dominates.
    PlanWide,
    /// 2 threads, 2 locks, 2,048 objects, about 6M events through
    /// `analyze_plan`: transform, the replays and the report dominate.
    PlanNarrow,
    /// The 16 Table 1 application models at 16 threads and `SimLarge`,
    /// spilled to pbin and swept by `analyze_chunk_files`.
    SweepPbin,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PlanWide,
        Workload::PlanNarrow,
        Workload::SweepPbin,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanWide => "plan_wide",
            Workload::PlanNarrow => "plan_narrow",
            Workload::SweepPbin => "sweep_pbin",
        }
    }

    /// Looks a workload up by [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generator shape of the in-memory workloads.
    fn generator(self) -> Option<GeneratorConfig> {
        match self {
            Workload::PlanWide => Some(GeneratorConfig::for_event_target(16, 16, 2048, 2_000_000)),
            Workload::PlanNarrow => Some(GeneratorConfig::for_event_target(2, 2, 2048, 6_000_000)),
            Workload::SweepPbin => None,
        }
    }

    /// The front door the timed analysis goes through; the reference comes
    /// from the other one.
    pub fn timed_door(self) -> Door {
        match self {
            Workload::PlanWide | Workload::PlanNarrow => Door::Memory,
            Workload::SweepPbin => Door::Files,
        }
    }

    /// The pipeline configuration of `door`.
    pub fn config(self, door: Door) -> PipelineConfig {
        let detector = match self {
            Workload::PlanWide | Workload::PlanNarrow => perfplay_bench::detect_bench_config(),
            Workload::SweepPbin => DetectorConfig::default(),
        };
        let parallel_streams = match (self, door) {
            (Workload::PlanWide | Workload::PlanNarrow, Door::Files) => REFERENCE_STREAM_WORKERS,
            _ => 0,
        };
        PipelineConfig {
            detector,
            parallel_streams,
            ..PipelineConfig::default()
        }
    }

    /// Makes the workload's inputs from `seed`: records the trace(s) and,
    /// for the file workload, spills them to pbin files in `dir`. This is
    /// what `setup_s` times.
    pub fn setup(self, seed: u64, dir: &Path) -> Result<Inputs, String> {
        let sim = SimConfig::with_seed(seed);
        match self.generator() {
            Some(shape) => {
                let trace = record(&random_workload(seed, &shape), sim)?;
                Ok(Inputs {
                    traces: vec![trace],
                    paths: Vec::new(),
                })
            }
            None => {
                let config = WorkloadConfig::new(16, InputSize::SimLarge);
                let mut traces = Vec::with_capacity(App::ALL.len());
                let mut paths = Vec::with_capacity(App::ALL.len());
                for app in App::ALL {
                    let trace = record(&app.build(&config), sim)?;
                    paths.push(spill(&trace, &dir.join(format!("{}.pbin", app.name())))?);
                    traces.push(trace);
                }
                Ok(Inputs { traces, paths })
            }
        }
    }
}

/// A workload's inputs: the recorded traces and, for the file workload, the
/// pbin files they were spilled to (one per trace).
pub struct Inputs {
    /// The recorded traces.
    pub traces: Vec<Trace>,
    /// The spilled chunk files; empty until [`Inputs::spill_to`] for the
    /// in-memory workloads.
    pub paths: Vec<PathBuf>,
}

impl Inputs {
    /// Spills every trace that has no file yet into `dir`.
    pub fn spill_to(&mut self, dir: &Path) -> Result<(), String> {
        for (i, trace) in self.traces.iter().enumerate().skip(self.paths.len()) {
            self.paths
                .push(spill(trace, &dir.join(format!("trace-{i}.pbin")))?);
        }
        Ok(())
    }

    /// Trace events over all traces.
    pub fn events(&self) -> usize {
        self.traces.iter().map(Trace::num_events).sum()
    }

    /// Bytes of all spilled files.
    pub fn file_bytes(&self) -> u64 {
        self.paths
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

fn record(program: &Program, sim: SimConfig) -> Result<Trace, String> {
    Recorder::new(sim)
        .record(program)
        .map(|recorded| recorded.trace)
        .map_err(|e| format!("recording {} failed: {e}", program.name))
}

fn spill(trace: &Trace, path: &Path) -> Result<PathBuf, String> {
    spill_trace_with_format(trace, path, SPILL_CHUNK_EVENTS, ChunkFormat::Pbin)
        .map_err(|e| format!("spilling to {} failed: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

/// What the correctness check compares: the ranked recommendations and the
/// ULCP breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Ranked code-region recommendations.
    pub recommendations: Vec<Recommendation>,
    /// Per-category pair counts.
    pub breakdown: UlcpBreakdown,
}

/// PerfPlay's two front doors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Door {
    /// Traces in memory: `analyze_plan` for one trace, `analyze_batch` for
    /// many.
    Memory,
    /// Chunk files on disk: `analyze_chunk_files` under `SkipChunk`.
    Files,
}

impl Door {
    /// The other front door.
    pub fn other(self) -> Door {
        match self {
            Door::Memory => Door::Files,
            Door::Files => Door::Memory,
        }
    }
}

/// One analysis through `door`, reduced to what the check compares. The
/// file door needs spilled `inputs`.
pub fn analyze(workload: Workload, door: Door, inputs: &Inputs) -> Result<Outcome, String> {
    match door {
        Door::Memory => memory_door(workload, inputs).map(|(outcome, _)| outcome),
        Door::Files => file_door(workload, inputs).map(|sweep| outcome_of(&sweep)),
    }
}

/// The in-memory front door, with the per-trace reports.
pub fn memory_door(
    workload: Workload,
    inputs: &Inputs,
) -> Result<(Outcome, Vec<PerfReport>), String> {
    let config = workload.config(Door::Memory);
    if let [trace] = inputs.traces.as_slice() {
        let report = analyze_plan(trace, &config)
            .map_err(|e| e.to_string())?
            .report;
        let outcome = Outcome {
            recommendations: report.recommendations.clone(),
            breakdown: report.breakdown,
        };
        return Ok((outcome, vec![report]));
    }
    let batch = analyze_batch(&inputs.traces, &config);
    if let Some(failure) = batch.failures.first() {
        return Err(failure.to_string());
    }
    let reports = batch.per_trace.into_iter().map(|a| a.report).collect();
    let outcome = Outcome {
        recommendations: batch.recommendations,
        breakdown: batch.fused_breakdown,
    };
    Ok((outcome, reports))
}

/// The chunk-file front door over the spilled `inputs`. A failed file, or a
/// gap in these clean files, fails the analysis.
pub fn file_door(workload: Workload, inputs: &Inputs) -> Result<ChunkBatchAnalysis, String> {
    let config = workload.config(Door::Files);
    let sweep = analyze_chunk_files(&inputs.paths, &config, RecoveryPolicy::SkipChunk);
    if let Some(failure) = sweep.failures.first() {
        return Err(failure.to_string());
    }
    if sweep.total_gaps() > 0 {
        return Err(format!(
            "{} gap(s) in clean chunk files",
            sweep.total_gaps()
        ));
    }
    Ok(sweep)
}

/// What the check compares of a chunk-file sweep.
pub fn outcome_of(sweep: &ChunkBatchAnalysis) -> Outcome {
    Outcome {
        recommendations: sweep.recommendations.clone(),
        breakdown: sweep.fused_breakdown,
    }
}
