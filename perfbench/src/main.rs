//! The PerfPlay benchmark: trace or chunk files in, ranked report out.
//!
//! ```text
//! perfbench --workload plan_wide|plan_narrow|sweep_pbin --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times whole analyses through the workload's front door in a
//! closed loop and reports the end-to-end metrics; `--trace 1` re-composes
//! both front doors from their stage calls and reports the per-layer
//! metrics. Every analysis is checked against a reference computed through
//! the other front door. The last line of standard output is the result
//! object; the line before it is the environment block. The exit code is
//! non-zero when any analysis failed or any check did not hold. See
//! `README.md` next to this crate for the workloads and metrics.

mod layers;
mod sys;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use workload::{Inputs, Outcome, Workload};

const USAGE: &str =
    "usage: perfbench --workload plan_wide|plan_narrow|sweep_pbin --seed N --seconds S --trace 0|1";

/// Set-ups per timed run at the least, and the seconds they are repeated
/// for at the least; `setup_s` is their median. Cheap set-ups repeat more.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// Untimed analyses before the timed ones: every timed analysis runs on a
/// warmed heap, never as the process's first.
const WARMUP_ANALYSES: usize = 1;

/// Timed analyses per run at the least, however long they take.
const MIN_SAMPLES: usize = 2;

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected positive seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory for spilled chunk files, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path) -> Result<WorkDir, String> {
        let dir = root
            .join(".perfbench_work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Process-level cost of one analysis.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

/// Analyses attempted and failed (an `Err`, or an output that differs from
/// the reference).
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Checks one analysis' output against the reference.
fn check(result: &Result<Outcome, String>, reference: &Outcome) -> Result<(), String> {
    match result {
        Err(e) => Err(format!("analysis failed: {e}")),
        Ok(outcome) if outcome.breakdown != reference.breakdown => Err(format!(
            "breakdown differs from the reference: {:?} vs {:?}",
            outcome.breakdown, reference.breakdown
        )),
        Ok(outcome) if outcome.recommendations != reference.recommendations => Err(format!(
            "ranked recommendations differ from the reference ({} vs {} groups)",
            outcome.recommendations.len(),
            reference.recommendations.len()
        )),
        Ok(_) => Ok(()),
    }
}

/// Runs `analysis` one at a time until `seconds` have passed and at least
/// [`MIN_SAMPLES`] were timed, after `warmup` untimed ones. Returns the
/// timed samples and every analysis' output, warm-up included, for
/// [`tally`] to check.
fn closed_loop(
    seconds: f64,
    warmup: usize,
    mut analysis: impl FnMut() -> Result<Outcome, String>,
) -> (Vec<Sample>, Vec<Result<Outcome, String>>) {
    let mut outputs = Vec::new();
    let mut samples = Vec::new();
    let mut started: Option<Instant> = None;
    for i in 0.. {
        if let Some(start) = started {
            if start.elapsed().as_secs_f64() >= seconds && samples.len() >= MIN_SAMPLES {
                break;
            }
        }
        let rss_reset = sys::reset_peak_rss();
        let cpu = sys::cpu_seconds();
        let wall = Instant::now();
        outputs.push(analysis());
        let sample = Sample {
            wall_s: wall.elapsed().as_secs_f64(),
            cpu_s: sys::cpu_seconds() - cpu,
            peak_rss_mb: if rss_reset.is_ok() {
                sys::peak_rss_mb()
            } else {
                f64::NAN
            },
        };
        if i >= warmup {
            started.get_or_insert(wall);
            samples.push(sample);
        }
    }
    (samples, outputs)
}

/// Checks every output against `reference`.
fn tally(outputs: &[Result<Outcome, String>], reference: &Outcome) -> Tally {
    let mut tally = Tally::default();
    for (i, output) in outputs.iter().enumerate() {
        let verdict = check(output, reference);
        if let Err(e) = &verdict {
            eprintln!("perfbench: analysis {i}: {e}");
        }
        tally.record(verdict.is_ok());
    }
    tally
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One run's result: the tally, the metrics, and what the environment block
/// reports about the inputs and samples.
struct RunResult {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    shape: Vec<(&'static str, f64)>,
    detail: Vec<(&'static str, String)>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    fn exit_code(&self) -> ExitCode {
        if self.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Sets the workload up at least `min_repeats` times and for at least
/// `min_seconds`, keeping the last inputs; returns them with the median
/// set-up seconds.
fn setup(
    args: &Args,
    dir: &Path,
    min_repeats: usize,
    min_seconds: f64,
) -> Result<(Inputs, f64), String> {
    let mut times = Vec::new();
    let mut inputs = None;
    let start = Instant::now();
    while times.len() < min_repeats || start.elapsed().as_secs_f64() < min_seconds {
        drop(inputs.take());
        let one = Instant::now();
        inputs = Some(args.workload.setup(args.seed, dir)?);
        times.push(one.elapsed().as_secs_f64());
    }
    let mut inputs = inputs.ok_or("no set-up ran")?;
    // The in-memory workloads' reference reads the trace back from pbin;
    // that spill is not part of their set-up.
    inputs.spill_to(dir)?;
    Ok((inputs, median(&times)))
}

fn shape_of(inputs: &Inputs, reference: &Outcome) -> Vec<(&'static str, f64)> {
    vec![
        ("traces", inputs.traces.len() as f64),
        ("events", inputs.events() as f64),
        ("sections", reference.breakdown.lock_acquisitions as f64),
        ("files", inputs.paths.len() as f64),
        ("bytes", inputs.file_bytes() as f64),
    ]
}

fn run_timed(args: &Args, dir: &Path) -> Result<RunResult, String> {
    let (inputs, setup_s) = setup(args, dir, SETUP_MIN_REPEATS, SETUP_MIN_SECONDS)?;
    let door = args.workload.timed_door();
    let (samples, outputs) = closed_loop(args.seconds, WARMUP_ANALYSES, || {
        workload::analyze(args.workload, door, &inputs)
    });
    // The reference runs after the timed loop, so that its threads leave no
    // allocator state behind for the timed analyses to inherit.
    let reference_start = Instant::now();
    let reference = workload::analyze(args.workload, door.other(), &inputs)
        .map_err(|e| format!("reference through the other front door failed: {e}"))?;
    let reference_s = reference_start.elapsed().as_secs_f64();
    let tally = tally(&outputs, &reference);
    let events = inputs.events() as f64;
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let wall_s = median(&walls);
    let metrics = vec![
        ("wall_s", wall_s, "s"),
        ("events_per_s", events / wall_s, "1/s"),
        (
            "cpu_s",
            median(&samples.iter().map(|s| s.cpu_s).collect::<Vec<_>>()),
            "s",
        ),
        (
            "peak_rss_mb",
            median(&samples.iter().map(|s| s.peak_rss_mb).collect::<Vec<_>>()),
            "MiB",
        ),
        ("setup_s", setup_s, "s"),
    ];
    let detail = vec![
        ("failed_frac", tally.failed_frac().to_string()),
        ("reference_s", reference_s.to_string()),
        ("timed_analyses", samples.len().to_string()),
        // With a handful of samples per run the maximum is the highest
        // percentile the sample count supports.
        (
            "wall_max_s",
            walls.iter().copied().fold(f64::NAN, f64::max).to_string(),
        ),
        ("wall_s_samples", format!("{walls:?}")),
        (
            "peak_rss_mb_samples",
            format!(
                "{:?}",
                samples.iter().map(|s| s.peak_rss_mb).collect::<Vec<_>>()
            ),
        ),
    ];
    Ok(RunResult {
        tally,
        metrics,
        shape: shape_of(&inputs, &reference),
        detail,
    })
}

fn run_traced(args: &Args, dir: &Path) -> Result<RunResult, String> {
    let (inputs, _) = setup(args, dir, 1, 0.0)?;
    let mut tally = Tally::default();
    // One analysis through each front door: the cross-door check, and the
    // outputs each stage-by-stage composition must reproduce.
    let (memory, reports) = workload::memory_door(args.workload, &inputs)?;
    let files = workload::file_door(args.workload, &inputs)?;
    let cross = check(&Ok(workload::outcome_of(&files)), &memory);
    if let Err(e) = &cross {
        eprintln!("perfbench: front doors disagree: {e}");
    }
    tally.record(cross.is_ok());

    let mut passes: Vec<layers::Layers> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        match layers::traced(args.workload, &inputs, &reports, &files) {
            Ok(pass) => {
                tally.record(true);
                passes.push(pass);
            }
            Err(e) => {
                eprintln!("perfbench: traced pass: {e}");
                tally.record(false);
                break;
            }
        }
    }
    let metrics = layers::METRICS
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.0.get(name).copied())
                .collect();
            (name, median(&values), unit)
        })
        .collect();
    let detail = vec![
        ("failed_frac", tally.failed_frac().to_string()),
        ("traced_passes", passes.len().to_string()),
    ];
    Ok(RunResult {
        tally,
        metrics,
        shape: shape_of(&inputs, &memory),
        detail,
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

impl RunResult {
    fn environment(&self, args: &Args, root: &Path) -> String {
        let shape: Vec<String> = self
            .shape
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
            .collect();
        let detail: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        format!(
            "{{\"environment\": {{\"available_parallelism\": {}, \"rustc\": {}, \"commit\": {}, \
             \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"warm\": {}, \
             \"shape\": {{{}}}, \"detail\": {{{}}}}}}}",
            sys::available_parallelism(),
            json_string(env!("PERFBENCH_RUSTC")),
            json_string(&sys::git_commit(root)),
            json_string(args.workload.name()),
            args.seed,
            json_number(args.seconds),
            u8::from(args.trace),
            json_string("timed analyses follow one untimed warm-up analysis in the same process"),
            shape.join(", "),
            detail.join(", "),
        )
    }

    /// The result line. A metric that could not be measured (non-finite)
    /// fails the run.
    fn render(&mut self) -> String {
        if self.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
            for (name, value, _) in &self.metrics {
                if !value.is_finite() {
                    eprintln!("perfbench: metric {name} was not measured");
                }
            }
            self.tally.failed = self.tally.failed.max(1);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = WorkDir::create(&root).and_then(|work| {
        if args.trace {
            run_traced(&args, &work.0)
        } else {
            run_timed(&args, &work.0)
        }
    });
    match outcome {
        Ok(mut result) => {
            let line = result.render();
            println!("{}", result.environment(&args, &root));
            println!("{line}");
            result.exit_code()
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfplay::prelude::{Recorder, SimConfig, Trace};
    use perfplay::workloads::{random_workload, GeneratorConfig};
    use workload::Door;

    fn tiny_trace(seed: u64) -> Trace {
        let shape = GeneratorConfig {
            threads: 3,
            locks: 2,
            objects: 4,
            sections_per_thread: 12,
        };
        Recorder::new(SimConfig::with_seed(seed))
            .record(&random_workload(seed, &shape))
            .expect("tiny workloads record")
            .trace
    }

    /// Tiny spilled inputs in a scratch directory that lives as long as the
    /// returned guard.
    fn tiny_inputs(seeds: &[u64]) -> (Inputs, WorkDir) {
        let dir = WorkDir::create(&std::env::temp_dir().join(format!(
            "perfbench-test-{}",
            seeds.iter().map(u64::to_string).collect::<Vec<_>>().join("-")
        )))
        .unwrap();
        let mut inputs = Inputs {
            traces: seeds.iter().map(|&s| tiny_trace(s)).collect(),
            paths: Vec::new(),
        };
        inputs.spill_to(&dir.0).unwrap();
        (inputs, dir)
    }

    fn result_of(tally: Tally) -> RunResult {
        RunResult {
            tally,
            metrics: vec![("wall_s", 1.5, "s")],
            shape: Vec::new(),
            detail: Vec::new(),
        }
    }

    #[test]
    fn both_front_doors_agree_and_the_run_passes() {
        let (inputs, _dir) = tiny_inputs(&[1]);
        let workload = Workload::PlanWide;
        let reference = workload::analyze(workload, Door::Files, &inputs).unwrap();
        let (samples, outputs) = closed_loop(0.0, WARMUP_ANALYSES, || {
            workload::analyze(workload, Door::Memory, &inputs)
        });
        let tally = tally(&outputs, &reference);
        assert_eq!(samples.len(), MIN_SAMPLES);
        assert_eq!(tally.attempted as usize, WARMUP_ANALYSES + MIN_SAMPLES);
        assert_eq!(tally.failed, 0);
        let mut result = result_of(tally);
        assert!(result
            .render()
            .starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert_eq!(result.exit_code(), ExitCode::SUCCESS);
    }

    #[test]
    fn a_wrong_reference_fails_every_analysis_and_the_run() {
        let (inputs, _dir) = tiny_inputs(&[2]);
        let workload = Workload::PlanWide;
        let good = workload::analyze(workload, Door::Files, &inputs).unwrap();
        assert!(!good.recommendations.is_empty());

        let mut wrong_breakdown = good.clone();
        wrong_breakdown.breakdown.lock_acquisitions += 1;
        let mut wrong_ranking = good.clone();
        wrong_ranking.recommendations.pop();
        for wrong in [wrong_breakdown, wrong_ranking] {
            let (_, outputs) = closed_loop(0.0, WARMUP_ANALYSES, || {
                workload::analyze(workload, Door::Memory, &inputs)
            });
            let tally = tally(&outputs, &wrong);
            assert_eq!(tally.failed, tally.attempted);
            assert_eq!(tally.failed_frac(), 1.0);
            let mut result = result_of(tally);
            assert!(result
                .render()
                .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 3"));
            assert_eq!(result.exit_code(), ExitCode::FAILURE);
        }
    }

    #[test]
    fn a_failed_analysis_is_counted() {
        let (inputs, _dir) = tiny_inputs(&[3]);
        let reference = workload::analyze(Workload::PlanWide, Door::Files, &inputs).unwrap();
        let mut calls = 0;
        let (_, outputs) = closed_loop(0.0, 0, || {
            calls += 1;
            if calls == 2 {
                Err("injected".to_string())
            } else {
                Ok(reference.clone())
            }
        });
        let tally = tally(&outputs, &reference);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(!result_of(tally).correct());
    }

    #[test]
    fn an_unmeasured_metric_fails_the_run() {
        let mut result = result_of(Tally {
            attempted: 1,
            failed: 0,
        });
        result.metrics.push(("cpu_s", f64::NAN, "s"));
        assert!(result.render().contains("\"correct\": false"));
    }

    #[test]
    fn traced_compositions_reproduce_both_front_doors() {
        for (workload, seeds) in [
            (Workload::PlanWide, &[4u64][..]),
            (Workload::SweepPbin, &[5, 6, 7][..]),
        ] {
            let (inputs, _dir) = tiny_inputs(seeds);
            let (memory, reports) = workload::memory_door(workload, &inputs).unwrap();
            let files = workload::file_door(workload, &inputs).unwrap();
            assert_eq!(workload::outcome_of(&files), memory);
            let layers = layers::traced(workload, &inputs, &reports, &files).unwrap();
            for (name, _) in layers::METRICS {
                let value = layers.0.get(name).copied();
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name} missing: {value:?}"
                );
            }
            assert_eq!(layers.0["trace.events"], inputs.events() as f64);
            assert_eq!(
                layers.0["report.groups"],
                memory.recommendations.len() as f64
            );
        }
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let args = parse("--workload sweep_pbin --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::SweepPbin);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload plan_wide --seed x --seconds 1 --trace 0",
            "--workload plan_wide --seed 1 --seconds 0 --trace 0",
            "--workload plan_wide --seed 1 --seconds 1 --trace 2",
            "--workload plan_wide --seconds 1 --trace 0",
            "--workload plan_wide --seed 1 --seconds 1 --frobnicate 0",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn median_and_environment_helpers() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(
            sys::git_commit(&std::env::temp_dir().join("no-such-checkout")),
            "unknown"
        );
        assert!(sys::cpu_seconds() > 0.0);
        assert!(sys::peak_rss_mb() > 0.0);
    }
}
