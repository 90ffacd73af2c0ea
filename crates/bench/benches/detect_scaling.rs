//! Criterion bench: ULCP detection cost, naive snapshot-cloning reference vs
//! the snapshot-free engine (sequential and parallel), across trace sizes,
//! plus the production `Detector::plan` path into the site aggregator.
//!
//! Set `PERFPLAY_BENCH_FAST=1` for a CI-sized smoke run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perfplay::prelude::{Detector, DetectorConfig};
use perfplay_bench::{detect_bench_config, detect_trace, DetectWorkload};
use perfplay_detect::{reference_analyze, BodyOverlapGain};

fn bench_detect_scaling(c: &mut Criterion) {
    let fast = std::env::var_os("PERFPLAY_BENCH_FAST").is_some_and(|v| v != "0");
    let shapes: &[DetectWorkload] = if fast {
        &[DetectWorkload {
            threads: 8,
            sections_per_thread: 50,
            locks: 8,
            objects: 64,
        }]
    } else {
        &[
            DetectWorkload {
                threads: 8,
                sections_per_thread: 250,
                locks: 16,
                objects: 128,
            },
            DetectWorkload {
                threads: 16,
                sections_per_thread: 500,
                locks: 32,
                objects: 256,
            },
            DetectWorkload {
                threads: 32,
                sections_per_thread: 1000,
                locks: 64,
                objects: 512,
            },
        ]
    };

    let config = detect_bench_config();
    let mut group = c.benchmark_group("detect_scaling");
    group.sample_size(10);
    for shape in shapes {
        let trace = detect_trace(*shape);
        let label = format!("{}cs", shape.total_sections());
        group.bench_with_input(BenchmarkId::new("naive", &label), &trace, |b, t| {
            b.iter(|| reference_analyze(t, config).breakdown)
        });
        group.bench_with_input(BenchmarkId::new("optimized_seq", &label), &trace, |b, t| {
            b.iter(|| Detector::new(config).analyze(t).breakdown)
        });
        let par = DetectorConfig {
            parallel: true,
            ..config
        };
        group.bench_with_input(BenchmarkId::new("optimized_par", &label), &trace, |b, t| {
            b.iter(|| Detector::new(par).analyze(t).breakdown)
        });
        group.bench_with_input(
            BenchmarkId::new("optimized_plan", &label),
            &trace,
            |b, t| b.iter(|| Detector::new(config).plan(t, BodyOverlapGain).breakdown),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_detect_scaling);
criterion_main!(benches);
