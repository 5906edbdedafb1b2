//! Wall-clock benches of the threshold realizations (Theorems 17/18).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgr_bench::drive;
use dgr_connectivity::ThresholdInstance;
use dgr_graphgen as graphgen;

fn bench_ncc1(c: &mut Criterion) {
    let mut g = c.benchmark_group("threshold_ncc1");
    g.sample_size(10);
    for &n in &[64usize, 128, 256] {
        let inst = ThresholdInstance::new(graphgen::uniform_thresholds(n, 1, 8, 8));
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, i| {
            b.iter(|| drive::ncc1(&i.rho, 8))
        });
    }
    g.finish();
}

fn bench_ncc0(c: &mut Criterion) {
    let mut g = c.benchmark_group("threshold_ncc0");
    g.sample_size(10);
    for &n in &[64usize, 128] {
        let inst = ThresholdInstance::new(graphgen::uniform_thresholds(n, 1, 8, 9));
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, i| {
            b.iter(|| drive::ncc0(&i.rho, 9))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ncc1, bench_ncc0);
criterion_main!(benches);
