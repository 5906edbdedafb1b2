//! Wall-clock benches of the degree realizations (Theorems 11-13):
//! implicit vs explicit, across workload shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgr_bench::drive;
use dgr_graphgen as graphgen;

fn bench_implicit(c: &mut Criterion) {
    let mut g = c.benchmark_group("implicit_realization");
    g.sample_size(10);
    for &n in &[64usize, 256, 1024, 4096] {
        let degrees = graphgen::near_regular_sequence(n, 6, 3);
        g.bench_with_input(BenchmarkId::new("regular6", n), &degrees, |b, d| {
            b.iter(|| drive::implicit(d, 3))
        });
    }
    for &n in &[64usize, 128, 256] {
        let degrees = graphgen::power_law_sequence(n, n / 5, 2.5, 4);
        g.bench_with_input(BenchmarkId::new("powerlaw", n), &degrees, |b, d| {
            b.iter(|| drive::implicit(d, 4))
        });
    }
    g.finish();
}

fn bench_explicit(c: &mut Criterion) {
    let mut g = c.benchmark_group("explicit_realization");
    g.sample_size(10);
    for &n in &[64usize, 256, 1024, 4096] {
        let degrees = graphgen::near_regular_sequence(n, 6, 5);
        g.bench_with_input(BenchmarkId::from_parameter(n), &degrees, |b, d| {
            b.iter(|| drive::explicit(d, 5))
        });
    }
    g.finish();
}

fn bench_envelope(c: &mut Criterion) {
    let mut g = c.benchmark_group("envelope_realization");
    g.sample_size(10);
    let n = 128;
    let mut degrees = graphgen::random_graphic_sequence(n, 16, 6);
    degrees[0] += 1; // break graphicness
    g.bench_with_input(BenchmarkId::from_parameter(n), &degrees, |b, d| {
        b.iter(|| drive::envelope(d, 6))
    });
    g.finish();
}

criterion_group!(benches, bench_implicit, bench_explicit, bench_envelope);
criterion_main!(benches);
