//! Wall-clock benches of the tree realizations (Theorems 14/16), plus the
//! Algorithm 4 vs Algorithm 5 head-to-head.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgr_bench::drive;
use dgr_graphgen as graphgen;
use dgr_trees::TreeAlgo;

fn bench_tree_algos(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_realization");
    g.sample_size(10);
    for &n in &[64usize, 256, 1024, 4096, 16384] {
        let degrees = graphgen::random_tree_sequence(n, 7);
        g.bench_with_input(BenchmarkId::new("alg4_chain", n), &degrees, |b, d| {
            b.iter(|| drive::tree(d, TreeAlgo::Chain, 7))
        });
        g.bench_with_input(BenchmarkId::new("alg5_greedy", n), &degrees, |b, d| {
            b.iter(|| drive::tree(d, TreeAlgo::Greedy, 7))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_tree_algos);
criterion_main!(benches);
