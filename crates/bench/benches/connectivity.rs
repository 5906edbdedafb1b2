//! Wall-clock benches of the threshold realizations (Theorems 17/18).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgr_bench::drive;
use dgr_connectivity::{check_thresholds, ThresholdInstance};
use dgr_graphgen as graphgen;
use distributed_graph_realizations::{Kt0, Realization, Workload};

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

/// The certificate alone — the anchor chain over the capped-flow kernel —
/// on one paper-exact Algorithm 6 overlay per size, realized outside the
/// timed closure (and only when the name filter selects the benchmark).
fn bench_certify(c: &mut Criterion) {
    let mut g = c.benchmark_group("certify");
    g.sample_size(10);
    for &n in &[2048usize, 16384] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let rho = graphgen::uniform_thresholds(n, 1, 8, 10);
            let overlay = Realization::new(Workload::Ncc0Exact(rho))
                .certify(false)
                .tracking(Kt0::Untracked)
                .seed(10)
                .run()
                .expect("Ncc0Exact realization failed");
            let overlay = overlay.threshold();
            b.iter(|| {
                let report = check_thresholds(&overlay.graph, &overlay.rho, false);
                assert!(report.satisfied && report.pairs_checked == n - 1);
                report
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ncc1, bench_ncc0, bench_certify);
criterion_main!(benches);
