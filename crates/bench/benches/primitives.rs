//! Wall-clock benches of the NCC primitives (simulator throughput):
//! context establishment (undirect, then contacts with the rank lane) and the
//! distributed sort, across network sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgr_ncc::{Config, Network, RoundCtx};
use dgr_primitives::sort::{Order, RankStep, SortStep};
use dgr_primitives::{EstablishCtx, PathCtx, Step, StepProtocol, WithCtx};

const SIZES: [usize; 5] = [64, 256, 1024, 4096, 16384];

fn bench_establish(c: &mut Criterion) {
    let mut g = c.benchmark_group("establish_path_ctx");
    g.sample_size(10);
    for &n in &SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let net = Network::new(n, Config::ncc0(1));
                net.run_protocol(|_| StepProtocol::new(EstablishCtx::new()))
                    .unwrap()
            })
        });
    }
    g.finish();
}

/// One distributed sort (establishment included) of `n` nodes under `config`.
fn run_sort(n: usize, config: Config) {
    let net = Network::new(n, config);
    net.run_protocol(|_| {
        WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
            let (vp, x, key) = (ctx.vp, ctx.position, rctx.id() % 1000);
            SortStep::new(
                vp,
                ctx.contacts.clone(),
                x,
                key,
                Order::Descending,
                rctx.id(),
            )
            .then(move |held, _| RankStep::new(vp, x, held))
        })
    })
    .unwrap();
}

fn bench_sort(c: &mut Criterion) {
    let mut g = c.benchmark_group("distributed_sort");
    g.sample_size(10);
    for &n in &SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| run_sort(n, Config::ncc0(2)))
        });
    }
    g.finish();
}

/// The price of the KT0 check: the same sort with the knowledge tracker on
/// (the default) and off (`Kt0::Untracked` at the facade). Everything else
/// in the two runs is equal, so `tracked ÷ untracked` is the tracker's
/// share of a sort-heavy round loop.
fn bench_kt0(c: &mut Criterion) {
    let mut g = c.benchmark_group("kt0");
    g.sample_size(10);
    for (label, tracked) in [("tracked", true), ("untracked", false)] {
        g.bench_function(BenchmarkId::new(label, 2048), |b| {
            b.iter(|| {
                let mut config = Config::ncc0(2);
                config.track_knowledge = tracked;
                run_sort(2048, config)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_establish, bench_sort, bench_kt0);
criterion_main!(benches);
