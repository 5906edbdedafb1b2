//! Wall-clock benches of the NCC primitives (simulator throughput):
//! context establishment (undirect + contacts + BBST + positions) and the
//! distributed sort, across network sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgr_ncc::{Config, Network, RoundCtx};
use dgr_primitives::sort::{Order, SortStep};
use dgr_primitives::{EstablishCtx, PathCtx, StepProtocol, WithCtx};

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

fn bench_sort(c: &mut Criterion) {
    let mut g = c.benchmark_group("distributed_sort");
    g.sample_size(10);
    for &n in &SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let net = Network::new(n, Config::ncc0(2));
                net.run_protocol(|_| {
                    WithCtx::new(|ctx: &PathCtx, rctx: &mut RoundCtx<'_>| {
                        SortStep::new(
                            ctx.vp,
                            ctx.contacts.clone(),
                            ctx.position,
                            rctx.id() % 1000,
                            Order::Descending,
                            rctx.id(),
                        )
                    })
                })
                .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_establish, bench_sort);
criterion_main!(benches);
