//! End-to-end operation benchmarks across the three register protocols
//! (the wall-clock counterpart of experiments E2/E7): one write + one read
//! round on a freshly built simulated cluster.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sbft_baseline::{Abd, Klmw};
use sbft_core::adversary::ByzStrategy;
use sbft_core::cluster::{ClusterBuilder, RegisterCluster};

fn ours(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("ours_roundtrip");
    group.sample_size(20);
    for f in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("fault_free", f), &f, |b, &f| {
            b.iter(|| {
                let mut c = RegisterCluster::bounded(f).seed(1).build();
                let w = c.client(0);
                c.write(w, 7).unwrap();
                c.read(c.client(1)).unwrap()
            })
        });
    }
    group.bench_function("byzantine_garbage_f1", |b| {
        b.iter(|| {
            let mut c = RegisterCluster::bounded(1)
                .byzantine_tail(ByzStrategy::RandomGarbage)
                .seed(1)
                .build();
            let w = c.client(0);
            c.write(w, 7).unwrap();
            c.read(c.client(1)).unwrap()
        })
    });
    group.finish();
}

fn baselines(crit: &mut Criterion) {
    let mut group = crit.benchmark_group("baseline_roundtrip");
    group.sample_size(20);
    for f in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("klmw", f), &f, |b, &f| {
            b.iter(|| {
                let mut c = ClusterBuilder::new(Klmw::new(f, 0)).seed(1).build();
                let w = c.client(0);
                c.write(w, 7).unwrap();
                c.read(c.client(1)).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("abd", f), &f, |b, &f| {
            b.iter(|| {
                let mut c = ClusterBuilder::new(Abd::new(f)).seed(1).build();
                let w = c.client(0);
                c.write(w, 7).unwrap();
                c.read(c.client(1)).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, ours, baselines);
criterion_main!(benches);
