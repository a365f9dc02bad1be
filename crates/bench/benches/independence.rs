//! Benchmarks for the exact independence solver (κ₁/κ₂ measurement):
//! the analysis-side cost of characterizing a BIG.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use radio_bench::workloads::udg_workload;
use radio_graph::analysis::independence::{kappa_bounded, kappa_greedy, max_independent_set_size};
use radio_graph::generators::{build_udg, grid_jitter};
use radio_sim::rng::node_rng;

fn bench_kappa(c: &mut Criterion) {
    let mut g = c.benchmark_group("kappa");
    for (n, delta) in [(100usize, 8.0f64), (100, 16.0), (200, 12.0)] {
        let w = udg_workload(n, delta, 7);
        g.bench_with_input(
            BenchmarkId::new("exact", format!("n{n}_d{delta}")),
            &w.graph,
            |b, graph| {
                b.iter(|| kappa_bounded(black_box(graph), u64::MAX));
            },
        );
        g.bench_with_input(
            BenchmarkId::new("greedy", format!("n{n}_d{delta}")),
            &w.graph,
            |b, graph| {
                b.iter(|| kappa_greedy(black_box(graph)));
            },
        );
    }
    // Dense neighborhoods, where the clique-cover bound does the
    // pruning: the repository benchmark's jittered grid (n = 2048,
    // Δ = 21) and E02's densest UDG (Δ* ≈ 32).
    let grid = build_udg(
        &grid_jitter(64, 32, 0.44, 0.15, &mut node_rng(1, 0xF00D)),
        1.0,
    );
    let e02 = udg_workload(256, 32.0, 0xE6).graph;
    for (name, graph) in [("grid_jitter_64x32", grid), ("e02_n256_d32", e02)] {
        g.bench_with_input(BenchmarkId::new("exact", name), &graph, |b, graph| {
            b.iter(|| kappa_bounded(black_box(graph), u64::MAX));
        });
    }
    g.finish();
}

fn bench_mis(c: &mut Criterion) {
    let mut g = c.benchmark_group("exact_mis");
    for (n, delta) in [(60usize, 10.0f64), (60, 20.0)] {
        let w = udg_workload(n, delta, 11);
        g.bench_with_input(
            BenchmarkId::new("whole_graph", format!("n{n}_d{delta}")),
            &w.graph,
            |b, graph| {
                b.iter(|| max_independent_set_size(black_box(graph)));
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kappa, bench_mis
}
criterion_main!(benches);
