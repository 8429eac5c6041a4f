//! E5 — the MaxSAT approach against the enumerative baselines (BDD minimal
//! cut sets and MOCUS), the comparison the paper announces as future work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bdd_engine::VariableOrdering;
use ft_analysis::mocus::Mocus;
use ft_backend::{AnalysisBackend, BddBackend};
use ft_bench::bench_trees;
use ft_generators::Family;
use mpmcs::MpmcsSolver;

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let solver = MpmcsSolver::new();
    let trees = bench_trees(&[100, 250, 500], &[Family::RandomMixed], 2020);
    for (name, tree) in &trees {
        group.bench_with_input(BenchmarkId::new("maxsat", name), tree, |b, tree| {
            b.iter(|| black_box(solver.solve(black_box(tree)).expect("solvable")));
        });
        // Budget-capped baselines: full enumeration grows with the cut-set
        // count and would dominate the benchmark run otherwise (see E5).
        let bdd = BddBackend::new(VariableOrdering::DepthFirst, 20_000);
        group.bench_with_input(BenchmarkId::new("bdd", name), tree, |b, tree| {
            b.iter(|| black_box(bdd.mpmcs(black_box(tree)).ok()));
        });
        group.bench_with_input(BenchmarkId::new("mocus", name), tree, |b, tree| {
            b.iter(|| {
                black_box(
                    Mocus::with_budget(black_box(tree), 20_000)
                        .maximum_probability_mcs()
                        .ok(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
