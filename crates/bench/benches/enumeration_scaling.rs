//! E11 — top-k enumeration through one persistent incremental solver session
//! versus the from-scratch pipeline-per-cut-set baseline, on generated trees.
//! Both paths return identical cut sets; the contrast is pure solver-state
//! reuse (learnt clauses, activities, phases, single Tseitin encoding).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ft_generators::Family;
use mpmcs::{MpmcsOptions, MpmcsSolver};

fn solver(incremental: bool) -> MpmcsSolver {
    MpmcsSolver::with_options(MpmcsOptions {
        incremental,
        ..MpmcsOptions::new()
    })
}

fn bench_enumeration_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumeration_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    const K: usize = 15;
    for family in [Family::RandomMixed, Family::OrHeavy] {
        for size in [250usize, 500] {
            let tree = family.generate(size, 2020);
            for (mode, incremental) in [("incremental", true), ("scratch", false)] {
                group.bench_with_input(
                    BenchmarkId::from_parameter(format!("{}-{size}-{mode}", family.name())),
                    &incremental,
                    |b, &incremental| {
                        let solver = solver(incremental);
                        b.iter(|| {
                            black_box(
                                solver
                                    .solve_top_k(black_box(&tree), K)
                                    .expect("generated trees have cut sets"),
                            )
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_enumeration_scaling);
criterion_main!(benches);
