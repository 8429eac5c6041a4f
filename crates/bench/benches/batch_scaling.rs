//! E10 — worker scaling of the parallel batch engine (`ft-batch`): the same
//! generated 16-tree batch analysed end to end at 1, 2, 4 and 8 workers.
//! Speedup above 1× at 4 workers requires real hardware parallelism; the
//! per-tree algorithm is the deterministic default OLL, so the worker pool
//! is the only variable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ft_batch::{run_batch, BatchConfig, BatchManifest};
use ft_generators::Family;

fn bench_batch_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let manifest = BatchManifest::generated(Family::RandomMixed, 250, 16, 2020);
    for jobs in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("16trees-{jobs}jobs")),
            &jobs,
            |b, &jobs| {
                let config = BatchConfig {
                    jobs,
                    ..BatchConfig::default()
                };
                b.iter(|| black_box(run_batch(black_box(&manifest), &config)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch_scaling);
criterion_main!(benches);
