//! E13 — the session facade's lazy stream versus the collected path: a
//! streamed prefix pulls `prefix` optima from the live CDCL session (plus
//! one bounded SAT call that closes the last tie group), while the
//! collected leg runs a deeper top-k query. Both run through
//! `ft_session::Analyzer` and deliver identical prefixes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ft_generators::Family;
use ft_session::Analyzer;

fn bench_session_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_streaming");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    const PREFIX: usize = 5;
    for family in [Family::RandomMixed, Family::OrHeavy] {
        for size in [100usize, 250] {
            let tree = family.generate(size, 2020);
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{}-{size}-stream", family.name())),
                &tree,
                |b, tree| {
                    b.iter(|| {
                        let analyzer = Analyzer::for_tree(black_box(tree.clone()));
                        let prefix: Vec<_> = analyzer.stream().take(PREFIX).collect();
                        black_box(prefix)
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{}-{size}-collected", family.name())),
                &tree,
                |b, tree| {
                    b.iter(|| {
                        let mut analyzer = Analyzer::for_tree(black_box(tree.clone()));
                        black_box(analyzer.top_k(15).expect("generated trees have cut sets"))
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_session_streaming);
criterion_main!(benches);
