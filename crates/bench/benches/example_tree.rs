//! E1/E2 — the paper's worked example: encoding and solving the fire
//! protection system (Fig. 1, Table I, Fig. 2).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fault_tree::examples::{
    fire_protection_system, pressure_tank_system, redundant_sensor_network,
};
use mpmcs::MpmcsSolver;

fn bench_example(c: &mut Criterion) {
    let mut group = c.benchmark_group("example_tree");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (name, tree) in [
        ("fire_protection_system", fire_protection_system()),
        ("pressure_tank_system", pressure_tank_system()),
        ("redundant_sensor_network", redundant_sensor_network()),
    ] {
        let solver = MpmcsSolver::new();
        group.bench_function(format!("encode/{name}"), |b| {
            b.iter(|| black_box(solver.encode(black_box(&tree))))
        });
        group.bench_function(format!("solve/{name}"), |b| {
            b.iter(|| black_box(solver.solve(black_box(&tree)).expect("solvable")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_example);
criterion_main!(benches);
