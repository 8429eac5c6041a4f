//! Prints the tables and series of the paper's evaluation (experiments E1–E7
//! of `DESIGN.md`), plus the post-paper scaling experiments (E10 batch
//! workers, E11 incremental enumeration, E12 cross-backend comparison, E13
//! session-facade streaming, E14 hot-path).
//!
//! ```text
//! cargo run --release -p ft-bench --bin experiments -- all
//! cargo run --release -p ft-bench --bin experiments -- table1 fig2 scalability
//! cargo run --release -p ft-bench --bin experiments -- scalability --quick
//! cargo run --release -p ft-bench --bin experiments -- hot-path --json
//! ```
//!
//! `--json` additionally writes a machine-readable `BENCH_<experiment>.json`
//! snapshot into the current directory for the studies that support one
//! (`hot-path`, `enumeration-scaling`, `session-streaming`), so the perf
//! trajectory survives ROADMAP re-anchors. The `hot-path`, `cache-reuse`,
//! `sweep-scaling` and `server-load` studies always write their snapshots:
//! `BENCH_hotpath.json`, `BENCH_cache.json`, `BENCH_sweep.json` and
//! `BENCH_server.json` are tracked artefacts.

use std::process::ExitCode;

use ft_bench::{
    backend_comparison, baselines, batch_scaling, cache_reuse_rows, cache_reuse_snapshot,
    cache_reuse_table, encodings, enumeration_scaling, enumeration_scaling_rows,
    enumeration_scaling_snapshot, enumeration_scaling_table, extended_baselines, extended_measures,
    fig2, hot_path_rows, hot_path_snapshot, hot_path_table, portfolio, scalability,
    server_load_rows, server_load_snapshot, server_load_table, session_streaming,
    session_streaming_rows, session_streaming_snapshot, session_streaming_table,
    sweep_scaling_rows, sweep_scaling_snapshot, sweep_scaling_table, table1, voting,
    BASELINE_SIZES, SCALABILITY_SIZES,
};

const SEED: u64 = 2020;

/// Writes a `BENCH_*.json` snapshot next to the working directory, reporting
/// failures on stderr without failing the run (the printed table is the
/// primary artefact).
fn write_snapshot(file: &str, json: &str) {
    match std::fs::write(file, json) {
        Ok(()) => eprintln!("wrote {file}"),
        Err(error) => eprintln!("could not write {file}: {error}"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--smoke` is the CI alias for `--quick` (small sizes, same assertions).
    let quick = args.iter().any(|a| a == "--quick" || a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    let mut selected: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if selected.is_empty() || selected.contains(&"all") {
        selected = vec![
            "table1",
            "fig2",
            "scalability",
            "portfolio",
            "baselines",
            "encodings",
            "voting",
            "extended-baselines",
            "measures",
            "batch-scaling",
            "enumeration-scaling",
            "backend-comparison",
            "session-streaming",
            "hot-path",
            "cache-reuse",
            "sweep-scaling",
            "server-load",
        ];
    }

    let scal_sizes: Vec<usize> = if quick {
        vec![100, 250, 500, 1000]
    } else {
        SCALABILITY_SIZES.to_vec()
    };
    let base_sizes: Vec<usize> = if quick {
        vec![50, 100, 250]
    } else {
        BASELINE_SIZES.to_vec()
    };
    let ablation_sizes: Vec<usize> = if quick {
        vec![250, 500]
    } else {
        vec![500, 1000, 2500, 5000]
    };

    for experiment in selected {
        let output = match experiment {
            "table1" => table1(),
            "fig2" => fig2(),
            "scalability" => scalability(&scal_sizes, SEED),
            "portfolio" => portfolio(&ablation_sizes, SEED),
            "baselines" => baselines(&base_sizes, SEED),
            "encodings" => encodings(&ablation_sizes, SEED),
            "voting" => voting(&ablation_sizes, SEED),
            "extended-baselines" => extended_baselines(&base_sizes, SEED),
            "measures" => extended_measures(),
            "batch-scaling" => {
                if quick {
                    batch_scaling(8, 100, &[1, 2, 4], SEED)
                } else {
                    batch_scaling(16, 250, &[1, 2, 4, 8], SEED)
                }
            }
            "enumeration-scaling" => {
                // The full configuration goes deeper (k) rather than wider:
                // repeated MPMCS queries on shared-dag trees beyond ~250
                // nodes — and deep-k sweeps generally — hit a weighted-OLL
                // cliff in the *from-scratch baseline* (within-call weight
                // fragmentation, the very pathology the incremental session
                // compacts its way out of), so larger parameters would
                // measure instance hardness rather than solver-state reuse.
                let k = if quick { 15 } else { 18 };
                if json {
                    let rows = enumeration_scaling_rows(&[100, 250], k, SEED);
                    write_snapshot(
                        "BENCH_enumeration_scaling.json",
                        &enumeration_scaling_snapshot(&rows, SEED),
                    );
                    enumeration_scaling_table(&rows, k)
                } else {
                    enumeration_scaling(&[100, 250], k, SEED)
                }
            }
            "backend-comparison" => {
                // Classical engines enumerate every cut set, so the sweep
                // stays in the size band where all three backends are exact
                // and in budget: the random-mixed family's minimal-cut-set
                // count grows past ten thousand by ~160 nodes, and the BDD
                // engine's ZBDD and MOCUS both enumerate the whole family for
                // every query (which is the paper's very point — only the
                // MaxSAT pipeline scales past it, measured by E3).
                if quick {
                    backend_comparison(&[40, 80], SEED)
                } else {
                    backend_comparison(&[40, 60, 80], SEED)
                }
            }
            "session-streaming" => {
                // E13: the facade's streamed prefix vs a deeper collected
                // top-k; the rows assert prefix identity and SAT-level early
                // exit before any timing is published. The depths mirror
                // E11's proven-safe enumeration band (deeper sweeps hit the
                // weighted-OLL cliff, see the E11 note above).
                let (prefix, k) = if quick { (5, 15) } else { (8, 18) };
                if json {
                    let rows = session_streaming_rows(&[100, 250], prefix, k, SEED);
                    write_snapshot(
                        "BENCH_session_streaming.json",
                        &session_streaming_snapshot(&rows, SEED),
                    );
                    session_streaming_table(&rows, prefix, k)
                } else {
                    session_streaming(&[100, 250], prefix, k, SEED)
                }
            }
            "hot-path" => {
                // E14: the hot-path study measures the same workload grid
                // the pre-refactor baseline was captured on; `--quick` only
                // trims the raw leg's largest size. The snapshot is always
                // written — `BENCH_hotpath.json` is a tracked artefact.
                let raw_sizes: &[usize] = if quick {
                    &[250, 500]
                } else {
                    &[250, 500, 1000]
                };
                let rows = hot_path_rows(raw_sizes, &[100, 250], 15, SEED);
                write_snapshot("BENCH_hotpath.json", &hot_path_snapshot(&rows, SEED));
                hot_path_table(&rows)
            }
            "cache-reuse" => {
                // E15: cold vs warm shared-cache batches over the
                // shared-modules family; the rows assert cache-on/off report
                // byte-identity before any timing is published. The snapshot
                // is always written — `BENCH_cache.json` is a tracked
                // artefact.
                // Sizes start at 250: below that, tree generation dominates
                // both runs and the warm speedup collapses into fixed costs.
                let (sizes, trees): (&[usize], usize) = if quick {
                    (&[100, 250], 6)
                } else {
                    (&[250, 500, 1000], 12)
                };
                let rows = cache_reuse_rows(sizes, trees, SEED);
                write_snapshot("BENCH_cache.json", &cache_reuse_snapshot(&rows, SEED));
                cache_reuse_table(&rows)
            }
            "sweep-scaling" => {
                // E16: the incremental mission-time sweep vs the naive
                // per-point structural re-solve, over a ≥100-point grid; the
                // rows assert per-point bit-identity before any timing is
                // published. The snapshot is always written —
                // `BENCH_sweep.json` is a tracked artefact. Sizes stay under
                // the full-enumeration cliff: exact quantification on the
                // random-mixed family explodes combinatorially just below 40
                // nodes, and the naive leg pays that enumeration at *every*
                // grid point (that is the baseline being measured), so the
                // study tops out at 36 nodes to keep its wall clock sane.
                let (sizes, points): (&[usize], usize) = if quick {
                    (&[24], 100)
                } else {
                    (&[24, 36], 120)
                };
                let rows = sweep_scaling_rows(sizes, points, SEED);
                write_snapshot("BENCH_sweep.json", &sweep_scaling_snapshot(&rows, SEED));
                sweep_scaling_table(&rows)
            }
            "server-load" => {
                // E17: the HTTP front end under ladders of concurrent
                // keep-alive clients, shared analysis cache off (cold) vs on
                // (warm); every measured answer is byte-compared to the
                // reference before any timing is published. The snapshot is
                // always written — `BENCH_server.json` is a tracked artefact.
                let (connections, requests): (&[usize], usize) = if quick {
                    (&[1, 4], 10)
                } else {
                    (&[1, 2, 4, 8, 16], 40)
                };
                let rows = server_load_rows(connections, requests, SEED);
                write_snapshot("BENCH_server.json", &server_load_snapshot(&rows, SEED));
                server_load_table(&rows)
            }
            other => {
                eprintln!(
                    "unknown experiment {other:?}; available: table1 fig2 scalability portfolio baselines encodings voting extended-baselines measures batch-scaling enumeration-scaling backend-comparison session-streaming hot-path cache-reuse sweep-scaling server-load all"
                );
                return ExitCode::from(2);
            }
        };
        println!("{output}");
    }
    ExitCode::SUCCESS
}
