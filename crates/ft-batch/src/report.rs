//! The aggregated, deterministic batch report.

use mpmcs::MpmcsReport;
use serde::{Map, Number, Value};

/// One row of the optional per-tree importance table.
#[derive(Clone, Debug, PartialEq)]
pub struct ImportanceRow {
    /// Basic-event name.
    pub event: String,
    /// Birnbaum structural importance `∂P(top)/∂p(event)`.
    pub birnbaum: f64,
    /// Fussell-Vesely importance (probability the event contributes to a
    /// failing cut set, given the top event).
    pub fussell_vesely: f64,
    /// Criticality importance (Birnbaum scaled by `p(event)/P(top)`).
    pub criticality: f64,
}

serde::impl_serde_struct!(ImportanceRow {
    event,
    birnbaum,
    fussell_vesely,
    criticality
});

/// A mission-time sweep curve of one tree: the top-event probability at
/// every grid point, computed incrementally (structure solved once, each
/// point re-quantified) and bit-identical to the corresponding point
/// queries.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCurve {
    /// The mission-time grid, in query order.
    pub grid: Vec<f64>,
    /// `probabilities[i]` is the exact top-event probability at `grid[i]`.
    pub probabilities: Vec<f64>,
}

serde::impl_serde_struct!(SweepCurve {
    grid,
    probabilities
});

/// The per-tree slice of a batch report.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeReport {
    /// Job name from the manifest (relative path or generator tag).
    pub name: String,
    /// `"ok"` or `"error"`.
    pub status: String,
    /// The analysis engine that answered this tree's queries (for
    /// `backend = auto` batches this is the per-tree resolved engine).
    pub backend: String,
    /// Number of basic events (0 when the tree failed to load).
    pub num_events: usize,
    /// Number of gates (0 when the tree failed to load).
    pub num_gates: usize,
    /// Total SAT-solver calls spent on this tree across all reported cut sets.
    pub sat_calls: u64,
    /// Wall-clock time spent loading and analysing this tree, in milliseconds.
    pub solve_time_ms: f64,
    /// The reported minimal cut sets, most probable first (the first entry is
    /// the MPMCS). Empty on error.
    pub cut_sets: Vec<MpmcsReport>,
    /// The failure message, for `status == "error"` jobs.
    pub error: Option<String>,
    /// The importance table, when the batch was configured to compute it.
    pub importance: Option<Vec<ImportanceRow>>,
    /// `Some(true)` when a per-tree budget (`timeout_ms` / `max_solutions`)
    /// stopped the analysis early: `cut_sets` then holds the canonical
    /// prefix proven before the stop. Absent for complete rows, so budgetless
    /// batches keep their historical byte format.
    pub truncated: Option<bool>,
    /// The mission-time sweep curve, when the batch was configured with a
    /// grid ([`BatchConfig::sweep`](crate::BatchConfig)). Absent otherwise,
    /// keeping sweepless batches' historical byte format.
    pub sweep: Option<SweepCurve>,
}

serde::impl_serde_struct!(TreeReport {
    name,
    status,
    backend,
    num_events,
    num_gates,
    sat_calls,
    solve_time_ms,
    cut_sets
} optional { error, importance, truncated, sweep });

/// Counter snapshot of the shared analysis cache over one batch run
/// (present when the batch was configured with a cache). The monotone
/// counters are this batch's delta; `entries`/`bytes` are the cache's
/// occupancy after the run.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheSummary {
    /// Module/query answers served from the cache during this batch.
    pub hits: u64,
    /// Lookups that had to be computed fresh.
    pub misses: u64,
    /// Complete answers deposited during this batch.
    pub insertions: u64,
    /// Entries evicted under the byte budget during this batch.
    pub evictions: u64,
    /// Entries resident after the run.
    pub entries: u64,
    /// Approximate resident bytes after the run.
    pub bytes: u64,
}

serde::impl_serde_struct!(CacheSummary {
    hits,
    misses,
    insertions,
    evictions,
    entries,
    bytes
});

/// Aggregate statistics over a whole batch run.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSummary {
    /// Number of trees in the batch.
    pub trees: usize,
    /// Trees analysed successfully.
    pub succeeded: usize,
    /// Trees that failed to load or solve.
    pub failed: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Cut sets requested per tree.
    pub top_k: usize,
    /// MaxSAT strategy used for every tree.
    pub algorithm: String,
    /// The configured analysis engine (`"auto"` when per-tree resolution is
    /// in effect — see [`TreeReport::backend`] for the resolved engines).
    pub backend: String,
    /// Total basic events across successfully analysed trees.
    pub total_events: usize,
    /// Total minimal cut sets reported across the batch.
    pub total_cut_sets: usize,
    /// Total SAT-solver calls across the batch.
    pub total_sat_calls: u64,
    /// End-to-end wall-clock time of the batch, in milliseconds.
    pub wall_time_ms: f64,
    /// Shared-cache counters for this batch, when a cache was attached.
    /// Absent otherwise, so cacheless batches keep their historical byte
    /// format; stripped from the deterministic rendering either way.
    pub cache: Option<CacheSummary>,
}

serde::impl_serde_struct!(BatchSummary {
    trees,
    succeeded,
    failed,
    jobs,
    top_k,
    algorithm,
    backend,
    total_events,
    total_cut_sets,
    total_sat_calls,
    wall_time_ms
} optional { cache });

/// The aggregated result of one batch run.
///
/// `results` follows the manifest order regardless of which worker finished
/// which tree first, so the report is deterministic for any worker count
/// (timing fields excepted — see [`redact_timings`]).
#[derive(Clone, Debug, PartialEq)]
pub struct BatchReport {
    /// Aggregate statistics.
    pub summary: BatchSummary,
    /// Per-tree results, in manifest order.
    pub results: Vec<TreeReport>,
}

serde::impl_serde_struct!(BatchReport { summary, results });

impl BatchReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("batch reports always serialise")
    }

    /// `true` when any per-tree budget stopped an analysis early — the CLI
    /// maps this to its distinct partial-results exit code.
    pub fn any_truncated(&self) -> bool {
        self.results.iter().any(|r| r.truncated == Some(true))
    }

    /// Renders the report as pretty-printed JSON with every timing field
    /// zeroed ([`redact_timings`]), every `solver_stats` block dropped
    /// ([`redact_solver_stats`]), the SAT-call and cache counters masked
    /// ([`redact_search_counters`]) and the worker count masked — the pieces
    /// of run metadata that describe *how* the answer was computed rather
    /// than the answer itself. Two runs of the same batch produce
    /// byte-identical output from this method regardless of `--jobs`,
    /// `--stats` or `--cache`.
    pub fn to_deterministic_json(&self) -> String {
        let mut masked = self.clone();
        masked.summary.jobs = 0;
        let value = redact_search_counters(&redact_solver_stats(&redact_timings(
            &serde_json::to_value(&masked),
        )));
        serde_json::to_string_pretty(&value).expect("batch reports always serialise")
    }

    /// Renders a compact human-readable summary (one line per tree plus
    /// totals), for terminals and logs.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .results
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for result in &self.results {
            match result.status.as_str() {
                "ok" => {
                    let best = result.cut_sets.first();
                    out.push_str(&format!(
                        "{:<width$}  ok     p={:<12} |MPMCS|={:<3} cut_sets={:<3} sat_calls={:<5} {:.2} ms{}\n",
                        result.name,
                        best.map_or_else(|| "-".to_string(), |b| format!("{:.4e}", b.probability)),
                        best.map_or(0, |b| b.mpmcs.len()),
                        result.cut_sets.len(),
                        result.sat_calls,
                        result.solve_time_ms,
                        if result.truncated == Some(true) {
                            "  [truncated]"
                        } else {
                            ""
                        },
                    ));
                }
                _ => {
                    out.push_str(&format!(
                        "{:<width$}  ERROR  {}\n",
                        result.name,
                        result.error.as_deref().unwrap_or("unknown failure"),
                    ));
                }
            }
        }
        out.push_str(&format!(
            "batch: {} trees ({} ok, {} failed), backend {}, {} cut sets, {} SAT calls, {} workers, {:.2} ms\n",
            self.summary.trees,
            self.summary.succeeded,
            self.summary.failed,
            self.summary.backend,
            self.summary.total_cut_sets,
            self.summary.total_sat_calls,
            self.summary.jobs,
            self.summary.wall_time_ms,
        ));
        if let Some(cache) = &self.summary.cache {
            out.push_str(&format!(
                "cache: {} hits, {} misses, {} insertions, {} evictions, {} entries ({} bytes)\n",
                cache.hits,
                cache.misses,
                cache.insertions,
                cache.evictions,
                cache.entries,
                cache.bytes,
            ));
        }
        out
    }
}

/// Returns a copy of `value` with every object field whose key ends in `_ms`
/// replaced by the number `0` — the timing fields of batch and MPMCS reports
/// all follow that naming convention. Used by the determinism regression
/// tests to compare reports from different worker counts byte-for-byte.
///
/// ```rust
/// use ft_batch::redact_timings;
///
/// let report: serde::Value =
///     serde_json::from_str(r#"{ "solve_time_ms": 12.5, "probability": 0.02 }"#).unwrap();
/// let redacted = redact_timings(&report);
/// assert_eq!(redacted.get("solve_time_ms").unwrap().as_f64(), Some(0.0));
/// assert_eq!(redacted.get("probability").unwrap().as_f64(), Some(0.02));
/// ```
pub fn redact_timings(value: &Value) -> Value {
    rewrite_fields(value, &|key| {
        key.ends_with("_ms")
            .then(|| Value::Number(Number::from_i128(0)))
    })
}

/// Returns a copy of `value` with every `"solver_stats"` object field
/// removed. The optional solver-statistics blocks (CLI `--stats`) describe
/// search effort, not analysis results, so — like timings — they are
/// stripped before deterministic byte-level report comparisons.
///
/// ```rust
/// use ft_batch::redact_solver_stats;
///
/// let report: serde::Value = serde_json::from_str(
///     r#"{ "probability": 0.02, "solver_stats": { "conflicts": 3 } }"#,
/// )
/// .unwrap();
/// let redacted = redact_solver_stats(&report);
/// assert!(redacted.get("solver_stats").is_none());
/// assert_eq!(redacted.get("probability").unwrap().as_f64(), Some(0.02));
/// ```
pub fn redact_solver_stats(value: &Value) -> Value {
    rewrite_fields(value, &|key| (key == "solver_stats").then_some(Value::Null))
}

/// Returns a copy of `value` with every `sat_calls` / `total_sat_calls`
/// field zeroed and every `cache` counter block removed. Like timings,
/// these describe search *effort*: a cache hit answers a tree without any
/// SAT calls, so leaving the counters in place would make otherwise
/// byte-identical cache-on and cache-off reports differ.
///
/// ```rust
/// use ft_batch::redact_search_counters;
///
/// let report: serde::Value = serde_json::from_str(
///     r#"{ "sat_calls": 7, "probability": 0.02, "cache": { "hits": 3 } }"#,
/// )
/// .unwrap();
/// let redacted = redact_search_counters(&report);
/// assert_eq!(redacted.get("sat_calls").unwrap().as_u64(), Some(0));
/// assert!(redacted.get("cache").is_none());
/// assert_eq!(redacted.get("probability").unwrap().as_f64(), Some(0.02));
/// ```
pub fn redact_search_counters(value: &Value) -> Value {
    rewrite_fields(value, &|key| match key {
        "sat_calls" | "total_sat_calls" => Some(Value::Number(Number::from_i128(0))),
        "cache" => Some(Value::Null),
        _ => None,
    })
}

/// The shared recursive walker behind the redaction helpers: every object
/// field whose key the `action` callback claims is replaced by the returned
/// value (`Value::Null` means *remove the field*); everything else is copied
/// unchanged.
fn rewrite_fields(value: &Value, action: &dyn Fn(&str) -> Option<Value>) -> Value {
    match value {
        Value::Object(map) => Value::Object(
            map.iter()
                .filter_map(|(key, entry)| {
                    let rewritten = match action(key) {
                        Some(Value::Null) => return None,
                        Some(replacement) => replacement,
                        None => rewrite_fields(entry, action),
                    };
                    Some((key.to_string(), rewritten))
                })
                .collect::<Map>(),
        ),
        Value::Array(elements) => Value::Array(
            elements
                .iter()
                .map(|element| rewrite_fields(element, action))
                .collect(),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BatchReport {
        BatchReport {
            summary: BatchSummary {
                trees: 2,
                succeeded: 1,
                failed: 1,
                jobs: 4,
                top_k: 1,
                algorithm: "oll".to_string(),
                backend: "maxsat".to_string(),
                total_events: 7,
                total_cut_sets: 1,
                total_sat_calls: 9,
                wall_time_ms: 3.25,
                cache: None,
            },
            results: vec![
                TreeReport {
                    name: "a.json".to_string(),
                    status: "ok".to_string(),
                    backend: "maxsat".to_string(),
                    num_events: 7,
                    num_gates: 5,
                    sat_calls: 9,
                    solve_time_ms: 2.5,
                    cut_sets: Vec::new(),
                    error: None,
                    importance: None,
                    truncated: None,
                    sweep: None,
                },
                TreeReport {
                    name: "b.dft".to_string(),
                    status: "error".to_string(),
                    backend: "maxsat".to_string(),
                    num_events: 0,
                    num_gates: 0,
                    sat_calls: 0,
                    solve_time_ms: 0.0,
                    cut_sets: Vec::new(),
                    error: Some("cannot parse b.dft: bad gate".to_string()),
                    importance: None,
                    truncated: None,
                    sweep: None,
                },
            ],
        }
    }

    #[test]
    fn reports_round_trip_through_json() {
        let report = sample_report();
        let json = report.to_json();
        let back: BatchReport = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(report.summary.trees, back.summary.trees);
        assert_eq!(report.results.len(), back.results.len());
        assert_eq!(report.results[1].error, back.results[1].error);
    }

    #[test]
    fn redaction_zeroes_every_timing_field_and_nothing_else() {
        let report = sample_report();
        let value = serde_json::to_value(&report);
        let redacted = redact_timings(&value);
        assert_eq!(
            redacted
                .get("summary")
                .and_then(|s| s.get("wall_time_ms"))
                .and_then(Value::as_f64),
            Some(0.0)
        );
        assert_eq!(
            redacted
                .get("results")
                .and_then(|r| r.as_array())
                .and_then(|r| r[0].get("solve_time_ms"))
                .and_then(Value::as_f64),
            Some(0.0)
        );
        // Non-timing fields are untouched.
        assert_eq!(
            redacted
                .get("summary")
                .and_then(|s| s.get("total_sat_calls"))
                .and_then(Value::as_u64),
            Some(9)
        );
    }

    #[test]
    fn text_rendering_lists_every_tree_and_the_totals() {
        let text = sample_report().render_text();
        assert!(text.contains("a.json"));
        assert!(text.contains("ERROR"));
        assert!(text.contains("bad gate"));
        assert!(text.contains("2 trees (1 ok, 1 failed)"));
    }
}
