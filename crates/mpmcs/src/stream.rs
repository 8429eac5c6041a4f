//! Pull-based minimal-cut-set streaming — see [`McsStream`].
//!
//! The stream is the crate's one enumeration loop: it pulls **one cut set at
//! a time** from a live incremental CDCL session, so that memory stays
//! bounded, consumers can stop early, and budget/cancellation probes can cut
//! a query short while keeping the already-delivered prefix valid. The
//! collected API ([`MpmcsSolver::enumerate`]) drains it into a `Vec`.
//!
//! The stream yields the canonical enumeration order (exact integer scaled
//! cost, then cut set). Successive optima leave
//! the MaxSAT session in non-decreasing cost order but *within* an
//! equal-cost tie group their arrival order depends on solver internals, so
//! the stream buffers one tie group at a time and yields it (sorted by cut
//! set) once the group is proven complete. The proof is one bounded MaxSAT
//! call at the group's cost ([`IncrementalMaxSat::solve_within`]): it finds
//! another tie, or lifts the lower bound above the group's cost, or finds
//! the hard clauses exhausted. The next, costlier optimum is solved only
//! when a consumer asks for it, and memory is bounded by the largest tie
//! group, never by the total cut-set count.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fault_tree::FaultTree;
use maxsat_solver::{BoundedSolve, IncrementalMaxSat, MaxSatOutcome};
use sat_solver::{InterruptHook, SolverStats};

use crate::encode::MpmcsEncoding;
use crate::error::MpmcsError;
use crate::solver::{MpmcsOptions, MpmcsSolution, MpmcsSolver};

/// One step of a [`McsStream`].
///
/// The `Solution` variant carries the full [`MpmcsSolution`] (cut set plus
/// its per-stage statistics block) inline rather than boxed: streams hand
/// each step straight to the consumer, so the size difference against the
/// data-free terminal variants never accumulates anywhere.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum StreamStep {
    /// The next minimal cut set in canonical enumeration order.
    Solution(MpmcsSolution),
    /// Every minimal cut set has been delivered; the stream is finished.
    Exhausted,
    /// The installed [interrupt hook](McsStream::set_interrupt) fired before
    /// the next complete tie group was proven. The stream stays consistent:
    /// clearing the interrupt condition and calling
    /// [`next_step`](McsStream::next_step) again resumes exactly where the
    /// enumeration left off, and the prefix already delivered is unchanged
    /// from what an uninterrupted run would have produced.
    Interrupted,
}

/// A lazy minimal-cut-set stream over one live incremental MaxSAT session.
///
/// Opened by [`MpmcsSolver::stream`]. The tree is Tseitin-encoded once, one
/// [`IncrementalMaxSat`] session is kept alive, and each discovered cut set
/// pushes its blocking clause into the session. A tie group is released
/// after one bounded SAT call proves it complete, so delivering the `k`-th
/// solution never solves the optimum after its group; a drained stream
/// issues the same SAT calls, in the same order, as solving every optimum
/// back to back. The canonical order is
/// solver-independent, so a prefix of any length equals the first entries of
/// [`MpmcsSolver::enumerate`](MpmcsSolver::enumerate) with
/// [`EnumerationLimit::All`](crate::EnumerationLimit), which drains this
/// stream.
///
/// ```rust
/// use std::sync::Arc;
/// use fault_tree::examples::fire_protection_system;
/// use mpmcs::{McsStream, MpmcsSolver, StreamStep};
///
/// let tree = Arc::new(fire_protection_system());
/// let mut stream = MpmcsSolver::new().stream(Arc::clone(&tree));
/// let mut names = Vec::new();
/// while let StreamStep::Solution(solution) = stream.next_step().unwrap() {
///     names.push(solution.cut_set.display_names(&tree));
/// }
/// assert_eq!(names.first().map(String::as_str), Some("{x1, x2}")); // the MPMCS
/// assert_eq!(names.len(), 5); // all five FPS cut sets, most probable first
/// ```
pub struct McsStream {
    tree: Arc<FaultTree>,
    encoding: MpmcsEncoding,
    session: IncrementalMaxSat<'static>,
    /// Complete, canonically sorted tie groups awaiting delivery.
    ready: VecDeque<MpmcsSolution>,
    /// The current (possibly incomplete) equal-cost tie group, in discovery
    /// order.
    pending: Vec<MpmcsSolution>,
    /// Exact scaled cost shared by every member of `pending`.
    pending_cost: u64,
    exhausted: bool,
    /// Time not yet charged to a solution — the encoding and session
    /// construction, then every session call that found none (group-closing
    /// probes, interrupted calls) — charged to the next discovered solution.
    uncharged: Duration,
    delivered: usize,
}

impl std::fmt::Debug for McsStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McsStream")
            .field("tree", &self.tree.name())
            .field("delivered", &self.delivered)
            .field("buffered", &(self.ready.len() + self.pending.len()))
            .field("exhausted", &self.exhausted)
            .finish()
    }
}

impl MpmcsSolver {
    /// Opens a lazy [`McsStream`] over `tree`: minimal cut sets are pulled
    /// one at a time from a live incremental session, in canonical
    /// enumeration order.
    ///
    /// Streams always run through the deterministic core-guided session; the
    /// [`algorithm`](MpmcsOptions::algorithm) option selects the solver of a
    /// single [`solve`](MpmcsSolver::solve) only and is ignored here. The
    /// [`encoding`](MpmcsOptions::encoding) and
    /// [`scale`](MpmcsOptions::scale) options are honoured.
    pub fn stream(&self, tree: Arc<FaultTree>) -> McsStream {
        McsStream::open(tree, *self.options())
    }
}

impl McsStream {
    /// Opens a stream with explicit pipeline options (see
    /// [`MpmcsSolver::stream`]).
    pub fn open(tree: Arc<FaultTree>, options: MpmcsOptions) -> McsStream {
        let setup_start = Instant::now();
        let mut encoding = MpmcsEncoding::with_style(&tree, options.encoding, options.scale);
        let session = IncrementalMaxSat::owned(encoding.take_instance());
        McsStream {
            tree,
            encoding,
            session,
            ready: VecDeque::new(),
            pending: Vec::new(),
            pending_cost: 0,
            exhausted: false,
            uncharged: setup_start.elapsed(),
            delivered: 0,
        }
    }

    /// The tree being enumerated.
    pub fn tree(&self) -> &FaultTree {
        &self.tree
    }

    /// Installs (or clears) the cancellation probe threaded down into the
    /// CDCL search loop. When the probe fires, [`next_step`](McsStream::next_step)
    /// returns [`StreamStep::Interrupted`] and the stream can be resumed
    /// later.
    pub fn set_interrupt(&mut self, hook: Option<InterruptHook>) {
        self.session.set_interrupt(hook);
    }

    /// Number of solutions delivered so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// `true` once every minimal cut set has been delivered and the session
    /// has proven that no other exists. Closing the last group does not
    /// always prove it (a core can close a group whether or not a costlier
    /// cut set remains): [`has_more`](McsStream::has_more) settles the
    /// question.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted && self.ready.is_empty() && self.pending.is_empty()
    }

    /// Cumulative SAT-solver calls issued by the underlying session — the
    /// early-exit witness: a stream stopped after `n` of `N` cut sets has
    /// issued SAT calls proportional to `n`, not `N`.
    pub fn sat_calls(&self) -> u64 {
        self.session.solver_stats().solve_calls
    }

    /// Cumulative SAT-solver counters of the underlying session: the work
    /// behind every step so far (group-closing probes and buffered optima
    /// included), not only behind the delivered solutions.
    pub fn solver_stats(&self) -> SolverStats {
        self.session.solver_stats()
    }

    /// Exact integer scaled cost of a solution (the canonical ordering key).
    fn cost(&self, solution: &MpmcsSolution) -> u64 {
        solution
            .cut_set
            .iter()
            .map(|e| self.encoding.scaled_weights()[e.index()])
            .sum()
    }

    /// Moves the completed `pending` tie group into `ready`, sorted by cut
    /// set (costs within the group are equal by construction).
    fn close_pending_group(&mut self) {
        self.pending.sort_by(|a, b| a.cut_set.cmp(&b.cut_set));
        self.ready.extend(self.pending.drain(..));
    }

    /// Delivers the next canonical solution, exhaustion, or an interruption.
    ///
    /// # Errors
    ///
    /// [`MpmcsError::NoCutSet`] when the tree has no cut set at all (only
    /// possible on the first step), and verification errors when an
    /// internal invariant is violated.
    pub fn next_step(&mut self) -> Result<StreamStep, MpmcsError> {
        loop {
            if let Some(solution) = self.ready.pop_front() {
                self.delivered += 1;
                return Ok(StreamStep::Solution(solution));
            }
            if self.exhausted {
                return Ok(StreamStep::Exhausted);
            }
            if !self.advance()? {
                return Ok(StreamStep::Interrupted);
            }
        }
    }

    /// Whether another minimal cut set exists beyond those delivered:
    /// `Some(true)` when one is buffered or the hard and blocking clauses
    /// still have a model, `Some(false)` once they have none, and `None`
    /// when the [interrupt hook](McsStream::set_interrupt) fired first.
    ///
    /// With nothing buffered, every cut set found so far has been delivered
    /// and blocked, so one SAT call without assumptions
    /// ([`IncrementalMaxSat::hard_satisfiable`]) settles the question: a
    /// model contains a minimal cut set that no blocking clause excludes.
    /// It solves no optimum; the next solution reports the call.
    ///
    /// # Errors
    ///
    /// [`MpmcsError::NoCutSet`] when nothing was delivered and the tree has
    /// no cut set at all.
    pub fn has_more(&mut self) -> Result<Option<bool>, MpmcsError> {
        if !self.ready.is_empty() || !self.pending.is_empty() {
            return Ok(Some(true));
        }
        if self.exhausted {
            return Ok(Some(false));
        }
        let start = Instant::now();
        let satisfiable = self.session.hard_satisfiable();
        self.uncharged += start.elapsed();
        if satisfiable == Some(false) {
            self.exhausted = true;
            if self.delivered == 0 {
                return Err(MpmcsError::NoCutSet);
            }
        }
        Ok(satisfiable)
    }

    /// Makes one session call and folds its outcome into the buffers: while
    /// a tie group is pending, a call bounded by the group's cost that adds
    /// a tie or closes the group; otherwise a call for the next optimum,
    /// which opens a group. Returns `false` when the call was interrupted.
    fn advance(&mut self) -> Result<bool, MpmcsError> {
        let bound = if self.pending.is_empty() {
            u64::MAX
        } else {
            self.pending_cost
        };
        let start = Instant::now();
        let call = self.session.solve_within(bound);
        self.uncharged += start.elapsed();
        let result = match call {
            BoundedSolve::Solved(result) => result,
            BoundedSolve::AboveBound => {
                self.close_pending_group();
                return Ok(true);
            }
            BoundedSolve::Interrupted => return Ok(false),
        };
        let MaxSatOutcome::Optimum { ref model, .. } = result.outcome else {
            self.exhausted = true;
            if self.delivered == 0 && self.pending.is_empty() {
                return Err(MpmcsError::NoCutSet);
            }
            self.close_pending_group();
            return Ok(true);
        };
        let solution = MpmcsSolution::from_model(
            &self.tree,
            &self.encoding,
            model,
            result.stats,
            std::mem::take(&mut self.uncharged),
        )?;
        self.session
            .add_hard(self.encoding.blocking_clause(&solution.cut_set));
        let cost = self.cost(&solution);
        debug_assert!(
            self.pending.is_empty() || cost == self.pending_cost,
            "a call bounded by the pending group's cost finds only ties"
        );
        self.pending_cost = cost;
        self.pending.push(solution);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use fault_tree::examples::{fire_protection_system, pressure_tank_system};
    use fault_tree::{CutSet, EventId};

    fn drain(stream: &mut McsStream) -> Vec<MpmcsSolution> {
        let mut out = Vec::new();
        loop {
            match stream.next_step().expect("solvable") {
                StreamStep::Solution(solution) => out.push(solution),
                StreamStep::Exhausted => return out,
                StreamStep::Interrupted => panic!("no interrupt installed"),
            }
        }
    }

    /// Every minimal cut set of a small tree, collected by brute force over
    /// all event subsets and sorted into the canonical order (exact scaled
    /// cost, then cut set): a reference that shares nothing with the SAT
    /// layers but the weight scale.
    fn brute_force_family(tree: &FaultTree) -> Vec<CutSet> {
        let weights = MpmcsEncoding::new(tree).scaled_weights().to_vec();
        let n = tree.num_events();
        let mut family: Vec<CutSet> = (0u32..1 << n)
            .map(|mask| {
                (0..n)
                    .filter(|&i| mask >> i & 1 == 1)
                    .map(EventId::from_index)
                    .collect::<CutSet>()
            })
            .filter(|cut| tree.is_minimal_cut_set(cut))
            .collect();
        family.sort_by_cached_key(|cut| {
            let cost: u64 = cut.iter().map(|e| weights[e.index()]).sum();
            (cost, cut.clone())
        });
        family
    }

    /// `{e, f}` (p = 0.04) then a six-way tie: every pair of a 2-of-4 vote
    /// over identical events (p = 0.01 each).
    fn tied_vote() -> FaultTree {
        use fault_tree::FaultTreeBuilder;
        let mut b = FaultTreeBuilder::new("tied-vote");
        let voters: Vec<_> = ["a", "b", "c", "d"]
            .iter()
            .map(|name| b.basic_event(*name, 0.1).unwrap().into())
            .collect();
        let vote = b.voting_gate("vote", 2, voters).unwrap();
        let e = b.basic_event("e", 0.2).unwrap();
        let f = b.basic_event("f", 0.2).unwrap();
        let pair = b.and_gate("pair", [e.into(), f.into()]).unwrap();
        let top = b.or_gate("top", [vote.into(), pair.into()]).unwrap();
        b.build(top.into()).unwrap()
    }

    #[test]
    fn streamed_solutions_match_the_collected_enumeration() {
        for tree in [fire_protection_system(), pressure_tank_system()] {
            let expected = brute_force_family(&tree);
            let encoding = MpmcsEncoding::new(&tree);
            let mut stream = MpmcsSolver::new().stream(Arc::new(tree));
            let streamed = drain(&mut stream);
            assert_eq!(
                streamed
                    .iter()
                    .map(|s| s.cut_set.clone())
                    .collect::<Vec<_>>(),
                expected
            );
            for solution in &streamed {
                let (log_weight, probability) = encoding.cut_probability(&solution.cut_set);
                assert_eq!(solution.log_weight.to_bits(), log_weight.to_bits());
                assert_eq!(solution.probability.to_bits(), probability.to_bits());
            }
            assert!(stream.is_exhausted());
        }
    }

    /// The builder cannot express a tree without cut sets, so this pins the
    /// other half of the contract: an exhausted stream keeps reporting
    /// `Exhausted` (the `NoCutSet` error is reserved for cut-set-free trees).
    #[test]
    fn stream_on_a_tree_without_cut_sets_reports_no_cut_set() {
        use fault_tree::FaultTreeBuilder;
        let mut b = FaultTreeBuilder::new("single");
        let only = b.basic_event("only", 0.25).unwrap();
        let tree = Arc::new(b.build(only.into()).unwrap());
        let mut stream = MpmcsSolver::new().stream(tree);
        let all = drain(&mut stream);
        assert_eq!(all.len(), 1);
        // Further steps keep reporting exhaustion.
        assert!(matches!(
            stream.next_step().expect("stable"),
            StreamStep::Exhausted
        ));
    }

    #[test]
    fn early_exit_issues_fewer_sat_calls_than_exhaustion() {
        let tree = Arc::new(fire_protection_system());
        let solver = MpmcsSolver::new();
        let mut full = solver.stream(Arc::clone(&tree));
        let all = drain(&mut full);
        assert_eq!(all.len(), 5);
        let full_calls = full.sat_calls();

        let mut short = solver.stream(tree);
        let mut first_two = Vec::new();
        while first_two.len() < 2 {
            match short.next_step().expect("solvable") {
                StreamStep::Solution(solution) => first_two.push(solution),
                other => panic!("unexpected step {other:?}"),
            }
        }
        assert!(
            short.sat_calls() < full_calls,
            "early exit must stop the SAT engine: {} vs {}",
            short.sat_calls(),
            full_calls
        );
        // The short prefix equals the full run's prefix.
        for (s, f) in first_two.iter().zip(&all) {
            assert_eq!(s.cut_set, f.cut_set);
        }
    }

    #[test]
    fn interrupted_streams_resume_with_an_identical_prefix() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let tree = Arc::new(fire_protection_system());
        let solver = MpmcsSolver::new();
        let mut reference = solver.stream(Arc::clone(&tree));
        let expected = drain(&mut reference);

        let mut stream = solver.stream(tree);
        // Deliver one solution, then interrupt.
        let first = match stream.next_step().expect("solvable") {
            StreamStep::Solution(solution) => solution,
            other => panic!("unexpected step {other:?}"),
        };
        let flag = Arc::new(AtomicBool::new(true));
        let probe = Arc::clone(&flag);
        stream.set_interrupt(Some(Arc::new(move || probe.load(Ordering::Relaxed))));
        assert!(matches!(
            stream.next_step().expect("consistent"),
            StreamStep::Interrupted
        ));
        // Clearing the interrupt resumes the enumeration seamlessly.
        flag.store(false, Ordering::Relaxed);
        let mut rest = vec![first];
        loop {
            match stream.next_step().expect("solvable") {
                StreamStep::Solution(solution) => rest.push(solution),
                StreamStep::Exhausted => break,
                StreamStep::Interrupted => panic!("interrupt cleared"),
            }
        }
        assert_eq!(rest.len(), expected.len());
        for (r, e) in rest.iter().zip(&expected) {
            assert_eq!(r.cut_set, e.cut_set);
        }
    }

    /// Closing tie groups with bounded calls leaves a drained stream's work
    /// unchanged: it returns the optima of a plain solve-and-block loop over
    /// the same encoding, each with the same statistics (compared per tie
    /// group, since the stream sorts a group by cut set).
    #[test]
    fn drained_streams_replay_a_plain_blocking_loop() {
        use ft_generators::Family;

        let trees = [
            fire_protection_system(),
            pressure_tank_system(),
            tied_vote(),
            Family::RandomMixed.generate(40, 2),
        ];
        for tree in trees {
            let encoding = MpmcsEncoding::new(&tree);
            let cost = |cut: &CutSet| -> u64 {
                cut.iter()
                    .map(|e| encoding.scaled_weights()[e.index()])
                    .sum()
            };
            let mut session = IncrementalMaxSat::owned(encoding.instance().clone());
            let mut expected = Vec::new();
            loop {
                let result = session.solve();
                let MaxSatOutcome::Optimum { model, .. } = &result.outcome else {
                    break;
                };
                let cut = verify::minimise(&tree, &encoding.decode(model));
                session.add_hard(encoding.blocking_clause(&cut));
                expected.push((cost(&cut), cut, result.stats));
            }
            expected.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
            let name = tree.name().to_string();
            let mut stream = MpmcsSolver::new().stream(Arc::new(tree));
            let streamed: Vec<_> = drain(&mut stream)
                .into_iter()
                .map(|s| (cost(&s.cut_set), s.cut_set, s.stats))
                .collect();
            assert_eq!(streamed, expected, "{name}");
            assert_eq!(
                stream.sat_calls(),
                session.solver_stats().solve_calls,
                "{name}"
            );
        }
    }

    /// The first answer costs its optimum plus one SAT call: the bounded
    /// call that closes its tie group, never the next optimum.
    #[test]
    fn one_sat_call_closes_the_first_group() {
        let mut stream = MpmcsSolver::new().stream(Arc::new(fire_protection_system()));
        let StreamStep::Solution(first) = stream.next_step().expect("solvable") else {
            panic!("the stream ended before its first optimum");
        };
        assert_eq!(stream.sat_calls(), first.stats.sat_calls + 1);
    }

    /// Every SAT call the session issues is reported by exactly one
    /// solution: in discovery order (`session_calls`), each solution's
    /// `sat_calls` is the growth of `session_calls` since the one before —
    /// also when an interrupt splits a search, when the calls of a
    /// group-closing probe carry into the next optimum, and when
    /// [`McsStream::has_more`] probes past the prefix with one SAT call.
    #[test]
    fn solutions_account_for_every_sat_call() {
        use ft_generators::Family;
        use std::sync::atomic::{AtomicU64, Ordering};

        // (tree, solutions to pull, the interrupt-hook poll that fires,
        // whether the family continues past them, the SAT calls
        // `has_more` then makes: none once the pulls proved the end)
        let cases = [
            (Family::RandomMixed.generate(1000, 3), 4, 10, true, 1),
            (tied_vote(), 7, 4, false, 0),
            // Its 18 cut sets end with a group that a core closes, so the
            // pulls leave the end unproven.
            (Family::RandomMixed.generate(30, 2), 18, 4, false, 1),
        ];
        for (tree, prefix, firing_poll, continues, probe_calls) in cases {
            let name = tree.name().to_string();
            let mut stream = MpmcsSolver::new().stream(Arc::new(tree));
            let polls = Arc::new(AtomicU64::new(0));
            let counter = Arc::clone(&polls);
            stream.set_interrupt(Some(Arc::new(move || {
                counter.fetch_add(1, Ordering::Relaxed) + 1 == firing_poll
            })));
            let mut solutions = Vec::new();
            let mut interrupts = 0;
            while solutions.len() < prefix {
                match stream.next_step().expect("solvable") {
                    StreamStep::Solution(solution) => solutions.push(solution),
                    StreamStep::Interrupted => interrupts += 1,
                    StreamStep::Exhausted => panic!("{name}: fewer than {prefix} cut sets"),
                }
            }
            assert_eq!(interrupts, 1, "{name}: the hook fires once");
            let before = stream.sat_calls();
            assert_eq!(stream.has_more().expect("consistent"), Some(continues));
            assert_eq!(stream.sat_calls(), before + probe_calls, "{name}");
            match stream.next_step().expect("solvable") {
                StreamStep::Solution(solution) if continues => solutions.push(solution),
                StreamStep::Exhausted if !continues => {
                    assert_eq!(stream.sat_calls(), before + probe_calls, "{name}");
                }
                other => panic!("{name}: unexpected step {other:?}"),
            }
            solutions.sort_by_key(|s| s.stats.session_calls);
            let mut previous = 0;
            for solution in &solutions {
                assert_eq!(
                    solution.stats.sat_calls,
                    solution.stats.session_calls - previous,
                    "{name}: {}",
                    solution.stats
                );
                previous = solution.stats.session_calls;
            }
        }
    }
}
