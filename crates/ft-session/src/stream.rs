//! Lazy solution streaming — see [`SolutionStream`].

use ft_backend::{pull_solutions, BackendSolution, QueryControl};
use mpmcs::{McsStream, MpmcsError};

use crate::analyzer::Analyzer;
use crate::results::{SessionError, Termination};

/// What feeds the stream.
enum Source {
    /// A live incremental MaxSAT session: one cut set is proven per pull,
    /// memory stays bounded by the current equal-cost tie group, and
    /// stopping the stream stops the SAT engine.
    Live(Box<McsStream>),
    /// A delegated engine (BDD, MOCUS, preprocessing):
    /// one budgeted [`enumerate`](ft_backend::AnalysisBackend::enumerate)
    /// call up to one past the cap, so the stream iterates an eagerly
    /// collected, canonical answer.
    Collected {
        /// The solutions not yet delivered.
        rest: std::vec::IntoIter<BackendSolution>,
        /// How the engine's call ended: [`Termination::Complete`], or the
        /// cause that stopped it after proving the collected prefix.
        end: Termination,
    },
    /// The delegated computation failed (or was stopped) before producing
    /// anything; the error is delivered once.
    Failed(Option<SessionError>),
}

/// A lazy iterator over minimal cut sets in canonical enumeration order.
///
/// Opened by [`Analyzer::stream`]. The stream delivers **byte-identical**
/// solutions to the collected queries: a prefix of length `n` equals the
/// first `n` entries of [`Analyzer::all_mcs`]. The analyzer's budget governs
/// the stream — the wall clock arms when the stream is opened, the solution
/// cap bounds the number of items — and [`SolutionStream::termination`]
/// reports how the stream ended.
///
/// ```rust
/// use fault_tree::examples::fire_protection_system;
/// use ft_session::{Analyzer, Termination};
///
/// let analyzer = Analyzer::for_tree(fire_protection_system());
/// let mut names = Vec::new();
/// let mut stream = analyzer.stream();
/// for solution in stream.by_ref() {
///     names.push(solution.unwrap().cut_set.display_names(analyzer.tree()));
/// }
/// assert_eq!(names.len(), 5);
/// assert_eq!(names[0], "{x1, x2}"); // the MPMCS arrives first
/// assert_eq!(stream.termination(), Some(Termination::Complete));
/// ```
pub struct SolutionStream {
    source: Source,
    control: QueryControl,
    cap: Option<usize>,
    delivered: usize,
    termination: Option<Termination>,
}

impl std::fmt::Debug for SolutionStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolutionStream")
            .field("delivered", &self.delivered)
            .field("cap", &self.cap)
            .field("termination", &self.termination)
            .field("live", &matches!(self.source, Source::Live(_)))
            .finish()
    }
}

impl SolutionStream {
    pub(crate) fn open(analyzer: &Analyzer) -> SolutionStream {
        let control = analyzer.control();
        let cap = analyzer.query_budget().max_solutions_limit();
        let source = if analyzer.uses_warm_session() {
            let live = McsStream::open(analyzer.shared_tree(), analyzer.mpmcs_options());
            Source::Live(Box::new(live))
        } else {
            // The cap probe: one solution past the cap tells a cap-sized
            // family (complete) from a truncated one.
            let limit = cap.map(|cap| cap.saturating_add(1));
            match analyzer
                .build_backend()
                .enumerate(analyzer.tree(), limit, &control)
            {
                Ok(enumerated) => Source::Collected {
                    rest: enumerated.solutions.into_iter(),
                    end: enumerated
                        .stopped
                        .map_or(Termination::Complete, Termination::from),
                },
                Err(error) => Source::Failed(Some(error.into())),
            }
        };
        SolutionStream {
            source,
            control,
            cap,
            delivered: 0,
            termination: None,
        }
    }

    /// How the stream ended: `None` while items may still come,
    /// [`Termination::Complete`] after the family was exhausted, and a
    /// truncated termination when the cap, deadline or cancellation cut the
    /// stream short.
    pub fn termination(&self) -> Option<Termination> {
        self.termination
    }

    /// Number of solutions delivered so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Cumulative SAT-solver calls issued by the live session (`None` for
    /// delegated engines) — the early-exit witness used by the regression
    /// tests: a stream stopped after `n` of `N` solutions has issued SAT
    /// calls proportional to `n`.
    pub fn sat_calls(&self) -> Option<u64> {
        match &self.source {
            Source::Live(live) => Some(live.sat_calls()),
            _ => None,
        }
    }
}

impl Iterator for SolutionStream {
    type Item = Result<BackendSolution, SessionError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.termination.is_some() {
            return None;
        }
        if self.cap.is_some_and(|cap| self.delivered >= cap) {
            // The cap ended the stream: one solution past it tells a
            // truncated family from an exactly cap-sized one.
            let termination = match &mut self.source {
                Source::Live(live) => match capped_termination(live, &self.control) {
                    Ok(termination) => termination,
                    Err(error) => {
                        self.termination = Some(Termination::Failed);
                        return Some(Err(error.into()));
                    }
                },
                // A stopped engine labels the answer by its stop cause, as
                // the collected query does.
                Source::Collected { rest, end } if rest.len() == 0 || end.is_truncated() => *end,
                Source::Collected { .. } | Source::Failed(_) => Termination::SolutionCap,
            };
            self.termination = Some(termination);
            return None;
        }
        match &mut self.source {
            Source::Failed(error) => {
                self.termination = Some(Termination::Failed);
                error.take().map(Err)
            }
            Source::Collected { rest, end } => match rest.next() {
                Some(solution) => {
                    self.delivered += 1;
                    Some(Ok(solution))
                }
                None => {
                    self.termination = Some(*end);
                    None
                }
            },
            Source::Live(live) => {
                let mut next = Vec::with_capacity(1);
                match pull_solutions(live, &mut next, Some(1), &self.control) {
                    Ok(Some(cause)) => {
                        self.termination = Some(Termination::from(cause));
                        None
                    }
                    Ok(None) => match next.pop() {
                        Some(solution) => {
                            self.delivered += 1;
                            Some(Ok(solution))
                        }
                        None => {
                            self.termination = Some(Termination::Complete);
                            None
                        }
                    },
                    Err(error) => {
                        self.termination = Some(Termination::Failed);
                        Some(Err(error.into()))
                    }
                }
            }
        }
    }
}

/// The label of an answer that filled its binding solution cap while `live`
/// is still open: [`Termination::SolutionCap`] when another minimal cut set
/// exists beyond the delivered prefix (buffered, or proven by one more
/// optimum solved under `control`), [`Termination::Complete`] when the
/// session proves the family exactly cap-sized, and the stop cause when
/// `control` fires before the proof. A zero cap truncates every family, so
/// an empty prefix solves nothing.
pub(crate) fn capped_termination(
    live: &mut McsStream,
    control: &QueryControl,
) -> Result<Termination, MpmcsError> {
    if live.delivered() == 0 {
        return Ok(Termination::SolutionCap);
    }
    live.set_interrupt(Some(control.interrupt_hook()));
    let more = live.has_more();
    live.set_interrupt(None);
    Ok(match more? {
        Some(true) => Termination::SolutionCap,
        Some(false) => Termination::Complete,
        None => control
            .stop_cause()
            .map_or(Termination::Cancelled, Termination::from),
    })
}
