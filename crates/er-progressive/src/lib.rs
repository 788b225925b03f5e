//! # er-progressive — pay-as-you-go entity resolution (§IV of the tutorial)
//!
//! Progressive ER maximizes the matches reported within a limited computing
//! budget by adding a **scheduling** phase to the ER workflow: candidate
//! comparisons are executed in (estimated) descending likelihood of matching,
//! and an optional **update** phase re-prioritizes pending comparisons using
//! the matches found so far.
//!
//! Fig. 1 draws that as one loop — scheduling → matching → update — and this
//! crate has one: [`run`] owns the stop check, the never-twice rule, the
//! comparison, the match list, the recall curve and the `progressive.*`
//! metrics. A method is only a [`Scheduler`] ("next pair", plus what a
//! decision changes), a bound is only a [`StoppingRule`], and every
//! scheduler runs under every rule:
//!
//! | scheduler | next pair | update on a decision |
//! |---|---|---|
//! | any `Iterator<Item = Pair>` ([`hints`], [`budget::random_schedule`]) | the static order | — |
//! | [`psnm::PsnmSchedule`] | rank distance 1, 2, … over the sort | a match queues `(i+1, j)`, `(i, j+1)` to jump ahead |
//! | [`scheduler::WindowScheduler`] | the current window, best first | matches boost the pending pairs they influence when the window runs dry |
//! | `er_iterative::framework::IterativeResolver` (§III) | pops its `PairQueue` | the caller's hook enqueues newly relevant pairs |
//!
//! | stopping rule | stops when |
//! |---|---|
//! | [`Budget::Comparisons`] | that many comparisons ran |
//! | [`Budget::Deadline`] | the wall clock passes it (checked before every comparison) |
//! | [`Budget::Unlimited`] | never — the schedule drains |
//! | [`stopping::DiminishingReturns`] | a full window of comparisons found too few matches |
//! | [`stopping::Either`] | either of two rules does |
//!
//! * [`budget`] — budgets, the loop, progressive-recall recording.
//! * [`hints`] — the pay-as-you-go hint structures of Whang et al. \[26\]:
//!   sorted pair list, partition hierarchy, ordered blocks.
//! * [`psnm`] — progressive sorted neighborhood with the local-lookahead
//!   extension of Papenbrock et al. \[23\].
//! * [`scheduler`] — the cost-window, influence-propagating scheduler of
//!   Altowim et al. \[1\].
//! * [`stopping`] — rules that watch the run (diminishing returns) instead of
//!   counting it.
//! * [`estimation`] — sampling-based estimation of remaining matches and
//!   current recall, the signal the stopping decision actually needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod estimation;
pub mod hints;
pub mod psnm;
pub mod scheduler;
pub mod stopping;

pub use budget::{run, Budget, ProgressiveOutcome, Scheduler};
pub use stopping::StoppingRule;
