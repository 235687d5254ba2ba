//! Output checks against answers computed apart from the program under
//! test: verdicts against an in-process check of the generated system
//! (never a stored copy of earlier output), and every rejection's witness
//! cycle re-derived edge by edge from the input system, as
//! `tests/explain_validation.rs` does.

use compc::core::{Checker, FailurePhase, FrontSnapshot, Verdict};
use compc::model::{CompositeSystem, NodeId};
use std::collections::{HashMap, HashSet};

/// A verdict reduced to what every surface reports: acceptance, and for a
/// rejection the failing level and phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    pub correct: bool,
    pub failure: Option<(usize, FailurePhase)>,
}

impl Decision {
    pub fn of(verdict: &Verdict) -> Decision {
        Decision {
            correct: verdict.is_correct(),
            failure: verdict.counterexample().map(|c| (c.level, c.phase)),
        }
    }

    /// The same decision with acceptance flipped (a planted wrong answer).
    pub fn flipped(&self) -> Decision {
        Decision {
            correct: !self.correct,
            failure: if self.correct {
                Some((1, FailurePhase::Calculation))
            } else {
                None
            },
        }
    }
}

/// Parses a phase as `FailurePhase::tag` or `FailurePhase::describe`
/// renders it.
pub fn parse_phase(text: &str) -> Option<FailurePhase> {
    [FailurePhase::Calculation, FailurePhase::ConflictConsistency]
        .into_iter()
        .find(|p| p.tag() == text || p.describe() == text)
}

/// The front a failure at `level` in `phase` is about: the pre-step front
/// for calculation failures, the new front for conflict-consistency
/// failures (level 0: the initial front).
fn failing_front(
    sys: &CompositeSystem,
    level: usize,
    phase: FailurePhase,
) -> Option<FrontSnapshot> {
    let mut reducer = Checker::new().reducer(sys);
    if level == 0 {
        return Some(reducer.snapshot());
    }
    for l in 1..level {
        reducer.step(l).ok()?;
    }
    let before = reducer.snapshot();
    match (reducer.step(level), phase) {
        (Ok(()), _) => None,
        (Err(_), FailurePhase::Calculation) => Some(before),
        (Err(_), FailurePhase::ConflictConsistency) => Some(reducer.snapshot()),
    }
}

/// Checks that the named cycle of a rejection at `level` in `phase` is a
/// real cycle of the failing front's relations:
///
/// * conflict consistency: every edge is an observed or input pair of the
///   front (Definition 13);
/// * calculation: every edge `A -> B` of the contracted constraint graph
///   is witnessed by front members `a` under `A` and `b` under `B` with
///   `(a, b)` an input pair, a generalized-conflicting observed pair, or a
///   same-schedule declared conflict executed `a` before `b`.
pub fn validate_cycle(
    sys: &CompositeSystem,
    level: usize,
    phase: FailurePhase,
    cycle_names: &[String],
) -> Result<(), String> {
    let by_name: HashMap<&str, NodeId> = sys.nodes().map(|n| (sys.name(n.id), n.id)).collect();
    let mut cycle = Vec::with_capacity(cycle_names.len() + 1);
    for name in cycle_names {
        cycle.push(
            *by_name
                .get(name.as_str())
                .ok_or_else(|| format!("cycle names unknown node {name}"))?,
        );
    }
    if cycle.len() < 2 {
        return Err(format!("witness cycle {cycle_names:?} has no edge"));
    }
    if cycle.first() != cycle.last() {
        cycle.push(cycle[0]);
    }
    let front = failing_front(sys, level, phase).ok_or_else(|| {
        format!("an independent reduction does not fail at level {level} ({phase:?})")
    })?;
    let observed: HashSet<(NodeId, NodeId)> = front.observed.iter().copied().collect();
    let input: HashSet<(NodeId, NodeId)> = front.input.iter().copied().collect();
    let conflicts: HashSet<(NodeId, NodeId)> = front.conflicts.iter().copied().collect();
    let under = |anc: NodeId| -> Vec<NodeId> {
        let below: HashSet<NodeId> = sys.descendants(anc).into_iter().collect();
        front
            .nodes
            .iter()
            .copied()
            .filter(|n| *n == anc || below.contains(n))
            .collect()
    };
    for pair in cycle.windows(2) {
        let (big_a, big_b) = (pair[0], pair[1]);
        let witnessed = match phase {
            FailurePhase::ConflictConsistency => {
                observed.contains(&(big_a, big_b)) || input.contains(&(big_a, big_b))
            }
            FailurePhase::Calculation => {
                let (as_, bs) = (under(big_a), under(big_b));
                as_.iter().any(|&a| {
                    bs.iter().any(|&b| {
                        let norm = if a < b { (a, b) } else { (b, a) };
                        input.contains(&(a, b))
                            || (conflicts.contains(&norm) && observed.contains(&(a, b)))
                            || sys
                                .schedules()
                                .any(|s| s.conflicts.conflicts(a, b) && s.output.weak_lt(a, b))
                    })
                })
            }
        };
        if !witnessed {
            return Err(format!(
                "cycle edge {} -> {} is not a {} edge of the failing front",
                sys.name(big_a),
                sys.name(big_b),
                phase.tag()
            ));
        }
    }
    Ok(())
}

/// Checks one reported decision (and, for a rejection, its witness cycle)
/// against the expected one.
pub fn check_decision(
    sys: &CompositeSystem,
    expected: &Decision,
    reported: &Decision,
    cycle_names: &[String],
) -> Result<(), String> {
    if expected.correct != reported.correct {
        return Err(format!(
            "verdict {} but the system is {}",
            if reported.correct {
                "Comp-C"
            } else {
                "NOT Comp-C"
            },
            if expected.correct {
                "Comp-C"
            } else {
                "NOT Comp-C"
            },
        ));
    }
    if expected.failure != reported.failure {
        return Err(format!(
            "rejection at {:?} but an independent check fails at {:?}",
            reported.failure, expected.failure
        ));
    }
    match reported.failure {
        Some((level, phase)) => validate_cycle(sys, level, phase, cycle_names),
        None => Ok(()),
    }
}
