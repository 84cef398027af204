//! Resource budgets for SAT solving and symbolic unrolling.
//!
//! A [`Budget`] bounds how much work a query may spend before giving
//! up with an `Unknown` verdict. The ceilings fall in two groups:
//!
//! * **Deterministic counters** — conflicts, decisions and
//!   propagations for the CDCL core; term nodes and unroll depth for
//!   the symbolic engine. These are pure functions of the search, so
//!   budgeted campaigns stay byte-identical at any `--jobs` value.
//! * **Wall clock** — an opt-in deadline against a telemetry
//!   [`Clock`]. This is the only non-deterministic ceiling and is
//!   reserved for operator-facing runs (`--solve-wall-ms`).
//!
//! [`BudgetSpent`] is the matching receipt: how much each counter
//! advanced during the attempt, carried inside `Unknown` results so
//! callers can report and escalate.

use std::sync::Arc;
use symbfuzz_telemetry::{Clock, UnknownReason};

/// How much work a budgeted attempt consumed.
///
/// Returned inside `Unknown { spent, .. }` results and accumulated
/// across the symbolic engine's depth schedule, so one reachability
/// query shares a single budget regardless of how many exact-depth
/// solves it issues.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetSpent {
    /// CDCL conflicts consumed.
    pub conflicts: u64,
    /// CDCL decisions consumed.
    pub decisions: u64,
    /// Unit propagations consumed.
    pub propagations: u64,
}

impl BudgetSpent {
    /// Component-wise sum (saturating).
    #[must_use]
    pub fn saturating_add(self, other: BudgetSpent) -> BudgetSpent {
        BudgetSpent {
            conflicts: self.conflicts.saturating_add(other.conflicts),
            decisions: self.decisions.saturating_add(other.decisions),
            propagations: self.propagations.saturating_add(other.propagations),
        }
    }
}

/// Resource ceilings for one solve or reachability attempt.
///
/// All ceilings are optional; [`Budget::unlimited`] (also the
/// `Default`) never interrupts a search, so unbudgeted call sites
/// keep their exact pre-budget behaviour.
///
/// # Examples
///
/// ```
/// use symbfuzz_smt::Budget;
///
/// let b = Budget::unlimited().with_conflicts(10_000).with_unroll_depth(8);
/// assert_eq!(b.conflicts(), Some(10_000));
/// assert!(!b.is_unlimited());
/// ```
#[derive(Clone, Default)]
pub struct Budget {
    conflicts: Option<u64>,
    decisions: Option<u64>,
    propagations: Option<u64>,
    term_nodes: Option<usize>,
    unroll_depth: Option<u32>,
    wall: Option<(Arc<dyn Clock>, u64)>,
}

impl std::fmt::Debug for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Budget")
            .field("conflicts", &self.conflicts)
            .field("decisions", &self.decisions)
            .field("propagations", &self.propagations)
            .field("term_nodes", &self.term_nodes)
            .field("unroll_depth", &self.unroll_depth)
            .field("wall_deadline", &self.wall.as_ref().map(|(_, d)| *d))
            .finish()
    }
}

impl Budget {
    /// A budget with no ceilings: never interrupts a search.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Caps CDCL conflicts.
    #[must_use]
    pub fn with_conflicts(mut self, n: u64) -> Budget {
        self.conflicts = Some(n);
        self
    }

    /// Caps CDCL decisions.
    #[must_use]
    pub fn with_decisions(mut self, n: u64) -> Budget {
        self.decisions = Some(n);
        self
    }

    /// Caps unit propagations.
    #[must_use]
    pub fn with_propagations(mut self, n: u64) -> Budget {
        self.propagations = Some(n);
        self
    }

    /// Caps the working term-pool size during symbolic unrolling.
    #[must_use]
    pub fn with_term_nodes(mut self, n: usize) -> Budget {
        self.term_nodes = Some(n);
        self
    }

    /// Caps the unroll depth of reachability queries.
    #[must_use]
    pub fn with_unroll_depth(mut self, n: u32) -> Budget {
        self.unroll_depth = Some(n);
        self
    }

    /// Sets a wall-clock deadline (clock units, usually microseconds).
    ///
    /// The only non-deterministic ceiling: checks read `clock` during
    /// the search, so results can differ run to run. Opt-in only.
    #[must_use]
    pub fn with_wall_deadline(mut self, clock: Arc<dyn Clock>, deadline: u64) -> Budget {
        self.wall = Some((clock, deadline));
        self
    }

    /// The conflict ceiling, if any.
    pub fn conflicts(&self) -> Option<u64> {
        self.conflicts
    }

    /// The decision ceiling, if any.
    pub fn decisions(&self) -> Option<u64> {
        self.decisions
    }

    /// The propagation ceiling, if any.
    pub fn propagations(&self) -> Option<u64> {
        self.propagations
    }

    /// The term-node ceiling, if any.
    pub fn term_nodes(&self) -> Option<usize> {
        self.term_nodes
    }

    /// The unroll-depth ceiling, if any.
    pub fn unroll_depth(&self) -> Option<u32> {
        self.unroll_depth
    }

    /// `true` when no ceiling is set.
    pub fn is_unlimited(&self) -> bool {
        self.conflicts.is_none()
            && self.decisions.is_none()
            && self.propagations.is_none()
            && self.term_nodes.is_none()
            && self.unroll_depth.is_none()
            && self.wall.is_none()
    }

    /// Multiplies every counter ceiling by `factor` (saturating). The
    /// wall deadline and structural ceilings (term nodes, unroll
    /// depth) are left unchanged — escalation buys more search, not a
    /// bigger formula.
    #[must_use]
    pub fn escalate(mut self, factor: u64) -> Budget {
        self.conflicts = self.conflicts.map(|n| n.saturating_mul(factor));
        self.decisions = self.decisions.map(|n| n.saturating_mul(factor));
        self.propagations = self.propagations.map(|n| n.saturating_mul(factor));
        self
    }

    /// The budget left after `spent` has been consumed. Counter
    /// ceilings shrink (saturating at zero); structural ceilings and
    /// the wall deadline are absolute and carry over unchanged.
    #[must_use]
    pub fn remaining_after(&self, spent: BudgetSpent) -> Budget {
        Budget {
            conflicts: self.conflicts.map(|n| n.saturating_sub(spent.conflicts)),
            decisions: self.decisions.map(|n| n.saturating_sub(spent.decisions)),
            propagations: self
                .propagations
                .map(|n| n.saturating_sub(spent.propagations)),
            term_nodes: self.term_nodes,
            unroll_depth: self.unroll_depth,
            wall: self.wall.clone(),
        }
    }

    /// Checks the counter and wall ceilings against `spent`, in a
    /// fixed priority (conflicts, decisions, propagations, wall) so the
    /// reported reason is deterministic.
    pub fn check(&self, spent: BudgetSpent) -> Option<UnknownReason> {
        if self.conflicts.is_some_and(|cap| spent.conflicts >= cap) {
            return Some(UnknownReason::Conflicts);
        }
        if self.decisions.is_some_and(|cap| spent.decisions >= cap) {
            return Some(UnknownReason::Decisions);
        }
        if self
            .propagations
            .is_some_and(|cap| spent.propagations >= cap)
        {
            return Some(UnknownReason::Propagations);
        }
        if let Some((clock, deadline)) = &self.wall {
            if clock.now_micros() >= *deadline {
                return Some(UnknownReason::WallClock);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbfuzz_telemetry::ManualClock;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        let spent = BudgetSpent {
            conflicts: u64::MAX,
            decisions: u64::MAX,
            propagations: u64::MAX,
        };
        assert_eq!(b.check(spent), None);
    }

    #[test]
    fn check_priority_is_fixed() {
        let b = Budget::unlimited()
            .with_conflicts(1)
            .with_decisions(1)
            .with_propagations(1);
        let spent = BudgetSpent {
            conflicts: 1,
            decisions: 1,
            propagations: 1,
        };
        assert_eq!(b.check(spent), Some(UnknownReason::Conflicts));
        let b = Budget::unlimited().with_decisions(1).with_propagations(1);
        assert_eq!(b.check(spent), Some(UnknownReason::Decisions));
        let b = Budget::unlimited().with_propagations(1);
        assert_eq!(b.check(spent), Some(UnknownReason::Propagations));
    }

    #[test]
    fn wall_deadline_uses_the_clock() {
        let clock = Arc::new(ManualClock::new());
        clock.set(100);
        let b = Budget::unlimited().with_wall_deadline(clock.clone(), 200);
        assert_eq!(b.check(BudgetSpent::default()), None);
        clock.set(200);
        assert_eq!(
            b.check(BudgetSpent::default()),
            Some(UnknownReason::WallClock)
        );
    }

    #[test]
    fn escalation_scales_counters_only() {
        let b = Budget::unlimited()
            .with_conflicts(10)
            .with_term_nodes(5)
            .with_unroll_depth(2)
            .escalate(4);
        assert_eq!(b.conflicts(), Some(40));
        assert_eq!(b.term_nodes(), Some(5));
        assert_eq!(b.unroll_depth(), Some(2));
        assert_eq!(
            Budget::unlimited()
                .with_conflicts(u64::MAX)
                .escalate(2)
                .conflicts(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn remaining_subtracts_saturating() {
        let b = Budget::unlimited().with_conflicts(10).with_decisions(3);
        let rem = b.remaining_after(BudgetSpent {
            conflicts: 4,
            decisions: 7,
            propagations: 0,
        });
        assert_eq!(rem.conflicts(), Some(6));
        assert_eq!(rem.decisions(), Some(0));
        // An exhausted remaining budget trips immediately.
        assert_eq!(
            rem.check(BudgetSpent::default()),
            Some(UnknownReason::Decisions)
        );
    }
}
