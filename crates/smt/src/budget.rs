//! Resource budgets for SAT solving.
//!
//! A [`Budget`] bounds how much work a query may spend before giving
//! up with an `Unknown` verdict. It has two ceilings:
//!
//! * **Conflicts** — a deterministic CDCL counter, so budgeted
//!   campaigns stay byte-identical at any `--jobs` value.
//! * **Wall clock** — an opt-in deadline against a telemetry
//!   [`Clock`]. This is the only non-deterministic ceiling and is
//!   reserved for operator-facing runs (`--solve-wall-ms`).
//!
//! The unroll depth is not a budget: it is the query's own bound
//! (`max_steps` of the symbolic engine's one query).
//!
//! [`BudgetSpent`] is the matching receipt: how much each counter
//! advanced during the attempt, returned by every
//! [`SolverSession::check_assuming`](crate::SolverSession::check_assuming)
//! so callers can report and escalate.

use std::sync::Arc;
use symbfuzz_telemetry::{Clock, UnknownReason};

/// How much work a budgeted attempt consumed.
///
/// Returned by every session check and accumulated across the
/// symbolic engine's depth schedule, so one reachability
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
/// Both ceilings are optional; [`Budget::unlimited`] (also the
/// `Default`) never interrupts a search, so unbudgeted call sites
/// keep their exact pre-budget behaviour.
///
/// # Examples
///
/// ```
/// use symbfuzz_smt::Budget;
///
/// let b = Budget::unlimited().with_conflicts(10_000).escalate(4);
/// assert_eq!(b.conflicts(), Some(40_000));
/// assert!(!b.is_unlimited());
/// ```
#[derive(Clone, Default)]
pub struct Budget {
    conflicts: Option<u64>,
    wall: Option<(Arc<dyn Clock>, u64)>,
}

impl std::fmt::Debug for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Budget")
            .field("conflicts", &self.conflicts)
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

    /// `true` when no ceiling is set.
    pub fn is_unlimited(&self) -> bool {
        self.conflicts.is_none() && self.wall.is_none()
    }

    /// Multiplies the conflict ceiling by `factor` (saturating). The
    /// wall deadline is left unchanged.
    #[must_use]
    pub fn escalate(mut self, factor: u64) -> Budget {
        self.conflicts = self.conflicts.map(|n| n.saturating_mul(factor));
        self
    }

    /// The budget left after `spent` has been consumed: the conflict
    /// ceiling shrinks (saturating at zero); the wall deadline is
    /// absolute and carries over unchanged.
    #[must_use]
    pub fn remaining_after(&self, spent: BudgetSpent) -> Budget {
        Budget {
            conflicts: self.conflicts.map(|n| n.saturating_sub(spent.conflicts)),
            wall: self.wall.clone(),
        }
    }

    /// Checks the ceilings against `spent`, conflicts before the wall
    /// clock, so a deterministic reason wins whenever both have tripped.
    pub fn check(&self, spent: BudgetSpent) -> Option<UnknownReason> {
        if self.conflicts.is_some_and(|cap| spent.conflicts >= cap) {
            return Some(UnknownReason::Conflicts);
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
    fn conflicts_are_checked_before_the_wall_clock() {
        let clock = Arc::new(ManualClock::new());
        clock.set(200);
        let b = Budget::unlimited()
            .with_wall_deadline(clock, 100)
            .with_conflicts(1);
        let spent = BudgetSpent {
            conflicts: 1,
            ..BudgetSpent::default()
        };
        assert_eq!(b.check(spent), Some(UnknownReason::Conflicts));
        assert_eq!(
            b.check(BudgetSpent::default()),
            Some(UnknownReason::WallClock)
        );
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
    fn escalation_scales_conflicts_only() {
        let clock = Arc::new(ManualClock::new());
        let b = Budget::unlimited()
            .with_conflicts(10)
            .with_wall_deadline(clock.clone(), 5)
            .escalate(4);
        assert_eq!(b.conflicts(), Some(40));
        clock.set(5);
        assert_eq!(
            b.check(BudgetSpent::default()),
            Some(UnknownReason::WallClock)
        );
        assert_eq!(
            Budget::unlimited()
                .with_conflicts(u64::MAX)
                .escalate(2)
                .conflicts(),
            Some(u64::MAX)
        );
        assert!(Budget::unlimited().escalate(8).is_unlimited());
    }

    #[test]
    fn remaining_subtracts_saturating() {
        let b = Budget::unlimited().with_conflicts(10);
        let spent = |conflicts| BudgetSpent {
            conflicts,
            ..BudgetSpent::default()
        };
        assert_eq!(b.remaining_after(spent(4)).conflicts(), Some(6));
        let rem = b.remaining_after(spent(17));
        assert_eq!(rem.conflicts(), Some(0));
        // An exhausted remaining budget trips immediately.
        assert_eq!(
            rem.check(BudgetSpent::default()),
            Some(UnknownReason::Conflicts)
        );
        assert!(Budget::unlimited()
            .remaining_after(spent(17))
            .is_unlimited());
    }
}
