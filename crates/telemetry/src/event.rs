//! The campaign event taxonomy. Its JSONL layout is declared in
//! [`crate::RECORDS`].

use crate::record::{FieldValue, RECORDS};

/// Why a budgeted analysis stopped before reaching a verdict.
///
/// Each variant names the CDCL ceiling that was hit. `WallClock` is
/// the only non-deterministic reason and is opt-in (see the budget
/// documentation in `symbfuzz-smt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnknownReason {
    /// The conflict ceiling was reached.
    Conflicts,
    /// The wall-clock deadline passed (opt-in, non-deterministic).
    WallClock,
}

impl UnknownReason {
    /// Number of reasons.
    pub const COUNT: usize = 2;

    /// Every reason, in a fixed order.
    pub const ALL: [UnknownReason; UnknownReason::COUNT] =
        [UnknownReason::Conflicts, UnknownReason::WallClock];

    /// Stable string used in the JSONL schema and campaign JSON.
    pub fn name(self) -> &'static str {
        match self {
            UnknownReason::Conflicts => "conflicts",
            UnknownReason::WallClock => "wall_clock",
        }
    }

    /// Inverse of [`UnknownReason::name`].
    pub fn parse(s: &str) -> Option<UnknownReason> {
        UnknownReason::ALL.into_iter().find(|r| r.name() == s)
    }
}

impl std::fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The one solve outcome shared by every layer (SAT facade, symbolic
/// episodes, campaign JSON, JSONL traces).
///
/// Serialized through [`SolveStatus::serial`] everywhere so the
/// campaign report and the trace stream agree byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// A satisfying assignment / input sequence was produced.
    Sat,
    /// Proved unsatisfiable within the bound.
    Unsat,
    /// The budget ran out before a verdict.
    Unknown(UnknownReason),
    /// The analysis was not consulted at all (ablation).
    Skipped,
}

impl SolveStatus {
    /// Number of distinct serial strings.
    pub const SERIAL_COUNT: usize = 3 + UnknownReason::COUNT;

    /// Every serial string, in tally order: `sat`, `unsat`,
    /// `skipped`, then one `unknown:<reason>` per reason.
    pub const SERIALS: [&'static str; SolveStatus::SERIAL_COUNT] = [
        "sat",
        "unsat",
        "skipped",
        "unknown:conflicts",
        "unknown:wall_clock",
    ];

    /// Stable string used in the JSONL schema and campaign JSON.
    pub fn serial(self) -> &'static str {
        SolveStatus::SERIALS[self.serial_index()]
    }

    /// Index into [`SolveStatus::SERIALS`].
    pub fn serial_index(self) -> usize {
        match self {
            SolveStatus::Sat => 0,
            SolveStatus::Unsat => 1,
            SolveStatus::Skipped => 2,
            SolveStatus::Unknown(r) => 3 + r as usize,
        }
    }

    /// Inverse of [`SolveStatus::serial`].
    pub fn parse(s: &str) -> Option<SolveStatus> {
        match s {
            "sat" => Some(SolveStatus::Sat),
            "unsat" => Some(SolveStatus::Unsat),
            "skipped" => Some(SolveStatus::Skipped),
            _ => {
                let reason = s.strip_prefix("unknown:")?;
                UnknownReason::parse(reason).map(SolveStatus::Unknown)
            }
        }
    }
}

impl std::fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.serial())
    }
}

/// The generating mechanism a coverage point is attributed to — which
/// part of Algorithm 1 produced the input word that earned it.
///
/// Shared by the CFG provenance records, the `covmap` artifact, the
/// campaign JSON and the JSONL trace schema, all through
/// [`Mechanism::name`] so every layer agrees byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Constrained-random stimulus from the UVM sequencer (or a
    /// baseline's mutated testcase).
    ConstrainedRandom,
    /// A solver-produced input sequence installed after a successful
    /// symbolic episode (§4.7); the goal id names the solve attempt.
    SolverGuided,
    /// A recorded input prefix replayed to re-enter a checkpoint after
    /// a partial reset (§4.5).
    ReplayPrefix,
}

impl Mechanism {
    /// Number of mechanisms.
    pub const COUNT: usize = 3;

    /// Every mechanism, in a fixed order.
    pub const ALL: [Mechanism; Mechanism::COUNT] = [
        Mechanism::ConstrainedRandom,
        Mechanism::SolverGuided,
        Mechanism::ReplayPrefix,
    ];

    /// Stable string used in the JSONL schema, `covmap` and campaign
    /// JSON.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::ConstrainedRandom => "random",
            Mechanism::SolverGuided => "solver",
            Mechanism::ReplayPrefix => "replay",
        }
    }

    /// Inverse of [`Mechanism::name`].
    pub fn parse(s: &str) -> Option<Mechanism> {
        Mechanism::ALL.into_iter().find(|m| m.name() == s)
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured trace event from the fuzz loop.
///
/// Each variant maps to one JSONL record kind; [`Event::kind`] is the
/// schema discriminator, and the leading entries of [`RECORDS`] declare
/// each kind's fields (the synthetic records follow them).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An interval ended with more coverage than the previous one.
    CoverageDelta {
        /// Input vectors consumed so far.
        vectors: u64,
        /// Coverage points after the interval.
        coverage: u64,
        /// Newly covered points this interval.
        delta: u64,
    },
    /// The stagnation threshold was crossed (symbolic guidance fires).
    StagnationEnter {
        /// Input vectors consumed so far.
        vectors: u64,
        /// Consecutive intervals without new coverage.
        intervals: u64,
    },
    /// One rollback-and-solve attempt of the symbolic step.
    SymbolicEpisode {
        /// CFG node rolled back to; `None` = solving from reset state.
        checkpoint: Option<u64>,
        /// Dependency equations in the engine.
        eqns: u64,
        /// Whether the episode installed a solved sequence.
        solve_result: SolveStatus,
    },
    /// One SMT query (bit-blast + CDCL solve).
    SmtSolve {
        /// Propositional variables in the blasted CNF.
        vars: u64,
        /// CNF clauses.
        clauses: u64,
        /// Satisfiable?
        sat: bool,
        /// Solve latency in clock units.
        micros: u64,
    },
    /// Checkpoint re-entry: snapshot restore (`prefix_len == 0`) or
    /// reset plus replay of a recorded input prefix (§4.5).
    PartialReset {
        /// Input cycles replayed to re-reach the checkpoint.
        prefix_len: u64,
    },
    /// A full DUV reset (campaign start, testcase retirement, or
    /// guidance falling back to the reset state).
    FullReset,
    /// A property violation was recorded for the first time.
    BugFired {
        /// Violated property name.
        property: String,
        /// Input vectors consumed at detection.
        vector: u64,
    },
    /// A budgeted solve stopped at a resource ceiling and the fuzzer
    /// degraded to constrained-random mutation.
    BudgetExhausted {
        /// Ceiling that was hit.
        reason: UnknownReason,
        /// Escalation level the attempt ran at (0 = base budget).
        level: u64,
        /// Conflicts spent by the attempt.
        conflicts: u64,
        /// Decisions spent by the attempt.
        decisions: u64,
        /// Propagations spent by the attempt.
        propagations: u64,
    },
    /// A CFG node was covered for the first time (provenance record).
    NodeCovered {
        /// Dense node id.
        node: u64,
        /// Input vectors consumed when the node was first reached.
        vector: u64,
        /// The mechanism that generated the covering input word.
        mechanism: Mechanism,
        /// Goal id of the solve attempt, for solver-guided words.
        goal: Option<u64>,
        /// Checkpoint node active at the time, if any.
        checkpoint: Option<u64>,
    },
    /// A CFG edge was covered for the first time (provenance record).
    EdgeCovered {
        /// Dense edge id.
        edge: u64,
        /// Source node id.
        src: u64,
        /// Destination node id.
        dst: u64,
        /// Input vectors consumed when the edge was first taken.
        vector: u64,
        /// The mechanism that generated the covering input word.
        mechanism: Mechanism,
    },
    /// Solver introspection: the aggregated CDCL cost of one symbolic
    /// goal's whole depth schedule (emitted once per goal when
    /// introspection is on).
    GoalSolveCost {
        /// Target register the goal drives.
        register: String,
        /// Target value.
        value: u64,
        /// Final verdict of the schedule.
        status: SolveStatus,
        /// Deepest unroll depth attempted.
        depth: u64,
        /// Solver calls the schedule issued.
        calls: u64,
        /// Total CDCL conflicts across the schedule.
        conflicts: u64,
        /// Learned clauses recorded.
        learned: u64,
        /// Restarts performed.
        restarts: u64,
        /// Log₄ histogram of per-call conflict costs (12 buckets),
        /// for p50/p90/p99 quantile rendering in `tracedump`.
        hist: Vec<u64>,
    },
    /// Solver introspection: an assumption-core-lite extraction
    /// attributed a failed goal to a blame set of signals.
    CoreExtracted {
        /// Target register the goal drives.
        register: String,
        /// Target value.
        value: u64,
        /// Assumptions surviving greedy minimization (0 = attribution
        /// fell back to hot-signal blame).
        core: u64,
        /// Signals in the resulting blame set.
        blamed: u64,
    },
}

impl Event {
    /// Number of event kinds.
    pub const KIND_COUNT: usize = 12;

    /// The schema discriminator for this event.
    pub fn kind(&self) -> &'static str {
        RECORDS[self.kind_index()].kind
    }

    /// Index into [`RECORDS`] (append-only: indices are part of the
    /// trace schema).
    pub fn kind_index(&self) -> usize {
        match self {
            Event::CoverageDelta { .. } => 0,
            Event::StagnationEnter { .. } => 1,
            Event::SymbolicEpisode { .. } => 2,
            Event::SmtSolve { .. } => 3,
            Event::PartialReset { .. } => 4,
            Event::FullReset => 5,
            Event::BugFired { .. } => 6,
            Event::BudgetExhausted { .. } => 7,
            Event::NodeCovered { .. } => 8,
            Event::EdgeCovered { .. } => 9,
            Event::GoalSolveCost { .. } => 10,
            Event::CoreExtracted { .. } => 11,
        }
    }

    /// Renders one JSONL record (no trailing newline): timestamp,
    /// task label, kind, then the variant's fields, as [`RECORDS`]
    /// declares them.
    pub fn to_json_line(&self, t: u64, task: u64) -> String {
        use FieldValue::{Bool, Num, NumArray, NumOrNull, Str};
        let line = |values: &[FieldValue<'_>]| RECORDS[self.kind_index()].line(t, task, values);
        match self {
            Event::CoverageDelta {
                vectors,
                coverage,
                delta,
            } => line(&[Num(*vectors), Num(*coverage), Num(*delta)]),
            Event::StagnationEnter { vectors, intervals } => {
                line(&[Num(*vectors), Num(*intervals)])
            }
            Event::SymbolicEpisode {
                checkpoint,
                eqns,
                solve_result,
            } => line(&[
                NumOrNull(*checkpoint),
                Num(*eqns),
                Str(solve_result.serial()),
            ]),
            Event::SmtSolve {
                vars,
                clauses,
                sat,
                micros,
            } => line(&[Num(*vars), Num(*clauses), Bool(*sat), Num(*micros)]),
            Event::PartialReset { prefix_len } => line(&[Num(*prefix_len)]),
            Event::FullReset => line(&[]),
            Event::BugFired { property, vector } => line(&[Str(property), Num(*vector)]),
            Event::BudgetExhausted {
                reason,
                level,
                conflicts,
                decisions,
                propagations,
            } => line(&[
                Str(reason.name()),
                Num(*level),
                Num(*conflicts),
                Num(*decisions),
                Num(*propagations),
            ]),
            Event::NodeCovered {
                node,
                vector,
                mechanism,
                goal,
                checkpoint,
            } => line(&[
                Num(*node),
                Num(*vector),
                Str(mechanism.name()),
                NumOrNull(*goal),
                NumOrNull(*checkpoint),
            ]),
            Event::EdgeCovered {
                edge,
                src,
                dst,
                vector,
                mechanism,
            } => line(&[
                Num(*edge),
                Num(*src),
                Num(*dst),
                Num(*vector),
                Str(mechanism.name()),
            ]),
            Event::GoalSolveCost {
                register,
                value,
                status,
                depth,
                calls,
                conflicts,
                learned,
                restarts,
                hist,
            } => line(&[
                Str(register),
                Num(*value),
                Str(status.serial()),
                Num(*depth),
                Num(*calls),
                Num(*conflicts),
                Num(*learned),
                Num(*restarts),
                NumArray(hist),
            ]),
            Event::CoreExtracted {
                register,
                value,
                core,
                blamed,
            } => line(&[Str(register), Num(*value), Num(*core), Num(*blamed)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_every_variant() {
        let all = [
            Event::CoverageDelta {
                vectors: 1,
                coverage: 2,
                delta: 1,
            },
            Event::StagnationEnter {
                vectors: 1,
                intervals: 3,
            },
            Event::SymbolicEpisode {
                checkpoint: None,
                eqns: 4,
                solve_result: SolveStatus::Unsat,
            },
            Event::SmtSolve {
                vars: 10,
                clauses: 20,
                sat: true,
                micros: 5,
            },
            Event::PartialReset { prefix_len: 7 },
            Event::FullReset,
            Event::BugFired {
                property: "p".into(),
                vector: 9,
            },
            Event::BudgetExhausted {
                reason: UnknownReason::Conflicts,
                level: 1,
                conflicts: 100,
                decisions: 200,
                propagations: 300,
            },
            Event::NodeCovered {
                node: 3,
                vector: 40,
                mechanism: Mechanism::SolverGuided,
                goal: Some(2),
                checkpoint: Some(1),
            },
            Event::EdgeCovered {
                edge: 6,
                src: 1,
                dst: 3,
                vector: 40,
                mechanism: Mechanism::ReplayPrefix,
            },
            Event::GoalSolveCost {
                register: "r".into(),
                value: 1,
                status: SolveStatus::Unknown(UnknownReason::Conflicts),
                depth: 4,
                calls: 3,
                conflicts: 99,
                learned: 80,
                restarts: 2,
                hist: vec![0; 12],
            },
            Event::CoreExtracted {
                register: "r".into(),
                value: 1,
                core: 2,
                blamed: 3,
            },
        ];
        assert_eq!(all.len(), Event::KIND_COUNT);
        for (i, e) in all.iter().enumerate() {
            assert_eq!(e.kind_index(), i);
            assert_eq!(e.kind(), RECORDS[i].kind);
        }
    }

    #[test]
    fn mechanism_names_round_trip() {
        for m in Mechanism::ALL {
            assert_eq!(Mechanism::parse(m.name()), Some(m));
            assert_eq!(m.to_string(), m.name());
        }
        assert!(Mechanism::parse("telepathy").is_none());
        assert_eq!(Mechanism::ALL.len(), Mechanism::COUNT);
    }

    #[test]
    fn solve_status_serials_round_trip() {
        for (i, s) in SolveStatus::SERIALS.iter().enumerate() {
            let parsed = SolveStatus::parse(s).expect("serial parses");
            assert_eq!(parsed.serial(), *s);
            assert_eq!(parsed.serial_index(), i);
        }
        assert!(SolveStatus::parse("maybe").is_none());
        assert!(SolveStatus::parse("unknown:gremlins").is_none());
        for r in UnknownReason::ALL {
            assert_eq!(UnknownReason::parse(r.name()), Some(r));
        }
    }
}
