//! Dependency-equation construction and SMT-backed input search.

use crate::scope::{
    signal_of_term_name, GoalScope, BLAME_MAX_ASSUMPTIONS, HOT_SIGNALS_K, SKETCH_K,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use symbfuzz_hdl::{BinaryOp, Edge, UnaryOp};
use symbfuzz_logic::{Bit, LogicVec};
use symbfuzz_netlist::{
    reset_tree, Design, NExpr, NLValue, NStmt, ProcKind, ResetTree, SignalId, SignalKind,
};
use symbfuzz_smt::{
    BitBlaster, Budget, BudgetSpent, Lit, SatResult, SolverSession, TermId, TermKind, TermPool,
};
use symbfuzz_telemetry::{Collector, Counter, Event, Gauge, SolveStatus, UnknownReason};

/// Conflict ceiling for each blame-extraction solve (the initial
/// assumption check and every greedy drop-one probe). Small by design:
/// blame is best-effort diagnostics and must not compete with the
/// campaign's own solving budget.
const BLAME_CONFLICT_CAP: u64 = 2_000;

/// A concrete input stimulus produced by the solver: one value per
/// top-level input (clocks excluded, resets held inactive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputAssignment {
    values: Vec<(SignalId, LogicVec)>,
}

impl InputAssignment {
    /// The value for one input signal.
    pub fn value(&self, sig: SignalId) -> Option<&LogicVec> {
        self.values.iter().find(|(s, _)| *s == sig).map(|(_, v)| v)
    }

    /// Iterates over `(signal, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SignalId, &LogicVec)> {
        self.values.iter().map(|(s, v)| (*s, v))
    }

    /// Packs the fuzzable inputs into one flat word in `SignalId` order
    /// — the inverse of `symbfuzz-sim`'s `Simulator::apply_input_word`
    /// (that crate documents the packing; duplicated here to avoid a
    /// dependency cycle).
    pub fn to_word(&self, design: &Design) -> LogicVec {
        let mut word = LogicVec::zeros(design.fuzz_width().max(1));
        let mut lo = 0u32;
        for sig in design.fuzzable_inputs() {
            let w = design.signal(sig).width;
            if let Some(v) = self.value(sig) {
                let v = v.resized(w);
                for i in 0..w {
                    word.set_bit(lo + i, v.bit(i));
                }
            }
            lo += w;
        }
        word
    }
}

/// Invalid reachability request: the caller asked for something the
/// engine cannot even pose as an SMT query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachError {
    /// A target value contains `X` bits — there is no concrete value
    /// to assert.
    XTarget {
        /// Name of the offending target signal.
        signal: String,
    },
    /// A target signal is not a register, so it has no next-state
    /// equation.
    NotARegister {
        /// Name of the offending target signal.
        signal: String,
    },
}

impl std::fmt::Display for ReachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReachError::XTarget { signal } => {
                write!(f, "target value for {signal} contains X bits")
            }
            ReachError::NotARegister { signal } => {
                write!(f, "target {signal} is not a register")
            }
        }
    }
}

impl std::error::Error for ReachError {}

/// Result of a budgeted reachability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachOutcome {
    /// The target is reachable; here is the input sequence.
    Reached(Vec<InputAssignment>),
    /// Proven unreachable within the requested unroll bound.
    Unreachable,
    /// The budget ran out before the query was decided.
    Exhausted {
        /// Which ceiling tripped first.
        reason: UnknownReason,
        /// Work consumed across the whole depth schedule.
        spent: BudgetSpent,
    },
}

impl ReachOutcome {
    /// Maps onto the shared campaign-wide [`SolveStatus`] vocabulary.
    pub fn status(&self) -> SolveStatus {
        match self {
            ReachOutcome::Reached(_) => SolveStatus::Sat,
            ReachOutcome::Unreachable => SolveStatus::Unsat,
            ReachOutcome::Exhausted { reason, .. } => SolveStatus::Unknown(*reason),
        }
    }
}

/// Work receipt for one whole reachability query, aggregated across
/// the geometric depth schedule — the raw material for the per-goal
/// solver profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReachStats {
    /// CDCL work consumed across every exact-depth solve, including
    /// the one that decided the query.
    pub spent: BudgetSpent,
    /// Exact-depth SMT solves issued.
    pub solver_calls: u32,
    /// Deepest unroll attempted (0 if the depth ceiling was 0).
    pub deepest_unroll: u32,
}

/// Cumulative statistics of the engine's frame cache (see
/// [`SymbolicEngine::set_solver_cache`]). All figures are pure
/// functions of the query sequence, so they stay byte-identical at any
/// `--jobs` value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCacheStats {
    /// Unrolled frames reused from a warm session instead of being
    /// re-substituted and re-blasted.
    pub frame_hits: u64,
    /// Frames unrolled and blasted fresh.
    pub frame_misses: u64,
    /// Exact-depth checks issued through the cache.
    pub goals: u64,
    /// Checks answered on a warm solver (learned clauses retained from
    /// an earlier goal on the same frame).
    pub reused_goals: u64,
}

impl SolverCacheStats {
    /// Session-reuse rate in permille: `reused_goals / goals`.
    pub fn reuse_milli(&self) -> u64 {
        (self.reused_goals * 1000)
            .checked_div(self.goals)
            .unwrap_or(0)
    }
}

/// One warm incremental session: an unrolled frame chain over a fixed
/// start state, shared by every goal posed from that state.
#[derive(Debug, Clone)]
struct FrameSession {
    /// Cache key: design fingerprint folded with the start state.
    key: u64,
    /// Whether CDCL tracing is armed (traced and untraced sessions are
    /// cached separately so introspection stays opt-in).
    traced: bool,
    sess: SolverSession,
    /// `states[k]` maps each current-state var to its term after `k`
    /// unroll steps (`states[0]` is the seeded start state).
    states: Vec<HashMap<TermId, TermId>>,
    /// Per-step input symbols, for model extraction.
    step_inputs: Vec<Vec<(SignalId, TermId)>>,
    /// Structural digest per frame (traced sessions only).
    frame_digests: Vec<u64>,
    /// Shared structural-hash memo for digests and sketches.
    hash_memo: HashMap<TermId, u64>,
    /// CNF size at the previous telemetry report, so warm calls record
    /// only the *newly blasted* vars/clauses.
    last_vars: usize,
    last_clauses: usize,
}

/// The engine's term/bitblast cache: one warm session for the current
/// `(design fingerprint, start state, traced)` key, replaced whenever a
/// query arrives from a different start state.
#[derive(Debug, Clone)]
struct FrameCache {
    fingerprint: u64,
    session: Option<FrameSession>,
    stats: SolverCacheStats,
}

fn fnv_fold(d: u64, x: u64) -> u64 {
    (d ^ x).wrapping_mul(0x100_0000_01b3)
}

/// Outcome of one exact-depth budgeted solve (internal).
enum ExactOutcome {
    Sat(Vec<InputAssignment>, BudgetSpent),
    Unsat(BudgetSpent),
    Exhausted {
        reason: UnknownReason,
        spent: BudgetSpent,
    },
}

/// Builds and solves dependency equations for one design.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct SymbolicEngine {
    design: Arc<Design>,
    rtree: ResetTree,
    pool: TermPool,
    /// Canonical next-state term per register.
    eqs: HashMap<SignalId, TermId>,
    /// Input symbol per top-level input (clocks excluded). Ordered
    /// maps: every unroll walks signals in id order, so the formula a
    /// query builds never depends on hash-map iteration order.
    input_vars: BTreeMap<SignalId, TermId>,
    /// Current-state symbol per register.
    cur_vars: BTreeMap<SignalId, TermId>,
    /// Optional telemetry collector (SMT solve events + CDCL counters).
    telemetry: Option<Arc<Collector>>,
    /// Opt-in incremental frame cache (`None` = fresh solver per
    /// exact-depth query, the pre-cache behaviour).
    cache: RefCell<Option<FrameCache>>,
}

impl SymbolicEngine {
    /// Symbolically executes every process of `design` and records one
    /// dependency equation per register.
    pub fn new(design: Arc<Design>) -> SymbolicEngine {
        let rtree = reset_tree(&design);
        let mut pool = TermPool::new();
        let mut store: HashMap<SignalId, TermId> = HashMap::new();
        let mut input_vars = BTreeMap::new();
        let mut cur_vars = BTreeMap::new();

        for sig in design.inputs() {
            let s = design.signal(sig);
            if s.is_clock {
                continue;
            }
            let v = pool.var(format!("in.{}", s.name), s.width);
            store.insert(sig, v);
            input_vars.insert(sig, v);
        }
        for reg in design.registers() {
            let s = design.signal(reg);
            let v = pool.var(format!("cur.{}", s.name), s.width);
            store.insert(reg, v);
            cur_vars.insert(reg, v);
        }

        let mut engine = SymbolicEngine {
            design: Arc::clone(&design),
            rtree,
            pool,
            eqs: HashMap::new(),
            input_vars,
            cur_vars,
            telemetry: None,
            cache: RefCell::new(None),
        };

        // Settle combinational logic symbolically (bounded fixpoint —
        // the terms are hash-consed so stabilisation is cheap to test).
        for _ in 0..design.processes.len() + 2 {
            let mut changed = false;
            for p in &design.processes {
                if !matches!(p.kind, ProcKind::Comb) {
                    continue;
                }
                let mut next = HashMap::new();
                engine.exec_sym(&p.body, &mut store, &mut next);
                // Comb processes should not use NBAs; fold them in anyway.
                for (s, t) in next {
                    if store.get(&s) != Some(&t) {
                        store.insert(s, t);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Sequential processes: next-state equations.
        let mut eqs: HashMap<SignalId, TermId> = HashMap::new();
        for p in &design.processes {
            if !matches!(p.kind, ProcKind::Seq { .. }) {
                continue;
            }
            let mut local = store.clone();
            let mut next: HashMap<SignalId, TermId> = HashMap::new();
            engine.exec_sym(&p.body, &mut local, &mut next);
            for (reg, term) in next {
                eqs.insert(reg, term);
            }
        }
        // Registers never assigned a next value hold their current value.
        for reg in design.registers() {
            eqs.entry(reg).or_insert_with(|| engine.cur_vars[&reg]);
        }
        engine.eqs = eqs;
        engine
    }

    /// The design this engine analyses.
    pub fn design(&self) -> &Arc<Design> {
        &self.design
    }

    /// Attaches (or detaches) a telemetry collector. Each exact-depth
    /// SMT query then records an [`Event::SmtSolve`] with the blasted
    /// CNF size and outcome, plus CDCL work counters.
    pub fn set_collector(&mut self, telemetry: Option<Arc<Collector>>) {
        self.telemetry = telemetry;
    }

    /// Arms (or disarms) the incremental frame cache.
    ///
    /// When armed, exact-depth queries run on one warm
    /// [`SolverSession`] keyed by `(design fingerprint, start state)`:
    /// the unrolled transition relation is substituted and bit-blasted
    /// once per frame, goals sharing a start state reuse it as
    /// assumption checks, and learned clauses carry across sibling
    /// goals. A query from another start state replaces the session.
    ///
    /// Verdicts (Sat / Unsat / Unknown-reason) match the fresh-solver
    /// path exactly for unlimited budgets and for the unroll-depth and
    /// conflicts-0 ceilings; only the *work to reach them* changes.
    /// Disarmed (the default), every query builds a fresh solver.
    pub fn set_solver_cache(&mut self, armed: bool) {
        *self.cache.borrow_mut() = armed.then(|| FrameCache {
            fingerprint: self.design_fingerprint(),
            session: None,
            stats: SolverCacheStats::default(),
        });
    }

    /// Cumulative cache statistics (zeros when the cache is disarmed).
    pub fn cache_stats(&self) -> SolverCacheStats {
        self.cache
            .borrow()
            .as_ref()
            .map(|c| c.stats)
            .unwrap_or_default()
    }

    /// A structural digest of the design's dependency equations: the
    /// design half of the frame-cache key. Two engines over the same
    /// elaborated design agree; any change to an equation changes it.
    pub fn design_fingerprint(&self) -> u64 {
        let mut memo = HashMap::new();
        let mut regs: Vec<SignalId> = self.eqs.keys().copied().collect();
        regs.sort_unstable();
        let mut d = 0xcbf2_9ce4_8422_2325u64;
        for reg in regs {
            for b in self.design.signal(reg).name.bytes() {
                d = fnv_fold(d, u64::from(b));
            }
            d = fnv_fold(d, self.pool.structural_hash(self.eqs[&reg], &mut memo));
        }
        d
    }

    /// The state half of the frame-cache key: a digest of every
    /// register's concrete (or partially-X) value, folded over the
    /// design fingerprint in sorted-register order.
    fn state_key(&self, fingerprint: u64, current: &[LogicVec]) -> u64 {
        let mut d = fingerprint;
        for &reg in self.cur_vars.keys() {
            let v = &current[reg.index()];
            d = fnv_fold(d, reg.index() as u64);
            for i in 0..v.width() {
                let b = v.bit(i);
                let code = if b.is_unknown() {
                    3
                } else if b == Bit::One {
                    2
                } else {
                    1
                };
                d = fnv_fold(d, code);
            }
        }
        d
    }

    /// The dependency equation (next-state term) for a register.
    pub fn equation(&self, reg: SignalId) -> Option<TermId> {
        self.eqs.get(&reg).copied()
    }

    /// Number of dependency equations generated (Table 3 column).
    pub fn num_equations(&self) -> usize {
        self.eqs.len()
    }

    /// The term pool (for rendering/diagnostics).
    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// Solves for inputs that drive `targets` (register, value) pairs on
    /// the *next* clock edge, starting from the concrete state in
    /// `current` (the simulator's full value table). Returns `None` if
    /// the SMT query is unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a target value contains `X` bits or a target is not a
    /// register.
    pub fn solve_step(
        &self,
        current: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
    ) -> Option<InputAssignment> {
        self.solve_reach(current, targets, 1).map(|mut seq| {
            debug_assert_eq!(seq.len(), 1);
            seq.pop().unwrap()
        })
    }

    /// Unrolls the dependency equations up to `max_steps` cycles and
    /// returns the shortest input sequence that reaches `targets`, if
    /// one exists within the bound.
    ///
    /// # Panics
    ///
    /// Panics if a target value contains `X` bits or a target is not a
    /// register.
    pub fn solve_reach(
        &self,
        current: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
        max_steps: u32,
    ) -> Option<Vec<InputAssignment>> {
        match self.solve_reach_budgeted(current, targets, max_steps, &Budget::unlimited()) {
            Ok(ReachOutcome::Reached(seq)) => Some(seq),
            Ok(ReachOutcome::Unreachable) => None,
            Ok(ReachOutcome::Exhausted { .. }) => {
                unreachable!("an unlimited budget cannot be exhausted")
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Budget-aware variant of [`solve_reach`](Self::solve_reach):
    /// never panics and never runs away. Invalid requests surface as
    /// [`ReachError`]; an exhausted [`Budget`] yields
    /// [`ReachOutcome::Exhausted`] with the tripped ceiling and the
    /// work spent across the whole depth schedule.
    ///
    /// One budget covers the *entire* query: counter ceilings
    /// (conflicts, decisions, propagations) deplete across the
    /// geometric depth schedule's exact-depth solves, the term-node
    /// ceiling bounds the working pool during each unroll, and the
    /// unroll-depth ceiling truncates `max_steps` (reporting
    /// `Exhausted` rather than `Unreachable` if nothing was found
    /// within the truncated bound).
    pub fn solve_reach_budgeted(
        &self,
        current: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
        max_steps: u32,
        budget: &Budget,
    ) -> Result<ReachOutcome, ReachError> {
        self.solve_reach_profiled(current, targets, max_steps, budget)
            .map(|(outcome, _)| outcome)
    }

    /// [`solve_reach_budgeted`](Self::solve_reach_budgeted) plus a
    /// [`ReachStats`] work receipt, accumulated on every path — Sat
    /// included, unlike the spend carried inside
    /// [`ReachOutcome::Exhausted`]. This is the entry point the
    /// per-goal solver profiler uses; the plain budgeted variant is a
    /// thin wrapper, so the two always solve identically.
    pub fn solve_reach_profiled(
        &self,
        current: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
        max_steps: u32,
        budget: &Budget,
    ) -> Result<(ReachOutcome, ReachStats), ReachError> {
        self.solve_reach_inner(current, targets, max_steps, budget, None)
    }

    /// [`solve_reach_profiled`](Self::solve_reach_profiled) plus a
    /// [`GoalScope`] introspection record: merged CDCL trace, hot
    /// signals, structural sketch, and — for `Unreachable`/`Exhausted`
    /// outcomes — a blame set of state registers (assumption-core-lite
    /// under `BLAME_CONFLICT_CAP` conflicts per probe, falling back
    /// to the hottest signals when the core query is itself undecided).
    ///
    /// Tracing changes nothing about the search, so the outcome and
    /// stats match the uninstrumented path exactly; the extra blame
    /// query runs on a separate solver and spends none of `budget`.
    pub fn solve_reach_introspected(
        &self,
        current: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
        max_steps: u32,
        budget: &Budget,
    ) -> Result<(ReachOutcome, ReachStats, GoalScope), ReachError> {
        let mut scope = GoalScope::new();
        let (outcome, stats) =
            self.solve_reach_inner(current, targets, max_steps, budget, Some(&mut scope))?;
        if !matches!(outcome, ReachOutcome::Reached(_)) {
            let depth = stats.deepest_unroll.max(1);
            if let Some(core) = self.blame_targets(current, targets, depth, budget) {
                scope.blame = core;
                scope.blame_is_core = true;
                if let Some(t) = &self.telemetry {
                    t.add(Counter::CoreExtractions, 1);
                }
            }
            if scope.blame.is_empty() {
                // Core extraction was undecided (or vacuous): blame the
                // hottest signals so exhausted goals still point at
                // *something* actionable.
                scope.blame = scope.hot_signals.iter().map(|(n, _)| n.clone()).collect();
                scope.blame.sort();
                scope.blame.dedup();
            }
        }
        Ok((outcome, stats, scope))
    }

    fn solve_reach_inner(
        &self,
        current: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
        max_steps: u32,
        budget: &Budget,
        mut scope: Option<&mut GoalScope>,
    ) -> Result<(ReachOutcome, ReachStats), ReachError> {
        for t in targets {
            let s = self.design.signal(t.0);
            if t.1.has_unknown() {
                return Err(ReachError::XTarget {
                    signal: s.name.clone(),
                });
            }
            if !s.is_register {
                return Err(ReachError::NotARegister {
                    signal: s.name.clone(),
                });
            }
        }
        let mut stats = ReachStats::default();
        let bound = budget
            .unroll_depth()
            .map_or(max_steps, |c| max_steps.min(c));
        let truncated = bound < max_steps;
        if bound == 0 {
            return Ok((
                ReachOutcome::Exhausted {
                    reason: UnknownReason::UnrollDepth,
                    spent: BudgetSpent::default(),
                },
                stats,
            ));
        }
        // Geometric depth schedule: deep plans pad with idle cycles, so
        // exact-k solving at 1, 2, 4, … plus the bound itself finds any
        // plan within the bound at a fraction of the solver calls.
        let mut spent_total = BudgetSpent::default();
        let mut k = 1;
        loop {
            let steps = k.min(bound);
            stats.solver_calls += 1;
            stats.deepest_unroll = stats.deepest_unroll.max(steps);
            let remaining = budget.remaining_after(spent_total);
            match self.solve_exact_budgeted(
                current,
                targets,
                steps,
                &remaining,
                scope.as_deref_mut(),
            ) {
                ExactOutcome::Sat(seq, spent) => {
                    stats.spent = spent_total.saturating_add(spent);
                    return Ok((ReachOutcome::Reached(seq), stats));
                }
                ExactOutcome::Unsat(spent) => spent_total = spent_total.saturating_add(spent),
                ExactOutcome::Exhausted { reason, spent } => {
                    let spent = spent_total.saturating_add(spent);
                    stats.spent = spent;
                    return Ok((ReachOutcome::Exhausted { reason, spent }, stats));
                }
            }
            if steps == bound {
                break;
            }
            k *= 2;
        }
        stats.spent = spent_total;
        if truncated {
            Ok((
                ReachOutcome::Exhausted {
                    reason: UnknownReason::UnrollDepth,
                    spent: spent_total,
                },
                stats,
            ))
        } else {
            Ok((ReachOutcome::Unreachable, stats))
        }
    }

    /// Seeds the step-0 state of an unroll in `pool`: each register's
    /// current-state symbol maps to a constant where its value is fully
    /// defined, else to a fresh `x0.*` symbol left free except for its
    /// defined bits, whose pins come back for the caller to assert.
    /// Registers are visited in signal order, so the terms and the pin
    /// order are a pure function of `current`.
    fn seed_start_state(
        &self,
        pool: &mut TermPool,
        current: &[LogicVec],
    ) -> (HashMap<TermId, TermId>, Vec<TermId>) {
        let mut state = HashMap::new();
        let mut pins = Vec::new();
        for (&reg, &var) in &self.cur_vars {
            let v = &current[reg.index()];
            if !v.has_unknown() {
                state.insert(var, pool.constant(v.clone()));
                continue;
            }
            let fresh = pool.var(format!("x0.{}", self.design.signal(reg).name), v.width());
            for i in 0..v.width() {
                let b = v.bit(i);
                if !b.is_unknown() {
                    let bitterm = pool.extract(fresh, i, 1);
                    let cb = pool.const_u64(1, (b == Bit::One) as u64);
                    pins.push(pool.eq(bitterm, cb));
                }
            }
            state.insert(var, fresh);
        }
        (state, pins)
    }

    fn solve_exact_budgeted(
        &self,
        current: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
        steps: u32,
        budget: &Budget,
        scope: Option<&mut GoalScope>,
    ) -> ExactOutcome {
        if self.cache.borrow().is_some() {
            return self.solve_exact_cached(current, targets, steps, budget, scope);
        }
        let node_cap = budget.term_nodes();
        let over_cap = |pool: &TermPool| node_cap.is_some_and(|cap| pool.len() > cap);
        let mut pool = self.pool.clone();
        let mut blaster = BitBlaster::new();
        if scope.is_some() {
            blaster.solver_mut().enable_trace();
        }
        // Introspection-only bookkeeping (empty/no-op when `scope` is
        // off): per-frame structural digests plus a shared hash memo
        // reused for the final subterm sketch.
        let mut frame_digests: Vec<u64> = Vec::new();
        let mut hash_memo: HashMap<TermId, u64> = HashMap::new();

        let (mut state, pins) = self.seed_start_state(&mut pool, current);
        for pin in pins {
            blaster.assert_true(&pool, pin);
        }

        if over_cap(&pool) {
            return ExactOutcome::Exhausted {
                reason: UnknownReason::TermNodes,
                spent: BudgetSpent::default(),
            };
        }

        // Per-step input variables; resets pinned inactive.
        let mut step_inputs: Vec<Vec<(SignalId, TermId)>> = Vec::new();
        for t in 0..steps {
            let mut subst_map = state.clone();
            let mut these = Vec::new();
            for (&sig, &var) in &self.input_vars {
                let s = self.design.signal(sig);
                let fresh = pool.var(format!("in@{t}.{}", s.name), s.width);
                subst_map.insert(var, fresh);
                these.push((sig, fresh));
                if s.is_reset {
                    let inactive = self.reset_inactive_level(sig);
                    let c = pool.const_u64(s.width, inactive);
                    let eqt = pool.eq(fresh, c);
                    blaster.assert_true(&pool, eqt);
                }
            }
            // next state = eqs substituted with current state + inputs.
            let mut memo = HashMap::new();
            let mut new_state = HashMap::new();
            for (&reg, &var) in &self.cur_vars {
                let eq = self.eqs[&reg];
                let substituted = subst(&mut pool, eq, &subst_map, &mut memo);
                new_state.insert(var, substituted);
            }
            state = new_state;
            step_inputs.push(these);
            if scope.is_some() {
                let mut hs: Vec<u64> = state
                    .values()
                    .map(|&t| pool.structural_hash(t, &mut hash_memo))
                    .collect();
                hs.sort_unstable();
                let mut d = 0xcbf2_9ce4_8422_2325u64;
                for h in hs {
                    d = (d ^ h).wrapping_mul(0x100_0000_01b3);
                }
                frame_digests.push(d);
            }
            // The working pool grows monotonically with depth; stop
            // before blasting a formula the budget says is too big.
            if over_cap(&pool) {
                return ExactOutcome::Exhausted {
                    reason: UnknownReason::TermNodes,
                    spent: BudgetSpent::default(),
                };
            }
        }

        // Assert the targets on the final state.
        for (reg, value) in targets {
            let var = self.cur_vars[reg];
            let term = state[&var];
            let c = pool.constant(value.clone());
            let eqt = pool.eq(term, c);
            blaster.assert_true(&pool, eqt);
        }

        let t0 = self.telemetry.as_ref().map(|t| t.now_micros());
        let result = blaster.solver_mut().solve_budgeted(&[], budget);
        // The blaster's solver is fresh, so its counters are exactly
        // this call's spend.
        let spent = {
            let solver = blaster.solver();
            BudgetSpent {
                conflicts: solver.conflicts(),
                decisions: solver.decisions(),
                propagations: solver.propagations(),
            }
        };
        if let (Some(t), Some(t0)) = (&self.telemetry, t0) {
            let stats = blaster.stats();
            let solver = blaster.solver();
            t.add(Counter::SolverCalls, 1);
            t.add(Counter::SatVars, stats.num_vars as u64);
            t.add(Counter::SatClauses, stats.num_clauses as u64);
            t.add(Counter::SatDecisions, solver.decisions());
            t.add(Counter::SatConflicts, solver.conflicts());
            t.record(Event::SmtSolve {
                vars: stats.num_vars as u64,
                clauses: stats.num_clauses as u64,
                sat: matches!(result, SatResult::Sat(_)),
                micros: t.now_micros().saturating_sub(t0),
            });
        }
        if let Some(scope) = scope {
            if let Some(trace) = blaster.solver_mut().take_trace(HOT_SIGNALS_K * 4) {
                let vars: Vec<u32> = trace.hot_vars.iter().map(|(v, _)| *v).collect();
                let mut named: Vec<(String, u64)> = Vec::new();
                for (v, t, _bit) in blaster.attribute_vars(&vars) {
                    if let TermKind::Var(name, _) = pool.kind(t) {
                        if let Some(sig) = signal_of_term_name(name) {
                            let permille = trace
                                .hot_vars
                                .iter()
                                .find(|(hv, _)| *hv == v)
                                .map_or(0, |(_, p)| *p);
                            named.push((sig.to_string(), permille));
                        }
                    }
                }
                scope.note_hot_signals(&named);
                scope.note_call(&trace);
            }
            let mut roots: Vec<TermId> = state.values().copied().collect();
            roots.sort_unstable();
            let mut digests = pool.subterm_digests(&roots, &mut hash_memo);
            digests.truncate(SKETCH_K);
            scope.note_structure(steps, digests, frame_digests);
        }
        match result {
            SatResult::Unsat => ExactOutcome::Unsat(spent),
            SatResult::Unknown { reason, spent } => ExactOutcome::Exhausted { reason, spent },
            SatResult::Sat(raw) => {
                let mut out = Vec::new();
                for these in &step_inputs {
                    let mut values = Vec::new();
                    for (sig, var) in these {
                        let s = self.design.signal(*sig);
                        if s.is_reset || s.is_clock {
                            continue;
                        }
                        let mut v = LogicVec::zeros(s.width);
                        if let Some(lits) = blaster.lits_of(*var) {
                            for (i, l) in lits.iter().enumerate() {
                                let b = raw[l.var() as usize] == l.is_pos();
                                v.set_bit(i as u32, Bit::from_bool(b));
                            }
                        }
                        values.push((*sig, v));
                    }
                    values.sort_by_key(|(s, _)| *s);
                    out.push(InputAssignment { values });
                }
                ExactOutcome::Sat(out, spent)
            }
        }
    }

    /// The warm-session variant of
    /// [`solve_exact_budgeted`](Self::solve_exact_budgeted): looks up
    /// (or seeds) the [`FrameSession`] for the current start state,
    /// extends its frame chain to `steps` if needed, and poses the
    /// targets as an assumption check on the shared solver. Iteration
    /// is in sorted signal order throughout, so the session's CNF is a
    /// pure function of the query sequence.
    fn solve_exact_cached(
        &self,
        current: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
        steps: u32,
        budget: &Budget,
        scope: Option<&mut GoalScope>,
    ) -> ExactOutcome {
        let node_cap = budget.term_nodes();
        let traced = scope.is_some();
        let mut borrow = self.cache.borrow_mut();
        let cache = borrow
            .as_mut()
            .expect("cached path requires an armed cache");
        let key = self.state_key(cache.fingerprint, current);
        let FrameCache { session, stats, .. } = cache;

        let fs = match session {
            Some(fs) if fs.key == key && fs.traced == traced => fs,
            _ => {
                // Miss: seed a fresh session at step 0, replacing the
                // previous one; the X-bit pins become permanent
                // assertions.
                let mut sess = SolverSession::from_pool(self.pool.clone());
                if traced {
                    sess.enable_trace();
                }
                let (state0, pins) = self.seed_start_state(sess.pool_mut(), current);
                for pin in pins {
                    sess.assert_term(pin);
                }
                session.insert(FrameSession {
                    key,
                    traced,
                    sess,
                    states: vec![state0],
                    step_inputs: Vec::new(),
                    frame_digests: Vec::new(),
                    hash_memo: HashMap::new(),
                    last_vars: 0,
                    last_clauses: 0,
                })
            }
        };
        let warm = fs.sess.goals_checked() > 0;

        let over_cap = |pool: &TermPool| node_cap.is_some_and(|cap| pool.len() > cap);
        if over_cap(fs.sess.pool()) {
            return ExactOutcome::Exhausted {
                reason: UnknownReason::TermNodes,
                spent: BudgetSpent::default(),
            };
        }

        // Frame accounting: frames 1..=steps are needed; whatever the
        // session already unrolled is a hit, the rest are misses.
        let have = (fs.states.len() - 1) as u32;
        let hits = u64::from(have.min(steps));
        let misses = u64::from(steps - have.min(steps));
        stats.frame_hits += hits;
        stats.frame_misses += misses;
        stats.goals += 1;
        stats.reused_goals += u64::from(warm);

        while (fs.states.len() as u32) <= steps {
            let t = fs.states.len() as u32 - 1;
            let mut subst_map = fs.states.last().unwrap().clone();
            let mut these = Vec::new();
            for (&sig, &var) in &self.input_vars {
                let s = self.design.signal(sig);
                let fresh = fs
                    .sess
                    .pool_mut()
                    .var(format!("in@{t}.{}", s.name), s.width);
                subst_map.insert(var, fresh);
                these.push((sig, fresh));
                if s.is_reset {
                    let inactive = self.reset_inactive_level(sig);
                    let p = fs.sess.pool_mut();
                    let c = p.const_u64(s.width, inactive);
                    let eqt = p.eq(fresh, c);
                    fs.sess.assert_term(eqt);
                }
            }
            let mut memo = HashMap::new();
            let mut new_state = HashMap::new();
            for (&reg, &var) in &self.cur_vars {
                let substituted = subst(fs.sess.pool_mut(), self.eqs[&reg], &subst_map, &mut memo);
                new_state.insert(var, substituted);
            }
            if traced {
                let mut hs: Vec<u64> = new_state
                    .values()
                    .map(|&t| fs.sess.pool().structural_hash(t, &mut fs.hash_memo))
                    .collect();
                hs.sort_unstable();
                let mut d = 0xcbf2_9ce4_8422_2325u64;
                for h in hs {
                    d = fnv_fold(d, h);
                }
                fs.frame_digests.push(d);
            }
            fs.states.push(new_state);
            fs.step_inputs.push(these);
            if over_cap(fs.sess.pool()) {
                return ExactOutcome::Exhausted {
                    reason: UnknownReason::TermNodes,
                    spent: BudgetSpent::default(),
                };
            }
        }

        // Targets on the state after `steps` cycles, as assumptions.
        let mut target_terms = Vec::new();
        for (reg, value) in targets {
            let var = self.cur_vars[reg];
            let term = fs.states[steps as usize][&var];
            let p = fs.sess.pool_mut();
            let c = p.constant(value.clone());
            target_terms.push(p.eq(term, c));
        }

        let t0 = self.telemetry.as_ref().map(|t| t.now_micros());
        let (result, spent) = fs.sess.check_assuming(&target_terms, budget);
        if let (Some(tel), Some(t0)) = (&self.telemetry, t0) {
            let cnf = fs.sess.cnf_stats();
            let (dv, dc) = (
                cnf.num_vars - fs.last_vars,
                cnf.num_clauses - fs.last_clauses,
            );
            fs.last_vars = cnf.num_vars;
            fs.last_clauses = cnf.num_clauses;
            tel.add(Counter::SolverCalls, 1);
            tel.add(Counter::SatVars, dv as u64);
            tel.add(Counter::SatClauses, dc as u64);
            tel.add(Counter::SatDecisions, spent.decisions);
            tel.add(Counter::SatConflicts, spent.conflicts);
            tel.add(Counter::BitblastCacheHits, hits);
            tel.add(Counter::BitblastCacheMisses, misses);
            tel.set_gauge(Gauge::SolverSessionReuse, stats.reuse_milli());
            tel.record(Event::SmtSolve {
                vars: dv as u64,
                clauses: dc as u64,
                sat: matches!(result, SatResult::Sat(_)),
                micros: tel.now_micros().saturating_sub(t0),
            });
        }
        if let Some(scope) = scope {
            if let Some(trace) = fs.sess.take_trace(HOT_SIGNALS_K * 4) {
                let vars: Vec<u32> = trace.hot_vars.iter().map(|(v, _)| *v).collect();
                let mut named: Vec<(String, u64)> = Vec::new();
                for (v, t, _bit) in fs.sess.blaster().attribute_vars(&vars) {
                    if let TermKind::Var(name, _) = fs.sess.pool().kind(t) {
                        if let Some(sig) = signal_of_term_name(name) {
                            let permille = trace
                                .hot_vars
                                .iter()
                                .find(|(hv, _)| *hv == v)
                                .map_or(0, |(_, p)| *p);
                            named.push((sig.to_string(), permille));
                        }
                    }
                }
                scope.note_hot_signals(&named);
                scope.note_call(&trace);
            }
            let mut roots: Vec<TermId> = fs.states[steps as usize].values().copied().collect();
            roots.sort_unstable();
            let mut digests = fs.sess.pool().subterm_digests(&roots, &mut fs.hash_memo);
            digests.truncate(SKETCH_K);
            scope.note_structure(steps, digests, fs.frame_digests[..steps as usize].to_vec());
        }

        match result {
            SatResult::Unsat => ExactOutcome::Unsat(spent),
            SatResult::Unknown { reason, .. } => ExactOutcome::Exhausted { reason, spent },
            SatResult::Sat(raw) => {
                let mut out = Vec::new();
                for these in &fs.step_inputs[..steps as usize] {
                    let mut values = Vec::new();
                    for (sig, var) in these {
                        let s = self.design.signal(*sig);
                        if s.is_reset || s.is_clock {
                            continue;
                        }
                        let mut v = LogicVec::zeros(s.width);
                        if let Some(lits) = fs.sess.blaster().lits_of(*var) {
                            for (i, l) in lits.iter().enumerate() {
                                let b = raw[l.var() as usize] == l.is_pos();
                                v.set_bit(i as u32, Bit::from_bool(b));
                            }
                        }
                        values.push((*sig, v));
                    }
                    values.sort_by_key(|(s, _)| *s);
                    out.push(InputAssignment { values });
                }
                ExactOutcome::Sat(out, spent)
            }
        }
    }

    /// Attempts to attribute an `Unreachable`/`Exhausted` outcome to a
    /// set of state registers: re-poses the exact-depth query with up
    /// to [`BLAME_MAX_ASSUMPTIONS`] fully-defined registers bound via
    /// *assumptions* rather than assertions, then greedily minimizes
    /// the assumption set while the query stays Unsat.
    ///
    /// Returns `None` when the blame query is satisfiable (the target
    /// only fails at other depths), undecided within
    /// [`BLAME_CONFLICT_CAP`] conflicts, or too large to rebuild under
    /// the budget's term-node ceiling. Candidate registers are taken in
    /// name order and the core preserves that order, so the result is
    /// deterministic.
    fn blame_targets(
        &self,
        current: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
        steps: u32,
        budget: &Budget,
    ) -> Option<Vec<String>> {
        let node_cap = budget.term_nodes();
        let over_cap = |pool: &TermPool| node_cap.is_some_and(|cap| pool.len() > cap);
        let mut pool = self.pool.clone();
        let mut blaster = BitBlaster::new();

        // State at step 0: candidate registers get a fresh symbol plus
        // an assumption literal pinning it to its concrete value; the
        // rest are seeded exactly as the plain exact solve does.
        let mut regs: Vec<(SignalId, TermId)> =
            self.cur_vars.iter().map(|(&r, &v)| (r, v)).collect();
        regs.sort_by(|a, b| {
            self.design
                .signal(a.0)
                .name
                .cmp(&self.design.signal(b.0).name)
        });
        let mut state: HashMap<TermId, TermId> = HashMap::new();
        let mut assumptions: Vec<(String, Lit)> = Vec::new();
        for (reg, var) in regs {
            let v = &current[reg.index()];
            let name = self.design.signal(reg).name.clone();
            if !v.has_unknown() && assumptions.len() < BLAME_MAX_ASSUMPTIONS {
                let fresh = pool.var(format!("x0.{name}"), v.width());
                let c = pool.constant(v.clone());
                let eqt = pool.eq(fresh, c);
                let lit = blaster.lits(&pool, eqt)[0];
                assumptions.push((name, lit));
                state.insert(var, fresh);
            } else if !v.has_unknown() {
                let c = pool.constant(v.clone());
                state.insert(var, c);
            } else {
                let fresh = pool.var(format!("x0.{name}"), v.width());
                for i in 0..v.width() {
                    let b = v.bit(i);
                    if !b.is_unknown() {
                        let bitterm = pool.extract(fresh, i, 1);
                        let cb = pool.const_u64(1, (b == Bit::One) as u64);
                        let eqt = pool.eq(bitterm, cb);
                        blaster.assert_true(&pool, eqt);
                    }
                }
                state.insert(var, fresh);
            }
        }
        if assumptions.is_empty() {
            return None;
        }

        // Unroll to the requested depth, resets pinned inactive.
        for t in 0..steps {
            let mut subst_map = state.clone();
            for (&sig, &var) in &self.input_vars {
                let s = self.design.signal(sig);
                let fresh = pool.var(format!("in@{t}.{}", s.name), s.width);
                subst_map.insert(var, fresh);
                if s.is_reset {
                    let inactive = self.reset_inactive_level(sig);
                    let c = pool.const_u64(s.width, inactive);
                    let eqt = pool.eq(fresh, c);
                    blaster.assert_true(&pool, eqt);
                }
            }
            let mut memo = HashMap::new();
            let mut new_state = HashMap::new();
            for (&reg, &var) in &self.cur_vars {
                let substituted = subst(&mut pool, self.eqs[&reg], &subst_map, &mut memo);
                new_state.insert(var, substituted);
            }
            state = new_state;
            if over_cap(&pool) {
                return None;
            }
        }
        for (reg, value) in targets {
            let var = self.cur_vars[reg];
            let term = state[&var];
            let c = pool.constant(value.clone());
            let eqt = pool.eq(term, c);
            blaster.assert_true(&pool, eqt);
        }

        let probe_budget = Budget::unlimited().with_conflicts(BLAME_CONFLICT_CAP);
        let lits: Vec<Lit> = assumptions.iter().map(|(_, l)| *l).collect();
        match blaster.solver_mut().solve_budgeted(&lits, &probe_budget) {
            SatResult::Unsat => {}
            SatResult::Sat(_) | SatResult::Unknown { .. } => return None,
        }
        // Greedy drop-one minimization: remove an assumption whenever
        // the rest stay Unsat. Probes that come back Sat or undecided
        // keep their assumption, so the result over-approximates a
        // minimal core but never under-blames.
        let mut i = 0;
        while assumptions.len() > 1 && i < assumptions.len() {
            let probe: Vec<Lit> = assumptions
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, (_, l))| *l)
                .collect();
            match blaster.solver_mut().solve_budgeted(&probe, &probe_budget) {
                SatResult::Unsat => {
                    assumptions.remove(i);
                }
                SatResult::Sat(_) | SatResult::Unknown { .. } => i += 1,
            }
        }
        Some(assumptions.into_iter().map(|(n, _)| n).collect())
    }

    fn reset_inactive_level(&self, sig: SignalId) -> u64 {
        for d in &self.rtree.domains {
            if d.reset == sig {
                return match d.active {
                    Edge::Neg => 1, // active low: inactive = 1
                    Edge::Pos => 0,
                };
            }
        }
        1
    }

    // ---- symbolic statement execution ------------------------------------

    fn exec_sym(
        &mut self,
        stmt: &NStmt,
        store: &mut HashMap<SignalId, TermId>,
        next: &mut HashMap<SignalId, TermId>,
    ) {
        match stmt {
            NStmt::Block(stmts) => {
                for s in stmts {
                    self.exec_sym(s, store, next);
                }
            }
            NStmt::If {
                cond, then, els, ..
            } => {
                let c = self.cond_bit(cond, store);
                let (mut s_then, mut n_then) = (store.clone(), next.clone());
                self.exec_sym(then, &mut s_then, &mut n_then);
                let (mut s_els, mut n_els) = (store.clone(), next.clone());
                if let Some(e) = els {
                    self.exec_sym(e, &mut s_els, &mut n_els);
                }
                self.merge(c, store, s_then, s_els);
                self.merge(c, next, n_then, n_els);
            }
            NStmt::Case {
                subject,
                arms,
                default,
                ..
            } => {
                // Desugar into a cascade of if-else on label equality.
                let subj = self.eval_sym(subject, store);
                let mut conds = Vec::new();
                for (labels, _) in arms {
                    let mut arm_cond = self.pool.fls();
                    for l in labels {
                        let lv = self.eval_sym(l, store);
                        let e = self.pool.eq(subj, lv);
                        arm_cond = self.pool.or(arm_cond, e);
                    }
                    conds.push(arm_cond);
                }
                // Evaluate from the last arm (default) backwards.
                let (mut s_acc, mut n_acc) = (store.clone(), next.clone());
                if let Some(d) = default {
                    self.exec_sym(d, &mut s_acc, &mut n_acc);
                }
                for i in (0..arms.len()).rev() {
                    let (mut s_arm, mut n_arm) = (store.clone(), next.clone());
                    self.exec_sym(&arms[i].1, &mut s_arm, &mut n_arm);
                    let c = conds[i];
                    // Earlier labels take priority, so fold outermost last.
                    let mut s_new = store.clone();
                    let mut n_new = next.clone();
                    self.merge(c, &mut s_new, s_arm, s_acc.clone());
                    self.merge(c, &mut n_new, n_arm, n_acc.clone());
                    s_acc = s_new;
                    n_acc = n_new;
                }
                *store = s_acc;
                *next = n_acc;
            }
            NStmt::Assign { lhs, rhs, blocking } => {
                let value = self.eval_sym(rhs, store);
                let sig = lhs.sig();
                let w = self.design.signal(sig).width;
                // The old value a partial write splices against: the
                // pending next value (NBA), else the current store value,
                // else the register's held value / a floating symbol.
                let old = if *blocking {
                    store.get(&sig).copied()
                } else {
                    next.get(&sig).copied().or_else(|| store.get(&sig).copied())
                }
                .unwrap_or_else(|| self.default_term(sig));
                let new = match lhs {
                    NLValue::Full(_) => self.pool.resize(value, w),
                    NLValue::Part { lo, width, .. } => self.splice(old, *lo, *width, value, w),
                    NLValue::DynBit { index, .. } => {
                        let idx = self.eval_sym(index, store);
                        let one = self.pool.const_u64(w, 1);
                        let mask = self.pool.shl(one, idx);
                        let nmask = self.pool.not(mask);
                        let vbit = self.pool.resize(value, w);
                        let shifted = self.pool.shl(vbit, idx);
                        let kept = self.pool.and(old, nmask);
                        let set = self.pool.and(shifted, mask);
                        self.pool.or(kept, set)
                    }
                };
                let target = if *blocking { store } else { next };
                target.insert(sig, new);
            }
            NStmt::Nop => {}
        }
    }

    fn splice(&mut self, old: TermId, lo: u32, width: u32, value: TermId, total: u32) -> TermId {
        let val = self.pool.resize(value, width);
        let mut parts: Vec<TermId> = Vec::new(); // most significant first
        if lo + width < total {
            parts.push(self.pool.extract(old, lo + width, total - lo - width));
        }
        parts.push(val);
        if lo > 0 {
            parts.push(self.pool.extract(old, 0, lo));
        }
        let mut it = parts.into_iter();
        let first = it.next().unwrap();
        it.fold(first, |acc, p| self.pool.concat(acc, p))
    }

    fn merge(
        &mut self,
        cond: TermId,
        base: &mut HashMap<SignalId, TermId>,
        then_map: HashMap<SignalId, TermId>,
        els_map: HashMap<SignalId, TermId>,
    ) {
        let mut keys: Vec<SignalId> = then_map.keys().chain(els_map.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        for k in keys {
            let fallback = base
                .get(&k)
                .copied()
                .unwrap_or_else(|| self.default_term(k));
            let t = then_map.get(&k).copied().unwrap_or(fallback);
            let e = els_map.get(&k).copied().unwrap_or(fallback);
            let v = if t == e { t } else { self.pool.ite(cond, t, e) };
            base.insert(k, v);
        }
    }

    /// The value a signal holds when read before any symbolic write:
    /// registers hold their current-state symbol; anything else becomes
    /// a floating symbol the solver may choose freely.
    fn default_term(&mut self, sig: SignalId) -> TermId {
        if let Some(v) = self.cur_vars.get(&sig) {
            return *v;
        }
        let s = self.design.signal(sig);
        self.pool.var(format!("float.{}", s.name), s.width)
    }

    fn cond_bit(&mut self, e: &NExpr, store: &HashMap<SignalId, TermId>) -> TermId {
        let t = self.eval_sym(e, store);
        self.pool.red_or(t)
    }

    fn sig_term(&mut self, sig: SignalId, store: &HashMap<SignalId, TermId>) -> TermId {
        if let Some(t) = store.get(&sig) {
            return *t;
        }
        // An output/wire read before any driver ran this pass, or a
        // genuinely undriven signal: model as an unconstrained symbol.
        let s = self.design.signal(sig);
        if s.kind == SignalKind::Input || s.is_register {
            // Should have been pre-seeded; fall back to a var.
        }
        self.pool.var(format!("float.{}", s.name), s.width)
    }

    fn eval_sym(&mut self, e: &NExpr, store: &HashMap<SignalId, TermId>) -> TermId {
        match e {
            NExpr::Const(v) => {
                if v.has_unknown() {
                    // X/Z literals become free choices for the solver.
                    let n = self.pool.len();
                    self.pool.var(format!("xlit.{n}"), v.width())
                } else {
                    self.pool.constant(v.clone())
                }
            }
            NExpr::Sig(s) => self.sig_term(*s, store),
            NExpr::Unary { op, operand, width } => {
                let x = self.eval_sym(operand, store);
                let t = match op {
                    UnaryOp::LogNot => {
                        let r = self.pool.red_or(x);
                        self.pool.not(r)
                    }
                    UnaryOp::BitNot => self.pool.not(x),
                    UnaryOp::RedAnd => self.pool.red_and(x),
                    UnaryOp::RedOr => self.pool.red_or(x),
                    UnaryOp::RedXor => self.pool.red_xor(x),
                    UnaryOp::RedNand => {
                        let r = self.pool.red_and(x);
                        self.pool.not(r)
                    }
                    UnaryOp::RedNor => {
                        let r = self.pool.red_or(x);
                        self.pool.not(r)
                    }
                    UnaryOp::Neg => {
                        let w = self.pool.width(x);
                        let z = self.pool.const_u64(w, 0);
                        self.pool.sub(z, x)
                    }
                };
                self.pool.resize(t, *width)
            }
            NExpr::Binary {
                op,
                lhs,
                rhs,
                width,
            } => {
                let a = self.eval_sym(lhs, store);
                let b = self.eval_sym(rhs, store);
                let t = match op {
                    BinaryOp::Add => self.pool.add(a, b),
                    BinaryOp::Sub => self.pool.sub(a, b),
                    BinaryOp::Mul => self.pool.mul(a, b),
                    BinaryOp::And => self.pool.and(a, b),
                    BinaryOp::Or => self.pool.or(a, b),
                    BinaryOp::Xor => self.pool.xor(a, b),
                    BinaryOp::LogAnd => {
                        let ra = self.pool.red_or(a);
                        let rb = self.pool.red_or(b);
                        self.pool.and(ra, rb)
                    }
                    BinaryOp::LogOr => {
                        let ra = self.pool.red_or(a);
                        let rb = self.pool.red_or(b);
                        self.pool.or(ra, rb)
                    }
                    BinaryOp::Eq | BinaryOp::CaseEq => self.pool.eq(a, b),
                    BinaryOp::Ne | BinaryOp::CaseNe => self.pool.ne(a, b),
                    BinaryOp::Lt => self.pool.ult(a, b),
                    BinaryOp::Le => self.pool.ule(a, b),
                    BinaryOp::Gt => self.pool.ult(b, a),
                    BinaryOp::Ge => self.pool.ule(b, a),
                    BinaryOp::Shl => self.pool.shl(a, b),
                    BinaryOp::Shr => self.pool.lshr(a, b),
                };
                self.pool.resize(t, *width)
            }
            NExpr::Ternary {
                cond,
                then,
                els,
                width,
            } => {
                let c = self.cond_bit(cond, store);
                let t = self.eval_sym(then, store);
                let e = self.eval_sym(els, store);
                let t = self.pool.resize(t, *width);
                let e = self.pool.resize(e, *width);
                self.pool.ite(c, t, e)
            }
            NExpr::BitSelect { sig, index } => {
                let x = self.sig_term(*sig, store);
                let i = self.eval_sym(index, store);
                let shifted = self.pool.lshr(x, i);
                self.pool.extract(shifted, 0, 1)
            }
            NExpr::PartSelect { sig, lo, width } => {
                let x = self.sig_term(*sig, store);
                self.pool.extract(x, *lo, *width)
            }
            NExpr::Concat { parts, width } => {
                let mut acc: Option<TermId> = None;
                for p in parts {
                    let t = self.eval_sym(p, store);
                    acc = Some(match acc {
                        None => t,
                        Some(a) => self.pool.concat(a, t),
                    });
                }
                let t = acc.unwrap_or_else(|| self.pool.const_u64(1, 0));
                self.pool.resize(t, *width)
            }
        }
    }
}

/// Substitutes variables in `t` according to `map` (var term → term),
/// rebuilding through the pool so constants fold on the way.
fn subst(
    pool: &mut TermPool,
    t: TermId,
    map: &HashMap<TermId, TermId>,
    memo: &mut HashMap<TermId, TermId>,
) -> TermId {
    if let Some(r) = memo.get(&t) {
        return *r;
    }
    if let Some(r) = map.get(&t) {
        memo.insert(t, *r);
        return *r;
    }
    let kind = pool.kind(t).clone();
    let r = match kind {
        TermKind::Const(_) | TermKind::Var(_, _) => t,
        TermKind::Not(a) => {
            let a = subst(pool, a, map, memo);
            pool.not(a)
        }
        TermKind::And(a, b) => {
            let (a, b) = (subst(pool, a, map, memo), subst(pool, b, map, memo));
            pool.and(a, b)
        }
        TermKind::Or(a, b) => {
            let (a, b) = (subst(pool, a, map, memo), subst(pool, b, map, memo));
            pool.or(a, b)
        }
        TermKind::Xor(a, b) => {
            let (a, b) = (subst(pool, a, map, memo), subst(pool, b, map, memo));
            pool.xor(a, b)
        }
        TermKind::Add(a, b) => {
            let (a, b) = (subst(pool, a, map, memo), subst(pool, b, map, memo));
            pool.add(a, b)
        }
        TermKind::Sub(a, b) => {
            let (a, b) = (subst(pool, a, map, memo), subst(pool, b, map, memo));
            pool.sub(a, b)
        }
        TermKind::Mul(a, b) => {
            let (a, b) = (subst(pool, a, map, memo), subst(pool, b, map, memo));
            pool.mul(a, b)
        }
        TermKind::Eq(a, b) => {
            let (a, b) = (subst(pool, a, map, memo), subst(pool, b, map, memo));
            pool.eq(a, b)
        }
        TermKind::Ult(a, b) => {
            let (a, b) = (subst(pool, a, map, memo), subst(pool, b, map, memo));
            pool.ult(a, b)
        }
        TermKind::Ite(c, a, b) => {
            let c = subst(pool, c, map, memo);
            let (a, b) = (subst(pool, a, map, memo), subst(pool, b, map, memo));
            pool.ite(c, a, b)
        }
        TermKind::Extract { arg, lo, width } => {
            let a = subst(pool, arg, map, memo);
            pool.extract(a, lo, width)
        }
        TermKind::ConcatPair(h, l) => {
            let (h, l) = (subst(pool, h, map, memo), subst(pool, l, map, memo));
            pool.concat(h, l)
        }
        TermKind::ShlConst(a, n) => {
            let a = subst(pool, a, map, memo);
            pool.shl_const(a, n)
        }
        TermKind::LshrConst(a, n) => {
            let a = subst(pool, a, map, memo);
            pool.lshr_const(a, n)
        }
        TermKind::RedAnd(a) => {
            let a = subst(pool, a, map, memo);
            pool.red_and(a)
        }
        TermKind::RedOr(a) => {
            let a = subst(pool, a, map, memo);
            pool.red_or(a)
        }
        TermKind::RedXor(a) => {
            let a = subst(pool, a, map, memo);
            pool.red_xor(a)
        }
    };
    memo.insert(t, r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbfuzz_netlist::elaborate_src;

    fn engine(src: &str, top: &str) -> SymbolicEngine {
        SymbolicEngine::new(Arc::new(elaborate_src(src, top).unwrap()))
    }

    fn zero_state(d: &Design) -> Vec<LogicVec> {
        d.signals.iter().map(|s| LogicVec::zeros(s.width)).collect()
    }

    const FSM: &str = "
        module fsm(input clk, input rst_n, input [3:0] cmd,
                   output logic [2:0] state);
          always_ff @(posedge clk or negedge rst_n) begin
            if (!rst_n) state <= 3'd0;
            else begin
              case (state)
                3'd0: if (cmd == 4'd7) state <= 3'd1;
                3'd1: if (cmd[3]) state <= 3'd2; else state <= 3'd0;
                3'd2: state <= 3'd3;
                default: state <= 3'd0;
              endcase
            end
          end
        endmodule";

    /// Two never-reset registers whose product must hit a semiprime:
    /// from a partially-X start state the solver factors it, so the
    /// CDCL work depends on how the X symbols and their bit pins enter
    /// the formula.
    const XFACTOR: &str = "
        module xf(input clk, input rst_n, input [7:0] a, input [7:0] b,
                  output logic hit);
          logic [7:0] x, y;
          always_ff @(posedge clk) begin x <= x ^ a; y <= y ^ b; end
          always_ff @(posedge clk or negedge rst_n)
            if (!rst_n) hit <= 1'b0;
            else hit <= ({8'd0, x} * {8'd0, y}) == 16'd60491 && x != 8'd1 && y != 8'd1;
        endmodule";

    #[test]
    fn fresh_solves_from_x_states_repeat_across_engines() {
        let d = Arc::new(elaborate_src(XFACTOR, "xf").unwrap());
        let mut state = zero_state(&d);
        for name in ["x", "y"] {
            let sig = d.signal_by_name(name).unwrap();
            // Low bit defined (odd factors), the rest unknown.
            let mut v = LogicVec::xes(8);
            v.set_bit(0, Bit::One);
            state[sig.index()] = v;
        }
        let hit = d.signal_by_name("hit").unwrap();
        let targets = [(hit, LogicVec::from_u64(1, 1))];
        let runs: Vec<ReachStats> = (0..8)
            .map(|_| {
                let e = SymbolicEngine::new(Arc::clone(&d));
                let (outcome, stats) = e
                    .solve_reach_profiled(&state, &targets, 1, &Budget::unlimited())
                    .unwrap();
                assert!(matches!(outcome, ReachOutcome::Reached(_)));
                stats
            })
            .collect();
        assert!(runs[0].spent.conflicts > 0, "{:?}", runs[0]);
        for r in &runs[1..] {
            assert_eq!(*r, runs[0], "engine instances disagree: {runs:?}");
        }
    }

    #[test]
    fn equations_generated_for_all_registers() {
        let e = engine(FSM, "fsm");
        assert_eq!(e.num_equations(), 1);
        let st = e.design().signal_by_name("state").unwrap();
        assert!(e.equation(st).is_some());
    }

    #[test]
    fn solve_step_finds_magic_command() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let cmd = d.signal_by_name("cmd").unwrap();
        // From state 0, reaching state 1 requires cmd == 7.
        let sol = e
            .solve_step(&zero_state(&d), &[(st, LogicVec::from_u64(3, 1))])
            .expect("reachable");
        assert_eq!(sol.value(cmd).unwrap().to_u64(), Some(7));
    }

    #[test]
    fn solve_step_detects_unreachable_one_step_target() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        // state 3 needs two hops from state 0 — unreachable in one.
        assert!(e
            .solve_step(&zero_state(&d), &[(st, LogicVec::from_u64(3, 3))])
            .is_none());
    }

    #[test]
    fn solve_reach_unrolls_multi_cycle_paths() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let seq = e
            .solve_reach(&zero_state(&d), &[(st, LogicVec::from_u64(3, 3))], 4)
            .expect("reachable in ≤4 steps");
        // The geometric depth schedule may pad the 3-cycle plan to 4.
        assert!(seq.len() == 3 || seq.len() == 4, "got {} steps", seq.len());
        // Replaying the solved sequence on the real simulator must land
        // in the target state.
        let mut sim = symbfuzz_sim::Simulator::new(Arc::clone(&d));
        sim.reenter(symbfuzz_sim::Reentry::FullReset { cycles: 1 });
        for step in &seq {
            sim.apply_input_word(&step.to_word(&d));
            sim.step();
        }
        assert_eq!(sim.get(st).to_u64(), Some(3));
    }

    #[test]
    fn x_state_registers_are_unconstrained() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let mut state = zero_state(&d);
        state[st.index()] = LogicVec::xes(3);
        // With the register unconstrained the solver may choose state 2,
        // from which state 3 is reachable in one step.
        let sol = e.solve_step(&state, &[(st, LogicVec::from_u64(3, 3))]);
        assert!(sol.is_some());
    }

    #[test]
    fn reset_is_held_inactive_in_solutions() {
        // If the solver were allowed to assert reset it could "reach"
        // state 0 trivially; from state 2 the FSM forcibly moves to 3,
        // so reaching 0 in one step is impossible with reset held high.
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let mut state = zero_state(&d);
        state[st.index()] = LogicVec::from_u64(3, 2);
        assert!(e
            .solve_step(&state, &[(st, LogicVec::from_u64(3, 0))])
            .is_none());
    }

    #[test]
    fn comb_logic_is_inlined_into_equations() {
        let e = engine(
            "module m(input clk, input rst_n, input [7:0] a, input [7:0] b,
                      output logic [7:0] acc);
               wire [7:0] sum;
               assign sum = a ^ b;
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) acc <= 8'd0; else acc <= sum;
             endmodule",
            "m",
        );
        let d = Arc::clone(e.design());
        let acc = d.signal_by_name("acc").unwrap();
        let a = d.signal_by_name("a").unwrap();
        let b = d.signal_by_name("b").unwrap();
        let sol = e
            .solve_step(&zero_state(&d), &[(acc, LogicVec::from_u64(8, 0xFF))])
            .expect("reachable");
        let va = sol.value(a).unwrap().to_u64().unwrap();
        let vb = sol.value(b).unwrap().to_u64().unwrap();
        assert_eq!(va ^ vb, 0xFF);
    }

    #[test]
    fn blocking_assignment_ordering_respected() {
        let e = engine(
            "module m(input clk, input rst_n, input [3:0] d, output logic [3:0] q);
               logic [3:0] t;
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 4'd0;
                 else begin
                   t = d + 4'd1;
                   q <= t + 4'd1;
                 end
             endmodule",
            "m",
        );
        let d_arc = Arc::clone(e.design());
        let q = d_arc.signal_by_name("q").unwrap();
        let din = d_arc.signal_by_name("d").unwrap();
        let sol = e
            .solve_step(&zero_state(&d_arc), &[(q, LogicVec::from_u64(4, 9))])
            .expect("reachable");
        // q' = d + 2, so d must be 7.
        assert_eq!(sol.value(din).unwrap().to_u64(), Some(7));
    }

    #[test]
    fn input_assignment_word_packing() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let sol = e
            .solve_step(&zero_state(&d), &[(st, LogicVec::from_u64(3, 1))])
            .unwrap();
        let word = sol.to_word(&d);
        assert_eq!(word.width(), d.fuzz_width());
        assert_eq!(word.to_u64(), Some(7));
    }

    #[test]
    fn budgeted_reach_rejects_invalid_targets_without_panicking() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let cmd = d.signal_by_name("cmd").unwrap();
        let err = e
            .solve_reach_budgeted(
                &zero_state(&d),
                &[(st, LogicVec::xes(3))],
                1,
                &Budget::unlimited(),
            )
            .unwrap_err();
        assert!(matches!(err, ReachError::XTarget { .. }));
        assert!(err.to_string().contains("state"));
        let err = e
            .solve_reach_budgeted(
                &zero_state(&d),
                &[(cmd, LogicVec::from_u64(4, 1))],
                1,
                &Budget::unlimited(),
            )
            .unwrap_err();
        assert!(matches!(err, ReachError::NotARegister { .. }));
        assert!(err.to_string().contains("cmd"));
    }

    #[test]
    fn unlimited_budget_matches_solve_reach() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let expected = e
            .solve_reach(&zero_state(&d), &[(st, LogicVec::from_u64(3, 3))], 4)
            .unwrap();
        let out = e
            .solve_reach_budgeted(
                &zero_state(&d),
                &[(st, LogicVec::from_u64(3, 3))],
                4,
                &Budget::unlimited(),
            )
            .unwrap();
        assert_eq!(out, ReachOutcome::Reached(expected));
        assert_eq!(out.status(), SolveStatus::Sat);
        // A genuinely unreachable one-step target stays `Unreachable`.
        let out = e
            .solve_reach_budgeted(
                &zero_state(&d),
                &[(st, LogicVec::from_u64(3, 3))],
                1,
                &Budget::unlimited(),
            )
            .unwrap();
        assert_eq!(out, ReachOutcome::Unreachable);
        assert_eq!(out.status(), SolveStatus::Unsat);
    }

    #[test]
    fn unroll_depth_ceiling_reports_exhausted_not_unreachable() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        // State 3 needs three hops, but the budget caps unrolling at 1.
        let budget = Budget::unlimited().with_unroll_depth(1);
        let out = e
            .solve_reach_budgeted(
                &zero_state(&d),
                &[(st, LogicVec::from_u64(3, 3))],
                4,
                &budget,
            )
            .unwrap();
        assert!(matches!(
            out,
            ReachOutcome::Exhausted {
                reason: UnknownReason::UnrollDepth,
                ..
            }
        ));
        assert_eq!(
            out.status(),
            SolveStatus::Unknown(UnknownReason::UnrollDepth)
        );
        // A one-hop target is still found under the same ceiling.
        let out = e
            .solve_reach_budgeted(
                &zero_state(&d),
                &[(st, LogicVec::from_u64(3, 1))],
                4,
                &budget,
            )
            .unwrap();
        assert!(matches!(out, ReachOutcome::Reached(_)));
    }

    #[test]
    fn term_node_ceiling_reports_exhausted() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let budget = Budget::unlimited().with_term_nodes(1);
        let out = e
            .solve_reach_budgeted(
                &zero_state(&d),
                &[(st, LogicVec::from_u64(3, 1))],
                4,
                &budget,
            )
            .unwrap();
        assert!(matches!(
            out,
            ReachOutcome::Exhausted {
                reason: UnknownReason::TermNodes,
                ..
            }
        ));
    }

    #[test]
    fn zero_conflict_budget_exhausts_immediately() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let budget = Budget::unlimited().with_conflicts(0);
        let out = e
            .solve_reach_budgeted(
                &zero_state(&d),
                &[(st, LogicVec::from_u64(3, 1))],
                4,
                &budget,
            )
            .unwrap();
        assert!(matches!(
            out,
            ReachOutcome::Exhausted {
                reason: UnknownReason::Conflicts,
                ..
            }
        ));
    }

    #[test]
    fn introspected_reach_matches_profiled_and_records_structure() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let targets = [(st, LogicVec::from_u64(3, 3))];
        let budget = Budget::unlimited();
        let (plain, plain_stats) = e
            .solve_reach_profiled(&zero_state(&d), &targets, 4, &budget)
            .unwrap();
        let (traced, stats, scope) = e
            .solve_reach_introspected(&zero_state(&d), &targets, 4, &budget)
            .unwrap();
        // Tracing must not change the search.
        assert_eq!(plain, traced);
        assert_eq!(plain_stats, stats);
        // Structure was recorded for the deepest call.
        assert!(scope.depth >= 1);
        assert!(!scope.sketch.is_empty());
        assert_eq!(scope.frame_digests.len() as u32, scope.depth);
        // Every exact-depth call landed in the per-call histogram.
        let calls: u64 = scope.call_conflict_hist.iter().sum();
        assert_eq!(calls, u64::from(stats.solver_calls));
        // Satisfiable goals carry no blame.
        assert!(scope.blame.is_empty());
    }

    #[test]
    fn unreachable_goals_carry_a_register_blame_set() {
        // From state 2 the FSM forcibly moves to 3, so state 0 is
        // unreachable in one step — and the blame is the current value
        // of `state` itself.
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let mut state = zero_state(&d);
        state[st.index()] = LogicVec::from_u64(3, 2);
        let (outcome, _, scope) = e
            .solve_reach_introspected(
                &state,
                &[(st, LogicVec::from_u64(3, 0))],
                1,
                &Budget::unlimited(),
            )
            .unwrap();
        assert_eq!(outcome, ReachOutcome::Unreachable);
        assert_eq!(scope.blame, vec!["state".to_string()]);
    }

    #[test]
    fn neighbouring_goals_share_sketch_structure() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let budget = Budget::unlimited();
        let (_, _, a) = e
            .solve_reach_introspected(
                &zero_state(&d),
                &[(st, LogicVec::from_u64(3, 1))],
                1,
                &budget,
            )
            .unwrap();
        let (_, _, b) = e
            .solve_reach_introspected(
                &zero_state(&d),
                &[(st, LogicVec::from_u64(3, 2))],
                1,
                &budget,
            )
            .unwrap();
        // Same register, same depth, different value: the unrolled
        // formulas share almost all their structure.
        let j = crate::scope::sketch_jaccard_milli(&a.sketch, &b.sketch);
        assert!(j >= 500, "affinity {j} unexpectedly low");
    }

    #[test]
    fn cached_reach_matches_fresh_verdicts_and_replays() {
        let fresh = engine(FSM, "fsm");
        let mut cached = engine(FSM, "fsm");
        cached.set_solver_cache(true);
        let d = Arc::clone(fresh.design());
        let st = d.signal_by_name("state").unwrap();
        // Sibling goals from the same start state: every FSM state
        // value, reachable or not, at several bounds.
        for bound in [1u32, 4] {
            for val in 0..8u64 {
                let targets = [(st, LogicVec::from_u64(3, val))];
                let f = fresh
                    .solve_reach_budgeted(&zero_state(&d), &targets, bound, &Budget::unlimited())
                    .unwrap();
                let c = cached
                    .solve_reach_budgeted(&zero_state(&d), &targets, bound, &Budget::unlimited())
                    .unwrap();
                assert_eq!(
                    f.status(),
                    c.status(),
                    "verdict mismatch for state={val} bound={bound}"
                );
                // A warm solver may return a different (equally valid)
                // model: validate by replaying on the simulator.
                if let ReachOutcome::Reached(seq) = &c {
                    let mut sim = symbfuzz_sim::Simulator::new(Arc::clone(&d));
                    sim.reenter(symbfuzz_sim::Reentry::FullReset { cycles: 1 });
                    for step in seq {
                        sim.apply_input_word(&step.to_word(&d));
                        sim.step();
                    }
                    assert_eq!(sim.get(st).to_u64(), Some(val), "replay missed state {val}");
                }
            }
        }
        let stats = cached.cache_stats();
        assert!(stats.goals > 0);
        assert!(
            stats.reused_goals > 0,
            "sibling goals never reused: {stats:?}"
        );
        assert!(stats.frame_hits > 0, "no frame reuse: {stats:?}");
        assert!(stats.reuse_milli() > 0);
    }

    #[test]
    fn cached_reach_budget_ceilings_match_fresh() {
        let fresh = engine(FSM, "fsm");
        let mut cached = engine(FSM, "fsm");
        cached.set_solver_cache(true);
        let d = Arc::clone(fresh.design());
        let st = d.signal_by_name("state").unwrap();
        let targets = [(st, LogicVec::from_u64(3, 3))];
        // Unroll-depth ceiling: truncation happens before solving, so
        // the outcomes agree exactly.
        let budget = Budget::unlimited().with_unroll_depth(1);
        let f = fresh
            .solve_reach_budgeted(&zero_state(&d), &targets, 4, &budget)
            .unwrap();
        let c = cached
            .solve_reach_budgeted(&zero_state(&d), &targets, 4, &budget)
            .unwrap();
        assert_eq!(f.status(), c.status());
        // Conflicts-0: trips on the very first check either way.
        let budget = Budget::unlimited().with_conflicts(0);
        let c = cached
            .solve_reach_budgeted(&zero_state(&d), &targets, 4, &budget)
            .unwrap();
        assert_eq!(c.status(), SolveStatus::Unknown(UnknownReason::Conflicts));
    }

    #[test]
    fn switching_start_states_replaces_the_session() {
        let fresh = engine(FSM, "fsm");
        let mut cached = engine(FSM, "fsm");
        cached.set_solver_cache(true);
        let d = Arc::clone(fresh.design());
        let st = d.signal_by_name("state").unwrap();
        let mut other = zero_state(&d);
        other[st.index()] = LogicVec::from_u64(3, 1);
        // Alternating start states: every query drops the warm session
        // and seeds a cold one, so each query blasts its deepest frame
        // chain afresh, and verdicts still match a fresh solver.
        let mut cold_frames = 0;
        for (i, val) in [1u64, 2, 3, 7].into_iter().enumerate() {
            let start = if i % 2 == 0 {
                zero_state(&d)
            } else {
                other.clone()
            };
            let targets = [(st, LogicVec::from_u64(3, val))];
            let f = fresh
                .solve_reach_budgeted(&start, &targets, 4, &Budget::unlimited())
                .unwrap();
            let (c, stats) = cached
                .solve_reach_profiled(&start, &targets, 4, &Budget::unlimited())
                .unwrap();
            assert_eq!(f.status(), c.status(), "state {val} from start {i}");
            cold_frames += u64::from(stats.deepest_unroll);
        }
        let stats = cached.cache_stats();
        assert_eq!(stats.frame_misses, cold_frames, "{stats:?}");
    }

    #[test]
    fn cached_introspection_still_records_structure() {
        let mut e = engine(FSM, "fsm");
        e.set_solver_cache(true);
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let (outcome, stats, scope) = e
            .solve_reach_introspected(
                &zero_state(&d),
                &[(st, LogicVec::from_u64(3, 3))],
                4,
                &Budget::unlimited(),
            )
            .unwrap();
        assert!(matches!(outcome, ReachOutcome::Reached(_)));
        assert!(scope.depth >= 1);
        assert!(!scope.sketch.is_empty());
        assert_eq!(scope.frame_digests.len() as u32, scope.depth);
        assert!(stats.solver_calls >= 1);
    }

    #[test]
    fn design_fingerprint_is_stable_and_design_sensitive() {
        let a = engine(FSM, "fsm");
        let b = engine(FSM, "fsm");
        assert_eq!(a.design_fingerprint(), b.design_fingerprint());
        let c = engine(
            "module m(input clk, input rst_n, input [3:0] d, output logic [3:0] q);
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 4'd0; else q <= d;
             endmodule",
            "m",
        );
        assert_ne!(a.design_fingerprint(), c.design_fingerprint());
    }

    #[test]
    fn part_select_assignments_in_equations() {
        let e = engine(
            "module m(input clk, input rst_n, input [3:0] d, output logic [7:0] q);
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 8'd0;
                 else begin
                   q[3:0] <= d;
                   q[7:4] <= 4'hA;
                 end
             endmodule",
            "m",
        );
        let d_arc = Arc::clone(e.design());
        let q = d_arc.signal_by_name("q").unwrap();
        let din = d_arc.signal_by_name("d").unwrap();
        let sol = e
            .solve_step(&zero_state(&d_arc), &[(q, LogicVec::from_u64(8, 0xA5))])
            .expect("reachable");
        assert_eq!(sol.value(din).unwrap().to_u64(), Some(5));
        // And 0x55 is unreachable because the high nibble is forced to A.
        assert!(e
            .solve_step(&zero_state(&d_arc), &[(q, LogicVec::from_u64(8, 0x55))])
            .is_none());
    }
}
