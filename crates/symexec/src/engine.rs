//! Dependency-equation construction and SMT-backed input search.

use crate::scope::{signal_of_term_name, GoalScope, BLAME_MAX_ASSUMPTIONS, HOT_SIGNALS_K};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use symbfuzz_hdl::{BinaryOp, Edge, UnaryOp};
use symbfuzz_logic::{Bit, LogicVec};
use symbfuzz_netlist::{reset_tree, Design, NExpr, NLValue, NStmt, ProcKind, ResetTree, SignalId};
use symbfuzz_smt::{
    Budget, BudgetSpent, IdMap, SatResult, SolverSession, TermId, TermKind, TermPool,
};
use symbfuzz_telemetry::{Collector, Counter, Event, SolveStatus, UnknownReason};

/// Conflict ceiling for each blame-extraction solve (the initial
/// assumption check and every greedy drop-one probe). Small by design:
/// blame is best-effort diagnostics and must not compete with the
/// campaign's own solving budget.
const BLAME_CONFLICT_CAP: u64 = 2_000;

/// Conflict ceiling for each one-step image probe, which also never
/// spends more than its query has left. From a free start state a goal
/// that folds to a constant from a concrete state can become a
/// factoring instance; an undecided probe only leaves the value live.
const IMAGE_CONFLICT_CAP: u64 = 2_000;

/// The image memo's verdict on one `(register, value)` pair, from the
/// one-step image probes (see [`SymbolicEngine::solve_reach_profiled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Image {
    /// No state and input, resets inactive, produce the value in one
    /// clock edge: it is unreachable at every depth from every start.
    Dead,
    /// Only a state that already holds the value produces it, so
    /// `register != value` is 1-inductive: it is unreachable at every
    /// depth from a start whose register is fully defined and differs.
    HeldOnly,
    /// Some state that does not hold the value produces it, or a probe
    /// was undecided.
    Live,
}

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
    /// `max_steps` was 0: no unroll depth is left to search.
    ZeroDepth,
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
            ReachError::ZeroDepth => write!(f, "unroll bound is 0"),
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
    /// The budget ran out before the query was decided; the work it
    /// consumed is the query's [`ReachStats::spent`].
    Exhausted {
        /// Which ceiling tripped first.
        reason: UnknownReason,
    },
}

impl ReachOutcome {
    /// Maps onto the shared campaign-wide [`SolveStatus`] vocabulary.
    pub fn status(&self) -> SolveStatus {
        match self {
            ReachOutcome::Reached(_) => SolveStatus::Sat,
            ReachOutcome::Unreachable => SolveStatus::Unsat,
            ReachOutcome::Exhausted { reason } => SolveStatus::Unknown(*reason),
        }
    }
}

/// Work receipt for one whole reachability query, aggregated across
/// the geometric depth schedule — the raw material for the per-goal
/// solver profiler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReachStats {
    /// CDCL work consumed across every exact-depth solve, including
    /// the one that decided the query and any one-step image probe.
    pub spent: BudgetSpent,
    /// Exact-depth SMT solves issued, an image probe included; 0 for a
    /// goal answered from the image memo.
    pub solver_calls: u32,
    /// Deepest unroll attempted (0 for a goal answered from the image
    /// memo).
    pub deepest_unroll: u32,
    /// The query's introspection record: present exactly when the
    /// engine's introspection switch is on (see
    /// [`SymbolicEngine::set_introspection`]).
    pub scope: Option<GoalScope>,
}

/// Cumulative statistics of the engine's frame cache (see
/// [`SymbolicEngine::cache_stats`]). All figures are pure functions of
/// the query sequence, so they stay byte-identical at any `--jobs`
/// value.
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

/// An unrolled frame chain over one start state: a solver session
/// holding the chain's terms and CNF, plus per frame the state map and
/// the input symbols. The frame cache keeps one warm, and the image
/// and blame probes each seed one of their own and drop it;
/// [`SymbolicEngine::extend`] is the only code that adds frames to any
/// of them.
#[derive(Debug, Clone)]
struct Chain {
    sess: SolverSession,
    /// Whether CDCL tracing is armed.
    traced: bool,
    /// `states[k]` maps each current-state var to its term after `k`
    /// unroll steps (`states[0]` is the seeded start state).
    states: Vec<IdMap<TermId, TermId>>,
    /// Per-step input symbols in signal order, for model extraction.
    step_inputs: Vec<Vec<(SignalId, TermId)>>,
    /// CNF size `(vars, clauses)` at the previous telemetry report, so
    /// a kept chain records only what each check newly blasted.
    reported: (usize, usize),
}

impl Chain {
    fn new(sess: SolverSession, traced: bool, start: IdMap<TermId, TermId>) -> Chain {
        Chain {
            sess,
            traced,
            states: vec![start],
            step_inputs: Vec::new(),
            reported: (0, 0),
        }
    }
}

/// The engine's frame cache: one warm chain, keyed on its start state
/// and on whether it is traced, replaced whenever a query arrives from
/// a different start state.
#[derive(Debug, Clone, Default)]
struct FrameCache {
    /// The warm chain and its [`start_key`](SymbolicEngine::start_key).
    warm: Option<(Vec<(u64, u64)>, Chain)>,
    stats: SolverCacheStats,
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
    /// Whether queries record a [`GoalScope`].
    introspect: bool,
    /// The frame cache every exact-depth solve of the schedule runs on.
    cache: RefCell<FrameCache>,
    /// One-step image verdicts per `(register, value)`, written once by
    /// [`probe_image`](Self::probe_image): [`Image::Dead`] answers every
    /// later query for the value without a solve, [`Image::HeldOnly`]
    /// those from a start whose register holds another, fully defined
    /// value, and [`Image::Live`] none.
    image_memo: RefCell<HashMap<(SignalId, LogicVec), Image>>,
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
            introspect: false,
            cache: RefCell::default(),
            image_memo: RefCell::new(HashMap::new()),
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

    /// Switches per-goal introspection on or off (off by default).
    /// When on, every query's [`ReachStats::scope`] carries a
    /// [`GoalScope`]: the merged CDCL trace, hot signals and, for goals
    /// that were solved without being reached, a blame set (see
    /// [`solve_reach_profiled`](Self::solve_reach_profiled)). Tracing
    /// changes nothing about the search, so outcomes and work receipts
    /// match an engine with introspection off.
    pub fn set_introspection(&mut self, on: bool) {
        self.introspect = on;
    }

    /// Cumulative statistics of the frame cache: every exact-depth
    /// solve of the depth schedule runs on one warm frame chain keyed
    /// by its start state. The unrolled transition relation is
    /// substituted and bit-blasted once per frame, goals sharing a
    /// start state are posed on it as assumption checks, and learned
    /// clauses carry across sibling goals. A query from another start
    /// state replaces the chain. Zeros until the first solve.
    pub fn cache_stats(&self) -> SolverCacheStats {
        self.cache.borrow().stats
    }

    /// The frame-cache key of a start state: each register's defined
    /// bits and unknown mask, 64 bits at a time, in signal order. X and
    /// Z read alike, as [`seed_chain`](Self::seed_chain) gives both a
    /// free symbol, so two states share a key exactly when they seed
    /// the same chain.
    fn start_key(&self, current: &[LogicVec]) -> Vec<(u64, u64)> {
        let mut key = Vec::with_capacity(self.cur_vars.len());
        for reg in self.cur_vars.keys() {
            let v = &current[reg.index()];
            for lo in (0..v.width()).step_by(64) {
                let (val, unk) = v.extract_word(lo, (v.width() - lo).min(64));
                key.push((val & !unk, unk));
            }
        }
        key
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

    /// The engine's one query: unrolls the dependency equations up to
    /// `max_steps` cycles from `current` (the simulator's full value
    /// table; `X` bits are left for the solver to choose) and returns
    /// the shortest input sequence that drives every `(register,
    /// value)` pair of `targets`, plus a [`ReachStats`] work receipt
    /// filled on every path, Sat included.
    ///
    /// Exact-depth solves run at depths 1, 2, 4, … and finally
    /// `max_steps`. One `budget` covers the *entire* query: its
    /// conflict ceiling depletes across the schedule.
    ///
    /// Every solve of the schedule runs on the frame cache's warm chain
    /// for `current` (see [`cache_stats`](Self::cache_stats)), with the
    /// targets posed as assumptions. Under an unlimited budget the
    /// verdict never depends on the engine's history: a never-queried
    /// clone of the engine answers the same. Only the work to reach it
    /// changes, and a `Reached` plan may be another, equally valid
    /// model.
    ///
    /// The first time the schedule proves a single-target goal
    /// `Unreachable`, the engine also probes once whether any state
    /// and input, resets inactive, produce that value in one clock
    /// edge, and if some state does, whether any state that does not
    /// already hold the value does. Each probe is one more exact-depth
    /// call on this query's receipt, capped at 2 000 conflicts
    /// (`IMAGE_CONFLICT_CAP`) within what `budget` has left, and
    /// neither changes this query's outcome. The memo then holds one
    /// of three verdicts for the value:
    ///
    /// - *dead*: no state produces it, so it is unreachable at every
    ///   depth from every start state;
    /// - *held-only*: only a state that already holds it produces it,
    ///   so from a start whose register is fully defined and holds
    ///   another value no frame reaches it (1-induction);
    /// - *live*: otherwise, or a probe was undecided.
    ///
    /// A later query with a dead target, or a held-only target whose
    /// register the start state defines fully and to another value,
    /// runs no solve and answers `Unreachable` with a zero receipt. A
    /// start that holds a held-only value, or leaves `X` or `Z` bits in
    /// its register, runs the schedule. The memo is exact under an
    /// unlimited budget; under a conflict or wall-clock ceiling it can
    /// answer `Unreachable` where the schedule would have run out.
    ///
    /// With introspection on, a goal that was solved at least once
    /// without being reached also gets a blame set: the deepest depth
    /// is re-posed with up to [`BLAME_MAX_ASSUMPTIONS`] fully-defined
    /// registers, taken in name order, bound by assumptions and
    /// greedily minimized under 2 000 conflicts (`BLAME_CONFLICT_CAP`)
    /// per probe. When that core is undecided or empty, the hottest
    /// signals stand in. The probe runs on its own solver and spends
    /// none of `budget`.
    ///
    /// # Errors
    ///
    /// [`ReachError`] when `max_steps` is 0, a target value contains
    /// `X` bits or a target is not a register; nothing is solved then.
    pub fn solve_reach_profiled(
        &self,
        current: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
        max_steps: u32,
        budget: &Budget,
    ) -> Result<(ReachOutcome, ReachStats), ReachError> {
        if max_steps == 0 {
            return Err(ReachError::ZeroDepth);
        }
        for (sig, value) in targets {
            let s = self.design.signal(*sig);
            if value.has_unknown() {
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
        let mut stats = ReachStats {
            scope: self.introspect.then(GoalScope::new),
            ..ReachStats::default()
        };
        let mut outcome = ReachOutcome::Unreachable;
        let proved = {
            let memo = self.image_memo.borrow();
            targets.iter().any(|t| match memo.get(t) {
                Some(Image::Dead) => true,
                Some(Image::HeldOnly) => current[t.0.index()].logic_eq(&t.1) == Bit::Zero,
                Some(Image::Live) | None => false,
            })
        };
        // Geometric depth schedule: deep plans pad with idle cycles, so
        // exact-k solving at 1, 2, 4, … plus the bound itself finds any
        // plan within the bound at a fraction of the solver calls. A
        // target the memo proves out of reach needs none of them.
        while !proved && stats.deepest_unroll < max_steps {
            let steps = stats.deepest_unroll.saturating_mul(2).clamp(1, max_steps);
            stats.solver_calls += 1;
            stats.deepest_unroll = steps;
            let remaining = budget.remaining_after(stats.spent);
            let (verdict, spent) =
                self.solve_at_depth(current, targets, steps, &remaining, stats.scope.as_mut());
            stats.spent = stats.spent.saturating_add(spent);
            if verdict != ReachOutcome::Unreachable {
                outcome = verdict;
                break;
            }
        }
        if let Some(scope) = &mut stats.scope {
            // A goal never posed to the solver has nothing to blame.
            if stats.solver_calls > 0 && !matches!(outcome, ReachOutcome::Reached(_)) {
                if let Some(core) = self.blame_core(current, targets, stats.deepest_unroll) {
                    scope.blame = core;
                    scope.blame_is_core = true;
                    if let Some(t) = &self.telemetry {
                        t.add(Counter::CoreExtractions, 1);
                    }
                }
                if scope.blame.is_empty() {
                    scope.blame = scope.hot_signals.iter().map(|(n, _)| n.clone()).collect();
                    scope.blame.sort();
                    scope.blame.dedup();
                }
            }
        }
        if let [target] = targets {
            if outcome == ReachOutcome::Unreachable
                && !self.image_memo.borrow().contains_key(target)
            {
                self.probe_image(target, budget, &mut stats);
            }
        }
        Ok((outcome, stats))
    }

    /// The one-step image probes, run once per `(register, value)`
    /// after the depth schedule first proves it unreachable, on a
    /// dropped chain seeded from the all-X start state, so every
    /// register is a free symbol and only the resets are pinned. The
    /// first is a depth-1 check of the target: Unsat records the value
    /// [`Image::Dead`]. When it is Sat, the second poses the same check
    /// on the same chain with `register != value` asserted of the start
    /// state, 1-induction on that disequality: Unsat records
    /// [`Image::HeldOnly`]. Sat or an undecided probe records
    /// [`Image::Live`].
    ///
    /// Each probe counts as one of the query's exact-depth calls: it
    /// spends from what the query left of `budget`, at most
    /// [`IMAGE_CONFLICT_CAP`] conflicts, and is traced into the query's
    /// scope. Neither touches the frame cache's warm chain.
    fn probe_image(&self, target: &(SignalId, LogicVec), budget: &Budget, stats: &mut ReachStats) {
        let free: Vec<LogicVec> = self
            .design
            .signals
            .iter()
            .map(|s| LogicVec::xes(s.width))
            .collect();
        let mut chain = self.seed_chain(&free, stats.scope.is_some());
        let goal = std::slice::from_ref(target);
        let mut probe = |chain: &mut Chain| {
            let remaining = budget.remaining_after(stats.spent);
            let cap = remaining
                .conflicts()
                .map_or(IMAGE_CONFLICT_CAP, |c| c.min(IMAGE_CONFLICT_CAP));
            let (verdict, spent) = self.check(
                chain,
                None,
                goal,
                1,
                &remaining.with_conflicts(cap),
                stats.scope.as_mut(),
            );
            stats.solver_calls += 1;
            stats.spent = stats.spent.saturating_add(spent);
            verdict
        };
        let image = match probe(&mut chain) {
            ReachOutcome::Unreachable => Image::Dead,
            ReachOutcome::Exhausted { .. } => Image::Live,
            ReachOutcome::Reached(_) => {
                // The chain is dropped after this probe, so the start
                // state's disequality is asserted rather than assumed.
                let start = chain.states[0][&self.cur_vars[&target.0]];
                let pool = chain.sess.pool_mut();
                let value = pool.constant(target.1.clone());
                let fresh = pool.ne(start, value);
                chain.sess.assert_term(fresh);
                match probe(&mut chain) {
                    ReachOutcome::Unreachable => Image::HeldOnly,
                    _ => Image::Live,
                }
            }
        };
        self.image_memo.borrow_mut().insert(target.clone(), image);
    }

    /// One exact-depth solve on the frame cache's warm chain, reseeded
    /// first if the start state differs.
    fn solve_at_depth(
        &self,
        current: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
        steps: u32,
        budget: &Budget,
        scope: Option<&mut GoalScope>,
    ) -> (ReachOutcome, BudgetSpent) {
        let traced = scope.is_some();
        let mut cache = self.cache.borrow_mut();
        let FrameCache { warm, stats } = &mut *cache;
        let key = self.start_key(current);
        let chain = match warm {
            Some((k, chain)) if *k == key && chain.traced == traced => chain,
            _ => &mut warm.insert((key, self.seed_chain(current, traced))).1,
        };
        self.check(chain, Some(stats), targets, steps, budget, scope)
    }

    /// Extends `chain` to `steps` frames and checks `targets` on its
    /// last state, posed as assumptions so a later goal on the same
    /// chain inherits its clauses. The warm chain charges its frame
    /// hits and misses to the cache statistics `kept`; the image
    /// probe's dropped chain passes `None` and stays out of them.
    fn check(
        &self,
        chain: &mut Chain,
        kept: Option<&mut SolverCacheStats>,
        targets: &[(SignalId, LogicVec)],
        steps: u32,
        budget: &Budget,
        scope: Option<&mut GoalScope>,
    ) -> (ReachOutcome, BudgetSpent) {
        let have = chain.states.len() as u32 - 1;
        self.extend(chain, steps);
        if let Some(stats) = kept {
            let hits = u64::from(have.min(steps));
            stats.frame_hits += hits;
            stats.frame_misses += u64::from(steps) - hits;
            stats.goals += 1;
            stats.reused_goals += u64::from(chain.sess.goals_checked() > 0);
        }
        let goals = self.goal_terms(chain, targets, steps);

        let t0 = self.telemetry.as_ref().map(|t| t.now_micros());
        let (result, spent) = chain.sess.check_assuming(&goals, budget);
        if let (Some(tel), Some(t0)) = (&self.telemetry, t0) {
            let cnf = chain.sess.cnf_stats();
            let vars = (cnf.num_vars - chain.reported.0) as u64;
            let clauses = (cnf.num_clauses - chain.reported.1) as u64;
            chain.reported = (cnf.num_vars, cnf.num_clauses);
            tel.add(Counter::SolverCalls, 1);
            tel.add(Counter::SatVars, vars);
            tel.add(Counter::SatClauses, clauses);
            tel.add(Counter::SatDecisions, spent.decisions);
            tel.add(Counter::SatConflicts, spent.conflicts);
            tel.record(Event::SmtSolve {
                vars,
                clauses,
                sat: result.is_sat(),
                micros: tel.now_micros().saturating_sub(t0),
            });
        }
        if let Some(scope) = scope {
            if let Some(trace) = chain.sess.take_trace(HOT_SIGNALS_K * 4) {
                let vars: Vec<u32> = trace.hot_vars.iter().map(|(v, _)| *v).collect();
                let mut named: Vec<(String, u64)> = Vec::new();
                for (v, t, _bit) in chain.sess.blaster().attribute_vars(&vars) {
                    if let TermKind::Var(sym, _) = chain.sess.pool().kind(t) {
                        if let Some(sig) = signal_of_term_name(chain.sess.pool().name(sym)) {
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
        }

        let verdict = match result {
            SatResult::Unsat => ReachOutcome::Unreachable,
            SatResult::Unknown { reason } => ReachOutcome::Exhausted { reason },
            SatResult::Sat(model) => {
                // An input outside the goal's cone was never blasted.
                let read = |sig: SignalId, var: TermId| {
                    chain
                        .sess
                        .value_of(var, &model)
                        .unwrap_or_else(|| LogicVec::zeros(self.design.signal(sig).width))
                };
                let plan = chain.step_inputs[..steps as usize]
                    .iter()
                    .map(|inputs| InputAssignment {
                        values: inputs
                            .iter()
                            .filter(|(sig, _)| !self.design.signal(*sig).is_reset)
                            .map(|&(sig, var)| (sig, read(sig, var)))
                            .collect(),
                    })
                    .collect();
                ReachOutcome::Reached(plan)
            }
        };
        (verdict, spent)
    }

    /// Unrolls `chain` to `steps` frames: the only code that adds
    /// frames, for warm, image and blame chains alike. Each new frame
    /// gets fresh per-step input symbols (resets pinned inactive) and
    /// every register's equation substituted over the previous frame.
    fn extend(&self, chain: &mut Chain, steps: u32) {
        while chain.states.len() <= steps as usize {
            let t = chain.states.len() - 1;
            let mut subst_map = chain.states[t].clone();
            let mut inputs = Vec::new();
            for (&sig, &var) in &self.input_vars {
                let s = self.design.signal(sig);
                let pool = chain.sess.pool_mut();
                let fresh = pool.var(format!("in@{t}.{}", s.name), s.width);
                subst_map.insert(var, fresh);
                inputs.push((sig, fresh));
                if s.is_reset {
                    let inactive = pool.const_u64(s.width, self.reset_inactive_level(sig));
                    let pin = pool.eq(fresh, inactive);
                    chain.sess.assert_term(pin);
                }
            }
            let mut memo = IdMap::default();
            let mut state = IdMap::default();
            for (&reg, &var) in &self.cur_vars {
                let pool = chain.sess.pool_mut();
                state.insert(var, subst(pool, self.eqs[&reg], &subst_map, &mut memo));
            }
            chain.states.push(state);
            chain.step_inputs.push(inputs);
        }
    }

    /// `register == value` terms for `targets` on the chain's state
    /// after `steps` cycles.
    fn goal_terms(
        &self,
        chain: &mut Chain,
        targets: &[(SignalId, LogicVec)],
        steps: u32,
    ) -> Vec<TermId> {
        let state = &chain.states[steps as usize];
        targets
            .iter()
            .map(|(reg, value)| {
                let pool = chain.sess.pool_mut();
                let c = pool.constant(value.clone());
                pool.eq(state[&self.cur_vars[reg]], c)
            })
            .collect()
    }

    /// Seeds a warm or image-probe chain at step 0: each
    /// register's current-state symbol maps to a constant where its
    /// value is fully defined, else to an [`x_symbol`](Self::x_symbol)
    /// whose pins are asserted once every register is seeded. Registers
    /// are visited in signal order, so the chain is a pure function of
    /// `current`.
    fn seed_chain(&self, current: &[LogicVec], traced: bool) -> Chain {
        let mut sess = SolverSession::from_pool(self.pool.clone());
        if traced {
            sess.enable_trace();
        }
        let mut start = IdMap::default();
        let mut pins = Vec::new();
        for (&reg, &var) in &self.cur_vars {
            let v = &current[reg.index()];
            let term = if v.has_unknown() {
                self.x_symbol(sess.pool_mut(), reg, v, &mut pins)
            } else {
                sess.pool_mut().constant(v.clone())
            };
            start.insert(var, term);
        }
        for pin in pins {
            sess.assert_term(pin);
        }
        Chain::new(sess, traced, start)
    }

    /// A fresh `x0.*` symbol for a partially-`X` register value, free
    /// except for its defined bits, whose pins are pushed onto `pins`
    /// for the caller to assert.
    fn x_symbol(
        &self,
        pool: &mut TermPool,
        reg: SignalId,
        v: &LogicVec,
        pins: &mut Vec<TermId>,
    ) -> TermId {
        let fresh = pool.var(format!("x0.{}", self.design.signal(reg).name), v.width());
        for i in 0..v.width() {
            let b = v.bit(i);
            if !b.is_unknown() {
                let bit = pool.extract(fresh, i, 1);
                let c = pool.const_u64(1, (b == Bit::One) as u64);
                pins.push(pool.eq(bit, c));
            }
        }
        fresh
    }

    /// The blame probe: re-poses the query at depth `steps` on a chain
    /// of its own, seeded with up to [`BLAME_MAX_ASSUMPTIONS`]
    /// fully-defined registers (in name order) bound to their values by
    /// *assumptions* rather than constants, then greedily minimizes the
    /// assumption set while the query stays Unsat.
    ///
    /// Returns `None` when the query is satisfiable (the target only
    /// fails at other depths), undecided within [`BLAME_CONFLICT_CAP`]
    /// conflicts, or has no register to assume. The core keeps name
    /// order, so the result is deterministic.
    fn blame_core(
        &self,
        current: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
        steps: u32,
    ) -> Option<Vec<String>> {
        let mut sess = SolverSession::from_pool(self.pool.clone());
        let mut regs: Vec<(SignalId, TermId)> =
            self.cur_vars.iter().map(|(&r, &v)| (r, v)).collect();
        regs.sort_by(|a, b| {
            self.design
                .signal(a.0)
                .name
                .cmp(&self.design.signal(b.0).name)
        });
        let mut start = IdMap::default();
        let mut assumptions: Vec<(String, TermId)> = Vec::new();
        for (reg, var) in regs {
            let v = &current[reg.index()];
            let name = &self.design.signal(reg).name;
            let term = if v.has_unknown() {
                let mut pins = Vec::new();
                let fresh = self.x_symbol(sess.pool_mut(), reg, v, &mut pins);
                for pin in pins {
                    sess.assert_term(pin);
                }
                fresh
            } else if assumptions.len() < BLAME_MAX_ASSUMPTIONS {
                let pool = sess.pool_mut();
                let fresh = pool.var(format!("x0.{name}"), v.width());
                let c = pool.constant(v.clone());
                let pin = pool.eq(fresh, c);
                // Blasted now, in name order: the probe's CNF numbering
                // follows the seeding order.
                sess.lit_of(pin);
                assumptions.push((name.clone(), pin));
                fresh
            } else {
                sess.pool_mut().constant(v.clone())
            };
            start.insert(var, term);
        }
        if assumptions.is_empty() {
            return None;
        }
        let mut chain = Chain::new(sess, false, start);
        self.extend(&mut chain, steps);
        for goal in self.goal_terms(&mut chain, targets, steps) {
            chain.sess.assert_term(goal);
        }

        let probe_budget = Budget::unlimited().with_conflicts(BLAME_CONFLICT_CAP);
        let mut unsat = |assumed: Vec<TermId>| {
            let (result, _) = chain.sess.check_assuming(&assumed, &probe_budget);
            result == SatResult::Unsat
        };
        if !unsat(assumptions.iter().map(|(_, t)| *t).collect()) {
            return None;
        }
        // Greedy drop-one minimization: remove an assumption whenever
        // the rest stay Unsat. Probes that come back Sat or undecided
        // keep their assumption, so the result over-approximates a
        // minimal core but never under-blames.
        let mut i = 0;
        while assumptions.len() > 1 && i < assumptions.len() {
            let probe = assumptions
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, (_, t))| *t)
                .collect();
            if unsat(probe) {
                assumptions.remove(i);
            } else {
                i += 1;
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
    map: &IdMap<TermId, TermId>,
    memo: &mut IdMap<TermId, TermId>,
) -> TermId {
    if let Some(r) = memo.get(&t) {
        return *r;
    }
    if let Some(r) = map.get(&t) {
        memo.insert(t, *r);
        return *r;
    }
    let r = match pool.kind(t) {
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

    /// The outcome of one query, its receipt dropped.
    fn reach(
        e: &SymbolicEngine,
        state: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
        max_steps: u32,
        budget: &Budget,
    ) -> ReachOutcome {
        let (outcome, _) = e
            .solve_reach_profiled(state, targets, max_steps, budget)
            .unwrap();
        outcome
    }

    /// The one-cycle plan under an unlimited budget, `None` when the
    /// targets are unreachable in one cycle.
    fn step(
        e: &SymbolicEngine,
        state: &[LogicVec],
        targets: &[(SignalId, LogicVec)],
    ) -> Option<InputAssignment> {
        match reach(e, state, targets, 1, &Budget::unlimited()) {
            ReachOutcome::Reached(mut plan) => plan.pop(),
            _ => None,
        }
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
    fn one_step_query_finds_magic_command() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let cmd = d.signal_by_name("cmd").unwrap();
        // From state 0, reaching state 1 requires cmd == 7.
        let sol = step(&e, &zero_state(&d), &[(st, LogicVec::from_u64(3, 1))]).expect("reachable");
        assert_eq!(sol.value(cmd).unwrap().to_u64(), Some(7));
    }

    #[test]
    fn one_step_query_detects_unreachable_target() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        // state 3 needs two hops from state 0 — unreachable in one.
        assert!(step(&e, &zero_state(&d), &[(st, LogicVec::from_u64(3, 3))]).is_none());
    }

    #[test]
    fn multi_cycle_queries_unroll_and_replay() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let targets = [(st, LogicVec::from_u64(3, 3))];
        let ReachOutcome::Reached(seq) =
            reach(&e, &zero_state(&d), &targets, 4, &Budget::unlimited())
        else {
            panic!("reachable in ≤4 steps");
        };
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
        let sol = step(&e, &state, &[(st, LogicVec::from_u64(3, 3))]);
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
        assert!(step(&e, &state, &[(st, LogicVec::from_u64(3, 0))]).is_none());
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
        let sol =
            step(&e, &zero_state(&d), &[(acc, LogicVec::from_u64(8, 0xFF))]).expect("reachable");
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
        let sol =
            step(&e, &zero_state(&d_arc), &[(q, LogicVec::from_u64(4, 9))]).expect("reachable");
        // q' = d + 2, so d must be 7.
        assert_eq!(sol.value(din).unwrap().to_u64(), Some(7));
    }

    #[test]
    fn input_assignment_word_packing() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let sol = step(&e, &zero_state(&d), &[(st, LogicVec::from_u64(3, 1))]).unwrap();
        let word = sol.to_word(&d);
        assert_eq!(word.width(), d.fuzz_width());
        assert_eq!(word.to_u64(), Some(7));
    }

    #[test]
    fn invalid_targets_are_errors_not_panics() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let cmd = d.signal_by_name("cmd").unwrap();
        let err = e
            .solve_reach_profiled(
                &zero_state(&d),
                &[(st, LogicVec::xes(3))],
                1,
                &Budget::unlimited(),
            )
            .unwrap_err();
        assert!(matches!(err, ReachError::XTarget { .. }));
        assert!(err.to_string().contains("state"));
        let err = e
            .solve_reach_profiled(
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
    fn unlimited_budget_decides_sat_and_unsat() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let targets = [(st, LogicVec::from_u64(3, 3))];
        let out = reach(&e, &zero_state(&d), &targets, 4, &Budget::unlimited());
        assert!(matches!(out, ReachOutcome::Reached(_)));
        assert_eq!(out.status(), SolveStatus::Sat);
        // A genuinely unreachable one-step target stays `Unreachable`.
        let out = reach(&e, &zero_state(&d), &targets, 1, &Budget::unlimited());
        assert_eq!(out, ReachOutcome::Unreachable);
        assert_eq!(out.status(), SolveStatus::Unsat);
    }

    #[test]
    fn zero_conflict_budget_exhausts_immediately() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let budget = Budget::unlimited().with_conflicts(0);
        let out = reach(
            &e,
            &zero_state(&d),
            &[(st, LogicVec::from_u64(3, 1))],
            4,
            &budget,
        );
        assert!(matches!(
            out,
            ReachOutcome::Exhausted {
                reason: UnknownReason::Conflicts
            }
        ));
    }

    #[test]
    fn introspection_is_search_neutral_and_traces_every_call() {
        let plain = engine(FSM, "fsm");
        let mut e = engine(FSM, "fsm");
        e.set_introspection(true);
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let targets = [(st, LogicVec::from_u64(3, 3))];
        let budget = Budget::unlimited();
        let (plain_out, plain_stats) = plain
            .solve_reach_profiled(&zero_state(&d), &targets, 4, &budget)
            .unwrap();
        let (traced, stats) = e
            .solve_reach_profiled(&zero_state(&d), &targets, 4, &budget)
            .unwrap();
        assert!(
            plain_stats.scope.is_none(),
            "introspection is off by default"
        );
        let scope = stats.scope.clone().expect("introspection is on");
        // Tracing must not change the search.
        assert_eq!(plain_out, traced);
        assert_eq!(
            ReachStats {
                scope: None,
                ..stats.clone()
            },
            plain_stats
        );
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
        let mut e = engine(FSM, "fsm");
        e.set_introspection(true);
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let mut state = zero_state(&d);
        state[st.index()] = LogicVec::from_u64(3, 2);
        let (outcome, stats) = e
            .solve_reach_profiled(
                &state,
                &[(st, LogicVec::from_u64(3, 0))],
                1,
                &Budget::unlimited(),
            )
            .unwrap();
        assert_eq!(outcome, ReachOutcome::Unreachable);
        let scope = stats.scope.expect("introspection is on");
        assert_eq!(scope.blame, vec!["state".to_string()]);
        assert!(scope.blame_is_core);
    }

    #[test]
    fn zero_depth_is_an_error() {
        // A bound of 0 leaves no depth to search: the query is refused
        // before any solve, for a fresh target and for one the image
        // memo already holds dead.
        let mut e = engine(FSM, "fsm");
        e.set_introspection(true);
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let three = [(st, LogicVec::from_u64(3, 3))];
        let seven = [(st, LogicVec::from_u64(3, 7))];
        let zero = |targets: &[(SignalId, LogicVec)]| {
            e.solve_reach_profiled(&zero_state(&d), targets, 0, &Budget::unlimited())
        };
        assert_eq!(zero(&three), Err(ReachError::ZeroDepth));
        assert_eq!(e.cache_stats(), SolverCacheStats::default());
        let out = reach(&e, &zero_state(&d), &seven, 2, &Budget::unlimited());
        assert_eq!(out, ReachOutcome::Unreachable);
        let err = zero(&seven).unwrap_err();
        assert_eq!(err, ReachError::ZeroDepth);
        assert!(err.to_string().contains("0"), "{err}");
    }

    #[test]
    fn warm_reach_matches_never_queried_verdicts_and_replays() {
        let pristine = engine(FSM, "fsm");
        let warm = pristine.clone();
        let d = Arc::clone(warm.design());
        let st = d.signal_by_name("state").unwrap();
        // Sibling goals from the same start state: every FSM state
        // value, reachable or not, at several bounds.
        for bound in [1u32, 4] {
            for val in 0..8u64 {
                let targets = [(st, LogicVec::from_u64(3, val))];
                let unlimited = Budget::unlimited();
                let f = reach(
                    &pristine.clone(),
                    &zero_state(&d),
                    &targets,
                    bound,
                    &unlimited,
                );
                let c = reach(&warm, &zero_state(&d), &targets, bound, &unlimited);
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
        let stats = warm.cache_stats();
        assert!(stats.goals > 0);
        assert!(
            stats.reused_goals > 0,
            "sibling goals never reused: {stats:?}"
        );
        assert!(stats.frame_hits > 0, "no frame reuse: {stats:?}");
        assert!(stats.reuse_milli() > 0);
        assert_eq!(pristine.cache_stats(), SolverCacheStats::default());
    }

    #[test]
    fn warm_reach_budget_ceilings_match_a_never_queried_clone() {
        let pristine = engine(FSM, "fsm");
        let warm = pristine.clone();
        let d = Arc::clone(warm.design());
        let st = d.signal_by_name("state").unwrap();
        let targets = [(st, LogicVec::from_u64(3, 3))];
        // Warm the chain with a sibling goal first.
        reach(
            &warm,
            &zero_state(&d),
            &[(st, LogicVec::from_u64(3, 1))],
            4,
            &Budget::unlimited(),
        );
        // A depth-1 bound: both prove the three-hop target out of reach.
        let unlimited = Budget::unlimited();
        let f = reach(&pristine.clone(), &zero_state(&d), &targets, 1, &unlimited);
        let c = reach(&warm, &zero_state(&d), &targets, 1, &unlimited);
        assert_eq!(
            (f.status(), c.status()),
            (SolveStatus::Unsat, SolveStatus::Unsat)
        );
        // Conflicts-0: trips on the very first check either way.
        let budget = Budget::unlimited().with_conflicts(0);
        let c = reach(&warm, &zero_state(&d), &targets, 4, &budget);
        assert_eq!(c.status(), SolveStatus::Unknown(UnknownReason::Conflicts));
    }

    #[test]
    fn switching_start_states_replaces_the_session() {
        let pristine = engine(FSM, "fsm");
        let warm = pristine.clone();
        let d = Arc::clone(warm.design());
        let st = d.signal_by_name("state").unwrap();
        let mut other = zero_state(&d);
        other[st.index()] = LogicVec::from_u64(3, 1);
        // Alternating start states: every query drops the warm session
        // and seeds a cold one, so each query blasts its deepest frame
        // chain afresh, and verdicts still match a never-queried engine.
        let mut cold_frames = 0;
        for (i, val) in [1u64, 2, 3, 7].into_iter().enumerate() {
            let start = if i % 2 == 0 {
                zero_state(&d)
            } else {
                other.clone()
            };
            let targets = [(st, LogicVec::from_u64(3, val))];
            let f = reach(&pristine.clone(), &start, &targets, 4, &Budget::unlimited());
            let (c, stats) = warm
                .solve_reach_profiled(&start, &targets, 4, &Budget::unlimited())
                .unwrap();
            assert_eq!(f.status(), c.status(), "state {val} from start {i}");
            cold_frames += u64::from(stats.deepest_unroll);
        }
        let stats = warm.cache_stats();
        assert_eq!(stats.frame_misses, cold_frames, "{stats:?}");
    }

    #[test]
    fn start_states_differing_only_in_x_versus_z_share_the_warm_chain() {
        // The key is the start state itself: X and Z seed the same free
        // symbol, so they share a chain; a defined bit that differs
        // does not.
        let d = Arc::new(elaborate_src(XFACTOR, "xf").unwrap());
        let warm = SymbolicEngine::new(Arc::clone(&d));
        let hit = d.signal_by_name("hit").unwrap();
        let targets = [(hit, LogicVec::from_u64(1, 1))];
        let start = |unknown: Bit, low: Bit| {
            let mut state = zero_state(&d);
            for name in ["x", "y"] {
                let mut v = LogicVec::filled(8, unknown);
                v.set_bit(0, low);
                state[d.signal_by_name(name).unwrap().index()] = v;
            }
            state
        };
        let mut seen = Vec::new();
        for state in [
            start(Bit::X, Bit::One),
            start(Bit::Z, Bit::One),
            start(Bit::Z, Bit::Zero), // even factors of an odd product
        ] {
            let c = reach(&warm, &state, &targets, 1, &Budget::unlimited());
            seen.push((c.status(), warm.cache_stats().frame_misses));
        }
        let (sat, unsat) = (SolveStatus::Sat, SolveStatus::Unsat);
        assert_eq!(seen, vec![(sat, 1), (sat, 1), (unsat, 2)]);
    }

    /// `q` holds 3 only under reset; otherwise it copies one input bit.
    const RESET_ONLY: &str = "
        module r(input clk, input rst_n, input [1:0] d, output logic [1:0] q);
          always_ff @(posedge clk or negedge rst_n)
            if (!rst_n) q <= 2'd3;
            else q <= {1'b0, d[0]};
        endmodule";

    /// `state` with the given value, every other signal zero.
    fn fsm_state(d: &Design, value: u64) -> Vec<LogicVec> {
        let mut state = zero_state(d);
        state[d.signal_by_name("state").unwrap().index()] = LogicVec::from_u64(3, value);
        state
    }

    /// The receipt of an answer from the image memo: no solve at all.
    fn assert_memo_answer(what: &str, outcome: &ReachOutcome, stats: &ReachStats) {
        assert_eq!(*outcome, ReachOutcome::Unreachable, "{what}");
        assert_eq!(
            (stats.solver_calls, stats.deepest_unroll, stats.spent),
            (0, 0, BudgetSpent::default()),
            "{what}: a dead value ran a solve"
        );
    }

    #[test]
    fn dead_values_skip_the_schedule_from_every_start() {
        // No FSM transition writes 4..7: the first query proves 5
        // unreachable through the 1, 2, 4 schedule, then probes once.
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let five = [(st, LogicVec::from_u64(3, 5))];
        let unlimited = Budget::unlimited();
        let (outcome, stats) = e
            .solve_reach_profiled(&fsm_state(&d, 0), &five, 4, &unlimited)
            .unwrap();
        assert_eq!(outcome, ReachOutcome::Unreachable);
        assert_eq!((stats.solver_calls, stats.deepest_unroll), (4, 4));
        for start in [1, 2, 6] {
            let (outcome, stats) = e
                .solve_reach_profiled(&fsm_state(&d, start), &five, 4, &unlimited)
                .unwrap();
            assert_memo_answer(&format!("from state {start}"), &outcome, &stats);
        }
        // 3 fails from state 0 in one step but follows state 2: the
        // free-state probe reaches it, so the induction probe runs too
        // and reaches it from state 2, which does not hold 3. The value
        // is live, and the next query runs the schedule again without
        // probing.
        let three = [(st, LogicVec::from_u64(3, 3))];
        for calls in [3, 1] {
            let (outcome, stats) = e
                .solve_reach_profiled(&fsm_state(&d, 0), &three, 1, &unlimited)
                .unwrap();
            assert_eq!(outcome, ReachOutcome::Unreachable);
            assert_eq!(stats.solver_calls, calls);
        }
        // A conjunction with a dead member is dead too.
        let both = [(st, LogicVec::from_u64(3, 1)), five[0].clone()];
        let (outcome, stats) = e
            .solve_reach_profiled(&fsm_state(&d, 0), &both, 4, &unlimited)
            .unwrap();
        assert_memo_answer("conjunction", &outcome, &stats);
    }

    /// `s` moves 0 → 1 → 2 → 0 unless `hold` is set; no arm writes 3,
    /// so only the hold keeps it.
    const HELD_ONLY: &str = "
        module h(input clk, input rst_n, input hold, input [1:0] go,
                 output logic [1:0] s);
          always_ff @(posedge clk or negedge rst_n)
            if (!rst_n) s <= 2'd0;
            else if (!hold) begin
              case (s)
                2'd0: if (go == 2'd1) s <= 2'd1;
                2'd1: s <= 2'd2;
                default: s <= 2'd0;
              endcase
            end
        endmodule";

    #[test]
    fn held_only_values_skip_the_schedule_from_other_defined_starts() {
        let e = engine(HELD_ONLY, "h");
        let d = Arc::clone(e.design());
        let s = d.signal_by_name("s").unwrap();
        let three = [(s, LogicVec::from_u64(2, 3))];
        let from = |v: LogicVec| {
            let mut state = zero_state(&d);
            state[s.index()] = v;
            state
        };
        let unlimited = Budget::unlimited();
        // The 1, 2, 4 schedule, then both probes: the free start state
        // reaches 3 by holding it, and no start that does not hold 3
        // reaches it.
        let (outcome, stats) = e
            .solve_reach_profiled(&from(LogicVec::from_u64(2, 0)), &three, 4, &unlimited)
            .unwrap();
        assert_eq!(outcome, ReachOutcome::Unreachable);
        assert_eq!((stats.solver_calls, stats.deepest_unroll), (5, 4));
        for start in 0..3 {
            let (outcome, stats) = e
                .solve_reach_profiled(&from(LogicVec::from_u64(2, start)), &three, 4, &unlimited)
                .unwrap();
            assert_memo_answer(&format!("from s = {start}"), &outcome, &stats);
        }
        // A start that holds 3, or may, runs the schedule and holds it.
        for start in [LogicVec::from_u64(2, 3), LogicVec::xes(2)] {
            let what = format!("from s = {start:?}");
            let (outcome, stats) = e
                .solve_reach_profiled(&from(start), &three, 4, &unlimited)
                .unwrap();
            assert!(matches!(outcome, ReachOutcome::Reached(_)), "{what}");
            assert_eq!((stats.solver_calls, stats.deepest_unroll), (1, 1), "{what}");
        }
    }

    #[test]
    fn values_produced_only_under_reset_are_dead() {
        let e = engine(RESET_ONLY, "r");
        let d = Arc::clone(e.design());
        let q = d.signal_by_name("q").unwrap();
        let three = [(q, LogicVec::from_u64(2, 3))];
        // From the post-reset state q = 3: resets are held inactive in
        // plans, so q can never return to 3.
        let mut after_reset = zero_state(&d);
        after_reset[q.index()] = LogicVec::from_u64(2, 3);
        let (outcome, stats) = e
            .solve_reach_profiled(&after_reset, &three, 1, &Budget::unlimited())
            .unwrap();
        assert_eq!(outcome, ReachOutcome::Unreachable);
        assert_eq!(stats.solver_calls, 2, "one schedule solve and the probe");
        let (outcome, stats) = e
            .solve_reach_profiled(&zero_state(&d), &three, 3, &Budget::unlimited())
            .unwrap();
        assert_memo_answer("q = 3 after the probe", &outcome, &stats);
    }

    #[test]
    fn image_probe_leaves_the_warm_chain_alone() {
        let e = engine(FSM, "fsm");
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let start = fsm_state(&d, 0);
        let (outcome, stats) = e
            .solve_reach_profiled(
                &start,
                &[(st, LogicVec::from_u64(3, 6))],
                4,
                &Budget::unlimited(),
            )
            .unwrap();
        assert_eq!(outcome, ReachOutcome::Unreachable);
        assert_eq!(stats.solver_calls, 4, "three schedule checks and the probe");
        // Only the schedule's checks ran on the warm chain, and the
        // chain still holds the start state's frames.
        let schedule = SolverCacheStats {
            frame_hits: 3,
            frame_misses: 4,
            goals: 3,
            reused_goals: 2,
        };
        assert_eq!(e.cache_stats(), schedule);
        let out = reach(
            &e,
            &start,
            &[(st, LogicVec::from_u64(3, 1))],
            1,
            &Budget::unlimited(),
        );
        assert!(matches!(out, ReachOutcome::Reached(_)));
        let after = e.cache_stats();
        assert_eq!(
            (after.frame_hits, after.frame_misses, after.reused_goals),
            (4, 4, 3),
            "the probe replaced the warm chain: {after:?}"
        );
    }

    #[test]
    fn memo_answers_carry_no_blame() {
        let mut e = engine(FSM, "fsm");
        e.set_introspection(true);
        let d = Arc::clone(e.design());
        let st = d.signal_by_name("state").unwrap();
        let four = [(st, LogicVec::from_u64(3, 4))];
        let (_, first) = e
            .solve_reach_profiled(&fsm_state(&d, 2), &four, 1, &Budget::unlimited())
            .unwrap();
        // The probing query traces its probe like any other call.
        let scope = first.scope.expect("introspection is on");
        let calls: u64 = scope.call_conflict_hist.iter().sum();
        assert_eq!((first.solver_calls, calls), (2, 2));
        assert!(!scope.blame.is_empty(), "a solved failure is blamed");
        let (outcome, stats) = e
            .solve_reach_profiled(&fsm_state(&d, 1), &four, 1, &Budget::unlimited())
            .unwrap();
        assert_memo_answer("introspected", &outcome, &stats);
        let scope = stats.scope.expect("introspection is on");
        assert!(scope.blame.is_empty(), "blamed {:?}", scope.blame);
        assert!(!scope.blame_is_core);
        assert_eq!(scope.call_conflict_hist.iter().sum::<u64>(), 0);
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
        let sol =
            step(&e, &zero_state(&d_arc), &[(q, LogicVec::from_u64(8, 0xA5))]).expect("reachable");
        assert_eq!(sol.value(din).unwrap().to_u64(), Some(5));
        // And 0x55 is unreachable because the high nibble is forced to A.
        assert!(step(&e, &zero_state(&d_arc), &[(q, LogicVec::from_u64(8, 0x55))]).is_none());
    }
}
