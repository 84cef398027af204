//! CDCL SAT solver: two-watched-literal propagation, VSIDS decisions,
//! first-UIP learning, phase saving and Luby restarts.
//!
//! Searches can be bounded by a [`Budget`]
//! ([`solve_budgeted`](SatSolver::solve_budgeted)); a search that hits
//! a ceiling returns [`SatResult::Unknown`] with the reason and the
//! work spent, leaving the solver reusable (learned clauses are kept).

use crate::budget::{Budget, BudgetSpent};
use crate::trace::SolveTrace;
use std::fmt;
use symbfuzz_telemetry::UnknownReason;

/// A literal: a propositional variable (0-based) with a polarity.
///
/// Encoded as `var << 1 | negated`, so `Lit` doubles as an index into
/// watch lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// A literal for `var` with the given polarity (`true` = positive).
    pub fn new(var: u32, positive: bool) -> Lit {
        Lit(var << 1 | (!positive as u32))
    }

    /// The underlying variable.
    pub fn var(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the literal is positive.
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The negated literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// The watch-list index.
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.is_pos() { "" } else { "¬" }, self.var())
    }
}

/// Result of a SAT query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with one polarity per variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// The search hit a [`Budget`] ceiling before a verdict; never
    /// returned under [`Budget::unlimited`].
    Unknown {
        /// Ceiling that stopped the search.
        reason: UnknownReason,
    },
}

impl SatResult {
    /// `true` when satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// `reason` of a variable assigned by a decision, an assumption or a
/// unit clause.
const NO_REASON: u32 = u32::MAX;

/// Position of a variable that is not in the [`OrderHeap`].
const NOT_IN_HEAP: u32 = u32::MAX;

/// The VSIDS decision order: a binary heap of variables, the most
/// active first and equal activities by ascending index, which is the
/// variable a linear scan for the first most active unassigned one
/// returns. Assigned variables leave lazily, when they reach the top.
#[derive(Debug, Default, Clone)]
struct OrderHeap {
    heap: Vec<u32>,
    /// Each variable's slot in `heap`, [`NOT_IN_HEAP`] when absent.
    pos: Vec<u32>,
}

impl OrderHeap {
    /// Whether `a` is picked before `b`.
    fn before(activity: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    /// Adds `v` unless it is already queued.
    fn insert(&mut self, v: u32, activity: &[f64]) {
        let v_idx = v as usize;
        if v_idx >= self.pos.len() {
            self.pos.resize(v_idx + 1, NOT_IN_HEAP);
        }
        if self.pos[v_idx] != NOT_IN_HEAP {
            return;
        }
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the order after `v`'s activity rose.
    fn bumped(&mut self, v: u32, activity: &[f64]) {
        let p = self.pos[v as usize];
        if p != NOT_IN_HEAP {
            self.sift_up(p as usize, activity);
        }
    }

    /// Removes and returns the first variable in the order.
    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap has a top");
        self.pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Re-establishes the order over the queued variables, after a
    /// rescale that may have tied activities that differed.
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn place(&mut self, i: usize, v: u32) {
        self.heap[i] = v;
        self.pos[v as usize] = u32::try_from(i).expect("heap slots are variable indices");
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !Self::before(activity, v, p) {
                break;
            }
            self.place(i, p);
            i = parent;
        }
        self.place(i, v);
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && Self::before(activity, self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !Self::before(activity, c, v) {
                break;
            }
            self.place(i, c);
            i = child;
        }
        self.place(i, v);
    }
}

/// A CDCL SAT solver over clauses of [`Lit`]s.
///
/// # Examples
///
/// ```
/// use symbfuzz_smt::{Budget, Lit, SatSolver, SatResult};
///
/// let mut s = SatSolver::new();
/// let (a, b) = (s.new_var(), s.new_var());
/// s.add_clause(&[Lit::new(a, true), Lit::new(b, true)]);
/// s.add_clause(&[Lit::new(a, false)]);
/// let SatResult::Sat(model) = s.solve_budgeted(&[], &Budget::unlimited()) else { panic!() };
/// assert!(!model[a as usize] && model[b as usize]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct SatSolver {
    /// Every clause of two or more literals, back to back: a header
    /// word holding the clause's length, then its literals, watched
    /// pair first. A clause is named by its header's offset.
    arena: Vec<Lit>,
    /// Per literal code, the offsets of the clauses watching its
    /// negation.
    watches: Vec<Vec<u32>>,
    /// 0 = unassigned, 1 = true, -1 = false.
    assign: Vec<i8>,
    /// Saved phase for phase-saving decisions.
    phase: Vec<bool>,
    level: Vec<u32>,
    /// The clause that implied each assignment, or [`NO_REASON`].
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    order: OrderHeap,
    /// Conflict analysis's per-variable marks; all clear between
    /// analyses.
    seen: Vec<bool>,
    /// Scratch copy of the clause [`add_clause`](Self::add_clause)
    /// normalizes, reused across calls.
    add_buf: Vec<Lit>,
    /// Scratch for conflict analysis's learned clause, reused across
    /// conflicts.
    learned_buf: Vec<Lit>,
    var_inc: f64,
    unsat: bool,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    /// Opt-in CDCL analytics; `None` (the default) costs one null test
    /// per conflict/restart and nothing else.
    trace: Option<Box<SolveTrace>>,
}

/// The value of `l` under `assign`: 1 true, -1 false, 0 unassigned.
fn lit_value(assign: &[i8], l: Lit) -> i8 {
    let v = assign[l.var() as usize];
    if l.is_pos() {
        v
    } else {
        -v
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            var_inc: 1.0,
            ..SatSolver::default()
        }
    }

    /// Allocates a fresh variable and returns its index.
    pub fn new_var(&mut self) -> u32 {
        let v = u32::try_from(self.assign.len()).expect("variable count fits a literal");
        self.assign.push(0);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of conflicts seen so far (diagnostics).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of decisions made so far (diagnostics).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of unit propagations performed so far (diagnostics).
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    /// Arms CDCL introspection: subsequent searches record learned
    /// clause size/LBD histograms, the restart timeline and
    /// conflict-depth statistics into a [`SolveTrace`]. Idempotent;
    /// tracing stays on until [`take_trace`](Self::take_trace).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Box::default());
        }
    }

    /// The accumulated trace, if tracing is armed.
    pub fn trace(&self) -> Option<&SolveTrace> {
        self.trace.as_deref()
    }

    /// Takes the accumulated trace (with the current top-`k` hot
    /// variables filled in) and re-arms a fresh one, or returns `None`
    /// if tracing was never enabled.
    pub fn take_trace(&mut self, k: usize) -> Option<SolveTrace> {
        let hot = self.hot_vars(k);
        self.trace.take().map(|mut t| {
            t.hot_vars = hot;
            self.trace = Some(Box::default());
            *t
        })
    }

    /// The `k` most VSIDS-active variables as `(var,
    /// activity_permille)`, hottest first, ties broken by variable
    /// index for determinism. Activity is scaled to 0..=1000 of the
    /// hottest variable so the figures survive internal rescaling.
    pub fn hot_vars(&self, k: usize) -> Vec<(u32, u64)> {
        let mut ranked: Vec<(u32, f64)> = self
            .activity
            .iter()
            .enumerate()
            .filter(|(_, &a)| a > 0.0)
            .map(|(v, &a)| (v as u32, a))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        let top = ranked.first().map(|&(_, a)| a).unwrap_or(1.0);
        ranked
            .into_iter()
            .map(|(v, a)| (v, (a / top * 1000.0).round() as u64))
            .collect()
    }

    /// Distinct decision levels among `lits` (the learned clause's
    /// LBD, "literal block distance"). Trace-path only.
    fn lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var() as usize]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn value(&self, l: Lit) -> i8 {
        lit_value(&self.assign, l)
    }

    /// The literals of the clause at offset `cr`.
    fn clause(&self, cr: u32) -> &[Lit] {
        let start = cr as usize + 1;
        let len = self.arena[cr as usize].0 as usize;
        &self.arena[start..start + len]
    }

    /// Adds a clause. Tautologies are dropped; duplicate literals are
    /// merged; the empty clause makes the instance trivially UNSAT.
    ///
    /// Clauses must be added before [`solve_budgeted`](Self::solve_budgeted)
    /// at decision level 0.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if self.unsat {
            return;
        }
        // A previous solve may have left decisions on the trail;
        // clauses must be integrated at decision level 0.
        if self.decision_level() > 0 {
            self.cancel_until(0);
        }
        let mut c = std::mem::take(&mut self.add_buf);
        c.clear();
        c.extend_from_slice(lits);
        self.add_normalized(&mut c);
        self.add_buf = c;
    }

    /// [`add_clause`](Self::add_clause)'s body, over its scratch copy
    /// of the literals.
    fn add_normalized(&mut self, c: &mut Vec<Lit>) {
        c.sort_unstable();
        c.dedup();
        // Tautology: both polarities of one var.
        if c.windows(2).any(|w| w[0].var() == w[1].var()) {
            return;
        }
        // Remove literals already false at level 0; satisfied clause is dropped.
        c.retain(|l| !(self.value(*l) == -1 && self.level[l.var() as usize] == 0));
        if c.iter()
            .any(|l| self.value(*l) == 1 && self.level[l.var() as usize] == 0)
        {
            return;
        }
        match c.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(c[0], NO_REASON) || self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                self.attach(c);
            }
        }
    }

    /// Appends `c` to the arena and watches its first two literals.
    fn attach(&mut self, c: &[Lit]) -> u32 {
        let cr = u32::try_from(self.arena.len()).expect("clause arena outgrew u32 offsets");
        let len = u32::try_from(c.len()).expect("clause length fits a header word");
        self.watches[c[0].negated().code()].push(cr);
        self.watches[c[1].negated().code()].push(cr);
        self.arena.push(Lit(len));
        self.arena.extend_from_slice(c);
        cr
    }

    fn enqueue(&mut self, l: Lit, reason: u32) -> bool {
        match self.value(l) {
            1 => true,
            -1 => false,
            _ => {
                let v = l.var() as usize;
                self.assign[v] = if l.is_pos() { 1 } else { -1 };
                self.phase[v] = l.is_pos();
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Unit propagation; returns the offset of a conflicting clause.
    ///
    /// Each watch list is compacted in place: the watches it keeps stay
    /// in their order, followed, after a conflict, by the unvisited
    /// tail.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let falsified = l.negated();
            // Clauses that watch ¬l may become unit/conflicting now
            // that l is true.
            let mut ws = std::mem::take(&mut self.watches[l.code()]);
            let mut kept = 0;
            let mut i = 0;
            let mut conflict = None;
            while i < ws.len() {
                let cr = ws[i];
                i += 1;
                let start = cr as usize + 1;
                let len = self.arena[cr as usize].0 as usize;
                let c = &mut self.arena[start..start + len];
                // Normalise: watched literals are c[0] and c[1].
                if c[0] == falsified {
                    c.swap(0, 1);
                }
                if lit_value(&self.assign, c[0]) == 1 {
                    ws[kept] = cr;
                    kept += 1;
                    continue;
                }
                // Find a replacement watch.
                if let Some(k) = (2..len).find(|&k| lit_value(&self.assign, c[k]) != -1) {
                    c.swap(1, k);
                    self.watches[c[1].negated().code()].push(cr);
                    continue;
                }
                ws[kept] = cr;
                kept += 1;
                let first = c[0];
                if !self.enqueue(first, cr) {
                    // Conflict: keep the unvisited watches and bail out.
                    ws.copy_within(i.., kept);
                    kept += ws.len() - i;
                    conflict = Some(cr);
                    break;
                }
            }
            ws.truncate(kept);
            let slot = &mut self.watches[l.code()];
            ws.append(slot);
            *slot = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, var: u32) {
        let a = &mut self.activity[var as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Rounding and underflow can tie activities that differed.
            self.order.rebuild(&self.activity);
        } else {
            self.order.bumped(var, &self.activity);
        }
    }

    /// First-UIP conflict analysis: writes the learned clause into
    /// `learned`, asserting literal first, and returns the backjump
    /// level.
    fn analyze(&mut self, confl: u32, learned: &mut Vec<Lit>) -> u32 {
        learned.clear();
        learned.push(Lit::new(0, true)); // placeholder for the asserting literal
        let mut counter = 0u32;
        let mut lit: Option<Lit> = None;
        let mut idx = self.trail.len();
        let mut clause = confl;
        loop {
            let start = if lit.is_none() { 0 } else { 1 };
            for i in start..self.clause(clause).len() {
                let q = self.clause(clause)[i];
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(q.var());
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var() as usize] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[p.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                lit = Some(p);
                break;
            }
            clause = self.reason[p.var() as usize];
            lit = Some(p);
            debug_assert_ne!(clause, NO_REASON);
        }
        learned[0] = lit.unwrap().negated();
        // Every current-level mark was cleared on the trail walk; the
        // rest are exactly the learned clause's other literals.
        for l in &learned[1..] {
            self.seen[l.var() as usize] = false;
        }
        // Backjump level: highest level among the non-asserting literals.
        let bj = learned[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        // Put a literal of the backjump level in watch position 1.
        if learned.len() > 1 {
            let pos = learned[1..]
                .iter()
                .position(|l| self.level[l.var() as usize] == bj)
                .unwrap()
                + 1;
            learned.swap(1, pos);
        }
        bj
    }

    fn cancel_until(&mut self, lvl: u32) {
        while self.decision_level() > lvl {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let v = self.trail.pop().unwrap().var();
                self.assign[v as usize] = 0;
                self.reason[v as usize] = NO_REASON;
                self.order.insert(v, &self.activity);
            }
        }
        self.qhead = self.trail.len();
    }

    /// The next decision variable: the most active unassigned one,
    /// the lowest index among equals.
    fn pick_branch(&mut self) -> Option<u32> {
        let pick = loop {
            match self.order.pop(&self.activity) {
                Some(v) if self.assign[v as usize] != 0 => continue,
                pick => break pick,
            }
        };
        #[cfg(test)]
        assert_eq!(pick, self.scan_pick(), "order heap disagrees with a scan");
        pick
    }

    /// The decision a linear scan over every variable makes, which the
    /// order heap must reproduce.
    #[cfg(test)]
    fn scan_pick(&self) -> Option<u32> {
        let mut best: Option<(u32, f64)> = None;
        for v in 0..self.num_vars() {
            if self.assign[v] == 0 {
                let act = self.activity[v];
                if best.map(|(_, a)| act > a).unwrap_or(true) {
                    best = Some((v as u32, act));
                }
            }
        }
        best.map(|(v, _)| v)
    }

    /// The solver's one entry point: solves under `assumptions`
    /// (literals forced as the first decisions; pass none to solve the
    /// clauses alone), bounded by `budget`. Returns
    /// [`SatResult::Unsat`] if the assumptions are inconsistent with
    /// the clauses.
    ///
    /// The ceilings are checked once per main-loop iteration (i.e. at
    /// propagation/decision granularity), so a search may overshoot a
    /// ceiling by the work of one propagation sweep before stopping.
    /// On exhaustion the trail is cancelled to level 0 and
    /// [`SatResult::Unknown`] carries the reason; learned clauses are
    /// kept, so a retry with a larger budget resumes warm. The work
    /// spent is read off the cumulative counters
    /// ([`conflicts`](Self::conflicts) and its siblings), as
    /// [`SolverSession::check_assuming`](crate::SolverSession::check_assuming)
    /// does.
    pub fn solve_budgeted(&mut self, assumptions: &[Lit], budget: &Budget) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        let limited = !budget.is_unlimited();
        let (c0, d0, p0) = (self.conflicts, self.decisions, self.propagations);
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        let mut restart_count = 0u32;
        let mut conflicts_until_restart = luby(restart_count) * 128;
        loop {
            if limited {
                let spent = BudgetSpent {
                    conflicts: self.conflicts - c0,
                    decisions: self.decisions - d0,
                    propagations: self.propagations - p0,
                };
                if let Some(reason) = budget.check(spent) {
                    self.cancel_until(0);
                    return SatResult::Unknown { reason };
                }
            }
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                // A conflict at level 0 refutes the clauses themselves:
                // it must stick, or a re-solve would start past it.
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                // A conflict while only assumption decisions are on the
                // trail is implied by clauses + assumptions alone: the
                // query is UNSAT under these assumptions.
                if self.decision_level() <= assumptions.len() as u32 {
                    self.cancel_until(0);
                    return SatResult::Unsat;
                }
                let mut learned = std::mem::take(&mut self.learned_buf);
                let bj = self.analyze(confl, &mut learned);
                if self.trace.is_some() {
                    let lbd = self.lbd(&learned);
                    let depth = self.decision_level();
                    if let Some(t) = &mut self.trace {
                        t.note_learned(learned.len(), lbd, depth);
                    }
                }
                let bj = bj.max(assumptions.len() as u32);
                self.cancel_until(bj);
                let assert_lit = learned[0];
                let reason = if learned.len() == 1 {
                    NO_REASON
                } else {
                    self.attach(&learned)
                };
                self.learned_buf = learned;
                if !self.enqueue(assert_lit, reason) {
                    // The learned clause follows from the clauses alone:
                    // falsified with no assumption on the trail, it
                    // refutes them.
                    self.unsat = self.decision_level() == 0;
                    return SatResult::Unsat;
                }
                self.var_inc /= 0.95;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
            } else {
                if conflicts_until_restart == 0 {
                    restart_count += 1;
                    conflicts_until_restart = luby(restart_count) * 128;
                    let at = self.conflicts;
                    if let Some(t) = &mut self.trace {
                        t.note_restart(at);
                    }
                    self.cancel_until(assumptions.len() as u32);
                }
                // Install pending assumptions as decisions.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value(a) {
                        1 => {
                            self.trail_lim.push(self.trail.len());
                        }
                        -1 => return SatResult::Unsat,
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, NO_REASON);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => {
                        let model = self.assign.iter().map(|&v| v == 1).collect();
                        return SatResult::Sat(model);
                    }
                    Some(v) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let l = Lit::new(v, self.phase[v as usize]);
                        self.enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …).
fn luby(i: u32) -> u64 {
    let mut k = 1u32;
    while (1u64 << k) < (i as u64 + 2) {
        k += 1;
    }
    if (1u64 << k) - 1 == i as u64 + 1 {
        return 1u64 << (k - 1);
    }
    luby(i + 1 - (1 << (k - 1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32, pos: bool) -> Lit {
        Lit::new(v, pos)
    }

    fn solve(s: &mut SatSolver) -> SatResult {
        s.solve_budgeted(&[], &Budget::unlimited())
    }

    #[test]
    fn literal_encoding() {
        let l = lit(3, true);
        assert_eq!(l.var(), 3);
        assert!(l.is_pos());
        assert_eq!(l.negated().var(), 3);
        assert!(!l.negated().is_pos());
        assert_eq!(l.negated().negated(), l);
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[lit(a, true)]);
        assert!(solve(&mut s).is_sat());

        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[lit(a, true)]);
        s.add_clause(&[lit(a, false)]);
        assert_eq!(solve(&mut s), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new();
        s.new_var();
        s.add_clause(&[]);
        assert_eq!(solve(&mut s), SatResult::Unsat);
    }

    #[test]
    fn implication_chain_forces_model() {
        // a, a→b, b→c, c→d : all true.
        let mut s = SatSolver::new();
        let vars: Vec<u32> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[lit(vars[0], true)]);
        for w in vars.windows(2) {
            s.add_clause(&[lit(w[0], false), lit(w[1], true)]);
        }
        let SatResult::Sat(m) = solve(&mut s) else {
            panic!()
        };
        assert!(vars.iter().all(|&v| m[v as usize]));
    }

    #[test]
    fn xor_constraint() {
        // a ⊕ b encoded as (a∨b)(¬a∨¬b), plus a → model must set b=¬a.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[lit(a, true), lit(b, true)]);
        s.add_clause(&[lit(a, false), lit(b, false)]);
        s.add_clause(&[lit(a, true)]);
        let SatResult::Sat(m) = solve(&mut s) else {
            panic!()
        };
        assert!(m[a as usize] && !m[b as usize]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = SatSolver::new();
        let mut p = [[0u32; 2]; 3];
        for row in &mut p {
            for v in row.iter_mut() {
                *v = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[lit(row[0], true), lit(row[1], true)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[lit(p[i1][j], false), lit(p[i2][j], false)]);
                }
            }
        }
        assert_eq!(solve(&mut s), SatResult::Unsat);
        assert!(s.conflicts() > 0);
    }

    #[test]
    fn assumptions_restrict_models() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[lit(a, true), lit(b, true)]);
        let SatResult::Sat(m) = s.solve_budgeted(&[lit(a, false)], &Budget::unlimited()) else {
            panic!()
        };
        assert!(!m[a as usize] && m[b as usize]);
        // Assumptions conflicting with clauses yield UNSAT but the
        // instance stays solvable without them.
        s.add_clause(&[lit(b, false)]);
        assert_eq!(
            s.solve_budgeted(&[lit(a, false)], &Budget::unlimited()),
            SatResult::Unsat
        );
        assert!(solve(&mut s).is_sat());
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[lit(a, true), lit(a, true), lit(b, false)]);
        s.add_clause(&[lit(a, true), lit(a, false)]); // tautology, dropped
        assert!(solve(&mut s).is_sat());
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    fn pigeonhole(s: &mut SatSolver, pigeons: usize, holes: usize) {
        let p: Vec<Vec<u32>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&v| lit(v, true)).collect();
            s.add_clause(&c);
        }
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                for (&v1, &v2) in p[i1].iter().zip(&p[i2]) {
                    s.add_clause(&[lit(v1, false), lit(v2, false)]);
                }
            }
        }
    }

    #[test]
    fn conflict_budget_yields_unknown_and_solver_stays_usable() {
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 5, 4);
        let budget = Budget::unlimited().with_conflicts(2);
        let r = s.solve_budgeted(&[], &budget);
        let SatResult::Unknown { reason } = r else {
            panic!("expected Unknown, got {r:?}");
        };
        assert_eq!(reason, UnknownReason::Conflicts);
        assert!(s.conflicts() >= 2);
        // Learned clauses are kept; the unlimited retry still decides.
        assert_eq!(solve(&mut s), SatResult::Unsat);
    }

    #[test]
    fn expired_wall_deadline_yields_unknown_deterministically() {
        use std::sync::Arc;
        use symbfuzz_telemetry::{Clock, ManualClock};
        let clock = Arc::new(ManualClock::new());
        clock.set(1000);
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[lit(a, true)]);
        let budget = Budget::unlimited().with_wall_deadline(clock, 500);
        match s.solve_budgeted(&[], &budget) {
            SatResult::Unknown { reason } => assert_eq!(reason, UnknownReason::WallClock),
            r => panic!("expected Unknown, got {r:?}"),
        }
    }

    #[test]
    fn tracing_is_off_by_default_and_records_learning_when_armed() {
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 5, 4);
        assert!(s.trace().is_none());
        assert!(s.take_trace(4).is_none());
        s.enable_trace();
        assert_eq!(solve(&mut s), SatResult::Unsat);
        let t = s.take_trace(4).unwrap();
        assert!(t.learned >= 1, "no learned clauses recorded: {t:?}");
        assert!(t.conflict_depth_max >= 1);
        assert!(t.learned_size_hist.iter().sum::<u64>() >= 1);
        assert!(t.lbd_hist.iter().sum::<u64>() >= 1);
        assert!(!t.hot_vars.is_empty());
        assert_eq!(t.hot_vars[0].1, 1000, "hottest var is the scale anchor");
        // take_trace re-arms a fresh trace.
        let fresh = s.trace().unwrap();
        assert_eq!(fresh.learned, 0);
    }

    #[test]
    fn traced_and_untraced_searches_agree() {
        let mut plain = SatSolver::new();
        let mut traced = SatSolver::new();
        pigeonhole(&mut plain, 4, 3);
        pigeonhole(&mut traced, 4, 3);
        traced.enable_trace();
        assert_eq!(solve(&mut plain), solve(&mut traced));
        assert_eq!(plain.conflicts(), traced.conflicts());
        assert_eq!(plain.decisions(), traced.decisions());
    }

    /// Deterministic pseudo-random 3-SAT: `clauses` clauses over
    /// `vars` fresh variables, literals drawn from an LCG seeded with
    /// `seed`. Returns the clauses as added.
    fn random_3sat(s: &mut SatSolver, vars: u32, clauses: usize, seed: u64) -> Vec<Vec<Lit>> {
        let vs: Vec<u32> = (0..vars).map(|_| s.new_var()).collect();
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        (0..clauses)
            .map(|_| {
                let c: Vec<Lit> = (0..3)
                    .map(|_| {
                        let v = vs[(next() % vars) as usize];
                        lit(v, next() % 2 == 0)
                    })
                    .collect();
                s.add_clause(&c);
                c
            })
            .collect()
    }

    #[test]
    fn refutations_stick_across_re_solves() {
        // Every instance is solved twice: each model must satisfy every
        // clause, and a level-0 refutation must not be forgotten by the
        // second solve.
        let mut refuted = 0;
        for seed in 0..3_000u64 {
            let mut s = SatSolver::new();
            let vars = 20 + (seed % 40) as u32;
            let clauses = random_3sat(&mut s, vars, vars as usize * 9 / 2, seed);
            let mut sat = [false; 2];
            for (round, verdict) in sat.iter_mut().enumerate() {
                *verdict = match solve(&mut s) {
                    SatResult::Sat(m) => {
                        let broken = clauses
                            .iter()
                            .find(|c| !c.iter().any(|l| m[l.var() as usize] == l.is_pos()));
                        assert!(broken.is_none(), "seed {seed} solve {round}: {broken:?}");
                        true
                    }
                    SatResult::Unsat => false,
                    r => panic!("seed {seed} solve {round}: {r:?}"),
                };
            }
            assert_eq!(
                sat[0], sat[1],
                "seed {seed}: the re-solve changed its verdict"
            );
            refuted += u32::from(!sat[0]);
        }
        assert!(refuted > 1_000, "only {refuted} instances were refuted");
    }

    #[test]
    fn moderately_hard_random_instance() {
        // Ratio ~4.0 (40 vars, 160 clauses): solvable either way, must
        // terminate.
        let mut s = SatSolver::new();
        random_3sat(&mut s, 40, 160, 0x12345678);
        // Just ensure a decision is reached.
        let _ = solve(&mut s);
    }

    /// Conflicts after which `var_inc`, grown by 1/0.95 per conflict,
    /// has passed 1e100, so the next bump rescales every activity.
    const RESCALE_CONFLICTS: u64 = 4_490;

    /// Warm solves under random assumptions and conflict budgets, with
    /// a random clause added after each; every decision is checked
    /// against the scan inside `pick_branch`.
    fn warm_rounds(s: &mut SatSolver, seed: u64, rounds: usize) {
        let vars = s.num_vars() as u64;
        let mut state = seed;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for _ in 0..rounds {
            let assumptions: Vec<Lit> = (0..next(4))
                .map(|_| lit(next(vars) as u32, next(2) == 0))
                .collect();
            let budget = match next(3) {
                0 => Budget::unlimited(),
                _ => Budget::unlimited().with_conflicts(1 + next(400)),
            };
            let _ = s.solve_budgeted(&assumptions, &budget);
            let c: Vec<Lit> = (0..3)
                .map(|_| lit(next(vars) as u32, next(2) == 0))
                .collect();
            s.add_clause(&c);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn heap_picks_match_the_scan_under_assumptions_and_budgets(seed: u64) {
            let mut s = SatSolver::new();
            let vars = 8 + (seed % 48) as u32;
            random_3sat(&mut s, vars, vars as usize * 4, seed);
            warm_rounds(&mut s, seed, 8);
        }
    }

    #[test]
    fn heap_picks_match_the_scan_across_restarts_and_the_rescale() {
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 8, 7);
        warm_rounds(&mut s, 0xCAB, 12);
        let _ = solve(&mut s);
        assert!(
            s.conflicts() > RESCALE_CONFLICTS,
            "{} conflicts",
            s.conflicts()
        );
    }

    /// `(verdict, conflicts, decisions, propagations)` of one search.
    type Receipt = (&'static str, u64, u64, u64);

    fn receipt(r: &SatResult, conflicts: u64, decisions: u64, propagations: u64) -> Receipt {
        let verdict = match r {
            SatResult::Sat(_) => "sat",
            SatResult::Unsat => "unsat",
            SatResult::Unknown { .. } => "unknown",
        };
        (verdict, conflicts, decisions, propagations)
    }

    fn solve_receipt(s: &mut SatSolver) -> Receipt {
        let r = solve(s);
        receipt(&r, s.conflicts(), s.decisions(), s.propagations())
    }

    fn session_receipt(
        sess: &mut crate::SolverSession,
        targets: &[crate::TermId],
        budget: &Budget,
    ) -> Receipt {
        let (r, spent) = sess.check_assuming(targets, budget);
        receipt(&r, spent.conflicts, spent.decisions, spent.propagations)
    }

    /// The solver's work on fixed instances, as the linear-scan,
    /// vector-of-clauses solver did it: the order heap and the clause
    /// arena must make every decision and propagation it made.
    #[test]
    fn search_receipts_are_pinned() {
        let mut got: Vec<(&str, Receipt)> = Vec::new();

        let mut s = SatSolver::new();
        pigeonhole(&mut s, 5, 4);
        got.push(("pigeonhole 5->4", solve_receipt(&mut s)));

        let mut s = SatSolver::new();
        random_3sat(&mut s, 40, 160, 0x12345678);
        got.push(("random 3-SAT", solve_receipt(&mut s)));

        // Crosses the 1e100 activity rescale, with restarts.
        let mut s = SatSolver::new();
        pigeonhole(&mut s, 8, 7);
        got.push(("pigeonhole 8->7", solve_receipt(&mut s)));
        assert!(s.conflicts() > RESCALE_CONFLICTS);

        let mut s = SatSolver::new();
        random_3sat(&mut s, 120, 510, 0x5eed);
        got.push(("random 3-SAT, satisfiable", solve_receipt(&mut s)));

        let mut sess = crate::SolverSession::new();
        let goal = crate::session::tests::semiprime_goal(sess.pool_mut());
        sess.assert_term(goal);
        let budget = Budget::unlimited().with_conflicts(300);
        got.push((
            "semiprime, 300 conflicts",
            session_receipt(&mut sess, &[], &budget),
        ));

        // Sibling goals on one warm session: factor 16-bit values into
        // 8-bit factors above 1.
        let mut sess = crate::SolverSession::new();
        let product = {
            let p = sess.pool_mut();
            let a = p.var("a", 8);
            let b = p.var("b", 8);
            let one = p.const_u64(8, 1);
            let (ga, gb) = (p.ult(one, a), p.ult(one, b));
            let guards = p.and(ga, gb);
            let (aw, bw) = (p.resize(a, 16), p.resize(b, 16));
            let m = p.mul(aw, bw);
            (guards, m)
        };
        sess.assert_term(product.0);
        for value in [143u64, 251, 221, 257, 899, 1009] {
            let goal = {
                let p = sess.pool_mut();
                let c = p.const_u64(16, value);
                p.eq(product.1, c)
            };
            let r = session_receipt(&mut sess, &[goal], &Budget::unlimited());
            got.push(("warm factoring goal", r));
        }

        let want: Vec<(&str, Receipt)> = vec![
            ("pigeonhole 5->4", ("unsat", 28, 38, 297)),
            ("random 3-SAT", ("unsat", 39, 40, 435)),
            ("pigeonhole 8->7", ("unsat", 5004, 5958, 65180)),
            ("random 3-SAT, satisfiable", ("sat", 1330, 1618, 37890)),
            ("semiprime, 300 conflicts", ("unknown", 300, 1026, 140409)),
            ("warm factoring goal", ("sat", 123, 290, 12565)),
            ("warm factoring goal", ("unsat", 84, 143, 7166)),
            ("warm factoring goal", ("sat", 27, 37, 2872)),
            ("warm factoring goal", ("unsat", 48, 51, 5492)),
            ("warm factoring goal", ("sat", 0, 6, 433)),
            ("warm factoring goal", ("unsat", 75, 94, 7163)),
        ];
        assert_eq!(got, want);
    }
}
