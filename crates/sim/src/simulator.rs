//! The cycle-based simulation engine.

use std::fmt;
use std::sync::Arc;
use symbfuzz_hdl::{BinaryOp, Edge, UnaryOp};
use symbfuzz_logic::{Bit, LogicVec};
use symbfuzz_netlist::{
    comb_schedule, compile, reset_tree, word_mask, BranchId, CombSchedule, CompileOpts,
    CompileStats, CompiledDesign, Design, NExpr, NLValue, NStmt, ProcKind, ResetTree, SignalId,
    SignalKind, WordCode,
};
use symbfuzz_telemetry::{Collector, Counter, Gauge};

use crate::profiler::{VmProfile, VmProfiler};
use crate::snapstore::{ForkOutcome, SnapshotId, SnapshotStore};

/// How combinational logic is settled between clock edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SettleMode {
    /// Re-execute every combinational process until a global fixpoint
    /// (the original strategy; O(processes × iterations) per settle).
    Fixpoint,
    /// Single level-order sweep over the precomputed
    /// [`CombSchedule`], skipping units none of whose signals changed
    /// since the last settle. Cyclic units fall back to a local
    /// fixpoint, preserving [`SimError::CombLoop`] detection.
    Levelized,
    /// The levelized sweep, dispatching each process through its
    /// compiled word-level bytecode ([`WordCode`]) whenever no X/Z bit
    /// is live in the process's input cone — the packed two-state fast
    /// path. Cones with live unknowns (X-islands), and processes the
    /// lowering rejected, escape to the four-state interpreter per
    /// process, so values stay bit-identical to the other modes.
    #[default]
    Compiled,
}

/// Error raised by simulator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A combinational fixpoint failed to converge (combinational loop).
    CombLoop,
    /// `set_input` was called on a non-input signal.
    NotAnInput(SignalId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CombLoop => write!(f, "combinational loop: fixpoint did not converge"),
            SimError::NotAnInput(s) => write!(f, "signal {s} is not a top-level input"),
        }
    }
}

impl std::error::Error for SimError {}

/// A state re-entry request for [`Simulator::reenter`] — full reset,
/// partial reset, or stored-snapshot restore behind one typed surface.
#[derive(Debug, Clone, Copy)]
pub enum Reentry<'a> {
    /// Assert every reset domain for `cycles` clock cycles.
    FullReset {
        /// Cycles to hold the resets asserted.
        cycles: u32,
    },
    /// Assert only the domain rooted at `reset` (§4.5 partial reset).
    DomainReset {
        /// The domain's reset signal.
        reset: SignalId,
        /// Cycles to hold the reset asserted.
        cycles: u32,
    },
    /// Re-enter a stored copy-on-write snapshot.
    Snapshot {
        /// The store holding the snapshot.
        store: &'a SnapshotStore,
        /// Handle of the snapshot to enter.
        id: SnapshotId,
    },
}

/// Which re-entry mechanism actually ran (reported by
/// [`Simulator::reenter`] and the fuzzer's node re-entry scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReentryMechanism {
    /// All reset domains asserted.
    FullReset,
    /// One reset domain asserted.
    DomainReset,
    /// A stored snapshot entered directly (no replay).
    SnapshotEnter,
    /// A snapshotted ancestor entered, then the residual input suffix
    /// replayed (the fuzzer's nearest-ancestor path).
    ReplaySuffix,
}

impl ReentryMechanism {
    /// Stable lowercase name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            ReentryMechanism::FullReset => "full_reset",
            ReentryMechanism::DomainReset => "domain_reset",
            ReentryMechanism::SnapshotEnter => "snapshot_enter",
            ReentryMechanism::ReplaySuffix => "replay_suffix",
        }
    }
}

/// Mechanism and cost report of one re-entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReentryOutcome {
    /// The mechanism that ran.
    pub mechanism: ReentryMechanism,
    /// Input cycles re-driven to reach the target (0 for direct
    /// snapshot entry and for plain resets).
    pub cycles_replayed: u64,
    /// Pages written into the live value table (snapshot entry), or
    /// copied at fork time — the memory-traffic side of the cost.
    pub pages_copied: u64,
}

/// A recorded branch execution, for coverage instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchOutcome {
    /// Which branch executed.
    pub branch: BranchId,
    /// Outcome index: for an `if`, 0 = then, 1 = else; for a `case`,
    /// the arm index, with `default` (or no match) = arm count.
    pub outcome: u32,
}

/// The cycle-based four-state simulator for one elaborated design.
///
/// See the [crate docs](crate) for the simulation semantics.
#[derive(Debug, Clone)]
pub struct Simulator {
    design: Arc<Design>,
    rtree: ResetTree,
    sched: Arc<CombSchedule>,
    /// Bytecode lowering of the design (see `crate::vm`).
    compiled: Arc<CompiledDesign>,
    mode: SettleMode,
    pub(crate) values: Vec<LogicVec>,
    cycle: u64,
    /// Hit counters per branch, indexed `[branch][outcome]`.
    branch_hits: Vec<Vec<u64>>,
    /// Count of (branch, outcome) pairs with a nonzero hit counter,
    /// maintained incrementally so `toggled_outcomes` is O(1).
    toggled_count: usize,
    /// Branch outcomes recorded since the last `take_outcomes` call.
    recent_outcomes: Vec<BranchOutcome>,
    /// Record outcomes into `recent_outcomes` (hit counters always run).
    record_outcomes: bool,
    comb_unstable: bool,
    /// Per-signal "changed since last settle" flags driving the
    /// levelized sweep's unit skipping.
    pub(crate) dirty: Vec<bool>,
    /// Combinational process indices in declaration order (the
    /// fixpoint fallback's iteration order).
    comb_procs: Vec<u32>,
    /// Cached fuzzable-input packing: (signal, lo bit in the word,
    /// port width), in `SignalId` order.
    input_layout: Vec<(SignalId, u32, u32)>,
    /// Sequential processes: (process index, clock signal index,
    /// clock edge, clock is tracked as a clock signal).
    seq_procs: Vec<(u32, u32, Edge, bool)>,
    /// Input signal indices flagged as clocks (driven each phase).
    clock_inputs: Vec<u32>,
    /// Scratch: previous clock bit per entry of `seq_procs`.
    prev_clock_bits: Vec<Bit>,
    /// Scratch: pre-execution write values for convergence checks.
    scratch_before: Vec<LogicVec>,
    /// Scratch: pending non-blocking assigns.
    scratch_nba: Vec<Nba>,
    /// Scratch: the compiled VM's word register file.
    pub(crate) scratch_regs: Vec<u64>,
    /// High-water mark of cones escaping the fast path in one settle.
    x_island_hw: u64,
    /// Optional telemetry collector (steps, settles, snapshots).
    telemetry: Option<Arc<Collector>>,
    /// Optional per-cone VM profiler (see [`crate::profiler`]).
    vm_profiler: Option<VmProfiler>,
}

/// Non-blocking assignment pending commit.
#[derive(Debug, Clone)]
pub(crate) struct Nba {
    pub(crate) sig: SignalId,
    pub(crate) lo: u32,
    pub(crate) width: u32,
    pub(crate) value: NbaValue,
    /// Whole-signal X smear for unknown dynamic indices.
    pub(crate) smear_x: bool,
}

/// The pending value of an [`Nba`]: a full four-state vector from the
/// interpreter, or a packed two-state word from the compiled VM (which
/// only produces definite values, so the unknown plane is implicitly
/// zero — and keeping it a bare `u64` keeps the VM's store path free
/// of per-cycle allocations).
#[derive(Debug, Clone)]
pub(crate) enum NbaValue {
    Vec(LogicVec),
    Word(u64),
}

impl Simulator {
    /// Creates a simulator with every signal initialised to `X`
    /// (registers stay `X` until reset; combinational nets settle at the
    /// first evaluation).
    pub fn new(design: Arc<Design>) -> Simulator {
        Simulator::with_compile_opts(design, CompileOpts::default())
    }

    /// Like [`new`](Self::new), with explicit bytecode-compilation
    /// options (observability contract for dead-cone elimination).
    pub fn with_compile_opts(design: Arc<Design>, opts: CompileOpts) -> Simulator {
        let values: Vec<LogicVec> = design
            .signals
            .iter()
            .map(|s| LogicVec::xes(s.width))
            .collect();
        let branch_hits = design
            .branches
            .iter()
            .map(|b| vec![0u64; b.outcomes.max(2) as usize + 1])
            .collect();
        let rtree = reset_tree(&design);
        let sched = Arc::new(comb_schedule(&design));
        let compiled = Arc::new(compile(&design, &sched, opts));
        let comb_procs = design
            .processes
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.kind, ProcKind::Comb))
            .map(|(i, _)| i as u32)
            .collect();
        let input_layout = {
            let mut layout = Vec::new();
            let mut lo = 0u32;
            for sig in design.fuzzable_inputs() {
                let w = design.signal(sig).width;
                layout.push((sig, lo, w));
                lo += w;
            }
            layout
        };
        let seq_procs: Vec<(u32, u32, Edge, bool)> = design
            .processes
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p.kind {
                ProcKind::Seq {
                    clock, clock_edge, ..
                } => Some((
                    i as u32,
                    clock.index() as u32,
                    clock_edge,
                    design.signal(clock).is_clock,
                )),
                _ => None,
            })
            .collect();
        let clock_inputs = design
            .inputs()
            .filter(|s| design.signal(*s).is_clock)
            .map(|s| s.index() as u32)
            .collect();
        let dirty = vec![true; design.signals.len()];
        let prev_clock_bits = vec![Bit::X; seq_procs.len()];
        let mut sim = Simulator {
            design,
            rtree,
            sched,
            compiled,
            mode: SettleMode::default(),
            values,
            cycle: 0,
            branch_hits,
            toggled_count: 0,
            recent_outcomes: Vec::new(),
            record_outcomes: false,
            comb_unstable: false,
            dirty,
            comb_procs,
            input_layout,
            seq_procs,
            clock_inputs,
            prev_clock_bits,
            scratch_before: Vec::new(),
            scratch_nba: Vec::new(),
            scratch_regs: Vec::new(),
            x_island_hw: 0,
            telemetry: None,
            vm_profiler: None,
        };
        let _ = sim.settle_comb();
        sim
    }

    /// Attaches (or detaches) a telemetry collector. The simulator
    /// counts clock steps, settle sweeps and snapshot traffic on it.
    /// Settle sweeps are counted once per [`settle`](Self::settle)
    /// call regardless of [`SettleMode`], so telemetry is invariant
    /// across settling strategies. The X-island high-water restarts
    /// here so the `x_island_cones` gauge describes the observed
    /// campaign, not the pre-attach power-up settle.
    pub fn set_collector(&mut self, telemetry: Option<Arc<Collector>>) {
        self.telemetry = telemetry;
        self.x_island_hw = 0;
    }

    #[inline]
    fn count(&self, c: Counter, n: u64) {
        if let Some(t) = &self.telemetry {
            t.add(c, n);
        }
    }

    /// Attaches the per-cone VM profiler (idempotent). Profiling data
    /// accrues only in [`SettleMode::Compiled`], where the fast-path /
    /// escape dispatch happens; other modes leave the rows at zero.
    pub fn enable_vm_profiler(&mut self) {
        if self.vm_profiler.is_none() {
            self.vm_profiler = Some(VmProfiler::new(&self.design, &self.compiled));
        }
    }

    /// Whether [`enable_vm_profiler`](Self::enable_vm_profiler) ran.
    pub fn vm_profiler_enabled(&self) -> bool {
        self.vm_profiler.is_some()
    }

    /// Snapshot of the per-cone profile (top-`top_k` hot cones), or
    /// `None` if the profiler was never enabled.
    pub fn vm_profile(&self, top_k: usize) -> Option<VmProfile> {
        self.vm_profiler
            .as_ref()
            .map(|p| p.profile(&self.design, &self.compiled, top_k))
    }

    #[inline]
    fn note_vm_fast(&mut self, pi: usize) {
        if let Some(p) = &mut self.vm_profiler {
            p.note_fast(pi);
        }
    }

    #[inline]
    fn note_vm_escape(&mut self, pi: usize, compiled_exists: bool) {
        if let Some(p) = &mut self.vm_profiler {
            if compiled_exists {
                p.note_escape_x(pi);
            } else {
                p.note_escape_uncompiled(pi);
            }
        }
    }

    /// The active combinational settling strategy.
    pub fn settle_mode(&self) -> SettleMode {
        self.mode
    }

    /// Switches the settling strategy. All signals are conservatively
    /// marked changed so the next levelized sweep runs every unit.
    pub fn set_settle_mode(&mut self, mode: SettleMode) {
        self.mode = mode;
        self.mark_all_dirty();
    }

    /// The levelized schedule computed for this design.
    pub fn schedule(&self) -> &CombSchedule {
        &self.sched
    }

    /// Statistics from the bytecode lowering (processes compiled vs
    /// rejected, constants folded, branches pruned, …).
    pub fn compile_stats(&self) -> &CompileStats {
        &self.compiled.stats
    }

    /// The design being simulated.
    pub fn design(&self) -> &Arc<Design> {
        &self.design
    }

    /// The reset tree extracted for this design.
    pub fn reset_tree(&self) -> &ResetTree {
        &self.rtree
    }

    /// Elapsed simulated cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the last combinational settle hit the iteration cap.
    pub fn comb_unstable(&self) -> bool {
        self.comb_unstable
    }

    /// Current value of a signal.
    pub fn get(&self, sig: SignalId) -> &LogicVec {
        &self.values[sig.index()]
    }

    /// All current signal values, in [`SignalId`] order.
    pub fn values(&self) -> &[LogicVec] {
        &self.values
    }

    /// Drives a top-level input. The value is zero-extended or truncated
    /// to the port width. Combinational logic is *not* re-settled here;
    /// it settles at the next [`step`](Self::step) (or explicit
    /// [`settle`](Self::settle)).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotAnInput`] for non-input signals.
    pub fn set_input(&mut self, sig: SignalId, value: &LogicVec) -> Result<(), SimError> {
        if self.design.signal(sig).kind != SignalKind::Input {
            return Err(SimError::NotAnInput(sig));
        }
        let w = self.design.signal(sig).width;
        self.force_value(sig.index(), value.resized(w));
        Ok(())
    }

    /// Distributes a flat bit vector across the fuzzable inputs (every
    /// input that is not a clock or reset), LSB first in `SignalId`
    /// order — the driver-side packing of §4.2 ("test inputs are packed
    /// into bit vectors").
    pub fn apply_input_word(&mut self, word: &LogicVec) {
        for i in 0..self.input_layout.len() {
            let (sig, lo, w) = self.input_layout[i];
            if w <= 64 {
                // Packed fast path: extract both planes without
                // allocating (zero-extension falls out of the masking).
                let (val, unk) = if lo >= word.width() {
                    (0, 0)
                } else {
                    word.extract_word(lo, w.min(word.width() - lo))
                };
                self.force_word(sig.index(), val, unk);
                continue;
            }
            let part = if lo >= word.width() {
                LogicVec::zeros(w)
            } else {
                let take = w.min(word.width() - lo);
                word.slice(lo, take).resized(w)
            };
            self.force_value(sig.index(), part);
        }
    }

    /// Enables or disables recording of individual branch outcomes
    /// (hit counters always accumulate).
    pub fn set_record_outcomes(&mut self, on: bool) {
        self.record_outcomes = on;
    }

    /// Drains the branch outcomes recorded since the last call.
    pub fn take_outcomes(&mut self) -> Vec<BranchOutcome> {
        std::mem::take(&mut self.recent_outcomes)
    }

    /// Cumulative hit counts for one branch, indexed by outcome.
    pub fn branch_hits(&self, branch: BranchId) -> &[u64] {
        &self.branch_hits[branch.index()]
    }

    /// Number of (branch, outcome) pairs exercised at least once — the
    /// mux/branch toggle coverage used by the RFuzz-style baseline.
    /// Maintained incrementally, so this is O(1).
    pub fn toggled_outcomes(&self) -> usize {
        self.toggled_count
    }

    /// Settles combinational logic using the active [`SettleMode`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombLoop`] if settling does not converge
    /// (the values are left at the last iteration and
    /// [`comb_unstable`](Self::comb_unstable) is set).
    pub fn settle(&mut self) -> Result<(), SimError> {
        self.settle_comb()
    }

    fn settle_comb(&mut self) -> Result<(), SimError> {
        self.count(Counter::SettleSweeps, 1);
        match self.mode {
            SettleMode::Fixpoint => self.comb_fixpoint(),
            SettleMode::Levelized => self.comb_levelized(),
            SettleMode::Compiled => self.comb_compiled(),
        }
    }

    fn comb_fixpoint(&mut self) -> Result<(), SimError> {
        let design = Arc::clone(&self.design);
        let procs = std::mem::take(&mut self.comb_procs);
        let result = self.run_local_fixpoint(&design, &procs);
        self.comb_procs = procs;
        match result {
            Ok(()) => {
                self.comb_unstable = false;
                self.clear_dirty();
                Ok(())
            }
            Err(e) => {
                self.comb_unstable = true;
                Err(e)
            }
        }
    }

    /// Single level-order sweep over the schedule. Units none of whose
    /// signals changed since the last settle are skipped; cyclic units
    /// fall back to a local fixpoint with the same iteration cap as the
    /// global strategy, so combinational loops are still reported.
    fn comb_levelized(&mut self) -> Result<(), SimError> {
        let design = Arc::clone(&self.design);
        let sched = Arc::clone(&self.sched);
        let mut failed = false;
        for unit in &sched.units {
            if !unit.triggers.iter().any(|s| self.dirty[s.index()]) {
                continue;
            }
            if unit.cyclic {
                failed |= self.run_local_fixpoint(&design, &unit.procs).is_err();
            } else {
                let p = &design.processes[unit.procs[0] as usize];
                let mut nba = std::mem::take(&mut self.scratch_nba);
                self.exec_stmt(&p.body, &mut nba, true);
                self.commit_nbas(&mut nba);
                self.scratch_nba = nba;
            }
        }
        self.clear_dirty();
        self.comb_unstable = failed;
        if failed {
            Err(SimError::CombLoop)
        } else {
            Ok(())
        }
    }

    /// The compiled sweep: identical unit walk (and skip rule) to
    /// [`comb_levelized`](Self::comb_levelized), but each acyclic unit
    /// dispatches through its word-level bytecode when its whole input
    /// cone is two-state, escaping to the interpreter per cone
    /// otherwise. Cyclic units always use the interpreter's local
    /// fixpoint, preserving [`SimError::CombLoop`] detection.
    fn comb_compiled(&mut self) -> Result<(), SimError> {
        let design = Arc::clone(&self.design);
        let sched = Arc::clone(&self.sched);
        let compiled = Arc::clone(&self.compiled);
        let mut failed = false;
        let mut fast = 0u64;
        let mut escaped = 0u64;
        for unit in &sched.units {
            if !unit.triggers.iter().any(|s| self.dirty[s.index()]) {
                continue;
            }
            if unit.cyclic {
                failed |= self.run_local_fixpoint(&design, &unit.procs).is_err();
                if let Some(p) = &mut self.vm_profiler {
                    for &cp in &unit.procs {
                        p.note_escape_cyclic(cp as usize);
                    }
                }
                continue;
            }
            let pi = unit.procs[0] as usize;
            if compiled.dead[pi] {
                continue;
            }
            let mut nba = std::mem::take(&mut self.scratch_nba);
            match &compiled.procs[pi] {
                Some(code) if self.cone_is_two_state(code) => {
                    fast += 1;
                    self.note_vm_fast(pi);
                    self.exec_wordcode(code, &mut nba);
                }
                other => {
                    escaped += 1;
                    self.note_vm_escape(pi, other.is_some());
                    let p = &design.processes[pi];
                    self.exec_stmt(&p.body, &mut nba, true);
                }
            }
            self.commit_nbas(&mut nba);
            self.scratch_nba = nba;
        }
        self.clear_dirty();
        self.note_settle_mix(fast, escaped);
        self.comb_unstable = failed;
        if failed {
            Err(SimError::CombLoop)
        } else {
            Ok(())
        }
    }

    /// The per-cone X-island check: the fast path is sound only while
    /// every signal the bytecode loads is free of X/Z bits (lowered
    /// ops are two-state; stores then never introduce unknowns).
    #[inline]
    fn cone_is_two_state(&self, code: &WordCode) -> bool {
        code.reads
            .iter()
            .all(|s| self.values[s.index()].unk_word() == 0)
    }

    /// Accumulated fast-path telemetry, flushed once per settle to keep
    /// the counters off the per-cone hot path. The gauge tracks the
    /// high-water escaped-cone count (the widest X-island seen).
    fn note_settle_mix(&mut self, fast: u64, escaped: u64) {
        if escaped > self.x_island_hw {
            self.x_island_hw = escaped;
            if let Some(t) = &self.telemetry {
                t.set_gauge(Gauge::XIslandCones, escaped);
            }
        }
        if let Some(t) = &self.telemetry {
            if fast > 0 {
                t.add(Counter::SettleFastPath, fast);
            }
            if escaped > 0 {
                t.add(Counter::SettleEscapes, escaped);
            }
        }
    }

    /// Repeats the given processes, in order, until their outputs stop
    /// changing.
    ///
    /// Convergence is judged on each process's *final* outputs, not on
    /// intermediate writes (a body like `w = 0; w[i] = 1;` mutates `w`
    /// twice per evaluation but is perfectly stable).
    fn run_local_fixpoint(&mut self, design: &Design, procs: &[u32]) -> Result<(), SimError> {
        let max_iters = design.processes.len() + 8;
        let mut before = std::mem::take(&mut self.scratch_before);
        let mut nba = std::mem::take(&mut self.scratch_nba);
        let mut result = Err(SimError::CombLoop);
        for _ in 0..max_iters {
            let mut changed = false;
            for &pi in procs {
                let p = &design.processes[pi as usize];
                before.clear();
                before.extend(p.writes.iter().map(|w| self.values[w.index()].clone()));
                self.exec_stmt(&p.body, &mut nba, true);
                // Comb processes should not contain non-blocking
                // assigns; treat them as blocking if they appear.
                self.commit_nbas(&mut nba);
                changed |= p
                    .writes
                    .iter()
                    .zip(&before)
                    .any(|(w, b)| self.values[w.index()] != *b);
            }
            if !changed {
                result = Ok(());
                break;
            }
        }
        self.scratch_before = before;
        self.scratch_nba = nba;
        result
    }

    fn force_value(&mut self, idx: usize, new: LogicVec) {
        if self.values[idx] != new {
            self.values[idx] = new;
            self.dirty[idx] = true;
        }
    }

    /// [`force_value`](Self::force_value) through the packed word view
    /// — valid only for signals of width ≤ 64 (`val`/`unk` pre-masked
    /// by the caller or masked here by `set_word`).
    #[inline]
    fn force_word(&mut self, idx: usize, val: u64, unk: u64) {
        let cur = &self.values[idx];
        if cur.word() != val || cur.unk_word() != unk {
            self.values[idx].set_word(val, unk);
            self.dirty[idx] = true;
        }
    }

    fn mark_all_dirty(&mut self) {
        self.dirty.fill(true);
    }

    fn clear_dirty(&mut self) {
        self.dirty.fill(false);
    }

    /// Advances one full clock cycle: rising phase (clocks 0→1,
    /// posedge processes) then falling phase (clocks 1→0, negedge
    /// processes), with combinational settling around each.
    ///
    /// Inputs set via [`set_input`](Self::set_input) /
    /// [`apply_input_word`](Self::apply_input_word) are sampled by the
    /// rising edge, matching a testbench that drives inputs while the
    /// clock is low.
    pub fn step(&mut self) {
        self.count(Counter::SimSteps, 1);
        self.clock_phase(Edge::Pos);
        self.clock_phase(Edge::Neg);
        self.cycle += 1;
    }

    fn clock_phase(&mut self, edge: Edge) {
        let design = Arc::clone(&self.design);
        // Snapshot each sequential process's clock bit before driving
        // the edge. A clock not flagged `is_clock` is never driven here
        // and reads as X, matching the original lookup's fallback.
        for i in 0..self.seq_procs.len() {
            let (_, clk, _, tracked) = self.seq_procs[i];
            self.prev_clock_bits[i] = if tracked {
                self.values[clk as usize].bit(0)
            } else {
                Bit::X
            };
        }
        let level = match edge {
            Edge::Pos => 1,
            Edge::Neg => 0,
        };
        for i in 0..self.clock_inputs.len() {
            let c = self.clock_inputs[i] as usize;
            self.force_word(c, level, 0);
        }
        let _ = self.settle_comb();

        // Fire sequential processes whose clock saw the right edge.
        // In compiled mode each register process goes through its
        // bytecode when its input cone is two-state (non-blocking
        // stores queue into the same NBA list, preserving commit
        // order); X-island cones escape to the interpreter.
        let compiled = Arc::clone(&self.compiled);
        let use_compiled = self.mode == SettleMode::Compiled;
        let mut nba = std::mem::take(&mut self.scratch_nba);
        let (mut fast, mut escaped) = (0u64, 0u64);
        for i in 0..self.seq_procs.len() {
            let (pidx, clk, clock_edge, _) = self.seq_procs[i];
            let prev = self.prev_clock_bits[i];
            let now = self.values[clk as usize].bit(0);
            let fired = match clock_edge {
                Edge::Pos => prev != Bit::One && now == Bit::One,
                Edge::Neg => prev != Bit::Zero && now == Bit::Zero,
            };
            if fired {
                if use_compiled {
                    if let Some(code) = &compiled.procs[pidx as usize] {
                        if self.cone_is_two_state(code) {
                            fast += 1;
                            self.note_vm_fast(pidx as usize);
                            self.exec_wordcode(code, &mut nba);
                            continue;
                        }
                    }
                    escaped += 1;
                    self.note_vm_escape(pidx as usize, compiled.procs[pidx as usize].is_some());
                }
                let p = &design.processes[pidx as usize];
                self.exec_stmt(&p.body, &mut nba, false);
            }
        }
        if use_compiled {
            if let Some(t) = &self.telemetry {
                if fast > 0 {
                    t.add(Counter::SettleFastPath, fast);
                }
                if escaped > 0 {
                    t.add(Counter::SettleEscapes, escaped);
                }
            }
        }
        self.commit_nbas(&mut nba);
        self.scratch_nba = nba;
        let _ = self.settle_comb();
    }

    /// Re-enters simulator state through the one typed entry point:
    /// full reset, single-domain reset, or a stored snapshot. Returns
    /// which mechanism ran and what it cost.
    ///
    /// This is the API the fuzzer's checkpoint scheduler drives.
    pub fn reenter(&mut self, target: Reentry<'_>) -> ReentryOutcome {
        match target {
            Reentry::FullReset { cycles } => {
                let domains: Vec<(SignalId, Edge)> = self
                    .rtree
                    .domains
                    .iter()
                    .map(|d| (d.reset, d.active))
                    .collect();
                self.apply_resets(&domains, cycles);
                ReentryOutcome {
                    mechanism: ReentryMechanism::FullReset,
                    cycles_replayed: 0,
                    pages_copied: 0,
                }
            }
            Reentry::DomainReset { reset, cycles } => {
                if let Some(d) = self.rtree.domains.iter().find(|d| d.reset == reset) {
                    let pair = (d.reset, d.active);
                    self.apply_resets(&[pair], cycles);
                }
                ReentryOutcome {
                    mechanism: ReentryMechanism::DomainReset,
                    cycles_replayed: 0,
                    pages_copied: 0,
                }
            }
            Reentry::Snapshot { store, id } => {
                let pages = self.enter(store, id);
                ReentryOutcome {
                    mechanism: ReentryMechanism::SnapshotEnter,
                    cycles_replayed: 0,
                    pages_copied: pages,
                }
            }
        }
    }

    /// Creates an empty copy-on-write [`SnapshotStore`] matching this
    /// design's signal layout, with a unique-page byte budget.
    pub fn snapshot_store(&self, budget: u64) -> SnapshotStore {
        let widths: Vec<u32> = self.design.signals.iter().map(|s| s.width).collect();
        SnapshotStore::new(&widths, budget)
    }

    /// Captures the current state into `store` as a child of `parent`
    /// in the snapshot tree: pages unchanged since the parent snapshot
    /// are shared, the rest are copied (see [`SnapshotStore::fork`]).
    ///
    /// # Panics
    ///
    /// Panics if `store` was created for a different design.
    pub fn fork(&self, store: &mut SnapshotStore, parent: Option<SnapshotId>) -> ForkOutcome {
        self.count(Counter::SnapshotsTaken, 1);
        let out = store.fork(parent, &self.values, self.cycle);
        self.count(Counter::SnapshotPagesCopied, out.pages_copied);
        self.count(Counter::SnapshotPagesShared, out.pages_shared);
        out
    }

    /// Re-enters snapshot `id` from `store`, writing only the pages
    /// whose content differs from the live value table (and marking
    /// exactly the changed signals dirty, so the next settle sweeps the
    /// minimum). Returns the number of pages written.
    ///
    /// # Panics
    ///
    /// Panics if `store` belongs to a different design, or `id` is
    /// stale or evicted.
    pub fn enter(&mut self, store: &SnapshotStore, id: SnapshotId) -> u64 {
        self.count(Counter::SnapshotRestores, 1);
        let mut written = 0u64;
        for (range, page) in store.pages(id) {
            assert!(
                range.end <= self.values.len(),
                "snapshot store belongs to a different design"
            );
            if self.values[range.clone()] != *page {
                for (i, v) in range.zip(page) {
                    if self.values[i] != *v {
                        self.values[i].clone_from(v);
                        self.dirty[i] = true;
                    }
                }
                written += 1;
            }
        }
        self.cycle = store.cycle(id);
        written
    }

    fn apply_resets(&mut self, domains: &[(SignalId, Edge)], cycles: u32) {
        for (rst, active) in domains {
            let lvl = match active {
                Edge::Neg => LogicVec::from_u64(1, 0),
                Edge::Pos => LogicVec::from_u64(1, 1),
            };
            if self.design.signal(*rst).kind == SignalKind::Input {
                self.force_value(rst.index(), lvl);
            }
        }
        for _ in 0..cycles {
            self.step();
        }
        for (rst, active) in domains {
            let lvl = match active {
                Edge::Neg => LogicVec::from_u64(1, 1),
                Edge::Pos => LogicVec::from_u64(1, 0),
            };
            if self.design.signal(*rst).kind == SignalKind::Input {
                self.force_value(rst.index(), lvl);
            }
        }
        let _ = self.settle_comb();
    }

    // ---- execution ----------------------------------------------------------

    pub(crate) fn record_branch(&mut self, branch: BranchId, outcome: u32) {
        let hits = &mut self.branch_hits[branch.index()];
        let idx = (outcome as usize).min(hits.len() - 1);
        if hits[idx] == 0 {
            self.toggled_count += 1;
        }
        hits[idx] += 1;
        if self.record_outcomes {
            self.recent_outcomes.push(BranchOutcome { branch, outcome });
        }
    }

    /// Executes a statement. Blocking assigns mutate `self.values`
    /// directly; non-blocking assigns accumulate into `nba`. Returns
    /// whether any blocking write changed a value (for fixpointing).
    fn exec_stmt(&mut self, stmt: &NStmt, nba: &mut Vec<Nba>, comb: bool) -> bool {
        match stmt {
            NStmt::Block(stmts) => {
                let mut changed = false;
                for s in stmts {
                    changed |= self.exec_stmt(s, nba, comb);
                }
                changed
            }
            NStmt::If {
                branch,
                cond,
                then,
                els,
            } => {
                let c = self.eval(cond).to_condition();
                if c == Bit::One {
                    self.record_branch(*branch, 0);
                    self.exec_stmt(then, nba, comb)
                } else {
                    self.record_branch(*branch, 1);
                    match els {
                        Some(e) => self.exec_stmt(e, nba, comb),
                        None => false,
                    }
                }
            }
            NStmt::Case {
                branch,
                subject,
                arms,
                default,
            } => {
                let subj = self.eval(subject);
                for (i, (labels, body)) in arms.iter().enumerate() {
                    for label in labels {
                        let lv = self.eval(label);
                        if subj.case_eq(&lv) {
                            self.record_branch(*branch, i as u32);
                            return self.exec_stmt(body, nba, comb);
                        }
                    }
                }
                self.record_branch(*branch, arms.len() as u32);
                match default {
                    Some(d) => self.exec_stmt(d, nba, comb),
                    None => false,
                }
            }
            NStmt::Assign { lhs, rhs, blocking } => {
                let value = self.eval(rhs);
                let (sig, lo, width, smear_x) = self.resolve_lvalue(lhs);
                if *blocking || comb {
                    self.write(sig, lo, width, value, smear_x)
                } else {
                    nba.push(Nba {
                        sig,
                        lo,
                        width,
                        value: NbaValue::Vec(value),
                        smear_x,
                    });
                    false
                }
            }
            NStmt::Nop => false,
        }
    }

    fn commit_nbas(&mut self, nbas: &mut Vec<Nba>) -> bool {
        let mut changed = false;
        for n in nbas.drain(..) {
            changed |= match n.value {
                NbaValue::Vec(v) => self.write(n.sig, n.lo, n.width, v, n.smear_x),
                NbaValue::Word(v) => self.write_word(n.sig, n.lo, n.width, v),
            };
        }
        changed
    }

    /// Commits a compiled-VM non-blocking store: replaces `width` bits
    /// at `lo` with the definite word `v`, clearing the span's unknown
    /// plane. Only reachable for signals the compiler accepted, so the
    /// whole signal fits one storage word.
    fn write_word(&mut self, sig: SignalId, lo: u32, width: u32, v: u64) -> bool {
        let idx = sig.index();
        let m = word_mask(width) << lo;
        let cur = &self.values[idx];
        let nval = (cur.word() & !m) | (v << lo);
        let nunk = cur.unk_word() & !m;
        if cur.word() != nval || cur.unk_word() != nunk {
            self.values[idx].set_word(nval, nunk);
            self.dirty[idx] = true;
            true
        } else {
            false
        }
    }

    /// Resolves an lvalue to (signal, lo, width, smear-X) — smear-X set
    /// when a dynamic index is unknown, poisoning the whole signal.
    fn resolve_lvalue(&mut self, lhs: &NLValue) -> (SignalId, u32, u32, bool) {
        match lhs {
            NLValue::Full(sig) => (*sig, 0, self.design.signal(*sig).width, false),
            NLValue::Part { sig, lo, width } => (*sig, *lo, *width, false),
            NLValue::DynBit { sig, index } => {
                let idx = self.eval(index);
                let w = self.design.signal(*sig).width;
                match idx.to_u64() {
                    Some(i) if (i as u32) < w => (*sig, i as u32, 1, false),
                    _ => (*sig, 0, w, true),
                }
            }
        }
    }

    fn write(
        &mut self,
        sig: SignalId,
        lo: u32,
        width: u32,
        value: LogicVec,
        smear_x: bool,
    ) -> bool {
        let w = self.design.signal(sig).width;
        let new = if smear_x {
            LogicVec::xes(w)
        } else if lo == 0 && width == w {
            value.resized(w)
        } else {
            let mut cur = self.values[sig.index()].clone();
            let part = value.resized(width);
            for i in 0..width {
                cur.set_bit(lo + i, part.bit(i));
            }
            cur
        };
        if self.values[sig.index()] != new {
            self.values[sig.index()] = new;
            self.dirty[sig.index()] = true;
            true
        } else {
            false
        }
    }

    // ---- expression evaluation ------------------------------------------------

    /// Evaluates an expression against the current signal values.
    pub fn eval(&self, e: &NExpr) -> LogicVec {
        match e {
            NExpr::Const(v) => v.clone(),
            NExpr::Sig(s) => self.values[s.index()].clone(),
            NExpr::Unary { op, operand, width } => {
                let v = self.eval(operand);
                let out = match op {
                    UnaryOp::LogNot => LogicVec::from_bit(!v.to_condition()),
                    UnaryOp::BitNot => !&v,
                    UnaryOp::RedAnd => LogicVec::from_bit(v.reduce_and()),
                    UnaryOp::RedOr => LogicVec::from_bit(v.reduce_or()),
                    UnaryOp::RedXor => LogicVec::from_bit(v.reduce_xor()),
                    UnaryOp::RedNand => LogicVec::from_bit(!v.reduce_and()),
                    UnaryOp::RedNor => LogicVec::from_bit(!v.reduce_or()),
                    UnaryOp::Neg => v.neg(),
                };
                out.resized(*width)
            }
            NExpr::Binary {
                op,
                lhs,
                rhs,
                width,
            } => {
                let a = self.eval(lhs);
                let b = self.eval(rhs);
                let out = match op {
                    BinaryOp::Add => a.add(&b),
                    BinaryOp::Sub => a.sub(&b),
                    BinaryOp::Mul => a.mul(&b),
                    BinaryOp::And => &a & &b,
                    BinaryOp::Or => &a | &b,
                    BinaryOp::Xor => &a ^ &b,
                    BinaryOp::LogAnd => LogicVec::from_bit(a.to_condition() & b.to_condition()),
                    BinaryOp::LogOr => LogicVec::from_bit(a.to_condition() | b.to_condition()),
                    BinaryOp::Eq => LogicVec::from_bit(a.logic_eq(&b)),
                    BinaryOp::Ne => LogicVec::from_bit(!a.logic_eq(&b)),
                    BinaryOp::CaseEq => LogicVec::from_bit(Bit::from_bool(a.case_eq(&b))),
                    BinaryOp::CaseNe => LogicVec::from_bit(Bit::from_bool(!a.case_eq(&b))),
                    BinaryOp::Lt => LogicVec::from_bit(a.ult(&b)),
                    BinaryOp::Le => LogicVec::from_bit(a.ule(&b)),
                    BinaryOp::Gt => LogicVec::from_bit(b.ult(&a)),
                    BinaryOp::Ge => LogicVec::from_bit(b.ule(&a)),
                    BinaryOp::Shl => a.shl_vec(&b),
                    BinaryOp::Shr => a.lshr_vec(&b),
                };
                out.resized(*width)
            }
            NExpr::Ternary {
                cond,
                then,
                els,
                width,
            } => {
                let c = self.eval(cond).to_condition();
                let t = self.eval(then).resized(*width);
                let e = self.eval(els).resized(*width);
                match c {
                    Bit::One => t,
                    Bit::Zero => e,
                    _ => {
                        // X condition: bits agreeing in both arms keep
                        // their value, others become X (IEEE 1800 11.4.11).
                        let mut out = LogicVec::zeros(*width);
                        for i in 0..*width {
                            let (tb, eb) = (t.bit(i), e.bit(i));
                            out.set_bit(
                                i,
                                if tb == eb && !tb.is_unknown() {
                                    tb
                                } else {
                                    Bit::X
                                },
                            );
                        }
                        out
                    }
                }
            }
            NExpr::BitSelect { sig, index } => {
                let idx = self.eval(index);
                let v = &self.values[sig.index()];
                match idx.to_u64() {
                    Some(i) if (i as u32) < v.width() => LogicVec::from_bit(v.bit(i as u32)),
                    _ => LogicVec::from_bit(Bit::X),
                }
            }
            NExpr::PartSelect { sig, lo, width } => self.values[sig.index()].slice(*lo, *width),
            NExpr::Concat { parts, width } => {
                let mut out = LogicVec::zeros(0);
                for p in parts {
                    let v = self.eval(p);
                    out = LogicVec::concat(&out, &v);
                }
                out.resized(*width)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbfuzz_netlist::elaborate_src;

    fn sim(src: &str, top: &str) -> Simulator {
        Simulator::new(Arc::new(elaborate_src(src, top).unwrap()))
    }

    #[test]
    fn comb_logic_settles() {
        let mut s = sim(
            "module m(input [3:0] a, input [3:0] b, output [3:0] y, output z);
               wire [3:0] t;
               assign t = a & b;
               assign y = t | 4'b0001;
               assign z = &y;
             endmodule",
            "m",
        );
        let a = s.design().signal_by_name("a").unwrap();
        let b = s.design().signal_by_name("b").unwrap();
        let y = s.design().signal_by_name("y").unwrap();
        s.set_input(a, &LogicVec::from_u64(4, 0b1100)).unwrap();
        s.set_input(b, &LogicVec::from_u64(4, 0b1010)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.get(y).to_u64(), Some(0b1001));
    }

    #[test]
    fn registers_power_up_x_and_reset_clears() {
        let mut s = sim(
            "module m(input clk, input rst_n, output logic [3:0] q);
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 4'd0; else q <= q + 4'd1;
             endmodule",
            "m",
        );
        let q = s.design().signal_by_name("q").unwrap();
        assert!(s.get(q).has_unknown());
        s.reenter(Reentry::FullReset { cycles: 2 });
        assert_eq!(s.get(q).to_u64(), Some(0));
        s.step();
        s.step();
        assert_eq!(s.get(q).to_u64(), Some(2));
    }

    #[test]
    fn x_propagates_through_arithmetic_without_reset() {
        let mut s = sim(
            "module m(input clk, output logic [3:0] q);
               always_ff @(posedge clk) q <= q + 4'd1;
             endmodule",
            "m",
        );
        let q = s.design().signal_by_name("q").unwrap();
        for _ in 0..3 {
            s.step();
        }
        // Never reset: q stays all-X forever.
        assert!(s.get(q).iter_bits().all(|b| b == Bit::X));
    }

    #[test]
    fn nonblocking_swap_is_simultaneous() {
        let mut s = sim(
            "module m(input clk, input rst_n, output logic a, output logic b);
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) begin a <= 1'b0; b <= 1'b1; end
                 else begin a <= b; b <= a; end
             endmodule",
            "m",
        );
        s.reenter(Reentry::FullReset { cycles: 1 });
        let a = s.design().signal_by_name("a").unwrap();
        let b = s.design().signal_by_name("b").unwrap();
        assert_eq!((s.get(a).to_u64(), s.get(b).to_u64()), (Some(0), Some(1)));
        s.step();
        assert_eq!((s.get(a).to_u64(), s.get(b).to_u64()), (Some(1), Some(0)));
        s.step();
        assert_eq!((s.get(a).to_u64(), s.get(b).to_u64()), (Some(0), Some(1)));
    }

    #[test]
    fn blocking_in_seq_process_is_ordered() {
        let mut s = sim(
            "module m(input clk, input rst_n, input [3:0] d, output logic [3:0] q);
               logic [3:0] t;
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 4'd0;
                 else begin
                   t = d + 4'd1;
                   q <= t;
                 end
             endmodule",
            "m",
        );
        s.reenter(Reentry::FullReset { cycles: 1 });
        let d = s.design().signal_by_name("d").unwrap();
        let q = s.design().signal_by_name("q").unwrap();
        s.set_input(d, &LogicVec::from_u64(4, 5)).unwrap();
        s.step();
        assert_eq!(s.get(q).to_u64(), Some(6));
    }

    #[test]
    fn case_matching_and_default() {
        let mut s = sim(
            "module m(input [1:0] sel, output logic [3:0] y);
               always_comb
                 case (sel)
                   2'd0: y = 4'd1;
                   2'd1: y = 4'd2;
                   default: y = 4'd15;
                 endcase
             endmodule",
            "m",
        );
        let sel = s.design().signal_by_name("sel").unwrap();
        let y = s.design().signal_by_name("y").unwrap();
        for (input, expect) in [(0u64, 1u64), (1, 2), (2, 15), (3, 15)] {
            s.set_input(sel, &LogicVec::from_u64(2, input)).unwrap();
            s.settle().unwrap();
            assert_eq!(s.get(y).to_u64(), Some(expect));
        }
        // An X subject falls to default (case equality matches nothing).
        s.set_input(sel, &LogicVec::xes(2)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.get(y).to_u64(), Some(15));
    }

    #[test]
    fn branch_outcomes_are_recorded() {
        let mut s = sim(
            "module m(input c, output logic y);
               always_comb if (c) y = 1'b1; else y = 1'b0;
             endmodule",
            "m",
        );
        let c = s.design().signal_by_name("c").unwrap();
        s.set_record_outcomes(true);
        s.set_input(c, &LogicVec::from_u64(1, 1)).unwrap();
        s.settle().unwrap();
        let outs = s.take_outcomes();
        assert!(outs.iter().any(|o| o.outcome == 0));
        s.set_input(c, &LogicVec::from_u64(1, 0)).unwrap();
        s.settle().unwrap();
        let outs = s.take_outcomes();
        assert!(outs.iter().any(|o| o.outcome == 1));
        assert_eq!(s.toggled_outcomes(), 2);
    }

    #[test]
    fn fork_enter_round_trips_and_matches_deep_copy() {
        let src = "module m(input clk, input rst_n, input [7:0] d,
                            output logic [7:0] q, output logic [7:0] acc);
                     always_ff @(posedge clk or negedge rst_n)
                       if (!rst_n) begin q <= 8'd0; acc <= 8'd0; end
                       else begin q <= d; acc <= acc + d; end
                   endmodule";
        let mut s = sim(src, "m");
        let mut store = s.snapshot_store(u64::MAX);
        s.reenter(Reentry::FullReset { cycles: 1 });
        let d = s.design().signal_by_name("d").unwrap();
        s.set_input(d, &LogicVec::from_u64(8, 3)).unwrap();
        for _ in 0..4 {
            s.step();
        }
        let root = s.fork(&mut store, None);
        let oracle = s.values().to_vec();
        let oracle_cycle = s.cycle();

        // Run on, then fork a child of the root.
        s.set_input(d, &LogicVec::from_u64(8, 7)).unwrap();
        for _ in 0..3 {
            s.step();
        }
        let child = s.fork(&mut store, Some(root.id));
        assert!(child.pages_shared + child.pages_copied == root.pages_copied);
        let child_vals = s.values().to_vec();

        // Entering the root restores the oracle state bit for bit, and
        // the resumed trajectory is deterministic.
        let out = s.reenter(Reentry::Snapshot {
            store: &store,
            id: root.id,
        });
        assert_eq!(out.mechanism, ReentryMechanism::SnapshotEnter);
        assert_eq!(out.cycles_replayed, 0);
        assert_eq!(s.values(), &oracle[..]);
        assert_eq!(s.cycle(), oracle_cycle);

        // Entering the child never disturbs the root's pages.
        s.enter(&store, child.id);
        assert_eq!(s.values(), &child_vals[..]);
        assert_eq!(store.materialize(root.id), oracle);
    }

    #[test]
    fn enter_restores_all_x_state_exactly() {
        // Power-up state: every register X. A snapshot of it must
        // round-trip through the paged store with the X plane intact.
        let mut s = sim(
            "module m(input clk, input [3:0] d, output logic [3:0] q);
               always_ff @(posedge clk) q <= q ^ d;
             endmodule",
            "m",
        );
        let mut store = s.snapshot_store(u64::MAX);
        let powerup = s.fork(&mut store, None);
        let oracle = s.values().to_vec();
        let d = s.design().signal_by_name("d").unwrap();
        s.set_input(d, &LogicVec::from_u64(4, 5)).unwrap();
        for _ in 0..3 {
            s.step();
        }
        s.enter(&store, powerup.id);
        assert_eq!(s.values(), &oracle[..]);
        let q = s.design().signal_by_name("q").unwrap();
        assert!(s.get(q).to_u64().is_none(), "q must be X again");
    }

    #[test]
    fn reenter_full_reset_is_deterministic() {
        let src = "module m(input clk, input rst_n, output logic [7:0] q);
                     always_ff @(posedge clk or negedge rst_n)
                       if (!rst_n) q <= 8'd0; else q <= q + 8'd1;
                   endmodule";
        let mut a = sim(src, "m");
        let mut b = sim(src, "m");
        let out = a.reenter(Reentry::FullReset { cycles: 2 });
        assert_eq!(out.mechanism, ReentryMechanism::FullReset);
        let q = a.design().signal_by_name("q").unwrap();
        assert_eq!(a.get(q).to_u64(), Some(0));
        b.reenter(Reentry::FullReset { cycles: 2 });
        assert_eq!(a.values(), b.values());
        assert_eq!(a.cycle(), b.cycle());
    }

    #[test]
    fn partial_reset_touches_only_one_domain() {
        let mut s = sim(
            "module m(input clk, input rst_a_n, input rst_b_n,
                      output logic [3:0] qa, output logic [3:0] qb);
               always_ff @(posedge clk or negedge rst_a_n)
                 if (!rst_a_n) qa <= 4'd0; else qa <= qa + 4'd1;
               always_ff @(posedge clk or negedge rst_b_n)
                 if (!rst_b_n) qb <= 4'd0; else qb <= qb + 4'd1;
             endmodule",
            "m",
        );
        s.reenter(Reentry::FullReset { cycles: 1 });
        for _ in 0..3 {
            s.step();
        }
        let qa = s.design().signal_by_name("qa").unwrap();
        let qb = s.design().signal_by_name("qb").unwrap();
        assert_eq!(s.get(qa).to_u64(), Some(3));
        let rst_a = s.design().signal_by_name("rst_a_n").unwrap();
        let out = s.reenter(Reentry::DomainReset {
            reset: rst_a,
            cycles: 1,
        });
        assert_eq!(out.mechanism, ReentryMechanism::DomainReset);
        assert_eq!(s.get(qa).to_u64(), Some(0));
        // Domain B kept counting through the partial reset cycle.
        assert_eq!(s.get(qb).to_u64(), Some(4));
    }

    #[test]
    fn hierarchical_designs_simulate() {
        let mut s = sim(
            "module stage(input clk, input rst_n, input [3:0] d, output logic [3:0] q);
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 4'd0; else q <= d;
             endmodule
             module pipe(input clk, input rst_n, input [3:0] d, output [3:0] q);
               wire [3:0] mid;
               stage s0 (.clk(clk), .rst_n(rst_n), .d(d), .q(mid));
               stage s1 (.clk(clk), .rst_n(rst_n), .d(mid), .q(q));
             endmodule",
            "pipe",
        );
        s.reenter(Reentry::FullReset { cycles: 1 });
        let d = s.design().signal_by_name("d").unwrap();
        let q = s.design().signal_by_name("q").unwrap();
        s.set_input(d, &LogicVec::from_u64(4, 9)).unwrap();
        s.step();
        assert_eq!(s.get(q).to_u64(), Some(0));
        s.step();
        assert_eq!(s.get(q).to_u64(), Some(9));
    }

    #[test]
    fn comb_loop_detected() {
        // From all-X state a Kleene fixpoint always exists, so first
        // settle with the loop disabled, then enable it so a defined
        // value oscillates.
        let mut s = sim(
            "module m(input a, output y);
               wire t;
               assign t = a ? !y : 1'b0;
               assign y = t;
             endmodule",
            "m",
        );
        let a = s.design().signal_by_name("a").unwrap();
        s.set_input(a, &LogicVec::from_u64(1, 0)).unwrap();
        s.settle().unwrap();
        s.set_input(a, &LogicVec::from_u64(1, 1)).unwrap();
        assert_eq!(s.settle(), Err(SimError::CombLoop));
        assert!(s.comb_unstable());
    }

    #[test]
    fn input_word_distribution() {
        let mut s = sim(
            "module m(input [3:0] a, input [3:0] b, output [7:0] y);
               assign y = {b, a};
             endmodule",
            "m",
        );
        s.apply_input_word(&LogicVec::from_u64(8, 0xA5));
        s.settle().unwrap();
        let y = s.design().signal_by_name("y").unwrap();
        assert_eq!(s.get(y).to_u64(), Some(0xA5));
    }

    #[test]
    fn vm_profiler_attributes_fast_and_escaped_cones() {
        let mut s = sim(
            "module m(input clk, input rst_n, input [7:0] d,
                      output logic [7:0] q, output [7:0] y);
               assign y = d ^ 8'h0F;
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 8'd0; else q <= q + y;
             endmodule",
            "m",
        );
        assert!(s.vm_profile(10).is_none());
        s.enable_vm_profiler();
        assert!(s.vm_profiler_enabled());
        s.reenter(Reentry::FullReset { cycles: 1 });
        for i in 0..20u64 {
            s.apply_input_word(&LogicVec::from_u64(8, i));
            s.step();
        }
        let p = s.vm_profile(10).unwrap();
        assert!(p.total_execs > 0);
        assert!(p.total_fast > 0, "{p:?}");
        // Rows are hottest-first by op units and carry netlist labels.
        assert!(p.rows.windows(2).all(|w| w[0].op_units >= w[1].op_units));
        let labels: Vec<&str> = p.rows.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"y"), "{labels:?}");
        assert!(labels.contains(&"q"), "{labels:?}");
        for r in &p.rows {
            assert_eq!(
                r.execs,
                r.fast + r.escaped_x + r.escaped_uncompiled + r.escaped_cyclic
            );
            assert!(r.hit_rate() >= 0.0 && r.hit_rate() <= 1.0);
        }
        // The dynamic op-class histogram saw real bytecode work.
        assert!(p.op_classes.iter().any(|(_, n)| *n > 0));
        assert_eq!(p.op_classes[0].0, "const");
        // Determinism: a fresh identical run produces the same profile.
        let mut s2 = sim(
            "module m(input clk, input rst_n, input [7:0] d,
                      output logic [7:0] q, output [7:0] y);
               assign y = d ^ 8'h0F;
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 8'd0; else q <= q + y;
             endmodule",
            "m",
        );
        s2.enable_vm_profiler();
        s2.reenter(Reentry::FullReset { cycles: 1 });
        for i in 0..20u64 {
            s2.apply_input_word(&LogicVec::from_u64(8, i));
            s2.step();
        }
        assert_eq!(p, s2.vm_profile(10).unwrap());
    }

    #[test]
    fn vm_profiler_counts_x_island_escapes() {
        // q's cone stays X (never reset), so its register dispatches
        // escape; the pure-input comb cone stays on the fast path.
        let mut s = sim(
            "module m(input clk, input [3:0] d, output logic [3:0] q, output [3:0] y);
               assign y = d + 4'd1;
               always_ff @(posedge clk) q <= q + 4'd1;
             endmodule",
            "m",
        );
        s.enable_vm_profiler();
        for i in 0..8u64 {
            s.apply_input_word(&LogicVec::from_u64(4, i));
            s.step();
        }
        let p = s.vm_profile(10).unwrap();
        let q = p.rows.iter().find(|r| r.label == "q").unwrap();
        assert!(q.escaped_x > 0, "{q:?}");
        assert_eq!(q.fast, 0);
        let y = p.rows.iter().find(|r| r.label == "y").unwrap();
        assert_eq!(y.escaped_x, 0);
        assert!(y.fast > 0);
        assert!((y.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dynamic_bit_select_read_and_write() {
        let mut s = sim(
            "module m(input [2:0] idx, input [7:0] d, output logic o, output logic [7:0] w);
               always_comb begin
                 o = d[idx];
                 w = 8'd0;
                 w[idx] = 1'b1;
               end
             endmodule",
            "m",
        );
        let idx = s.design().signal_by_name("idx").unwrap();
        let d = s.design().signal_by_name("d").unwrap();
        s.set_input(idx, &LogicVec::from_u64(3, 5)).unwrap();
        s.set_input(d, &LogicVec::from_u64(8, 0b0010_0000)).unwrap();
        s.settle().unwrap();
        let o = s.design().signal_by_name("o").unwrap();
        let w = s.design().signal_by_name("w").unwrap();
        assert_eq!(s.get(o).to_u64(), Some(1));
        assert_eq!(s.get(w).to_u64(), Some(0b0010_0000));
        // Unknown index: read is X, write smears X.
        s.set_input(idx, &LogicVec::xes(3)).unwrap();
        let _ = s.settle();
        assert!(s.get(o).has_unknown());
        assert!(s.get(w).has_unknown());
    }
}
