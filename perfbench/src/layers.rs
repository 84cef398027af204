//! The layer loop: Algorithm 1's call sequence replayed through the
//! public entry points of each layer crate, with one span per call.
//!
//! `SymbFuzz::run` is one opaque call; its telemetry phases lump
//! together work that belongs to different crates (the `reset` phase,
//! for one, mixes `cfgx` ancestor search with `sim` snapshot re-entry).
//! This loop makes the same calls in the same order with the same seed
//! and configuration, and times each call at the crate boundary:
//!
//! * per vector: `Sequencer::next_item` → `Driver::drive` →
//!   `Cfg::observe` → `PropertyChecker::on_cycle`, plus
//!   `Simulator::fork` on a new node;
//! * per stagnation: `Cfg::checkpoints`, then per candidate
//!   `Cfg::nearest_ancestor` → `Simulator::reenter` →
//!   `Cfg::note_rollback` (→ suffix replay) →
//!   `SymbolicEngine::solve_reach_profiled`.
//!
//! Every `Reached` model is replayed on a second simulator from the
//! query's start state, and the target register is checked: the
//! solver-model oracle. The trial must also end with the coverage
//! (and, for bug hunts, the detection vector) `SymbFuzz::run` reaches
//! with the same seed, or the loop no longer measures the same work.

use crate::workload::{Source, Workload};
use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;
use symbfuzz_cfgx::{Cfg, NodeId, Provenance};
use symbfuzz_core::FuzzConfig;
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::{classify_registers, Design, SignalId};
use symbfuzz_props::{Property, PropertyChecker};
use symbfuzz_ruvm::{Driver, SequenceItem, Sequencer};
use symbfuzz_sim::{Reentry, Simulator, SnapshotId, SnapshotStore};
use symbfuzz_smt::Budget;
use symbfuzz_symexec::{InputAssignment, ReachOutcome, SymbolicEngine};

/// Span records kept for the JSONL file; per-call durations are kept in
/// full regardless.
pub(crate) const MAX_SPAN_RECORDS: usize = 100_000;

/// A timed call at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Call {
    /// `Sequencer::next_item`.
    NextItem,
    /// `Driver::drive`, of a fresh vector or of a recorded word while
    /// re-entering a node.
    Drive,
    /// `Cfg::observe`.
    Observe,
    /// `PropertyChecker::on_cycle`.
    OnCycle,
    /// `Simulator::fork` into the snapshot tree.
    Fork,
    /// `Cfg::checkpoints`.
    Checkpoints,
    /// `Cfg::nearest_ancestor`.
    NearestAncestor,
    /// `Simulator::reenter` of a snapshot.
    ReenterSnapshot,
    /// `Simulator::reenter` with a full reset.
    ReenterReset,
    /// `Cfg::note_rollback`.
    NoteRollback,
    /// `SymbolicEngine::solve_reach_profiled`.
    SolveReach,
}

impl Call {
    /// Every call, in report order.
    pub(crate) const ALL: [Call; 11] = [
        Call::NextItem,
        Call::Drive,
        Call::Observe,
        Call::OnCycle,
        Call::Fork,
        Call::Checkpoints,
        Call::NearestAncestor,
        Call::ReenterSnapshot,
        Call::ReenterReset,
        Call::NoteRollback,
        Call::SolveReach,
    ];

    /// `<module>.<call>` metric stem.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Call::NextItem => "ruvm.next_item",
            Call::Drive => "sim.drive",
            Call::Observe => "cfgx.observe",
            Call::OnCycle => "props.on_cycle",
            Call::Fork => "sim.fork",
            Call::Checkpoints => "cfgx.checkpoints",
            Call::NearestAncestor => "cfgx.nearest_ancestor",
            Call::ReenterSnapshot => "sim.reenter_snapshot",
            Call::ReenterReset => "sim.reenter_reset",
            Call::NoteRollback => "cfgx.note_rollback",
            Call::SolveReach => "symexec.solve_reach",
        }
    }
}

/// One span: a call, a stagnation episode, or a whole trial.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    trial: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An open parent span (trial or stagnation episode).
#[derive(Debug, Clone, Copy)]
struct Open {
    id: u64,
    start_ns: u64,
    outer: u64,
}

/// In-memory span store: per-call durations for the metrics, and the
/// first [`MAX_SPAN_RECORDS`] span records for the JSONL file.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    durations: Vec<Vec<u64>>,
    records: Vec<SpanRecord>,
    next_id: u64,
    trial: u64,
    parent: u64,
    /// Summed wall time of every layer-loop trial.
    pub(crate) loop_ns: u64,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            durations: vec![Vec::new(); Call::ALL.len()],
            records: Vec::new(),
            next_id: 1,
            trial: 0,
            parent: 0,
            loop_ns: 0,
        }
    }
}

impl Spans {
    /// Nanoseconds since the store was created: a leaf call's start.
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&mut self, name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) {
        if self.records.len() < MAX_SPAN_RECORDS {
            self.records.push(SpanRecord {
                trial: self.trial,
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Ends a leaf call started at `start_ns`.
    fn end(&mut self, call: Call, start_ns: u64) {
        let end_ns = self.now();
        self.durations[call as usize].push(end_ns - start_ns);
        let id = self.next_id;
        self.next_id += 1;
        self.record(call.name(), id, self.parent, start_ns, end_ns);
    }

    /// Opens a parent span; calls ended before [`close`](Self::close)
    /// name it as their parent.
    fn open(&mut self) -> Open {
        let open = Open {
            id: self.next_id,
            start_ns: self.now(),
            outer: self.parent,
        };
        self.next_id += 1;
        self.parent = open.id;
        open
    }

    /// Closes a parent span; returns its duration.
    fn close(&mut self, name: &'static str, open: Open) -> u64 {
        let end_ns = self.now();
        self.parent = open.outer;
        self.record(name, open.id, open.outer, open.start_ns, end_ns);
        end_ns - open.start_ns
    }

    /// Durations of every timed `call`, in nanoseconds.
    pub(crate) fn durations(&self, call: Call) -> &[u64] {
        &self.durations[call as usize]
    }

    /// Writes the kept span records as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for r in &self.records {
            writeln!(
                out,
                "{{\"trial\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.trial, r.id, r.parent, r.name, r.start_ns, r.end_ns
            )?;
        }
        Ok(())
    }
}

/// What one layer-loop trial did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Outcome {
    /// Vectors driven.
    pub(crate) vectors: u64,
    /// Coverage points at the end.
    pub(crate) coverage: u64,
    /// Vector at which the target property fired (bug hunts).
    pub(crate) detected: Option<u64>,
    /// Reachability queries posed.
    pub(crate) solves: u64,
    /// Queries answered `Reached`.
    pub(crate) reached: u64,
    /// `Reached` models replayed by the oracle.
    pub(crate) checks: u64,
    /// Replays that left the target register holding `X`: the engine
    /// treats `X` state bits as free, so a model may rely on a value
    /// the simulator never assigned. Documented engine behaviour, not
    /// a failure.
    pub(crate) x_targets: u64,
    /// Replays that left a known value other than the target: a real
    /// disagreement between the solver and the simulator.
    pub(crate) mismatches: u64,
}

/// Outcome of one solve attempt, as the fuzzer classifies it.
enum Solve {
    Sat,
    Unsat,
    Exhausted,
}

struct Loop<'a> {
    design: Arc<Design>,
    config: FuzzConfig,
    target: Option<&'a str>,
    sim: Simulator,
    sequencer: Sequencer,
    driver: Driver,
    cfg: Cfg,
    checker: PropertyChecker,
    engine: Option<SymbolicEngine>,
    store: SnapshotStore,
    snap_ids: HashMap<NodeId, SnapshotId>,
    snap_order: Vec<NodeId>,
    neg_cache: HashSet<(Option<NodeId>, SignalId, LogicVec)>,
    escalation: u32,
    stagnation: u32,
    last_coverage: usize,
    oracle: Simulator,
    oracle_store: SnapshotStore,
    out: Outcome,
    spans: &'a mut Spans,
}

/// Runs one layer-loop trial of `src` with `w`'s configuration and
/// `seed`, recording spans into `spans` under trial id `trial`.
pub(crate) fn run(w: &Workload, src: &Source, seed: u64, trial: u64, spans: &mut Spans) -> Outcome {
    let config = w.config(seed);
    let file = symbfuzz_hdl::parse(src.rtl).expect("benchmark RTL parses");
    let design =
        Arc::new(symbfuzz_netlist::elaborate(&file, src.top).expect("benchmark RTL elaborates"));
    let props = src
        .props
        .iter()
        .map(|p| Property::parse(&p.name, &p.text, &design).expect("properties compile"))
        .collect();
    // The fuzzer's control-register rule (§4.6): bounded encodings only.
    let mut ctrl = classify_registers(&design).control;
    ctrl.retain(|s| {
        let sig = design.signal(*s);
        sig.legal_encodings.is_some() || sig.width <= 8
    });
    let mut sim = Simulator::new(Arc::clone(&design));
    sim.set_settle_mode(config.settle_policy.to_mode());
    let store = sim.snapshot_store(config.snapshot_mem_budget);
    let oracle = Simulator::new(Arc::clone(&design));
    let oracle_store = oracle.snapshot_store(u64::MAX);
    spans.trial = trial;
    let mut l = Loop {
        sequencer: Sequencer::new(Arc::clone(&design), config.seed),
        cfg: Cfg::new(Arc::clone(&design), ctrl),
        checker: PropertyChecker::new(props),
        driver: Driver,
        engine: None,
        store,
        snap_ids: HashMap::new(),
        snap_order: Vec::new(),
        neg_cache: HashSet::new(),
        escalation: 0,
        stagnation: 0,
        last_coverage: 0,
        oracle,
        oracle_store,
        out: Outcome::default(),
        target: src.target,
        design,
        config,
        sim,
        spans,
    };
    let open = l.spans.open();
    l.full_reset();
    while l.out.vectors < l.config.max_vectors {
        l.run_interval();
        if l.out.detected.is_some() {
            break;
        }
        l.note_interval();
    }
    l.out.coverage = l.cfg.coverage_points() as u64;
    let ns = l.spans.close("trial", open);
    l.spans.loop_ns += ns;
    l.out
}

impl Loop<'_> {
    fn run_interval(&mut self) {
        for _ in 0..self.config.interval {
            if self.out.vectors >= self.config.max_vectors {
                return;
            }
            let t = self.spans.now();
            let word = self.sequencer.next_item().word;
            self.spans.end(Call::NextItem, t);
            self.out.vectors += 1;
            let t = self.spans.now();
            self.driver
                .drive(&mut self.sim, &SequenceItem::new(word.clone()));
            self.spans.end(Call::Drive, t);
            let outcome = self.observe(&word);
            if outcome.new_node {
                self.take_snapshot(outcome.node);
            }
            let t = self.spans.now();
            let violations = self.checker.on_cycle(self.sim.cycle(), self.sim.values());
            self.spans.end(Call::OnCycle, t);
            if let Some(target) = self.target {
                if self.out.detected.is_none() && violations.iter().any(|v| v.property == target) {
                    self.out.detected = Some(self.out.vectors);
                }
            }
        }
    }

    fn observe(&mut self, word: &LogicVec) -> symbfuzz_cfgx::ObserveOutcome {
        let prov = Provenance::random(self.out.vectors);
        let t = self.spans.now();
        let outcome = self
            .cfg
            .observe(self.sim.values(), word, self.sim.cycle(), prov);
        self.spans.end(Call::Observe, t);
        outcome
    }

    fn note_interval(&mut self) {
        let now = self.cfg.coverage_points();
        if now > self.last_coverage {
            self.stagnation = 0;
        } else {
            self.stagnation += 1;
        }
        self.last_coverage = now;
        if self.stagnation > self.config.threshold {
            let open = self.spans.open();
            self.symbolic_guidance();
            self.spans.close("stagnation", open);
            self.stagnation = 0;
        }
    }

    fn full_reset(&mut self) {
        let t = self.spans.now();
        self.sim.reenter(Reentry::FullReset {
            cycles: self.config.reset_cycles,
        });
        self.spans.end(Call::ReenterReset, t);
        self.cfg.note_reset();
        self.checker.reset_history();
    }

    fn nearest_snapshot(&mut self, node: NodeId) -> Option<NodeId> {
        let t = self.spans.now();
        let anc = self
            .cfg
            .nearest_ancestor(node, self.snap_order.iter().copied());
        self.spans.end(Call::NearestAncestor, t);
        anc
    }

    fn take_snapshot(&mut self, node: NodeId) {
        let parent = self
            .nearest_snapshot(node)
            .and_then(|n| self.snap_ids.get(&n).copied());
        let t = self.spans.now();
        let fork = self.sim.fork(&mut self.store, parent);
        self.spans.end(Call::Fork, t);
        self.snap_ids.insert(node, fork.id);
        self.snap_order.push(node);
        while self.store.over_budget() && self.snap_order.len() > 1 {
            let victim = self.snap_order.remove(0);
            let id = self.snap_ids.remove(&victim).expect("order/ids in sync");
            self.store.evict(id);
        }
    }

    fn enter_snapshot(&mut self, node: NodeId) {
        let id = self.snap_ids[&node];
        let t = self.spans.now();
        self.sim.reenter(Reentry::Snapshot {
            store: &self.store,
            id,
        });
        self.spans.end(Call::ReenterSnapshot, t);
        let t = self.spans.now();
        self.cfg.note_rollback(node);
        self.spans.end(Call::NoteRollback, t);
    }

    fn replay(&mut self, words: Vec<LogicVec>) -> usize {
        let len = words.len();
        for word in words {
            let t = self.spans.now();
            self.driver
                .drive(&mut self.sim, &SequenceItem::new(word.clone()));
            self.spans.end(Call::Drive, t);
            self.observe(&word);
        }
        len
    }

    /// Re-enters `node`: its own snapshot, else the nearest snapshotted
    /// ancestor plus the residual suffix, else reset plus the full path.
    fn rollback_to(&mut self, node: NodeId) {
        let replayed = match self.nearest_snapshot(node) {
            Some(anc) if anc == node => {
                self.enter_snapshot(node);
                0
            }
            Some(anc) => {
                self.enter_snapshot(anc);
                let suffix = self
                    .cfg
                    .replay_suffix(node, self.cfg.path_len(anc))
                    .to_vec();
                self.replay(suffix)
            }
            None => {
                let t = self.spans.now();
                self.sim.reenter(Reentry::FullReset {
                    cycles: self.config.reset_cycles,
                });
                self.spans.end(Call::ReenterReset, t);
                self.cfg.note_reset();
                let path = self.cfg.replay_sequence(node).to_vec();
                self.replay(path)
            }
        };
        if replayed > 0 {
            self.take_snapshot(node);
        }
        self.checker.reset_history();
    }

    fn symbolic_guidance(&mut self) {
        if self.engine.is_none() {
            self.engine = Some(SymbolicEngine::new(Arc::clone(&self.design)));
        }
        let t = self.spans.now();
        let mut candidates = self.cfg.checkpoints(self.config.checkpoint_fanout);
        self.spans.end(Call::Checkpoints, t);
        if let Some(cur) = self.cfg.current() {
            if !candidates.contains(&cur) {
                candidates.push(cur);
            }
        }
        for cp in candidates {
            self.rollback_to(cp);
            match self.try_solve(Some(cp)) {
                Solve::Sat | Solve::Exhausted => return,
                Solve::Unsat => {}
            }
        }
        self.full_reset();
        self.try_solve(None);
    }

    fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(conflicts) = self.config.solver_budget {
            b = b.with_conflicts(conflicts);
        }
        b.escalate(1u64 << self.escalation.min(62))
    }

    fn try_solve(&mut self, checkpoint: Option<NodeId>) -> Solve {
        let budget = self.budget();
        let per_round = self.config.targets_per_round;
        let mut targets = Vec::new();
        for (i, reg) in self.cfg.control_registers().iter().enumerate() {
            for value in self.cfg.unseen_values(i, per_round) {
                targets.push((*reg, value));
            }
        }
        let mut tried = 0usize;
        for (reg, value) in targets {
            if tried >= per_round {
                return Solve::Unsat;
            }
            let key = (checkpoint, reg, value.clone());
            if self.neg_cache.contains(&key) {
                continue;
            }
            tried += 1;
            self.out.solves += 1;
            let engine = self.engine.as_ref().expect("built before solving");
            let t = self.spans.now();
            let result = engine.solve_reach_profiled(
                self.sim.values(),
                &[(reg, value.clone())],
                self.config.solve_depth,
                &budget,
            );
            self.spans.end(Call::SolveReach, t);
            match result {
                Ok((ReachOutcome::Reached(seq), _)) => {
                    self.out.reached += 1;
                    self.check_model(&seq, reg, &value);
                    let items = seq
                        .iter()
                        .map(|a| SequenceItem::new(a.to_word(&self.design)));
                    self.sequencer.clear_replay();
                    self.sequencer.push_replay(items);
                    self.escalation = 0;
                    return Solve::Sat;
                }
                Ok((ReachOutcome::Unreachable, _)) | Err(_) => {
                    self.neg_cache.insert(key);
                }
                Ok((ReachOutcome::Exhausted { .. }, _)) => {
                    self.neg_cache.insert(key);
                    if self.escalation < self.config.escalation_cap {
                        self.escalation += 1;
                    }
                    return Solve::Exhausted;
                }
            }
        }
        Solve::Unsat
    }

    /// The solver-model oracle: copies the query's start state into the
    /// oracle simulator, drives the model's inputs, and checks that the
    /// target register holds the target value.
    fn check_model(&mut self, seq: &[InputAssignment], reg: SignalId, value: &LogicVec) {
        let id = self.sim.fork(&mut self.oracle_store, None).id;
        self.oracle.enter(&self.oracle_store, id);
        for step in seq {
            self.oracle.apply_input_word(&step.to_word(&self.design));
            self.oracle.step();
        }
        self.out.checks += 1;
        let got = self.oracle.get(reg);
        if got.has_unknown() {
            self.out.x_targets += 1;
        } else if got != value {
            self.out.mismatches += 1;
        }
        self.oracle_store.evict(id);
    }
}
