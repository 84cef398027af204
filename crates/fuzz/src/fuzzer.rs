//! The fuzzing engine: Algorithm 1 and the baseline strategies.

use crate::config::{FuzzConfig, Strategy};
use crate::mutate::{Granularity, Mutator};
use crate::report::{
    BugRecord, CampaignResult, CovMap, CoverageSample, EdgeCov, FlightRow, FrontierRow, GoalCov,
    NodeCov, PropertySpec, ProvenanceRecord, ResourceStats, SolverCacheBlock, SolverProfileBlock,
    TelemetryBlock, VmProfileBlock, COVMAP_VERSION,
};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::Arc;
use symbfuzz_cfgx::{Cfg, NodeId, Provenance};
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::{classify_registers, Design, SignalId};
use symbfuzz_props::{PropError, Property, PropertyChecker};
use symbfuzz_ruvm::{Driver, SequenceItem, Sequencer};
use symbfuzz_sim::{Reentry, Simulator, SnapshotId, SnapshotStore};
use symbfuzz_smt::Budget;
use symbfuzz_symexec::{ReachOutcome, ReachStats, SolverCacheStats, SymbolicEngine};
use symbfuzz_telemetry::{
    Collector, Counter, Event, FieldValue, Gauge, Mechanism, MonotonicClock, Phase, SampleState,
    Sampler, SolveStatus, SUMMARY_RECORD,
};

/// Unseen values listed per control register when building the
/// uncovered-frontier table of the covmap artifact.
const FRONTIER_VALUES_PER_REGISTER: usize = 8;

/// Hot cones named in the VM-profile section of reports and the
/// `status.json` heartbeat.
const HOT_CONE_TOP_K: usize = 10;

/// Testcase length (cycles per reset-to-reset test) for the baseline
/// fuzzers and UVM random testing. SymbFuzz itself runs continuously,
/// using checkpoints instead of per-test resets (§4.5).
const TESTCASE_LEN: usize = 32;

/// One symbolic solve attempt, recorded for the covmap goal log.
struct GoalAttempt {
    reg: SignalId,
    value: u64,
    checkpoint: Option<NodeId>,
    status: SolveStatus,
    vector: u64,
}

/// One fuzzing campaign over one design with one strategy.
///
/// Despite the name the struct drives every [`Strategy`]; the paper's
/// algorithm corresponds to [`Strategy::SymbFuzz`]. See the
/// [crate docs](crate) for an end-to-end example.
pub struct SymbFuzz {
    design: Arc<Design>,
    strategy: Strategy,
    config: FuzzConfig,
    sim: Simulator,
    sequencer: Sequencer,
    driver: Driver,
    mutator: Mutator,
    cfg: Cfg,
    checker: PropertyChecker,
    engine: Option<SymbolicEngine>,
    /// Copy-on-write snapshot tree: state pages shared with the
    /// nearest snapshotted CFG ancestor, bounded by
    /// `config.snapshot_mem_budget` unique bytes.
    snap_store: SnapshotStore,
    /// CFG node → live snapshot handle.
    snap_ids: HashMap<NodeId, SnapshotId>,
    /// Snapshotted nodes in insertion order — the deterministic
    /// iteration set for ancestor search and the FIFO eviction queue.
    snap_order: Vec<NodeId>,
    /// High-water marks of the store (live snapshots / unique bytes).
    peak_snapshots: usize,
    peak_snapshot_bytes: u64,
    /// Goals that proved unsatisfiable or exhausted their budget from a
    /// given rollback point — never re-attempted this campaign.
    neg_cache: HashSet<(Option<NodeId>, SignalId, LogicVec)>,
    /// Current budget-escalation level (0 = base budget; each level
    /// doubles the counter ceilings, capped by `escalation_cap`).
    escalation: u32,
    /// Tally of symbolic-episode outcomes, indexed by
    /// [`SolveStatus::serial_index`].
    solve_tally: [u64; SolveStatus::SERIAL_COUNT],
    /// Checkpoint node attribution is currently charged to: set on
    /// rollback, cleared on full reset.
    active_checkpoint: Option<NodeId>,
    /// Goal id behind the replay items currently queued in the
    /// sequencer (solver-guided words), cleared once the queue drains.
    current_goal: Option<u64>,
    /// Every symbolic solve attempt, in order; provenance goal ids
    /// index this log.
    goals: Vec<GoalAttempt>,
    /// Two-state coverage view for the HWFP baseline.
    twostate_nodes: HashSet<Vec<u64>>,
    vectors: u64,
    stagnation: u32,
    bugs: Vec<BugRecord>,
    seen_bugs: HashSet<String>,
    series: Vec<CoverageSample>,
    resources: ResourceStats,
    /// Coverage points at the end of the previous interval.
    last_coverage: usize,
    /// RFuzz guidance metric at the previous step.
    last_toggles: usize,
    /// Current baseline testcase being driven, and the cursor into it.
    case: Vec<LogicVec>,
    case_pos: usize,
    /// Whether the current testcase produced any new coverage.
    case_had_new: bool,
    /// Telemetry hub shared with the simulator and symbolic engine.
    /// Defaults to a deterministic collector (manual clock driven by
    /// the vector count, null sink), so reports stay reproducible.
    telemetry: Arc<Collector>,
    /// Flight recorder sampling the collector every
    /// `config.sample_every` vectors (`None` = recorder off).
    sampler: Option<Sampler>,
    /// Per-goal solver record (always collected; the rows are a
    /// deterministic function of the campaign seed, and carry
    /// introspection sub-records when `config.solver_introspection`
    /// is on).
    solver_profile: SolverProfileBlock,
}

impl SymbFuzz {
    /// Builds a campaign. Properties are filtered by the strategy's
    /// oracle visibility (see [`PropertySpec`]); SymbFuzz and
    /// UVM-random use the full in-RTL assertion set.
    ///
    /// # Errors
    ///
    /// Returns [`PropError`] if a property fails to parse against the
    /// design.
    pub fn new(
        design: Arc<Design>,
        strategy: Strategy,
        config: FuzzConfig,
        props: &[PropertySpec],
    ) -> Result<SymbFuzz, PropError> {
        let mut compiled = Vec::new();
        for p in props {
            let visible = match strategy {
                Strategy::SymbFuzz | Strategy::UvmRandom => true,
                Strategy::RFuzz => p.rfuzz_visible,
                Strategy::DifuzzRtl => p.difuzz_visible,
                Strategy::Hwfp => p.hwfp_visible,
            };
            if visible {
                compiled.push(Property::parse(&p.name, &p.text, &design)?);
            }
        }
        let mut ctrl = classify_registers(&design).control;
        // §4.6 of the paper: predicates over wide registers (e.g.
        // `r1 == 0` on a 32-bit register) do not divide the space into
        // a small outcome set, so such registers cannot enumerate into
        // the node tuple. Keep registers with a bounded encoding set
        // (enums, or ≤ 8 bits); wider ones are treated as data.
        ctrl.retain(|s| {
            let sig = design.signal(*s);
            sig.legal_encodings.is_some() || sig.width <= 8
        });
        let telemetry = Arc::new(Collector::deterministic());
        let mut sim = Simulator::new(Arc::clone(&design));
        sim.set_collector(Some(Arc::clone(&telemetry)));
        sim.set_settle_mode(config.settle_policy.to_mode());
        // The flight recorder pays for the per-cone VM profile too:
        // both observers ride the same `sample_every` opt-in.
        if config.sample_every.is_some() {
            sim.enable_vm_profiler();
        }
        let snap_store = sim.snapshot_store(config.snapshot_mem_budget);
        sim.reenter(Reentry::FullReset {
            cycles: config.reset_cycles,
        });
        let granularity = match strategy {
            Strategy::RFuzz => Granularity::Bit,
            Strategy::Hwfp => Granularity::Byte,
            _ => Granularity::Word,
        };
        Ok(SymbFuzz {
            sequencer: Sequencer::new(Arc::clone(&design), config.seed),
            mutator: Mutator::new(design.fuzz_width(), granularity, config.seed),
            cfg: Cfg::new(Arc::clone(&design), ctrl),
            checker: PropertyChecker::new(compiled),
            engine: None,
            snap_store,
            snap_ids: HashMap::new(),
            snap_order: Vec::new(),
            peak_snapshots: 0,
            peak_snapshot_bytes: 0,
            neg_cache: HashSet::new(),
            escalation: 0,
            solve_tally: [0; SolveStatus::SERIAL_COUNT],
            active_checkpoint: None,
            current_goal: None,
            goals: Vec::new(),
            twostate_nodes: HashSet::new(),
            vectors: 0,
            stagnation: 0,
            bugs: Vec::new(),
            seen_bugs: HashSet::new(),
            series: Vec::new(),
            resources: ResourceStats::default(),
            last_coverage: 0,
            last_toggles: 0,
            case: Vec::new(),
            case_pos: 0,
            case_had_new: false,
            driver: Driver,
            sim,
            design,
            strategy,
            sampler: config.sample_every.map(Sampler::new),
            config,
            telemetry,
            solver_profile: SolverProfileBlock::default(),
        })
    }

    /// The strategy driving this campaign.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Mutable access to the sequencer (to pre-install constraints,
    /// e.g. Listing 3's `OPmode == 1`).
    pub fn sequencer_mut(&mut self) -> &mut Sequencer {
        &mut self.sequencer
    }

    /// Input vectors consumed so far.
    pub fn vectors(&self) -> u64 {
        self.vectors
    }

    /// The campaign's telemetry collector.
    pub fn telemetry(&self) -> &Arc<Collector> {
        &self.telemetry
    }

    /// Replaces the campaign's collector and re-points the simulator
    /// and (if built) the symbolic engine at it. The bench harness
    /// uses this to install a wall-clock collector streaming JSONL to
    /// a trace file; the default stays deterministic. The counters and
    /// gauge levels the replaced collector holds, such as the reset
    /// cycles [`new`](Self::new) drove, carry over
    /// ([`Collector::fold_counts`]), so a traced campaign counts the
    /// same work as an untraced one.
    pub fn install_telemetry(&mut self, telemetry: Arc<Collector>) {
        telemetry.fold_counts(&self.telemetry);
        self.sim.set_collector(Some(Arc::clone(&telemetry)));
        if let Some(engine) = &mut self.engine {
            engine.set_collector(Some(Arc::clone(&telemetry)));
        }
        self.telemetry = telemetry;
    }

    /// Attaches live flight-recorder artifacts: `flight` is truncated
    /// and appended to sample by sample, `status` is atomically
    /// rewritten on every sample so it can be polled mid-run. No-op
    /// unless the campaign was configured with
    /// [`FuzzConfig::sample_every`].
    ///
    /// # Errors
    ///
    /// Propagates creation errors for the flight file.
    pub fn set_flight_outputs(
        &mut self,
        flight: Option<&Path>,
        status: Option<&Path>,
    ) -> io::Result<()> {
        let Some(sampler) = &mut self.sampler else {
            return Ok(());
        };
        if let Some(path) = flight {
            sampler.set_flight_path(path)?;
        }
        if let Some(path) = status {
            sampler.set_status_path(path);
        }
        Ok(())
    }

    /// Streams the end-of-campaign `Summary` trace record: the
    /// settle-engine mix and the symbolic engine's frame-cache figures
    /// (`null` when the campaign never built its engine: no
    /// stagnation, or a baseline). No-op without a trace sink.
    fn emit_summary(&self) {
        let t = &self.telemetry;
        let cache = self.engine.as_ref().map(SymbolicEngine::cache_stats);
        let figure = |f: fn(&SolverCacheStats) -> u64| FieldValue::NumOrNull(cache.as_ref().map(f));
        t.trace_record(
            t.now_micros(),
            SUMMARY_RECORD,
            &[
                FieldValue::Num(t.get(Counter::SettleFastPath)),
                FieldValue::Num(t.get(Counter::SettleEscapes)),
                FieldValue::Num(t.gauge(Gauge::XIslandCones)),
                FieldValue::Num(t.get(Counter::SettleSweeps)),
                figure(|c| c.frame_hits),
                figure(|c| c.frame_misses),
                figure(|c| c.goals),
                figure(|c| c.reused_goals),
            ],
        );
    }

    /// The profiler sections appended to the `status.json` heartbeat:
    /// the per-cone VM profile (when the compiled settle mode ran) and
    /// the per-goal solver record.
    fn profile_sections(&self) -> Vec<(String, String)> {
        let mut extra = Vec::new();
        if let Some(p) = self.sim.vm_profile(HOT_CONE_TOP_K) {
            let block = VmProfileBlock::from(p);
            if let Ok(json) = serde_json::to_string(&block) {
                extra.push(("vm_profile".to_string(), json));
            }
        }
        if let Ok(json) = serde_json::to_string(&self.solver_profile) {
            extra.push(("solver_profile".to_string(), json));
        }
        extra
    }

    /// Current coverage points.
    pub fn coverage_points(&self) -> usize {
        self.cfg.coverage_points()
    }

    /// Runs until the vector budget is exhausted and returns the
    /// campaign result. Ends by streaming one `Summary` trace record.
    pub fn run(&mut self) -> CampaignResult {
        // A zero interval consumes no vectors per iteration; bail out
        // rather than loop forever (FuzzConfig::validate rejects it).
        while self.config.interval > 0 && self.vectors < self.config.max_vectors {
            self.run_interval();
            self.series.push(CoverageSample {
                vectors: self.vectors,
                coverage: self.cfg.coverage_points() as u64,
            });
            self.note_interval();
        }
        self.emit_summary();
        self.result()
    }

    /// Runs until `property` fires or the budget is exhausted; returns
    /// the vectors spent (used by the Table 1 per-bug measurements).
    /// Ends by streaming one `Summary` trace record, as
    /// [`run`](Self::run) does.
    pub fn run_until_bug(&mut self, property: &str) -> Option<u64> {
        let found = self.hunt(property);
        self.emit_summary();
        found
    }

    /// [`run_until_bug`](Self::run_until_bug)'s loop.
    fn hunt(&mut self, property: &str) -> Option<u64> {
        while self.config.interval > 0 && self.vectors < self.config.max_vectors {
            self.run_interval();
            if let Some(b) = self.bugs.iter().find(|b| b.property == property) {
                return Some(b.vectors);
            }
            self.note_interval();
        }
        None
    }

    /// Shared end-of-interval bookkeeping for [`run`](Self::run) and
    /// [`run_until_bug`](Self::run_until_bug): maintains the stagnation
    /// counter against the coverage delta, emits the corresponding
    /// telemetry events, and fires the stagnation response once the
    /// threshold is crossed (Algorithm 1 line 13).
    fn note_interval(&mut self) {
        self.telemetry.add(Counter::Intervals, 1);
        let now = self.cfg.coverage_points();
        if now > self.last_coverage {
            self.telemetry.record(Event::CoverageDelta {
                vectors: self.vectors,
                coverage: now as u64,
                delta: (now - self.last_coverage) as u64,
            });
            self.stagnation = 0;
        } else {
            self.stagnation += 1;
        }
        self.last_coverage = now;
        self.telemetry.set_gauge(
            Gauge::SnapshotCache,
            self.snap_store.live_snapshots() as u64,
        );
        self.telemetry
            .set_gauge(Gauge::SnapshotBytes, self.snap_store.unique_bytes());
        self.telemetry
            .set_gauge(Gauge::SnapshotSharing, self.snap_store.sharing_milli());
        self.telemetry
            .set_gauge(Gauge::CaseCorpus, self.mutator.case_corpus_len() as u64);
        if self.sampler.is_some() {
            let state = SampleState {
                vectors: self.vectors,
                coverage: now as u64,
                nodes: self.cfg.node_count() as u64,
                edges: self.cfg.edge_count() as u64,
                stagnant: self.stagnation as u64,
            };
            // Taken out and restored so the status heartbeat can read
            // the profilers through `&self` while the sampler is live.
            let mut sampler = self.sampler.take().expect("checked above");
            if sampler.maybe_sample(&self.telemetry, &state).is_some() && sampler.has_status_path()
            {
                sampler.write_status(&self.profile_sections());
            }
            self.sampler = Some(sampler);
        }
        if self.stagnation > self.config.threshold {
            self.telemetry.record(Event::StagnationEnter {
                vectors: self.vectors,
                intervals: self.stagnation as u64,
            });
            self.on_stagnation();
            self.stagnation = 0;
        }
    }

    /// Assembles the final report without running further.
    pub fn result(&self) -> CampaignResult {
        let mut resources = self.resources;
        resources.peak_snapshots = self.peak_snapshots.max(self.snap_store.live_snapshots());
        resources.peak_snapshot_bytes =
            self.peak_snapshot_bytes.max(self.snap_store.unique_bytes());
        resources.snapshot_pages_copied = self.snap_store.pages_copied_total();
        resources.snapshot_pages_shared = self.snap_store.pages_shared_total();
        resources.snapshot_evictions = self.snap_store.evictions();
        let state_bytes: u64 = self
            .design
            .signals
            .iter()
            .map(|s| (s.width as u64).div_ceil(8))
            .sum();
        // Live simulator state, plus the snapshot store's *unique* page
        // bytes at peak (copy-on-write sharing counted once — the old
        // `state × (1 + snapshots)` formula assumed every snapshot was
        // a full deep copy), plus the baselines' testcase corpus.
        let word_bytes = (self.design.fuzz_width() as u64).div_ceil(8);
        let corpus_bytes = self.mutator.case_corpus_len() as u64 * TESTCASE_LEN as u64 * word_bytes;
        resources.peak_state_bytes = state_bytes + resources.peak_snapshot_bytes + corpus_bytes;
        CampaignResult {
            fuzzer: self.strategy.name().to_string(),
            design: self.design.name.clone(),
            vectors: self.vectors,
            coverage_points: self.cfg.coverage_points() as u64,
            nodes: self.cfg.node_count() as u64,
            edges: self.cfg.edge_count() as u64,
            node_coverage_ratio: self.cfg.node_coverage_ratio(),
            edge_coverage_ratio: self.cfg.edge_coverage_ratio(),
            bugs: self.bugs.clone(),
            series: self.series.clone(),
            resources,
            solve_outcomes: SolveStatus::SERIALS
                .iter()
                .zip(self.solve_tally.iter())
                .map(|(s, n)| (s.to_string(), *n))
                .collect(),
            telemetry: TelemetryBlock::from(self.telemetry.snapshot()),
            covmap: self.covmap(),
            flight: self
                .sampler
                .as_ref()
                .map(|s| s.samples().map(FlightRow::from).collect())
                .unwrap_or_default(),
            vm_profile: self
                .sim
                .vm_profile(HOT_CONE_TOP_K)
                .map(VmProfileBlock::from),
            solver_profile: self.solver_profile.clone(),
            solver_cache: self
                .engine
                .as_ref()
                .map(|e| SolverCacheBlock::from(e.cache_stats())),
        }
    }

    /// Builds the coverage-provenance artifact from the CFG's node and
    /// edge records plus the symbolic goal log. Everything iterates
    /// over ordered vectors (never hash maps), so the artifact is a
    /// byte-stable function of the campaign seed.
    pub fn covmap(&self) -> CovMap {
        fn rec(p: Provenance) -> ProvenanceRecord {
            ProvenanceRecord {
                vector: p.vector,
                mechanism: p.mechanism.name().to_string(),
                goal: p.goal,
                checkpoint: p.checkpoint.map(|n| n.0 as u64),
            }
        }
        let nodes = (0..self.cfg.node_count() as u32)
            .map(|i| {
                let n = NodeId(i);
                NodeCov {
                    id: i as u64,
                    first_cycle: self.cfg.first_cycle(n),
                    provenance: rec(self.cfg.provenance(n)),
                }
            })
            .collect();
        let edges = self
            .cfg
            .edge_records()
            .iter()
            .enumerate()
            .map(|(i, e)| EdgeCov {
                id: i as u64,
                src: e.src.0 as u64,
                dst: e.dst.0 as u64,
                cycle: e.cycle,
                provenance: rec(e.prov),
            })
            .collect();
        let goals = self
            .goals
            .iter()
            .enumerate()
            .map(|(i, g)| GoalCov {
                id: i as u64,
                register: self.design.signal(g.reg).name.clone(),
                value: g.value,
                checkpoint: g.checkpoint.map(|n| n.0 as u64),
                status: g.status.serial().to_string(),
                vector: g.vector,
            })
            .collect();
        let mut frontier = Vec::new();
        for (i, reg) in self.cfg.control_registers().iter().enumerate() {
            let name = &self.design.signal(*reg).name;
            for v in self.cfg.unseen_values(i, FRONTIER_VALUES_PER_REGISTER) {
                let value = v.to_u64().unwrap_or(0);
                let mut attempts = 0u64;
                let mut last = None;
                for g in &self.goals {
                    if g.reg == *reg && g.value == value {
                        attempts += 1;
                        last = Some(g.status);
                    }
                }
                frontier.push(FrontierRow {
                    register: name.clone(),
                    value,
                    attempts,
                    last_status: last
                        .map(|s| s.serial().to_string())
                        .unwrap_or_else(|| "unattempted".to_string()),
                });
            }
        }
        CovMap {
            version: COVMAP_VERSION,
            fuzzer: self.strategy.name().to_string(),
            design: self.design.name.clone(),
            nodes,
            edges,
            goals,
            frontier,
        }
    }

    // ---- the per-interval drive loop (Algorithm 1 lines 8–12) ----------

    fn run_interval(&mut self) {
        let telemetry = Arc::clone(&self.telemetry);
        for _ in 0..self.config.interval {
            if self.vectors >= self.config.max_vectors {
                return;
            }
            let (word, mechanism) = {
                let _span = telemetry.phase(Phase::Mutate);
                match self.strategy {
                    Strategy::SymbFuzz => {
                        // A non-empty replay queue means the next word
                        // is a solver-produced sequence item; once the
                        // queue drains, attribution reverts to
                        // constrained-random and the goal is retired.
                        let solver_guided = self.sequencer.replay_len() > 0;
                        let w = self.sequencer.next_item().word;
                        if solver_guided {
                            (w, Mechanism::SolverGuided)
                        } else {
                            self.current_goal = None;
                            (w, Mechanism::ConstrainedRandom)
                        }
                    }
                    // Baselines and UVM random drive multi-cycle testcases
                    // from reset, the standard hardware-fuzzing harness;
                    // only SymbFuzz runs continuously via checkpoints.
                    _ => {
                        if self.case_pos >= self.case.len() {
                            self.finish_case();
                        }
                        let w = self.case[self.case_pos].clone();
                        self.case_pos += 1;
                        (w, Mechanism::ConstrainedRandom)
                    }
                }
            };
            self.vectors += 1;
            self.resources.cycles += 1;
            // The deterministic clock ticks once per input vector.
            telemetry.set_time(self.vectors);
            telemetry.add(Counter::Vectors, 1);
            let prov = Provenance {
                vector: self.vectors,
                mechanism,
                goal: if mechanism == Mechanism::SolverGuided {
                    self.current_goal
                } else {
                    None
                },
                checkpoint: self.active_checkpoint,
            };
            let _settle = telemetry.phase(Phase::Settle);
            self.driver
                .drive(&mut self.sim, &SequenceItem::new(word.clone()));
            let outcome = self
                .cfg
                .observe(self.sim.values(), &word, self.sim.cycle(), prov);
            self.note_coverage_events(&outcome, prov);

            match self.strategy {
                Strategy::SymbFuzz => {
                    if outcome.new_node {
                        self.take_snapshot(outcome.node);
                    }
                }
                Strategy::RFuzz => {
                    // Mux-toggle coverage only.
                    let toggles = self.sim.toggled_outcomes();
                    self.case_had_new |= toggles > self.last_toggles;
                    self.last_toggles = toggles;
                }
                Strategy::DifuzzRtl => {
                    // Control-register value coverage.
                    self.case_had_new |= outcome.new_node;
                }
                Strategy::Hwfp => {
                    // Software-fuzzer edge coverage over the translated
                    // design: branch toggles plus register states, both
                    // seen through a two-state lens (X collapses to 0,
                    // hiding X-distinct states from the feedback).
                    let key: Vec<u64> = self
                        .cfg
                        .control_registers()
                        .iter()
                        .map(|s| self.sim.get(*s).to_u64_x_as_zero())
                        .collect();
                    let toggles = self.sim.toggled_outcomes();
                    self.case_had_new |=
                        self.twostate_nodes.insert(key) || toggles > self.last_toggles;
                    self.last_toggles = toggles;
                }
                Strategy::UvmRandom => {}
            }
            drop(_settle);

            let _props = telemetry.phase(Phase::Props);
            let violations = self.checker.on_cycle(self.sim.cycle(), self.sim.values());
            for v in violations {
                if self.seen_bugs.insert(v.property.clone()) {
                    telemetry.record(Event::BugFired {
                        property: v.property.clone(),
                        vector: self.vectors,
                    });
                    self.bugs.push(BugRecord {
                        property: v.property,
                        cycle: v.cycle,
                        vectors: self.vectors,
                        node: Some(outcome.node.0 as u64),
                        mechanism: prov.mechanism.name().to_string(),
                        goal: prov.goal,
                        checkpoint: prov.checkpoint.map(|n| n.0 as u64),
                    });
                }
            }
        }
    }

    /// Emits the provenance events for anything `observe` saw for the
    /// first time.
    fn note_coverage_events(&self, outcome: &symbfuzz_cfgx::ObserveOutcome, prov: Provenance) {
        if outcome.new_node {
            self.telemetry.record(Event::NodeCovered {
                node: outcome.node.0 as u64,
                vector: prov.vector,
                mechanism: prov.mechanism,
                goal: prov.goal,
                checkpoint: prov.checkpoint.map(|n| n.0 as u64),
            });
        }
        if outcome.new_edge {
            let id = self.cfg.edge_count() as u64 - 1;
            let e = self.cfg.edge_record(id as u32);
            self.telemetry.record(Event::EdgeCovered {
                edge: id,
                src: e.src.0 as u64,
                dst: e.dst.0 as u64,
                vector: prov.vector,
                mechanism: prov.mechanism,
            });
        }
    }

    // ---- stagnation handling (Algorithm 1 lines 13–22) -----------------

    fn on_stagnation(&mut self) {
        // Baselines already reset between testcases; only SymbFuzz has
        // a stagnation response (the symbolic step of Algorithm 1).
        if self.strategy == Strategy::SymbFuzz {
            self.symbolic_guidance();
        }
    }

    /// Retires the finished testcase (keeping it as a corpus seed if it
    /// covered anything new), resets the DUV, and schedules the next
    /// case — the per-test harness every baseline pays for and SymbFuzz
    /// replaces with checkpoints.
    fn finish_case(&mut self) {
        if self.case_had_new && self.strategy != Strategy::UvmRandom {
            self.mutator.keep_case(std::mem::take(&mut self.case));
        }
        self.full_reset();
        self.case = self.mutator.next_case(TESTCASE_LEN);
        self.case_pos = 0;
        self.case_had_new = false;
    }

    fn full_reset(&mut self) {
        let telemetry = Arc::clone(&self.telemetry);
        let _span = telemetry.phase(Phase::Reset);
        self.resources.cycles += self.config.reset_cycles as u64;
        self.sim.reenter(Reentry::FullReset {
            cycles: self.config.reset_cycles,
        });
        self.cfg.note_reset();
        self.checker.reset_history();
        self.resources.full_resets += 1;
        self.active_checkpoint = None;
        telemetry.record(Event::FullReset);
    }

    /// The paper's symbolic step: find the nearest checkpoint with
    /// unexplored descendants, roll back to it, solve the dependency
    /// equations for an unvisited control-register value, and install
    /// the solved input sequence into the sequencer.
    fn symbolic_guidance(&mut self) {
        let telemetry = Arc::clone(&self.telemetry);
        let _span = telemetry.phase(Phase::Symbolic);
        if !self.config.use_solver {
            self.note_episode(None, 0, SolveStatus::Skipped);
            return;
        }
        if self.engine.is_none() {
            let mut engine = SymbolicEngine::new(Arc::clone(&self.design));
            engine.set_collector(Some(Arc::clone(&self.telemetry)));
            engine.set_introspection(self.config.solver_introspection);
            self.engine = Some(engine);
        }
        let eqns = self.engine.as_ref().map_or(0, |e| e.num_equations() as u64);
        // Candidate rollback points: checkpoints newest-first (§4.5),
        // then the current node, then a plain reset state. The
        // checkpoint ablation always solves from the reset state.
        let mut candidates = if self.config.use_checkpoints {
            self.cfg.checkpoints(self.config.checkpoint_fanout)
        } else {
            Vec::new()
        };
        if self.config.use_checkpoints {
            if let Some(cur) = self.cfg.current() {
                if !candidates.contains(&cur) {
                    candidates.push(cur);
                }
            }
        }
        for cp in candidates {
            self.rollback_to(cp);
            let status = self.try_solve_from_here(Some(cp));
            self.note_episode(Some(cp.0 as u64), eqns, status);
            match status {
                SolveStatus::Sat => return,
                // Budget exhausted: abandon the episode and fall back
                // to constrained-random mutation; the next episode
                // retries with an escalated budget and the negative
                // cache keeps it off this goal.
                SolveStatus::Unknown(_) => return,
                SolveStatus::Unsat | SolveStatus::Skipped => {}
            }
        }
        // No checkpoint produced a solvable target: reset and try from
        // the reset state (line 19 of Algorithm 1 resets before solving).
        self.full_reset();
        let status = self.try_solve_from_here(None);
        self.note_episode(None, eqns, status);
    }

    /// Appends one solve attempt to the goal log and returns its id.
    fn note_goal(
        &mut self,
        reg: SignalId,
        value: u64,
        checkpoint: Option<NodeId>,
        status: SolveStatus,
    ) -> u64 {
        let id = self.goals.len() as u64;
        self.goals.push(GoalAttempt {
            reg,
            value,
            checkpoint,
            status,
            vector: self.vectors,
        });
        id
    }

    /// Records one symbolic episode in the tally and the event stream.
    fn note_episode(&mut self, checkpoint: Option<u64>, eqns: u64, status: SolveStatus) {
        self.solve_tally[status.serial_index()] += 1;
        self.telemetry.record(Event::SymbolicEpisode {
            checkpoint,
            eqns,
            solve_result: status,
        });
    }

    /// The budget for the next symbolic solve: the configured ceilings
    /// scaled by the current escalation level (2× per level).
    fn current_budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(conflicts) = self.config.solver_budget {
            b = b.with_conflicts(conflicts);
        }
        b = b.escalate(1u64 << self.escalation.min(62));
        if let Some(ms) = self.config.solve_wall_ms {
            // A clock started now, not the telemetry clock: the default
            // collector's clock counts vectors and stands still mid-solve.
            b = b.with_wall_deadline(Arc::new(MonotonicClock::new()), ms.saturating_mul(1000));
        }
        b
    }

    /// Attempts to solve for any unseen control-register value from the
    /// simulator's current state; on success queues the input sequence.
    ///
    /// Graceful degradation: an exhausted budget aborts the episode
    /// with `Unknown` (the caller falls back to random mutation), the
    /// goal enters the negative cache alongside proven-unsat goals,
    /// and the escalation level rises so the next episode searches
    /// harder. A successful solve resets escalation.
    fn try_solve_from_here(&mut self, checkpoint: Option<NodeId>) -> SolveStatus {
        if self.engine.is_none() {
            return SolveStatus::Skipped;
        }
        let budget = self.current_budget();
        let nregs = self.cfg.control_registers().len();
        let mut tried = 0usize;
        // The target frontier in register-major order.
        let mut targets: Vec<(SignalId, LogicVec)> = Vec::new();
        for i in 0..nregs {
            let reg = self.cfg.control_registers()[i];
            for value in self.cfg.unseen_values(i, self.config.targets_per_round) {
                targets.push((reg, value));
            }
        }
        for (reg, value) in targets {
            if tried >= self.config.targets_per_round {
                return SolveStatus::Unsat;
            }
            let key = (checkpoint, reg, value.clone());
            let target_value = value.to_u64().unwrap_or(0);
            if self.neg_cache.contains(&key) {
                self.telemetry.add(Counter::NegCacheHits, 1);
                let name = self.design.signal(reg).name.clone();
                self.solver_profile.note_neg_cache_hit(&name, target_value);
                continue;
            }
            tried += 1;
            self.resources.solver_calls += 1;
            let result = {
                let _span = self.telemetry.phase(Phase::Solve);
                self.engine
                    .as_ref()
                    .expect("checked above")
                    .solve_reach_profiled(
                        self.sim.values(),
                        &[(reg, value)],
                        self.config.solve_depth,
                        &budget,
                    )
            };
            let outcome = match result {
                Ok((outcome, stats)) => {
                    let name = self.design.signal(reg).name.clone();
                    self.solver_profile.note_attempt(
                        &name,
                        target_value,
                        self.escalation,
                        &outcome,
                        &stats,
                    );
                    self.note_goal_scope(&name, target_value, &outcome, &stats);
                    Some((outcome, stats.spent))
                }
                // An unposable goal never reached the solver; it is
                // cached like a proven unsat but left unprofiled.
                Err(_) => None,
            };
            match outcome {
                Some((ReachOutcome::Reached(seq), _)) => {
                    let items = seq
                        .iter()
                        .map(|a| SequenceItem::new(a.to_word(&self.design)));
                    self.sequencer.clear_replay();
                    self.sequencer.push_replay(items);
                    self.escalation = 0;
                    self.telemetry.set_gauge(Gauge::EscalationLevel, 0);
                    // Words drawn from this replay queue are
                    // attributed to the goal just solved.
                    self.current_goal =
                        Some(self.note_goal(reg, target_value, checkpoint, SolveStatus::Sat));
                    return SolveStatus::Sat;
                }
                Some((ReachOutcome::Unreachable, _)) | None => {
                    // Proven unsat (or an unposable goal): never
                    // worth re-attempting from this rollback point.
                    self.neg_cache.insert(key);
                    self.note_goal(reg, target_value, checkpoint, SolveStatus::Unsat);
                }
                Some((ReachOutcome::Exhausted { reason }, spent)) => {
                    self.neg_cache.insert(key);
                    self.note_goal(reg, target_value, checkpoint, SolveStatus::Unknown(reason));
                    self.telemetry.add(Counter::BudgetExhaustions, 1);
                    self.telemetry.record(Event::BudgetExhausted {
                        reason,
                        level: self.escalation as u64,
                        conflicts: spent.conflicts,
                        decisions: spent.decisions,
                        propagations: spent.propagations,
                    });
                    if self.escalation < self.config.escalation_cap {
                        self.escalation += 1;
                    }
                    self.telemetry
                        .set_gauge(Gauge::EscalationLevel, self.escalation as u64);
                    return SolveStatus::Unknown(reason);
                }
            }
        }
        SolveStatus::Unsat
    }

    /// Emits the telemetry of one introspected reachability query: a
    /// [`Event::GoalSolveCost`] receipt per query, a
    /// [`Event::CoreExtracted`] attribution record for failed goals
    /// that carry a blame set, and the learned-clause work counter.
    /// Queries without a [`ReachStats::scope`] emit nothing.
    fn note_goal_scope(
        &mut self,
        register: &str,
        value: u64,
        outcome: &ReachOutcome,
        stats: &ReachStats,
    ) {
        let Some(scope) = &stats.scope else {
            return;
        };
        self.telemetry
            .add(Counter::LearnedClauses, scope.trace.learned);
        self.telemetry.record(Event::GoalSolveCost {
            register: register.to_string(),
            value,
            status: outcome.status(),
            depth: stats.deepest_unroll as u64,
            calls: stats.solver_calls as u64,
            conflicts: scope.trace.learned,
            learned: scope.trace.learned,
            restarts: scope.trace.restarts,
            hist: scope.call_conflict_hist.clone(),
        });
        if !matches!(outcome, ReachOutcome::Reached(_)) && !scope.blame.is_empty() {
            self.telemetry.record(Event::CoreExtracted {
                register: register.to_string(),
                value,
                core: if scope.blame_is_core {
                    scope.blame.len() as u64
                } else {
                    0
                },
                blamed: scope.blame.len() as u64,
            });
        }
    }

    /// Caches the just-discovered node's state in the snapshot tree:
    /// forks off the nearest snapshotted CFG ancestor (sharing every
    /// unchanged page with it), then evicts oldest-first until the
    /// store is back inside its byte budget. All bookkeeping is a pure
    /// function of the fork/evict call sequence, so campaigns stay
    /// byte-deterministic.
    fn take_snapshot(&mut self, node: NodeId) {
        let parent = self
            .cfg
            .nearest_ancestor(node, self.snap_order.iter().copied())
            .and_then(|n| self.snap_ids.get(&n).copied());
        let fork = self.sim.fork(&mut self.snap_store, parent);
        self.snap_ids.insert(node, fork.id);
        self.snap_order.push(node);
        // FIFO eviction, never touching the snapshot just taken. An
        // evicted parent's shared pages stay alive (refcounted) until
        // the last child sharing them goes too.
        while self.snap_store.over_budget() && self.snap_order.len() > 1 {
            let victim = self.snap_order.remove(0);
            let id = self.snap_ids.remove(&victim).expect("order/ids in sync");
            self.snap_store.evict(id);
            self.telemetry.add(Counter::SnapshotEvictions, 1);
        }
        self.peak_snapshots = self.peak_snapshots.max(self.snap_store.live_snapshots());
        self.peak_snapshot_bytes = self.peak_snapshot_bytes.max(self.snap_store.unique_bytes());
    }

    /// Re-enters a CFG node through the typed [`Simulator::reenter`]
    /// surface: enter its snapshot when cached (microseconds, §5.5.2);
    /// otherwise enter the nearest snapshotted ancestor and replay only
    /// the residual suffix of the node's recorded path; otherwise full
    /// reset plus full-path replay (§4.5, and the
    /// `use_ancestor_reentry: false` A/B arm). The node becomes the
    /// active checkpoint for attribution; anything a replayed prefix
    /// happens to cover is attributed to the replay-prefix mechanism.
    fn rollback_to(&mut self, node: NodeId) {
        let telemetry = Arc::clone(&self.telemetry);
        let _span = telemetry.phase(Phase::Reset);
        self.resources.rollbacks += 1;
        let ancestor = if self.config.use_ancestor_reentry {
            self.cfg
                .nearest_ancestor(node, self.snap_order.iter().copied())
        } else {
            // Pre-snapshot-tree behaviour: exact hit or nothing.
            Some(node).filter(|n| self.snap_ids.contains_key(n))
        };
        let prefix_len = match ancestor {
            Some(anc) if anc == node => {
                let id = self.snap_ids[&node];
                self.sim.reenter(Reentry::Snapshot {
                    store: &self.snap_store,
                    id,
                });
                self.cfg.note_rollback(node);
                0u64
            }
            Some(anc) => {
                let id = self.snap_ids[&anc];
                self.sim.reenter(Reentry::Snapshot {
                    store: &self.snap_store,
                    id,
                });
                self.cfg.note_rollback(anc);
                let suffix = self.cfg.replay_suffix(node, self.cfg.path_len(anc));
                self.replay_words(node, suffix)
            }
            None => {
                self.resources.cycles += self.config.reset_cycles as u64;
                self.sim.reenter(Reentry::FullReset {
                    cycles: self.config.reset_cycles,
                });
                self.cfg.note_reset();
                self.resources.full_resets += 1;
                let path = self.cfg.replay_sequence(node);
                self.replay_words(node, path)
            }
        };
        // A miss just paid for a replay; cache the target so repeat
        // re-entries (checkpoint lists are revisited every stagnation
        // episode) hit the store instead of replaying again. The
        // legacy arm never re-caches — a once-evicted node replays
        // its full path forever, which is exactly the cost the A/B
        // measures.
        if prefix_len > 0 && self.config.use_ancestor_reentry {
            self.take_snapshot(node);
        }
        telemetry.record(Event::PartialReset { prefix_len });
        self.active_checkpoint = Some(node);
        self.checker.reset_history();
    }

    /// Replays recorded input words toward `node`, observing every
    /// step: a deterministic simulator re-walks known ground, but any
    /// divergence is still attributed (to the replay prefix) rather
    /// than lost. Returns the number of words replayed.
    fn replay_words(&mut self, node: NodeId, path: Vec<LogicVec>) -> u64 {
        self.resources.cycles += path.len() as u64;
        self.telemetry
            .add(Counter::ReplayedCycles, path.len() as u64);
        let len = path.len() as u64;
        let prov = Provenance {
            vector: self.vectors,
            mechanism: Mechanism::ReplayPrefix,
            goal: None,
            checkpoint: Some(node),
        };
        for word in path {
            self.sim.apply_input_word(&word);
            self.sim.step();
            let outcome = self
                .cfg
                .observe(self.sim.values(), &word, self.sim.cycle(), prov);
            self.note_coverage_events(&outcome, prov);
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbfuzz_netlist::elaborate_src;

    /// A lock FSM with a magic 16-bit key split over two steps — random
    /// fuzzing needs ~2^16 tries per stage; the solver needs two
    /// queries.
    const LOCK: &str = "
        module lock(input clk, input rst_n, input [15:0] code,
                    output logic [1:0] st, output logic open);
          always_ff @(posedge clk or negedge rst_n) begin
            if (!rst_n) st <= 2'd0;
            else begin
              case (st)
                2'd0: if (code == 16'hBEEF) st <= 2'd1;
                2'd1: if (code == 16'hCAFE) st <= 2'd2; else st <= 2'd0;
                default: st <= 2'd2;
              endcase
            end
          end
          always_comb open = st == 2'd2;
        endmodule";

    fn lock_design() -> Arc<Design> {
        Arc::new(elaborate_src(LOCK, "lock").unwrap())
    }

    fn lock_props() -> Vec<PropertySpec> {
        vec![PropertySpec::assertion_only("never_open", "open == 1'b0")]
    }

    fn small_cfg(max_vectors: u64) -> FuzzConfig {
        FuzzConfig {
            interval: 32,
            threshold: 1,
            max_vectors,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn symbfuzz_cracks_the_lock() {
        let d = lock_design();
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            small_cfg(20_000),
            &lock_props(),
        )
        .unwrap();
        let r = f.run();
        assert!(
            r.detected("never_open"),
            "SymbFuzz should reach the locked state via the solver (coverage {})",
            r.coverage_points
        );
        assert!(r.resources.solver_calls > 0);
    }

    #[test]
    fn uvm_random_misses_the_lock_in_budget() {
        let d = lock_design();
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::UvmRandom,
            small_cfg(20_000),
            &lock_props(),
        )
        .unwrap();
        let r = f.run();
        assert!(
            !r.detected("never_open"),
            "a 2^-16-per-try magic constant should not fall to 20k random vectors twice in a row"
        );
        assert_eq!(r.resources.solver_calls, 0);
    }

    #[test]
    fn coverage_series_is_monotone() {
        let d = lock_design();
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            small_cfg(3_000),
            &lock_props(),
        )
        .unwrap();
        let r = f.run();
        assert!(!r.series.is_empty());
        for w in r.series.windows(2) {
            assert!(w[1].coverage >= w[0].coverage);
            assert!(w[1].vectors >= w[0].vectors);
        }
        assert_eq!(r.vectors, 3_000);
    }

    #[test]
    fn baselines_filter_invisible_properties() {
        let d = lock_design();
        // The lock property is assertion-only: baselines must not even
        // check it.
        for s in [Strategy::RFuzz, Strategy::DifuzzRtl, Strategy::Hwfp] {
            let mut f = SymbFuzz::new(Arc::clone(&d), s, small_cfg(500), &lock_props()).unwrap();
            let r = f.run();
            assert!(r.bugs.is_empty(), "{} saw an invisible property", s.name());
        }
    }

    #[test]
    fn arch_visible_bug_caught_by_baselines_when_shallow() {
        // Shallow bug: any nonzero input sets the flag.
        let d = Arc::new(
            elaborate_src(
                "module m(input clk, input rst_n, input [3:0] x, output logic bad, output logic [3:0] st);
                   always_ff @(posedge clk or negedge rst_n)
                     if (!rst_n) begin bad <= 1'b0; st <= 4'd0; end
                     else begin
                       if (x == 4'd3) bad <= 1'b1;
                       case (st)
                         4'd0: st <= x;
                         default: st <= 4'd0;
                       endcase
                     end
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let props = vec![PropertySpec::arch_visible("no_bad", "bad == 1'b0")];
        for s in Strategy::all() {
            let mut f = SymbFuzz::new(Arc::clone(&d), s, small_cfg(5_000), &props).unwrap();
            let r = f.run();
            assert!(
                r.detected("no_bad"),
                "{} missed a shallow visible bug",
                s.name()
            );
        }
    }

    #[test]
    fn run_until_bug_reports_vector_count() {
        let d = lock_design();
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            small_cfg(20_000),
            &lock_props(),
        )
        .unwrap();
        let v = f.run_until_bug("never_open");
        assert!(v.is_some());
        assert!(v.unwrap() <= 20_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = lock_design();
        let run = || {
            let mut f = SymbFuzz::new(
                Arc::clone(&d),
                Strategy::DifuzzRtl,
                small_cfg(2_000),
                &lock_props(),
            )
            .unwrap();
            f.run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.coverage_points, b.coverage_points);
        assert_eq!(a.series, b.series);
        // The default collector runs on the deterministic vector clock,
        // so the whole telemetry block reproduces too.
        assert_eq!(a.telemetry, b.telemetry);
    }

    #[test]
    fn installed_collectors_count_the_set_up_work() {
        let d = lock_design();
        let run = |installed: bool| {
            let mut f = SymbFuzz::new(
                Arc::clone(&d),
                Strategy::SymbFuzz,
                small_cfg(3_000),
                &lock_props(),
            )
            .unwrap();
            if installed {
                let reset_steps = f.telemetry().get(Counter::SimSteps);
                assert!(reset_steps > 0, "construction drives the reset cycles");
                f.install_telemetry(Arc::new(Collector::monotonic()));
                assert_eq!(f.telemetry().get(Counter::SimSteps), reset_steps);
            }
            f.run().telemetry
        };
        let (kept, installed) = (run(false), run(true));
        assert_eq!(kept.counters, installed.counters);
        assert_eq!(kept.gauges, installed.gauges);
    }

    #[test]
    fn telemetry_captures_rich_event_stream() {
        let d = lock_design();
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            small_cfg(20_000),
            &lock_props(),
        )
        .unwrap();
        let sink = symbfuzz_telemetry::BufferSink::new();
        let handle = sink.handle();
        f.telemetry().set_sink(Box::new(sink));
        let r = f.run();
        assert_eq!(r.telemetry.counters[0], ("vectors".to_string(), 20_000));
        let distinct = r.telemetry.events.iter().filter(|(_, v)| *v > 0).count();
        assert!(
            distinct >= 6,
            "expected >= 6 distinct event kinds, got {distinct}: {:?}",
            r.telemetry.events
        );
        // The same events streamed through the sink as JSONL, ending
        // with the one summary record, which carries the frame-cache
        // figures of the engine the campaign built.
        let lines = handle.lines();
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        let summaries: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"Summary\""))
            .collect();
        assert_eq!(summaries.len(), 1);
        assert_eq!(Some(summaries[0]), lines.last());
        let cache = r.solver_cache.expect("the campaign stagnated");
        assert!(
            summaries[0].ends_with(&format!(
                "\"frame_hits\":{},\"frame_misses\":{},\"goals\":{},\"reused_goals\":{}}}",
                cache.frame_hits, cache.frame_misses, cache.goals, cache.reused_goals
            )),
            "{}",
            summaries[0]
        );
        // Phase spans fired for the whole Algorithm-1 taxonomy.
        for phase in ["mutate", "settle", "props", "symbolic", "solve", "reset"] {
            assert!(
                r.telemetry
                    .phases
                    .iter()
                    .any(|p| p.phase == phase && p.count > 0),
                "phase {phase} never recorded"
            );
        }
    }

    /// The factoring lock of `symbfuzz_designs::hard_factor`, inlined
    /// (designs depends on this crate, so tests here cannot import
    /// it): the FSM advances only when the 20-bit inputs multiply to a
    /// 40-bit semiprime — a goal no sane conflict budget can crack.
    const HARDLOCK: &str = "
        module hardlock(
          input clk, input rst_n,
          input [19:0] a, input [19:0] b,
          output logic [1:0] st, output logic unlocked);
          logic [39:0] aw;
          logic [39:0] bw;
          assign aw = a;
          assign bw = b;
          always_ff @(posedge clk or negedge rst_n) begin
            if (!rst_n) st <= 2'd0;
            else begin
              case (st)
                2'd0: if (aw * bw == 40'd676371752677) st <= 2'd1;
                2'd1: st <= 2'd2;
                default: st <= st;
              endcase
            end
          end
          always_comb unlocked = (st == 2'd2);
        endmodule";

    #[test]
    fn budget_exhaustion_degrades_to_random_mutation() {
        let d = Arc::new(elaborate_src(HARDLOCK, "hardlock").unwrap());
        let cfg = FuzzConfig::builder()
            .interval(32)
            .threshold(1)
            .max_vectors(2_000)
            .solver_budget(500)
            .escalation_cap(1)
            .build()
            .unwrap();
        let props = vec![PropertySpec::assertion_only(
            "never_unlocked",
            "unlocked == 1'b0",
        )];
        let mut f = SymbFuzz::new(Arc::clone(&d), Strategy::SymbFuzz, cfg, &props).unwrap();
        let r = f.run();
        // The campaign terminates despite every guided solve being
        // hopeless, spending its full vector budget on random fuzzing.
        assert_eq!(r.vectors, 2_000);
        assert!(!r.detected("never_unlocked"));
        // At least one solve exhausted its budget and said so.
        let exhausted = r
            .telemetry
            .events
            .iter()
            .find(|(k, _)| k == "BudgetExhausted")
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(exhausted >= 1, "events: {:?}", r.telemetry.events);
        // The episode tally reports the same outcome in the shared
        // SolveStatus vocabulary.
        let unknowns: u64 = r
            .solve_outcomes
            .iter()
            .filter(|(k, _)| k.starts_with("unknown:"))
            .map(|(_, n)| *n)
            .sum();
        assert!(unknowns >= 1, "solve_outcomes: {:?}", r.solve_outcomes);
        // Exhausted goals enter the negative cache and are never
        // re-solved; later episodes hit the cache instead.
        let neg_hits = r
            .telemetry
            .counters
            .iter()
            .find(|(k, _)| k == "neg_cache_hits")
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(neg_hits >= 1, "counters: {:?}", r.telemetry.counters);
        // Budgeted campaigns stay deterministic: same seed, same result.
        let mut g = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            FuzzConfig::builder()
                .interval(32)
                .threshold(1)
                .max_vectors(2_000)
                .solver_budget(500)
                .escalation_cap(1)
                .build()
                .unwrap(),
            &props,
        )
        .unwrap();
        assert_eq!(r, g.run());
    }

    #[test]
    fn wall_clock_budget_applies_to_untraced_campaigns() {
        // The default collector's clock counts vectors and stands still
        // during a solve, so the deadline must come from a real clock.
        // The conflict ceiling is only a backstop: far more than 1 ms
        // of search on a 40-bit factoring goal.
        let d = Arc::new(elaborate_src(HARDLOCK, "hardlock").unwrap());
        let cfg = FuzzConfig::builder()
            .interval(32)
            .threshold(1)
            .max_vectors(200)
            .solver_budget(5_000)
            .solve_wall_ms(1)
            .escalation_cap(0)
            .build()
            .unwrap();
        let props = vec![PropertySpec::assertion_only(
            "never_unlocked",
            "unlocked == 1'b0",
        )];
        let mut f = SymbFuzz::new(d, Strategy::SymbFuzz, cfg, &props).unwrap();
        let r = f.run();
        assert_eq!(r.vectors, 200);
        let wall = r
            .solve_outcomes
            .iter()
            .find(|(k, _)| k == "unknown:wall_clock")
            .map_or(0, |(_, n)| *n);
        assert!(wall >= 1, "solve_outcomes: {:?}", r.solve_outcomes);
    }

    #[test]
    fn introspection_attaches_per_goal_records() {
        let d = lock_design();
        let cfg = FuzzConfig {
            solver_introspection: true,
            ..small_cfg(20_000)
        };
        let mut f = SymbFuzz::new(Arc::clone(&d), Strategy::SymbFuzz, cfg, &lock_props()).unwrap();
        let r = f.run();
        assert!(r.detected("never_open"));
        let scope = &r.solver_profile;
        assert_eq!(scope.version, crate::report::SOLVER_PROFILE_VERSION);
        // Every attempted row recorded the conflict shape of each of
        // its exact-depth calls.
        let mut traced = 0;
        for g in scope.goals.iter().filter(|g| g.attempts > 0) {
            let i = g.introspection.as_ref().expect("attempted goal is traced");
            let calls: u64 = i.call_conflict_hist.iter().sum();
            assert_eq!(calls, g.solver_calls, "goal {}={}", g.register, g.value);
            traced += 1;
        }
        assert!(traced > 0);
        assert_eq!(scope.check(), Ok(()));
        // The per-goal cost receipts landed in the event stream.
        let costs = r
            .telemetry
            .events
            .iter()
            .find(|(k, _)| k == "GoalSolveCost")
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(costs >= 1, "events: {:?}", r.telemetry.events);
    }

    #[test]
    fn introspection_off_leaves_the_report_unchanged() {
        let d = lock_design();
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            small_cfg(20_000),
            &lock_props(),
        )
        .unwrap();
        let r = f.run();
        assert!(r.solver_profile.introspected().next().is_none());
        assert!(!r
            .telemetry
            .events
            .iter()
            .any(|(k, n)| k == "GoalSolveCost" && *n > 0));
    }

    #[test]
    fn introspection_is_outcome_neutral_and_deterministic() {
        let d = lock_design();
        let on = FuzzConfig {
            solver_introspection: true,
            ..small_cfg(8_000)
        };
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            on.clone(),
            &lock_props(),
        )
        .unwrap();
        let a = f.run();
        // Same campaign again: the introspection section (and the whole
        // report) is a pure function of the seed.
        let mut g = SymbFuzz::new(Arc::clone(&d), Strategy::SymbFuzz, on, &lock_props()).unwrap();
        let b = g.run();
        assert_eq!(a, b);
        // Introspection observes the search without steering it: the
        // campaign trajectory matches the uninstrumented run.
        let mut h = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            small_cfg(8_000),
            &lock_props(),
        )
        .unwrap();
        let off = h.run();
        assert_eq!(a.vectors, off.vectors);
        assert_eq!(a.coverage_points, off.coverage_points);
        assert_eq!(a.bugs, off.bugs);
        assert_eq!(a.solve_outcomes, off.solve_outcomes);
        assert_eq!(a.covmap, off.covmap);
    }

    #[test]
    fn exhausted_goals_are_attributed_to_blame_sets() {
        let d = Arc::new(elaborate_src(HARDLOCK, "hardlock").unwrap());
        let cfg = FuzzConfig::builder()
            .interval(32)
            .threshold(1)
            .max_vectors(2_000)
            .solver_budget(500)
            .escalation_cap(1)
            .solver_introspection(true)
            .build()
            .unwrap();
        let props = vec![PropertySpec::assertion_only(
            "never_unlocked",
            "unlocked == 1'b0",
        )];
        let mut f = SymbFuzz::new(Arc::clone(&d), Strategy::SymbFuzz, cfg, &props).unwrap();
        let r = f.run();
        assert!(!r.detected("never_unlocked"));
        // Every goal here fails (the semiprime gate is hopeless under a
        // 500-conflict budget), so every row must carry a blame set.
        let rows: Vec<_> = r.solver_profile.introspected().collect();
        assert!(!rows.is_empty());
        for (g, i) in rows {
            assert!(!i.blame.is_empty(), "unattributed goal {g:?}");
        }
        // Attribution records surfaced as events too.
        let cores = r
            .telemetry
            .events
            .iter()
            .find(|(k, _)| k == "CoreExtracted")
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(cores >= 1, "events: {:?}", r.telemetry.events);
    }

    #[test]
    fn flight_recorder_samples_and_profiles_the_campaign() {
        let d = lock_design();
        let cfg = FuzzConfig {
            interval: 32,
            threshold: 1,
            max_vectors: 20_000,
            sample_every: Some(1_000),
            ..FuzzConfig::default()
        };
        let mut f = SymbFuzz::new(Arc::clone(&d), Strategy::SymbFuzz, cfg, &lock_props()).unwrap();
        let r = f.run();
        // One sample per 1000-vector interval, intervals strictly
        // increasing, deltas summing back to the cumulative counters.
        assert_eq!(r.flight.len(), 20, "flight rows: {:?}", r.flight.len());
        for w in r.flight.windows(2) {
            assert!(w[1].interval > w[0].interval);
            assert!(w[1].vectors > w[0].vectors);
        }
        let d_vectors: u64 = r.flight.iter().map(|s| s.d_counters[0]).sum();
        assert_eq!(d_vectors, 20_000, "vector deltas reassemble the total");
        let last = r.flight.last().unwrap();
        assert_eq!(last.coverage, r.coverage_points);
        // The compiled settle mode ran, so the VM profile names hot
        // cones with their fast-path hit rates.
        let vm = r
            .vm_profile
            .as_ref()
            .expect("recorder enables the profiler");
        assert!(!vm.rows.is_empty());
        assert!(vm.total_execs > 0);
        assert!(vm.rows[0].op_units >= vm.rows.last().unwrap().op_units);
        assert!(vm.hit_rate() > 0.0, "two-state lock settles fast");
        assert!(vm.op_classes.iter().any(|(_, n)| *n > 0));
        // The solver profile attributes the lock goals by name.
        assert!(r.solver_profile.total_attempts > 0);
        assert!(r
            .solver_profile
            .goals
            .iter()
            .any(|g| g.register == "st" && g.sat > 0));
        // Everything above is deterministic: a second campaign with the
        // same seed reproduces the full report, recorder included.
        let mut g = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            FuzzConfig {
                interval: 32,
                threshold: 1,
                max_vectors: 20_000,
                sample_every: Some(1_000),
                ..FuzzConfig::default()
            },
            &lock_props(),
        )
        .unwrap();
        assert_eq!(r, g.run());
    }

    #[test]
    fn flight_recorder_writes_pollable_artifacts() {
        let dir = std::env::temp_dir().join(format!("symbfuzz_flight_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let flight = dir.join("flight.jsonl");
        let status = dir.join("status.json");
        let d = lock_design();
        let cfg = FuzzConfig {
            interval: 32,
            threshold: 1,
            max_vectors: 5_000,
            sample_every: Some(500),
            ..FuzzConfig::default()
        };
        let mut f = SymbFuzz::new(Arc::clone(&d), Strategy::SymbFuzz, cfg, &lock_props()).unwrap();
        f.set_flight_outputs(Some(&flight), Some(&status)).unwrap();
        let r = f.run();
        let text = std::fs::read_to_string(&flight).unwrap();
        assert_eq!(text.lines().count(), r.flight.len());
        assert!(text.lines().all(|l| l.starts_with("{\"v\":2,")));
        let st = std::fs::read_to_string(&status).unwrap();
        assert!(st.contains("\"v\":2"));
        assert!(st.contains("\"counters\":{\"vectors\":"));
        assert!(st.contains("\"vm_profile\":{"), "status: {st}");
        assert!(st.contains("\"solver_profile\":{"), "status: {st}");
        assert!(!status.with_extension("tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorder_off_leaves_the_report_unchanged() {
        let d = lock_design();
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            small_cfg(2_000),
            &lock_props(),
        )
        .unwrap();
        let r = f.run();
        assert!(r.flight.is_empty());
        assert!(
            r.vm_profile.is_none(),
            "profiler rides the sample_every opt-in"
        );
        // The solver profile is always collected (it is free and
        // deterministic) so solver-using campaigns still report it.
        assert_eq!(
            r.solver_profile.total_attempts > 0,
            r.resources.solver_calls > 0
        );
    }

    #[test]
    fn covmap_attributes_lock_states_to_the_solver() {
        let d = lock_design();
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            small_cfg(20_000),
            &lock_props(),
        )
        .unwrap();
        let r = f.run();
        let m = &r.covmap;
        assert_eq!(m.version, crate::report::COVMAP_VERSION);
        assert_eq!(m.fuzzer, "SymbFuzz");
        assert_eq!(m.nodes.len() as u64, r.nodes);
        assert_eq!(m.edges.len() as u64, r.edges);
        // The lock states are unreachable by random stimulus within
        // budget; their first visit must be solver-attributed.
        let solver_nodes = m
            .nodes
            .iter()
            .filter(|n| n.provenance.mechanism == "solver")
            .count();
        assert!(solver_nodes >= 1, "covmap nodes: {:?}", m.nodes);
        // Every solver-attributed point names a goal that exists and
        // was satisfied.
        for n in m
            .nodes
            .iter()
            .filter(|n| n.provenance.mechanism == "solver")
        {
            let g = n.provenance.goal.expect("solver provenance has a goal");
            assert_eq!(m.goals[g as usize].status, "sat");
        }
        // The bug fired on a solver-guided word, with a chain back to
        // random ground.
        let bug = &r.bugs[0];
        assert_eq!(bug.mechanism, "solver");
        let chain = m.provenance_chain(bug.node.unwrap());
        assert!(!chain.is_empty());
        assert_eq!(chain.last().unwrap().provenance.mechanism, "random");
        // Both coverage ratios are reported and sane.
        assert!(r.node_coverage_ratio > 0.0 && r.node_coverage_ratio <= 1.0);
        assert!(r.edge_coverage_ratio > 0.0 && r.edge_coverage_ratio <= 1.0);
        // Provenance events streamed alongside (one per node/edge).
        let node_events = r
            .telemetry
            .events
            .iter()
            .find(|(k, _)| k == "NodeCovered")
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert_eq!(node_events, r.nodes);
    }

    #[test]
    fn baselines_report_random_only_covmaps() {
        let d = lock_design();
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::UvmRandom,
            small_cfg(2_000),
            &lock_props(),
        )
        .unwrap();
        let r = f.run();
        assert!(r.covmap.goals.is_empty());
        assert!(r
            .covmap
            .nodes
            .iter()
            .all(|n| n.provenance.mechanism == "random" && n.provenance.goal.is_none()));
        // Unattempted frontier rows: random never consults the solver.
        assert!(r
            .covmap
            .frontier
            .iter()
            .all(|f| f.last_status == "unattempted" && f.attempts == 0));
    }

    #[test]
    fn introspection_defaults_off_and_is_absent_from_reports() {
        let d = lock_design();
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            small_cfg(2_000),
            &lock_props(),
        )
        .unwrap();
        let r = f.run();
        assert!(r
            .solver_profile
            .goals
            .iter()
            .all(|g| g.introspection.is_none()));
    }

    #[test]
    fn warm_chain_cracks_the_lock_and_reports_cache_stats() {
        let d = lock_design();
        let cfg = FuzzConfig::builder()
            .interval(32)
            .threshold(1)
            .max_vectors(20_000)
            .build()
            .unwrap();
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            cfg.clone(),
            &lock_props(),
        )
        .unwrap();
        let r = f.run();
        assert!(r.detected("never_open"), "coverage {}", r.coverage_points);
        let cache = r.solver_cache.as_ref().expect("the engine was built");
        assert!(cache.goals > 0, "cache block: {cache:?}");
        assert!(cache.reused_goals > 0, "cache block: {cache:?}");
        assert!(cache.reused_goals <= cache.goals);
        assert_eq!(cache.reuse_milli, cache.reused_goals * 1000 / cache.goals);
        assert!(cache.frame_misses > 0, "cache block: {cache:?}");
        // Warm sessions are deterministic: same seed, same report.
        let mut g = SymbFuzz::new(Arc::clone(&d), Strategy::SymbFuzz, cfg, &lock_props()).unwrap();
        assert_eq!(r, g.run());
    }

    #[test]
    fn all_solver_features_compose_deterministically() {
        let d = lock_design();
        let cfg = FuzzConfig::builder()
            .interval(32)
            .threshold(1)
            .max_vectors(20_000)
            .solver_budget(50_000)
            .solver_introspection(true)
            .build()
            .unwrap();
        let mut f = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            cfg.clone(),
            &lock_props(),
        )
        .unwrap();
        let r = f.run();
        assert!(r.detected("never_open"), "coverage {}", r.coverage_points);
        assert!(r.solver_cache.is_some());
        assert!(r.solver_profile.introspected().next().is_some());
        let mut g = SymbFuzz::new(Arc::clone(&d), Strategy::SymbFuzz, cfg, &lock_props()).unwrap();
        assert_eq!(r, g.run());
    }

    #[test]
    fn symbfuzz_beats_random_on_coverage() {
        let d = lock_design();
        let budget = 10_000;
        let mut sf = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::SymbFuzz,
            small_cfg(budget),
            &lock_props(),
        )
        .unwrap();
        let mut rnd = SymbFuzz::new(
            Arc::clone(&d),
            Strategy::UvmRandom,
            small_cfg(budget),
            &lock_props(),
        )
        .unwrap();
        let (a, b) = (sf.run(), rnd.run());
        assert!(
            a.coverage_points > b.coverage_points,
            "SymbFuzz {} vs random {}",
            a.coverage_points,
            b.coverage_points
        );
    }
}
