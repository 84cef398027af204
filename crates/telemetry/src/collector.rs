//! The collector: counters, gauges, phase timers and event counts.

use crate::clock::{Clock, ManualClock, MonotonicClock};
use crate::event::Event;
use crate::record::{FieldValue, RecordSchema, PHASE_RECORD, RECORDS};
use crate::sink::{NullSink, TraceSink};
use crate::snapshot::{MetricsSnapshot, PhaseStat};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing work counters. Every counter is a pure
/// function of the campaign's deterministic execution, so snapshots
/// merge byte-identically at any parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Input vectors driven into the DUV.
    Vectors,
    /// Coverage-scan intervals completed.
    Intervals,
    /// Simulator clock cycles stepped.
    SimSteps,
    /// Combinational settle passes executed.
    SettleSweeps,
    /// Simulator snapshots taken.
    SnapshotsTaken,
    /// Simulator snapshot restores.
    SnapshotRestores,
    /// Input cycles replayed during checkpoint re-entry.
    ReplayedCycles,
    /// SMT queries issued (one per exact-depth attempt).
    SolverCalls,
    /// Propositional variables across all blasted CNFs.
    SatVars,
    /// CNF clauses across all blasted CNFs.
    SatClauses,
    /// CDCL decisions across all solves.
    SatDecisions,
    /// CDCL conflicts across all solves.
    SatConflicts,
    /// Budgeted solves that stopped at a resource ceiling.
    BudgetExhaustions,
    /// Solve goals skipped because the negative cache held them.
    NegCacheHits,
    /// Compiled-settle cone executions that took the packed two-state
    /// fast path (no X/Z bit live in the input cone).
    SettleFastPath,
    /// Compiled-settle cone executions that escaped to the four-state
    /// interpreter (X-island live, or lowering rejected).
    SettleEscapes,
    /// Snapshot pages copied at fork time (content differed from the
    /// tree parent, or the snapshot had no parent).
    SnapshotPagesCopied,
    /// Snapshot pages shared with the tree parent at fork time (content
    /// unchanged since the parent snapshot — the copy-on-write win).
    SnapshotPagesShared,
    /// Snapshots evicted from the byte-budgeted store.
    SnapshotEvictions,
    /// Clauses learned by traced CDCL searches (0 when solver
    /// introspection is off).
    LearnedClauses,
    /// Assumption-core-lite extractions performed on failed goals.
    CoreExtractions,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 21;

    /// All counters in index order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Vectors,
        Counter::Intervals,
        Counter::SimSteps,
        Counter::SettleSweeps,
        Counter::SnapshotsTaken,
        Counter::SnapshotRestores,
        Counter::ReplayedCycles,
        Counter::SolverCalls,
        Counter::SatVars,
        Counter::SatClauses,
        Counter::SatDecisions,
        Counter::SatConflicts,
        Counter::BudgetExhaustions,
        Counter::NegCacheHits,
        Counter::SettleFastPath,
        Counter::SettleEscapes,
        Counter::SnapshotPagesCopied,
        Counter::SnapshotPagesShared,
        Counter::SnapshotEvictions,
        Counter::LearnedClauses,
        Counter::CoreExtractions,
    ];

    /// Stable snake_case name used in snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Vectors => "vectors",
            Counter::Intervals => "intervals",
            Counter::SimSteps => "sim_steps",
            Counter::SettleSweeps => "settle_sweeps",
            Counter::SnapshotsTaken => "snapshots_taken",
            Counter::SnapshotRestores => "snapshot_restores",
            Counter::ReplayedCycles => "replayed_cycles",
            Counter::SolverCalls => "solver_calls",
            Counter::SatVars => "sat_vars",
            Counter::SatClauses => "sat_clauses",
            Counter::SatDecisions => "sat_decisions",
            Counter::SatConflicts => "sat_conflicts",
            Counter::BudgetExhaustions => "budget_exhaustions",
            Counter::NegCacheHits => "neg_cache_hits",
            Counter::SettleFastPath => "settle_fast_path",
            Counter::SettleEscapes => "settle_escapes",
            Counter::SnapshotPagesCopied => "snapshot_pages_copied",
            Counter::SnapshotPagesShared => "snapshot_pages_shared",
            Counter::SnapshotEvictions => "snapshot_evictions",
            Counter::LearnedClauses => "learned_clauses",
            Counter::CoreExtractions => "core_extractions",
        }
    }
}

/// Point-in-time levels. Merging takes the maximum, so a merged
/// snapshot reports the high-water mark across tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Cached per-node snapshots held.
    SnapshotCache,
    /// Multi-cycle testcases in the case corpus.
    CaseCorpus,
    /// Current budget-escalation level (0 = base budget).
    EscalationLevel,
    /// High-water mark of cones that escaped the compiled two-state
    /// fast path within a single settle (the X-island extent).
    XIslandCones,
    /// Unique page bytes held by the snapshot store (what the
    /// checkpoints actually cost in memory after page sharing).
    SnapshotBytes,
    /// Snapshot sharing ratio ×1000: logical deep-copy bytes of the
    /// live snapshots over their unique page bytes (0 when no
    /// snapshots are held; 1000 means no page is shared).
    SnapshotSharing,
}

impl Gauge {
    /// Number of gauges.
    pub const COUNT: usize = 6;

    /// All gauges in index order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::SnapshotCache,
        Gauge::CaseCorpus,
        Gauge::EscalationLevel,
        Gauge::XIslandCones,
        Gauge::SnapshotBytes,
        Gauge::SnapshotSharing,
    ];

    /// Stable snake_case name used in snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::SnapshotCache => "snapshot_cache",
            Gauge::CaseCorpus => "case_corpus",
            Gauge::EscalationLevel => "escalation_level",
            Gauge::XIslandCones => "x_island_cones",
            Gauge::SnapshotBytes => "snapshot_bytes",
            Gauge::SnapshotSharing => "snapshot_sharing_milli",
        }
    }
}

/// The fixed phase taxonomy the campaign wall-time decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Input-word generation: sequencer / mutator / testcase refill.
    Mutate,
    /// Driving the DUV: input apply, clock step, combinational settle,
    /// coverage observation and per-strategy feedback.
    Settle,
    /// Property checking and bug recording.
    Props,
    /// The symbolic step (checkpoint selection, engine build) minus
    /// its nested solve/reset children.
    Symbolic,
    /// SMT solving (bit-blast + CDCL).
    Solve,
    /// Full resets and checkpoint re-entry (restore or replay).
    Reset,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 6;

    /// All phases in index order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Mutate,
        Phase::Settle,
        Phase::Props,
        Phase::Symbolic,
        Phase::Solve,
        Phase::Reset,
    ];

    /// Stable lowercase name used in trace records and tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Mutate => "mutate",
            Phase::Settle => "settle",
            Phase::Props => "props",
            Phase::Symbolic => "symbolic",
            Phase::Solve => "solve",
            Phase::Reset => "reset",
        }
    }

    /// Parses a phase name as rendered by [`Phase::name`].
    pub fn parse(s: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == s)
    }
}

/// Number of duration-histogram buckets per phase (log₄ microseconds:
/// bucket `i` holds durations in `[4^i, 4^(i+1))`, the last bucket is
/// open-ended).
pub const HIST_BUCKETS: usize = 12;

/// The histogram bucket a duration falls into: floor(log₄(micros))
/// clamped into the bucket range; 0 → bucket 0. Shared with the
/// quantile estimator and external histogram builders so every layer
/// buckets identically.
pub fn bucket_of(micros: u64) -> usize {
    let bits = 64 - micros.leading_zeros() as usize;
    (bits.saturating_sub(1) / 2).min(HIST_BUCKETS - 1)
}

struct Frame {
    phase: Phase,
    start: u64,
    /// Total (inclusive) time of completed child spans.
    child_micros: u64,
}

/// Cheap campaign-local metrics and tracing hub.
///
/// All recording methods take `&self` (atomics / short critical
/// sections inside), so one collector can be shared via `Arc` between
/// the fuzzer, the simulator and the symbolic engine, and RAII
/// [`PhaseTimer`] spans can nest while other telemetry is recorded.
pub struct Collector {
    clock: Arc<dyn Clock>,
    task: AtomicU64,
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    phase_count: [AtomicU64; Phase::COUNT],
    phase_self_micros: [AtomicU64; Phase::COUNT],
    phase_hist: [[AtomicU64; HIST_BUCKETS]; Phase::COUNT],
    events: [AtomicU64; Event::KIND_COUNT],
    spans: Mutex<Vec<Frame>>,
    sink: Mutex<Box<dyn TraceSink>>,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("task", &self.task.load(Ordering::Relaxed))
            .field("vectors", &self.get(Counter::Vectors))
            .field("events", &self.event_counts().iter().sum::<u64>())
            .finish()
    }
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::deterministic()
    }
}

impl Collector {
    /// A collector over an arbitrary clock, with a null sink.
    pub fn with_clock(clock: Box<dyn Clock>) -> Collector {
        Collector {
            clock: Arc::from(clock),
            task: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_count: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_self_micros: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_hist: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            events: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(Vec::new()),
            sink: Mutex::new(Box::new(NullSink)),
        }
    }

    /// The deterministic default: a [`ManualClock`] the driver advances
    /// (the fuzz loop sets it to the input-vector count), so every
    /// timestamp and duration is reproducible and merge-stable.
    pub fn deterministic() -> Collector {
        Collector::with_clock(Box::new(ManualClock::new()))
    }

    /// Wall-clock collector for operator-facing traces.
    pub fn monotonic() -> Collector {
        Collector::with_clock(Box::new(MonotonicClock::new()))
    }

    /// Labels every trace record from this collector (pool task index).
    pub fn set_task(&self, task: u64) {
        self.task.store(task, Ordering::Relaxed);
    }

    /// The task label trace records carry ([`Collector::set_task`]).
    pub fn task(&self) -> u64 {
        self.task.load(Ordering::Relaxed)
    }

    /// Streams one record of a synthetic kind (`schema`), stamped `t`
    /// and this collector's task label, to the sink. Nothing is
    /// formatted when the sink is disabled.
    pub fn trace_record(&self, t: u64, schema: &RecordSchema, values: &[FieldValue<'_>]) {
        let mut sink = self.sink.lock().unwrap();
        if sink.enabled() {
            sink.write_line(&schema.line(t, self.task(), values));
        }
    }

    /// Replaces the trace sink.
    pub fn set_sink(&self, sink: Box<dyn TraceSink>) {
        if let Ok(mut s) = self.sink.lock() {
            *s = sink;
        }
    }

    /// Current clock reading.
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Drives a settable clock (no-op on wall clocks).
    pub fn set_time(&self, micros: u64) {
        self.clock.set(micros);
    }

    /// Adds to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Sets a gauge level.
    #[inline]
    pub fn set_gauge(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].store(v, Ordering::Relaxed);
    }

    /// Reads a gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Folds the work `earlier` already counted into this collector:
    /// its counters are added, and each gauge rises to `earlier`'s
    /// level where that is higher.
    pub fn fold_counts(&self, earlier: &Collector) {
        for c in Counter::ALL {
            self.add(c, earlier.get(c));
        }
        for g in Gauge::ALL {
            self.gauges[g as usize].fetch_max(earlier.gauge(g), Ordering::Relaxed);
        }
    }

    /// Records an event: counts its kind and streams it to the sink
    /// when one is attached.
    pub fn record(&self, event: Event) {
        self.events[event.kind_index()].fetch_add(1, Ordering::Relaxed);
        let mut sink = self.sink.lock().unwrap();
        if sink.enabled() {
            sink.write_line(&event.to_json_line(self.now_micros(), self.task()));
        }
    }

    /// Count of recorded events per kind, in [`Event::kind_index`] order.
    pub fn event_counts(&self) -> [u64; Event::KIND_COUNT] {
        std::array::from_fn(|i| self.events[i].load(Ordering::Relaxed))
    }

    /// Opens an RAII phase span. Spans nest: a parent's accumulated
    /// time excludes its children, so summing all phases never exceeds
    /// total wall time. The guard owns a clone of the `Arc`, leaving
    /// the caller free to mutably borrow itself while the span is open.
    pub fn phase(self: &Arc<Collector>, phase: Phase) -> PhaseTimer {
        let start = self.clock.now_micros();
        self.spans.lock().unwrap().push(Frame {
            phase,
            start,
            child_micros: 0,
        });
        PhaseTimer {
            collector: Arc::clone(self),
            phase,
        }
    }

    fn end_phase(&self, phase: Phase) {
        let end = self.clock.now_micros();
        let (self_micros, inclusive) = {
            let mut spans = self.spans.lock().unwrap();
            // Scoped guards drop LIFO; tolerate a mismatch by popping
            // until this phase's frame is found.
            let mut frame = None;
            while let Some(f) = spans.pop() {
                if f.phase == phase {
                    frame = Some(f);
                    break;
                }
            }
            let Some(f) = frame else { return };
            let inclusive = end.saturating_sub(f.start);
            if let Some(parent) = spans.last_mut() {
                parent.child_micros += inclusive;
            }
            (inclusive.saturating_sub(f.child_micros), inclusive)
        };
        let i = phase as usize;
        self.phase_count[i].fetch_add(1, Ordering::Relaxed);
        self.phase_self_micros[i].fetch_add(self_micros, Ordering::Relaxed);
        self.phase_hist[i][bucket_of(inclusive)].fetch_add(1, Ordering::Relaxed);
        self.trace_record(
            end,
            PHASE_RECORD,
            &[FieldValue::Str(phase.name()), FieldValue::Num(self_micros)],
        );
    }

    /// Total self-time recorded for a phase.
    pub fn phase_self_micros(&self, phase: Phase) -> u64 {
        self.phase_self_micros[phase as usize].load(Ordering::Relaxed)
    }

    /// Completed span count for a phase.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phase_count[phase as usize].load(Ordering::Relaxed)
    }

    /// Snapshots every counter, gauge, event count and phase statistic
    /// into a mergeable, deterministic-ordered value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let events = self.event_counts();
        MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|c| (c.name().to_string(), self.get(*c)))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|g| (g.name().to_string(), self.gauge(*g)))
                .collect(),
            events: RECORDS
                .iter()
                .zip(events)
                .map(|(r, n)| (r.kind.to_string(), n))
                .collect(),
            phases: Phase::ALL
                .iter()
                .map(|p| PhaseStat {
                    phase: p.name().to_string(),
                    count: self.phase_count(*p),
                    self_micros: self.phase_self_micros(*p),
                    buckets: self.phase_hist[*p as usize]
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// RAII span handle from [`Collector::phase`]; records the phase
/// duration on drop.
pub struct PhaseTimer {
    collector: Arc<Collector>,
    phase: Phase,
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        self.collector.end_phase(self.phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SolveStatus;
    use crate::sink::BufferSink;

    #[test]
    fn folding_adds_counters_and_keeps_gauge_maxima() {
        let (earlier, later) = (Collector::deterministic(), Collector::monotonic());
        earlier.add(Counter::SimSteps, 12);
        earlier.set_gauge(Gauge::XIslandCones, 4);
        earlier.set_gauge(Gauge::CaseCorpus, 1);
        later.add(Counter::SimSteps, 3);
        later.set_gauge(Gauge::CaseCorpus, 7);
        later.fold_counts(&earlier);
        assert_eq!(later.get(Counter::SimSteps), 15);
        assert_eq!(later.gauge(Gauge::XIslandCones), 4);
        assert_eq!(later.gauge(Gauge::CaseCorpus), 7);
        assert_eq!(
            earlier.get(Counter::SimSteps),
            12,
            "the source is left as it was"
        );
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let c = Collector::deterministic();
        c.add(Counter::Vectors, 3);
        c.add(Counter::Vectors, 2);
        c.set_gauge(Gauge::SnapshotCache, 7);
        c.set_gauge(Gauge::SnapshotCache, 4);
        assert_eq!(c.get(Counter::Vectors), 5);
        assert_eq!(c.gauge(Gauge::SnapshotCache), 4);
    }

    #[test]
    fn every_recorded_event_is_counted() {
        let c = Collector::deterministic();
        for i in 0..5_000 {
            c.record(if i % 2 == 0 {
                Event::FullReset
            } else {
                Event::PartialReset { prefix_len: i }
            });
        }
        let counts = c.event_counts();
        assert_eq!(counts.iter().sum::<u64>(), 5_000);
        assert_eq!(counts[Event::FullReset.kind_index()], 2_500);
        let snap = c.snapshot();
        assert_eq!(snap.events.iter().map(|(_, n)| n).sum::<u64>(), 5_000);
    }

    #[test]
    fn all_arrays_are_in_discriminant_order() {
        use crate::event::{Mechanism, UnknownReason};
        assert!(Counter::ALL
            .iter()
            .enumerate()
            .all(|(i, c)| *c as usize == i));
        assert!(Gauge::ALL.iter().enumerate().all(|(i, g)| *g as usize == i));
        assert!(Phase::ALL.iter().enumerate().all(|(i, p)| *p as usize == i));
        assert!(UnknownReason::ALL
            .iter()
            .enumerate()
            .all(|(i, r)| *r as usize == i));
        assert!(Mechanism::ALL
            .iter()
            .enumerate()
            .all(|(i, m)| *m as usize == i));
    }

    #[test]
    fn nested_phases_attribute_self_time() {
        let c = Arc::new(Collector::deterministic());
        {
            let _outer = c.phase(Phase::Symbolic);
            c.set_time(10);
            {
                let _inner = c.phase(Phase::Solve);
                c.set_time(30);
            }
            c.set_time(35);
        }
        // Outer span 0..35 inclusive, child solve took 10..30.
        assert_eq!(c.phase_self_micros(Phase::Solve), 20);
        assert_eq!(c.phase_self_micros(Phase::Symbolic), 15);
        assert_eq!(c.phase_count(Phase::Symbolic), 1);
        assert_eq!(c.phase_count(Phase::Solve), 1);
        // Self times sum to the total elapsed window.
        let total: u64 = Phase::ALL.iter().map(|p| c.phase_self_micros(*p)).sum();
        assert_eq!(total, 35);
    }

    #[test]
    fn events_stream_to_sink_with_task_label() {
        let sink = BufferSink::new();
        let handle = sink.handle();
        let c = Arc::new(Collector::deterministic());
        c.set_task(3);
        c.set_sink(Box::new(sink));
        c.set_time(9);
        c.record(Event::SmtSolve {
            vars: 1,
            clauses: 2,
            sat: false,
            micros: 0,
        });
        {
            let _t = c.phase(Phase::Props);
        }
        let lines = handle.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"task\":3"));
        assert!(lines[0].contains("\"kind\":\"SmtSolve\""));
        assert!(lines[1].contains("\"kind\":\"Phase\""));
        assert!(lines[1].contains("\"phase\":\"props\""));
    }

    #[test]
    fn snapshot_has_fixed_deterministic_order() {
        let c = Collector::deterministic();
        c.record(Event::SymbolicEpisode {
            checkpoint: None,
            eqns: 1,
            solve_result: SolveStatus::Unsat,
        });
        let s = c.snapshot();
        assert_eq!(s.counters.len(), Counter::COUNT);
        assert_eq!(s.counters[0].0, "vectors");
        assert_eq!(s.events.len(), Event::KIND_COUNT);
        assert_eq!(s.phases.len(), Phase::COUNT);
        assert_eq!(s.phases[0].phase, "mutate");
        let again = c.snapshot();
        assert_eq!(s, again);
    }

    #[test]
    fn histogram_buckets_are_log4() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(3), 0);
        assert_eq!(bucket_of(4), 1);
        assert_eq!(bucket_of(15), 1);
        assert_eq!(bucket_of(16), 2);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }
}
