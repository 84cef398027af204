//! The campaign flight recorder: periodic delta-compressed metric
//! samples, a versioned `flight.jsonl` stream and an atomically
//! rewritten `status.json` heartbeat.
//!
//! A [`Sampler`] sits beside the fuzz loop's [`Collector`] and, every
//! `sample_every` input vectors, freezes the collector into a
//! [`FlightSample`]: the campaign state scalars (vectors, coverage,
//! stagnation) plus *deltas* of every counter, event count and
//! per-phase self-time since the previous sample, with gauges kept
//! absolute. Under the default deterministic
//! [`ManualClock`](crate::ManualClock) the sample stream is a pure
//! function of the campaign seed, so per-task streams merge
//! byte-identically at any parallelism ([`merge_flight`]).
//!
//! Samples are held in a bounded in-memory ring and, when paths are
//! attached, appended live to a `flight.jsonl` file (one
//! [`flight_line`] per sample, `"v"`-tagged with [`FLIGHT_VERSION`])
//! while a `status.json` heartbeat is rewritten atomically
//! (tmp-file + rename) so external tools can poll it mid-run without
//! ever observing a torn write.

use crate::collector::{Collector, Counter};
use crate::record::{escape_json_into, push_nums, FieldValue, FLIGHT_RECORD};
use crate::snapshot::MetricsSnapshot;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Schema version stamped into every flight record and status
/// heartbeat (`"v"` field). Bump when the sample layout changes.
pub const FLIGHT_VERSION: u64 = 2;

/// Default bound on the in-memory sample ring.
pub const DEFAULT_SAMPLE_RING_CAP: usize = 1024;

/// The scalar header fields every `status.json` ([`status_json`]) and
/// every `flight.jsonl` record ([`flight_line`]) carries.
pub const STATUS_SCALARS: [&str; 7] = [
    "interval", "t", "vectors", "coverage", "nodes", "edges", "stagnant",
];

/// The cumulative-metrics sections of `status.json`, each an object of
/// `name → number` pairs.
pub const STATUS_SECTIONS: [&str; 4] = ["counters", "gauges", "events", "phase_self_micros"];

/// The per-sample delta/gauge vectors of a `flight.jsonl` record.
pub const FLIGHT_VECTORS: [&str; 4] = ["d_counters", "gauges", "d_events", "d_phase_micros"];

/// Campaign state the driver passes into each sampling opportunity —
/// the scalars the collector itself does not own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleState {
    /// Input vectors consumed so far (drives the sampling interval).
    pub vectors: u64,
    /// Coverage points reached.
    pub coverage: u64,
    /// CFG nodes covered.
    pub nodes: u64,
    /// CFG edges covered.
    pub edges: u64,
    /// Consecutive coverage-flat intervals (stagnation depth).
    pub stagnant: u64,
}

/// One delta-compressed flight-recorder sample.
///
/// Vector fields are positional in the fixed schema orders
/// ([`Counter::ALL`], [`crate::Gauge::ALL`], [`crate::Event::kind_index`],
/// [`crate::Phase::ALL`]); the names are not repeated per sample —
/// that is the delta stream's compression. [`flight_line`] renders
/// the canonical JSONL encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSample {
    /// Sample interval index (`vectors / sample_every`).
    pub interval: u64,
    /// Clock reading at sample time (vector count under the
    /// deterministic clock, wall micros under a monotonic one).
    pub t: u64,
    /// Task label of the collector sampled ([`Collector::set_task`]).
    pub task: u64,
    /// Input vectors consumed.
    pub vectors: u64,
    /// Coverage points reached.
    pub coverage: u64,
    /// CFG nodes covered.
    pub nodes: u64,
    /// CFG edges covered.
    pub edges: u64,
    /// Consecutive coverage-flat intervals.
    pub stagnant: u64,
    /// Counter deltas since the previous sample, [`Counter::ALL`] order.
    pub d_counters: Vec<u64>,
    /// Absolute gauge levels, [`crate::Gauge::ALL`] order.
    pub gauges: Vec<u64>,
    /// Event-count deltas since the previous sample,
    /// [`crate::Event::kind_index`] order.
    pub d_events: Vec<u64>,
    /// Phase self-time deltas since the previous sample,
    /// [`crate::Phase::ALL`] order.
    pub d_phase_micros: Vec<u64>,
}

/// Renders one flight record as canonical flat-array JSONL (no
/// trailing newline). Byte-stable: two equal samples always render
/// identically, which is what the `--jobs` byte-identity contract of
/// the merged `flight.jsonl` rests on.
pub fn flight_line(s: &FlightSample) -> String {
    let mut out = format!(
        "{{\"v\":{FLIGHT_VERSION},\"interval\":{},\"t\":{},\"task\":{},\"vectors\":{},\
         \"coverage\":{},\"nodes\":{},\"edges\":{},\"stagnant\":{},\"d_counters\":",
        s.interval, s.t, s.task, s.vectors, s.coverage, s.nodes, s.edges, s.stagnant
    );
    push_nums(&mut out, &s.d_counters);
    out.push_str(",\"gauges\":");
    push_nums(&mut out, &s.gauges);
    out.push_str(",\"d_events\":");
    push_nums(&mut out, &s.d_events);
    out.push_str(",\"d_phase_micros\":");
    push_nums(&mut out, &s.d_phase_micros);
    out.push('}');
    out
}

fn push_pairs(out: &mut String, pairs: &[(String, u64)]) {
    out.push('{');
    for (i, (name, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json_into(name, out);
        out.push_str("\":");
        out.push_str(&v.to_string());
    }
    out.push('}');
}

/// Renders the `status.json` heartbeat: the latest sample's state
/// scalars plus the *cumulative* counters/gauges/phase self-times from
/// `snapshot`, and any pre-rendered extra sections (profiler blocks)
/// appended verbatim as `"name": <json>`. The telemetry crate stays
/// dependency-free, so richer sections are composed by the caller.
pub fn status_json(
    latest: &FlightSample,
    snapshot: &MetricsSnapshot,
    extra: &[(String, String)],
) -> String {
    let mut out = format!(
        "{{\"v\":{FLIGHT_VERSION},\"interval\":{},\"t\":{},\"vectors\":{},\"coverage\":{},\
         \"nodes\":{},\"edges\":{},\"stagnant\":{},\"counters\":",
        latest.interval,
        latest.t,
        latest.vectors,
        latest.coverage,
        latest.nodes,
        latest.edges,
        latest.stagnant
    );
    push_pairs(&mut out, &snapshot.counters);
    out.push_str(",\"gauges\":");
    push_pairs(&mut out, &snapshot.gauges);
    out.push_str(",\"events\":");
    push_pairs(&mut out, &snapshot.events);
    out.push_str(",\"phase_self_micros\":");
    let phases: Vec<(String, u64)> = snapshot
        .phases
        .iter()
        .map(|p| (p.phase.clone(), p.self_micros))
        .collect();
    push_pairs(&mut out, &phases);
    for (name, json) in extra {
        out.push_str(",\"");
        escape_json_into(name, &mut out);
        out.push_str("\":");
        out.push_str(json);
    }
    out.push('}');
    out
}

/// Writes `contents` to `path` atomically: a sibling `.tmp` file is
/// written, flushed, then renamed over the target, so a concurrent
/// reader sees either the old heartbeat or the new one, never a torn
/// mix.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// The flight recorder: samples a [`Collector`] every `sample_every`
/// vectors into a bounded ring, optionally streaming each sample to a
/// `flight.jsonl` appender and a `status.json` heartbeat.
pub struct Sampler {
    every: u64,
    last_interval: Option<u64>,
    prev: Option<MetricsSnapshot>,
    ring: VecDeque<FlightSample>,
    flight: Option<BufWriter<File>>,
    status_path: Option<PathBuf>,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("every", &self.every)
            .field("samples", &self.ring.len())
            .finish()
    }
}

impl Sampler {
    /// A sampler taking one sample per `every` input vectors (floored
    /// at 1), ring-bounded at [`DEFAULT_SAMPLE_RING_CAP`].
    pub fn new(every: u64) -> Sampler {
        Sampler {
            every: every.max(1),
            last_interval: None,
            prev: None,
            ring: VecDeque::new(),
            flight: None,
            status_path: None,
        }
    }

    /// The sampling interval in input vectors.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Opens (truncates) a `flight.jsonl` file that every subsequent
    /// sample is appended to as it is taken.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn set_flight_path(&mut self, path: &Path) -> io::Result<()> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        self.flight = Some(BufWriter::new(file));
        Ok(())
    }

    /// Sets the `status.json` heartbeat target for [`Sampler::write_status`].
    pub fn set_status_path(&mut self, path: &Path) {
        self.status_path = Some(path.to_path_buf());
    }

    /// Whether a status path is attached.
    pub fn has_status_path(&self) -> bool {
        self.status_path.is_some()
    }

    /// The samples currently held (oldest first).
    pub fn samples(&self) -> impl Iterator<Item = &FlightSample> {
        self.ring.iter()
    }

    /// Takes a sample if `state.vectors` has crossed into a new
    /// sampling interval since the last one, returning the fresh
    /// sample. Call on every driver tick; off-interval calls are one
    /// integer division.
    ///
    /// The sample freezes the collector ([`Collector::snapshot`]) and
    /// delta-compresses it against the previous sample's snapshot.
    /// When a flight file is attached the sample is appended to it,
    /// and a synthetic flat `Flight` trace record is streamed through
    /// the collector's sink for trace consumers.
    pub fn maybe_sample(&mut self, c: &Collector, state: &SampleState) -> Option<&FlightSample> {
        let interval = state.vectors / self.every;
        if interval == 0 || self.last_interval == Some(interval) {
            return None;
        }
        self.last_interval = Some(interval);
        let snap = c.snapshot();
        let zero = MetricsSnapshot::default();
        let prev = self.prev.as_ref().unwrap_or(&zero);
        let delta = |cur: &[(String, u64)], old: &[(String, u64)]| -> Vec<u64> {
            cur.iter()
                .enumerate()
                .map(|(i, (_, v))| v.saturating_sub(old.get(i).map_or(0, |(_, o)| *o)))
                .collect()
        };
        let sample = FlightSample {
            interval,
            t: c.now_micros(),
            task: c.task(),
            vectors: state.vectors,
            coverage: state.coverage,
            nodes: state.nodes,
            edges: state.edges,
            stagnant: state.stagnant,
            d_counters: delta(&snap.counters, &prev.counters),
            gauges: snap.gauges.iter().map(|(_, v)| *v).collect(),
            d_events: delta(&snap.events, &prev.events),
            d_phase_micros: snap
                .phases
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    p.self_micros
                        .saturating_sub(prev.phases.get(i).map_or(0, |o| o.self_micros))
                })
                .collect(),
        };
        self.prev = Some(snap);
        if let Some(w) = &mut self.flight {
            let _ = writeln!(w, "{}", flight_line(&sample));
            let _ = w.flush();
        }
        // Mirror the headline numbers into the trace stream so a
        // `--trace-out` file narrates the flight without a second
        // artifact (no-op when the collector's sink is disabled).
        let d = |k: Counter| FieldValue::Num(sample.d_counters[k as usize]);
        c.trace_record(
            sample.t,
            FLIGHT_RECORD,
            &[
                FieldValue::Num(sample.interval),
                FieldValue::Num(sample.vectors),
                FieldValue::Num(sample.coverage),
                FieldValue::Num(sample.stagnant),
                d(Counter::Vectors),
                d(Counter::SolverCalls),
                d(Counter::SettleFastPath),
                d(Counter::SettleEscapes),
            ],
        );
        if self.ring.len() >= DEFAULT_SAMPLE_RING_CAP {
            self.ring.pop_front();
        }
        self.ring.push_back(sample);
        self.ring.back()
    }

    /// Rewrites the `status.json` heartbeat atomically from the latest
    /// sample and its cumulative snapshot, appending `extra`
    /// pre-rendered sections ([`status_json`]). No-op without a status
    /// path or before the first sample.
    pub fn write_status(&self, extra: &[(String, String)]) {
        let (Some(path), Some(latest), Some(snap)) =
            (&self.status_path, self.ring.back(), &self.prev)
        else {
            return;
        };
        let _ = write_atomic(path, &status_json(latest, snap, extra));
    }
}

/// Merges per-task flight streams into one campaign-wide stream, by
/// sample interval index: state scalars and deltas sum across tasks,
/// gauges and stagnation keep the maximum, timestamps keep the
/// maximum, and the merged task label is 0. Because each per-task
/// stream is deterministic and tasks are folded in slice order, the
/// merged stream — and therefore its [`flight_line`] rendering — is
/// byte-identical at any `--jobs N`.
pub fn merge_flight(tasks: &[Vec<FlightSample>]) -> Vec<FlightSample> {
    let mut out: Vec<FlightSample> = Vec::new();
    for stream in tasks {
        for s in stream {
            let slot = match out.binary_search_by_key(&s.interval, |m| m.interval) {
                Ok(i) => &mut out[i],
                Err(i) => {
                    out.insert(
                        i,
                        FlightSample {
                            interval: s.interval,
                            t: 0,
                            task: 0,
                            vectors: 0,
                            coverage: 0,
                            nodes: 0,
                            edges: 0,
                            stagnant: 0,
                            d_counters: vec![0; s.d_counters.len()],
                            gauges: vec![0; s.gauges.len()],
                            d_events: vec![0; s.d_events.len()],
                            d_phase_micros: vec![0; s.d_phase_micros.len()],
                        },
                    );
                    &mut out[i]
                }
            };
            slot.t = slot.t.max(s.t);
            slot.vectors += s.vectors;
            slot.coverage += s.coverage;
            slot.nodes += s.nodes;
            slot.edges += s.edges;
            slot.stagnant = slot.stagnant.max(s.stagnant);
            let fold = |dst: &mut Vec<u64>, src: &[u64], max: bool| {
                if dst.len() < src.len() {
                    dst.resize(src.len(), 0);
                }
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = if max { (*d).max(*s) } else { *d + *s };
                }
            };
            fold(&mut slot.d_counters, &s.d_counters, false);
            fold(&mut slot.gauges, &s.gauges, true);
            fold(&mut slot.d_events, &s.d_events, false);
            fold(&mut slot.d_phase_micros, &s.d_phase_micros, false);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, Counter, Gauge, Phase};

    fn state(vectors: u64, coverage: u64) -> SampleState {
        SampleState {
            vectors,
            coverage,
            nodes: coverage / 2,
            edges: coverage / 3,
            stagnant: 0,
        }
    }

    #[test]
    fn samples_fire_once_per_interval_and_delta_compress() {
        let c = Collector::deterministic();
        let mut s = Sampler::new(100);
        c.add(Counter::Vectors, 50);
        c.set_time(50);
        assert!(s.maybe_sample(&c, &state(50, 1)).is_none(), "pre-interval");
        c.add(Counter::Vectors, 50);
        c.set_time(100);
        let first = s.maybe_sample(&c, &state(100, 3)).unwrap().clone();
        assert_eq!(first.interval, 1);
        assert_eq!(first.vectors, 100);
        // First sample's deltas are absolute (previous snapshot empty).
        assert_eq!(first.d_counters[0], 100);
        // Same interval → no second sample.
        assert!(s.maybe_sample(&c, &state(100, 3)).is_none());
        c.add(Counter::Vectors, 100);
        c.add(Counter::SolverCalls, 7);
        c.set_gauge(Gauge::CaseCorpus, 5);
        c.set_time(200);
        let second = s.maybe_sample(&c, &state(200, 9)).unwrap().clone();
        assert_eq!(second.interval, 2);
        assert_eq!(second.d_counters[0], 100, "delta, not cumulative");
        assert_eq!(second.d_counters[Counter::SolverCalls as usize], 7);
        // Gauges stay absolute.
        assert_eq!(second.gauges[Gauge::CaseCorpus as usize], 5);
        assert_eq!(s.samples().count(), 2);
    }

    #[test]
    fn sample_ring_is_bounded() {
        let c = Collector::deterministic();
        let mut s = Sampler::new(1);
        let taken = DEFAULT_SAMPLE_RING_CAP as u64 + 6;
        for v in 1..=taken {
            c.set_time(v);
            assert!(s.maybe_sample(&c, &state(v, 0)).is_some());
        }
        assert_eq!(s.samples().count(), DEFAULT_SAMPLE_RING_CAP);
        assert_eq!(s.samples().next().unwrap().interval, 7);
    }

    #[test]
    fn phase_deltas_track_self_time() {
        let c = std::sync::Arc::new(Collector::deterministic());
        let mut s = Sampler::new(10);
        {
            let _t = c.phase(Phase::Mutate);
            c.set_time(6);
        }
        let first = s.maybe_sample(&c, &state(10, 0)).unwrap().clone();
        assert_eq!(first.d_phase_micros[0], 6);
        {
            let _t = c.phase(Phase::Mutate);
            c.set_time(10);
        }
        let second = s.maybe_sample(&c, &state(20, 0)).unwrap().clone();
        assert_eq!(second.d_phase_micros[0], 4, "delta since last sample");
    }

    #[test]
    fn flight_lines_are_canonical_and_versioned() {
        let s = FlightSample {
            interval: 2,
            t: 200,
            task: 1,
            vectors: 200,
            coverage: 9,
            nodes: 4,
            edges: 3,
            stagnant: 1,
            d_counters: vec![100, 2],
            gauges: vec![5],
            d_events: vec![1, 0],
            d_phase_micros: vec![60],
        };
        assert_eq!(
            flight_line(&s),
            "{\"v\":2,\"interval\":2,\"t\":200,\"task\":1,\"vectors\":200,\"coverage\":9,\
             \"nodes\":4,\"edges\":3,\"stagnant\":1,\"d_counters\":[100,2],\"gauges\":[5],\
             \"d_events\":[1,0],\"d_phase_micros\":[60]}"
        );
    }

    #[test]
    fn status_json_carries_cumulative_and_extra_sections() {
        let c = Collector::deterministic();
        c.add(Counter::Vectors, 100);
        c.set_time(100);
        let mut s = Sampler::new(100);
        s.maybe_sample(&c, &state(100, 5)).unwrap();
        let latest = s.samples().last().unwrap();
        let json = status_json(
            latest,
            &c.snapshot(),
            &[("vm_profile".to_string(), "{\"cones\":[]}".to_string())],
        );
        assert!(json.starts_with("{\"v\":2,"), "{json}");
        assert!(json.contains("\"vectors\":100"));
        assert!(json.contains("\"counters\":{\"vectors\":100,"));
        assert!(json.contains("\"vm_profile\":{\"cones\":[]}"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn merge_is_byte_identical_across_partitions() {
        // Three deterministic per-task streams...
        let task = |task: u64, scale: u64| -> Vec<FlightSample> {
            (1..=4)
                .map(|i| FlightSample {
                    interval: i,
                    t: i * 100,
                    task,
                    vectors: i * 100 * scale,
                    coverage: i * scale,
                    nodes: i,
                    edges: i,
                    stagnant: task,
                    d_counters: vec![100 * scale, scale],
                    gauges: vec![task + i],
                    d_events: vec![scale],
                    d_phase_micros: vec![10 * scale],
                })
                .collect()
        };
        let streams = [task(0, 1), task(1, 2), task(2, 3)];
        // ...merge identically no matter how they are grouped.
        let all = merge_flight(&streams);
        let ab = merge_flight(&[merge_flight(&streams[..2]), merge_flight(&streams[2..])]);
        let lines = |v: &[FlightSample]| -> Vec<String> { v.iter().map(flight_line).collect() };
        assert_eq!(lines(&all), lines(&ab));
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].vectors, 600); // 100 + 200 + 300
        assert_eq!(all[0].gauges[0], 3); // max across tasks
        assert_eq!(all[0].stagnant, 2); // max across tasks
        assert_eq!(all[0].task, 0);
    }

    #[test]
    fn merge_tolerates_uneven_streams() {
        let mk = |interval: u64| FlightSample {
            interval,
            t: interval,
            task: 0,
            vectors: interval * 10,
            coverage: 1,
            nodes: 0,
            edges: 0,
            stagnant: 0,
            d_counters: vec![10],
            gauges: vec![1],
            d_events: vec![],
            d_phase_micros: vec![2],
        };
        // One task sampled twice, one once, one never (zero-vector task).
        let merged = merge_flight(&[vec![mk(1), mk(2)], vec![mk(2)], vec![]]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].interval, 1);
        assert_eq!(merged[0].vectors, 10);
        assert_eq!(merged[1].vectors, 40, "interval 2 sums both tasks");
    }

    #[test]
    fn merge_unions_overlapping_streams_in_any_order() {
        let sample = |interval: u64, task: u64, vectors: u64, gauge: u64| FlightSample {
            interval,
            t: interval * 10 + task,
            task,
            vectors,
            coverage: vectors / 10,
            nodes: 1,
            edges: 1,
            stagnant: task,
            d_counters: vec![vectors, 1],
            gauges: vec![gauge],
            d_events: vec![1],
            d_phase_micros: vec![5],
        };
        // Task 0 sampled intervals 1–3; task 1 started later and runs
        // past it, 2–4 (campaigns end at different vector counts).
        let a = vec![
            sample(1, 0, 100, 3),
            sample(2, 0, 100, 4),
            sample(3, 0, 100, 2),
        ];
        let b = vec![
            sample(2, 1, 80, 9),
            sample(3, 1, 80, 1),
            sample(4, 1, 80, 1),
        ];
        let merged = merge_flight(&[a.clone(), b.clone()]);
        assert_eq!(
            merged.iter().map(|s| s.interval).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        for s in &merged {
            assert_eq!(s.task, 0, "merged stream is task-anonymous");
        }
        let at = |i: u64| merged.iter().find(|s| s.interval == i).unwrap();
        assert_eq!(at(1).vectors, 100);
        assert_eq!(at(2).vectors, 180, "overlapping intervals sum");
        assert_eq!(at(2).d_counters, vec![180, 2]);
        assert_eq!(at(2).gauges, vec![9], "gauges keep the elementwise max");
        assert_eq!(at(2).stagnant, 1, "stagnation keeps the max");
        assert_eq!(at(4).vectors, 80);
        assert_eq!(merge_flight(&[b, a]), merged, "stream order is immaterial");
    }

    #[test]
    fn flight_and_status_files_round_trip() {
        let dir = std::env::temp_dir().join(format!("symbfuzz_sampler_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let flight = dir.join("flight.jsonl");
        let status = dir.join("status.json");
        let c = Collector::deterministic();
        let mut s = Sampler::new(10);
        s.set_flight_path(&flight).unwrap();
        s.set_status_path(&status);
        for v in [10u64, 20, 30] {
            c.add(Counter::Vectors, 10);
            c.set_time(v);
            assert!(s.maybe_sample(&c, &state(v, v / 10)).is_some());
            s.write_status(&[]);
        }
        let text = std::fs::read_to_string(&flight).unwrap();
        assert_eq!(text.lines().count(), 3);
        let expected: String = s.samples().map(|x| flight_line(x) + "\n").collect();
        assert_eq!(text, expected);
        let st = std::fs::read_to_string(&status).unwrap();
        assert!(st.contains("\"vectors\":30"));
        assert!(!status.with_extension("tmp").exists(), "tmp renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_trace_records_stream_to_the_sink() {
        use crate::sink::BufferSink;
        let sink = BufferSink::new();
        let handle = sink.handle();
        let c = Collector::deterministic();
        c.set_task(2);
        c.set_sink(Box::new(sink));
        let mut s = Sampler::new(10);
        c.add(Counter::Vectors, 10);
        c.set_time(10);
        s.maybe_sample(&c, &state(10, 1)).unwrap();
        let lines = handle.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"kind\":\"Flight\""), "{}", lines[0]);
        assert!(lines[0].contains("\"task\":2"));
        assert!(lines[0].contains("\"d_vectors\":10"));
    }
}
