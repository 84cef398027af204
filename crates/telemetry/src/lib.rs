//! Dependency-free tracing and metrics for SymbFuzz campaigns.
//!
//! The [`Collector`] is shared (via `Arc`) between the fuzz loop, the
//! simulator, the symbolic engine and the SMT backend. It offers three
//! cheap primitives:
//!
//! * **Counters / gauges** — relaxed atomics ([`Counter`], [`Gauge`]).
//! * **Phase spans** — RAII [`PhaseTimer`]s decomposing wall time into
//!   the six [`Phase`]s of Algorithm 1; spans nest, and a parent's
//!   self-time excludes its children, so the per-phase totals sum to
//!   at most the campaign total.
//! * **Events** — the structured [`Event`] taxonomy, counted per kind
//!   and optionally streamed as JSONL through a [`TraceSink`].
//!
//! The JSONL layout is declared once: [`RECORDS`] gives every record
//! kind (the twelve events plus the synthetic `Phase`, `Summary` and
//! `Flight` records) its ordered, typed fields, and
//! [`RecordSchema::line`] is the one writer. The bench crate's trace
//! checker reads the same table.
//!
//! Timestamps come from a [`Clock`]. The default is the deterministic
//! [`ManualClock`] (driven by the input-vector count), which keeps
//! campaign reports byte-identical across `--jobs` values; wall-clock
//! traces opt in to [`MonotonicClock`] via `--trace-out`.

mod clock;
mod collector;
mod event;
mod log;
mod record;
mod sampler;
mod sink;
mod snapshot;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use collector::{bucket_of, Collector, Counter, Gauge, Phase, PhaseTimer, HIST_BUCKETS};
pub use event::{Event, Mechanism, SolveStatus, UnknownReason};
pub use log::{log_at, log_enabled, log_level, set_log_level, Level};
pub use record::{
    record_schema, FieldType, FieldValue, RecordSchema, FLIGHT_RECORD, PHASE_RECORD, RECORDS,
    SUMMARY_RECORD,
};
pub use sampler::{
    flight_line, merge_flight, status_json, write_atomic, FlightSample, SampleState, Sampler,
    DEFAULT_SAMPLE_RING_CAP, FLIGHT_VECTORS, FLIGHT_VERSION, STATUS_SCALARS, STATUS_SECTIONS,
};
pub use sink::{BufferSink, NullSink, SharedSink, TraceSink};
pub use snapshot::{hist_quantile, MetricsSnapshot, PhaseStat};
