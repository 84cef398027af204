//! JSONL trace parsing, schema validation and rendering.
//!
//! The telemetry layer hand-rolls its JSONL records (it is
//! dependency-free), so this module is the matching consumer: a small
//! flat-object JSON parser, a per-kind schema check against the closed
//! [`Event::KINDS`] taxonomy (plus the synthetic `Phase` spans the
//! collector emits), and the renderers behind the `tracedump` binary —
//! a per-phase time table and a coverage/stagnation timeline.

use std::collections::BTreeMap;
use symbfuzz_smt::trace_hist_quantile;
use symbfuzz_telemetry::{
    bucket_of, escape_json_into, hist_quantile, Event, Mechanism, Phase, SolveStatus,
    UnknownReason, HIST_BUCKETS,
};

/// One scalar value in a flat trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// Unsigned integer (every numeric trace field is one).
    Num(u64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// `null` (only `checkpoint` uses it).
    Null,
    /// Array of unsigned integers (only the solver-cost `hist` field
    /// uses it — the one non-scalar in the trace schema).
    Arr(Vec<u64>),
}

impl JsonVal {
    fn type_name(&self) -> &'static str {
        match self {
            JsonVal::Num(_) => "number",
            JsonVal::Str(_) => "string",
            JsonVal::Bool(_) => "bool",
            JsonVal::Null => "null",
            JsonVal::Arr(_) => "array",
        }
    }
}

/// One parsed and schema-validated trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Timestamp (clock units; wall-clock micros under `--trace-out`).
    pub t: u64,
    /// Pool task index the record came from.
    pub task: u64,
    /// Record kind: an [`Event::KINDS`] entry or `"Phase"`.
    pub kind: String,
    /// The kind-specific fields, in record order.
    pub fields: Vec<(String, JsonVal)>,
}

impl TraceRecord {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&JsonVal> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// A numeric field, or 0 when absent / non-numeric.
    pub fn num(&self, name: &str) -> u64 {
        match self.field(name) {
            Some(JsonVal::Num(n)) => *n,
            _ => 0,
        }
    }

    /// A string field, or "" when absent / non-string.
    pub fn str(&self, name: &str) -> &str {
        match self.field(name) {
            Some(JsonVal::Str(s)) => s,
            _ => "",
        }
    }

    /// A numeric-array field, or the empty slice when absent.
    pub fn arr(&self, name: &str) -> &[u64] {
        match self.field(name) {
            Some(JsonVal::Arr(a)) => a,
            _ => &[],
        }
    }
}

// --- flat JSON parsing ---------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape".to_string())?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                b => {
                    // Multi-byte UTF-8 continuation bytes pass through.
                    out.push(b as char);
                    if b >= 0x80 {
                        // Re-decode from the original slice for non-ASCII.
                        out.pop();
                        let start = self.pos - 1;
                        let s =
                            std::str::from_utf8(&self.bytes[start..]).map_err(|e| e.to_string())?;
                        let c = s.chars().next().unwrap();
                        out.push(c);
                        self.pos = start + c.len_utf8();
                    }
                }
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<JsonVal, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonVal::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonVal::Bool(true)),
            Some(b'f') => self.literal("false", JsonVal::Bool(false)),
            Some(b'n') => self.literal("null", JsonVal::Null),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonVal::Arr(items));
                }
                loop {
                    match self.value()? {
                        JsonVal::Num(n) => items.push(n),
                        v => {
                            return Err(format!("arrays hold numbers only, got {}", v.type_name()))
                        }
                    }
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonVal::Arr(items));
                        }
                        other => return Err(format!("expected `,` or `]`, got {other:?}")),
                    }
                }
            }
            Some(b) if b.is_ascii_digit() => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .unwrap()
                    .parse()
                    .map(JsonVal::Num)
                    .map_err(|e| e.to_string())
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn literal(&mut self, lit: &str, val: JsonVal) -> Result<JsonVal, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }
}

/// Parses one flat JSON object (`{"k": scalar, ...}` — the entire
/// trace schema; nested containers are rejected).
///
/// # Errors
///
/// Returns a description of the first syntax error.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let mut c = Cursor {
        bytes: line.as_bytes(),
        pos: 0,
    };
    c.expect(b'{')?;
    let mut fields = Vec::new();
    if c.peek() == Some(b'}') {
        c.pos += 1;
    } else {
        loop {
            let key = c.string()?;
            c.expect(b':')?;
            let val = c.value()?;
            if fields.iter().any(|(k, _): &(String, _)| *k == key) {
                return Err(format!("duplicate key `{key}`"));
            }
            fields.push((key, val));
            match c.peek() {
                Some(b',') => c.pos += 1,
                Some(b'}') => {
                    c.pos += 1;
                    break;
                }
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
    c.skip_ws();
    if c.pos != c.bytes.len() {
        return Err(format!("trailing garbage at byte {}", c.pos));
    }
    Ok(fields)
}

// --- schema validation ---------------------------------------------------

/// Kind of the synthetic per-span records the collector emits.
pub const PHASE_KIND: &str = "Phase";

/// Kind of the once-per-campaign settle-engine summary record
/// (`Collector::emit_settle_metrics`).
pub const METRICS_KIND: &str = "Metrics";

/// Kind of the flight-recorder heartbeat records the sampler mirrors
/// into the trace stream (`Sampler::maybe_sample`).
pub const FLIGHT_KIND: &str = "Flight";

/// Kind of the once-per-campaign incremental-solver summary record
/// (`Collector::emit_solver_cache_metrics`): bitblast-cache counters
/// and the session-reuse gauge.
pub const SOLVER_CACHE_KIND: &str = "SolverCache";

/// `(kind, field)` pairs earlier releases wrote that are no longer part
/// of the kind's schema (the portfolio race tallies): accepted on input
/// and dropped, so old traces still check.
const RETIRED_FIELDS: [(&str, &str); 2] = [
    (SOLVER_CACHE_KIND, "portfolio_races"),
    (SOLVER_CACHE_KIND, "portfolio_wins"),
];

/// The `(field, expected type)` schema of each record kind, beyond the
/// common `t`/`task`/`kind` header. A `checkpoint` may be number or
/// null; `solve_result` and `phase` are closed string enums checked
/// separately.
fn kind_schema(kind: &str) -> Option<&'static [(&'static str, &'static str)]> {
    match kind {
        "CoverageDelta" => Some(&[
            ("vectors", "number"),
            ("coverage", "number"),
            ("delta", "number"),
        ]),
        "StagnationEnter" => Some(&[("vectors", "number"), ("intervals", "number")]),
        "SymbolicEpisode" => Some(&[
            ("checkpoint", "number|null"),
            ("eqns", "number"),
            ("solve_result", "string"),
        ]),
        "SmtSolve" => Some(&[
            ("vars", "number"),
            ("clauses", "number"),
            ("sat", "bool"),
            ("micros", "number"),
        ]),
        "PartialReset" => Some(&[("prefix_len", "number")]),
        "FullReset" => Some(&[]),
        "BugFired" => Some(&[("property", "string"), ("vector", "number")]),
        "NodeCovered" => Some(&[
            ("node", "number"),
            ("vector", "number"),
            ("mechanism", "string"),
            ("goal", "number|null"),
            ("checkpoint", "number|null"),
        ]),
        "EdgeCovered" => Some(&[
            ("edge", "number"),
            ("src", "number"),
            ("dst", "number"),
            ("vector", "number"),
            ("mechanism", "string"),
        ]),
        "BudgetExhausted" => Some(&[
            ("reason", "string"),
            ("level", "number"),
            ("conflicts", "number"),
            ("decisions", "number"),
            ("propagations", "number"),
        ]),
        "GoalSolveCost" => Some(&[
            ("register", "string"),
            ("value", "number"),
            ("status", "string"),
            ("depth", "number"),
            ("calls", "number"),
            ("conflicts", "number"),
            ("learned", "number"),
            ("restarts", "number"),
            ("hist", "array"),
        ]),
        "CoreExtracted" => Some(&[
            ("register", "string"),
            ("value", "number"),
            ("core", "number"),
            ("blamed", "number"),
        ]),
        PHASE_KIND => Some(&[("phase", "string"), ("micros", "number")]),
        METRICS_KIND => Some(&[
            ("settle_fast_path", "number"),
            ("settle_escapes", "number"),
            ("x_island_cones", "number"),
            ("settle_sweeps", "number"),
        ]),
        FLIGHT_KIND => Some(&[
            ("interval", "number"),
            ("vectors", "number"),
            ("coverage", "number"),
            ("stagnant", "number"),
            ("d_vectors", "number"),
            ("d_solver_calls", "number"),
            ("d_settle_fast_path", "number"),
            ("d_settle_escapes", "number"),
        ]),
        SOLVER_CACHE_KIND => Some(&[
            ("bitblast_cache_hits", "number"),
            ("bitblast_cache_misses", "number"),
            ("session_reuse_milli", "number"),
        ]),
        _ => None,
    }
}

fn type_matches(val: &JsonVal, expected: &str) -> bool {
    expected.split('|').any(|t| t == val.type_name())
}

/// Parses and schema-checks one trace line.
///
/// # Errors
///
/// Returns a description of the first syntax or schema violation.
pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let mut fields = parse_flat_object(line)?;
    let take_num = |fields: &mut Vec<(String, JsonVal)>, name: &str| -> Result<u64, String> {
        let i = fields
            .iter()
            .position(|(n, _)| n == name)
            .ok_or(format!("missing `{name}`"))?;
        match fields.remove(i).1 {
            JsonVal::Num(n) => Ok(n),
            v => Err(format!("`{name}` must be a number, got {}", v.type_name())),
        }
    };
    let t = take_num(&mut fields, "t")?;
    let task = take_num(&mut fields, "task")?;
    let i = fields
        .iter()
        .position(|(n, _)| n == "kind")
        .ok_or("missing `kind`".to_string())?;
    let kind = match fields.remove(i).1 {
        JsonVal::Str(s) => s,
        v => return Err(format!("`kind` must be a string, got {}", v.type_name())),
    };
    let schema = kind_schema(&kind).ok_or(format!(
        "unknown kind `{kind}` (expected one of {:?}, `{PHASE_KIND}`, `{METRICS_KIND}`, \
         `{FLIGHT_KIND}` or `{SOLVER_CACHE_KIND}`)",
        Event::KINDS
    ))?;
    fields.retain(|(n, _)| !RETIRED_FIELDS.contains(&(kind.as_str(), n.as_str())));
    if fields.len() != schema.len() {
        return Err(format!(
            "`{kind}` expects fields {:?}, got {:?}",
            schema.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            fields.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        ));
    }
    for (name, expected) in schema {
        let val = fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or(format!("`{kind}` is missing `{name}`"))?;
        if !type_matches(val, expected) {
            return Err(format!(
                "`{kind}.{name}` must be {expected}, got {}",
                val.type_name()
            ));
        }
    }
    let rec = TraceRecord {
        t,
        task,
        kind,
        fields,
    };
    if rec.kind == "SymbolicEpisode" && SolveStatus::parse(rec.str("solve_result")).is_none() {
        return Err(format!(
            "unknown solve_result `{}` (expected one of {:?})",
            rec.str("solve_result"),
            SolveStatus::SERIALS
        ));
    }
    if rec.kind == "GoalSolveCost" && SolveStatus::parse(rec.str("status")).is_none() {
        return Err(format!(
            "unknown status `{}` (expected one of {:?})",
            rec.str("status"),
            SolveStatus::SERIALS
        ));
    }
    if rec.kind == "BudgetExhausted" && UnknownReason::parse(rec.str("reason")).is_none() {
        return Err(format!("unknown budget reason `{}`", rec.str("reason")));
    }
    if rec.kind == PHASE_KIND && Phase::parse(rec.str("phase")).is_none() {
        return Err(format!("unknown phase `{}`", rec.str("phase")));
    }
    if matches!(rec.kind.as_str(), "NodeCovered" | "EdgeCovered")
        && Mechanism::parse(rec.str("mechanism")).is_none()
    {
        return Err(format!(
            "unknown mechanism `{}` (expected one of {:?})",
            rec.str("mechanism"),
            Mechanism::ALL.map(|m| m.name())
        ));
    }
    Ok(rec)
}

/// Parses a whole JSONL trace, reporting the first bad line by number.
///
/// # Errors
///
/// Returns `"line N: <why>"` for the first syntax or schema violation.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

// --- rendering -----------------------------------------------------------

fn fmt_micros(micros: u64) -> String {
    if micros >= 1_000_000 {
        format!("{:.2}s", micros as f64 / 1e6)
    } else if micros >= 1_000 {
        format!("{:.2}ms", micros as f64 / 1e3)
    } else {
        format!("{micros}µs")
    }
}

/// Renders the per-phase time table: span counts, self-time and share
/// of the total accounted time per [`Phase`], plus p50/p90/p99 span
/// durations estimated from the fixed log₄ histogram buckets each
/// span's `micros` falls into (see
/// [`symbfuzz_telemetry::hist_quantile`] — bucket-resolution estimates,
/// deterministic and merge-stable, not exact order statistics).
pub fn phase_table(records: &[TraceRecord]) -> String {
    let mut count = [0u64; Phase::COUNT];
    let mut micros = [0u64; Phase::COUNT];
    let mut buckets = [[0u64; HIST_BUCKETS]; Phase::COUNT];
    for r in records.iter().filter(|r| r.kind == PHASE_KIND) {
        if let Some(p) = Phase::parse(r.str("phase")) {
            let i = Phase::ALL.iter().position(|q| *q == p).unwrap();
            count[i] += 1;
            micros[i] += r.num("micros");
            buckets[i][bucket_of(r.num("micros"))] += 1;
        }
    }
    let total: u64 = micros.iter().sum();
    let quantiles = |b: &[u64]| {
        format!(
            "{} | {} | {}",
            fmt_micros(hist_quantile(b, 0.50)),
            fmt_micros(hist_quantile(b, 0.90)),
            fmt_micros(hist_quantile(b, 0.99))
        )
    };
    let mut out = String::from(
        "| Phase | spans | self time | share | p50 | p90 | p99 |\n|---|---|---|---|---|---|---|\n",
    );
    for (i, p) in Phase::ALL.iter().enumerate() {
        out.push_str(&format!(
            "| {} | {} | {} | {:.1}% | {} |\n",
            p.name(),
            count[i],
            fmt_micros(micros[i]),
            100.0 * micros[i] as f64 / total.max(1) as f64,
            quantiles(&buckets[i])
        ));
    }
    let mut all = [0u64; HIST_BUCKETS];
    for b in &buckets {
        for (dst, src) in all.iter_mut().zip(b) {
            *dst += src;
        }
    }
    out.push_str(&format!(
        "| **total** | {} | {} | 100.0% | {} |\n",
        count.iter().sum::<u64>(),
        fmt_micros(total),
        quantiles(&all)
    ));
    out
}

/// Renders the compiled-settle engine mix: per-task fast-path vs
/// escaped process executions from the once-per-campaign `Metrics`
/// records, with the hit rate the fast path achieved, plus a totals
/// row. Empty when the trace predates the compiled kernel (no
/// `Metrics` records).
pub fn settle_mix_table(records: &[TraceRecord]) -> String {
    let metrics: Vec<&TraceRecord> = records.iter().filter(|r| r.kind == METRICS_KIND).collect();
    if metrics.is_empty() {
        return String::new();
    }
    let rate = |fast: u64, escapes: u64| -> String {
        let total = fast + escapes;
        if total == 0 {
            "-".into()
        } else {
            format!("{:.1}%", 100.0 * fast as f64 / total as f64)
        }
    };
    let mut out = String::from(
        "| task | fast path | escapes | hit rate | max X-island | sweeps |\n\
         |---|---|---|---|---|---|\n",
    );
    let (mut tf, mut te, mut ti, mut ts) = (0u64, 0u64, 0u64, 0u64);
    for r in &metrics {
        let (fast, escapes) = (r.num("settle_fast_path"), r.num("settle_escapes"));
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            r.task,
            fast,
            escapes,
            rate(fast, escapes),
            r.num("x_island_cones"),
            r.num("settle_sweeps"),
        ));
        tf += fast;
        te += escapes;
        ti = ti.max(r.num("x_island_cones"));
        ts += r.num("settle_sweeps");
    }
    out.push_str(&format!(
        "| **all** | {tf} | {te} | {} | {ti} | {ts} |\n",
        rate(tf, te)
    ));
    out
}

/// Renders the incremental-solver summary from the once-per-campaign
/// `SolverCache` records: per-task bitblast-cache hits/misses with the
/// hit rate and the warm-session reuse ratio, plus a totals row. Empty
/// when the trace predates the incremental solver (no `SolverCache`
/// records).
pub fn solver_cache_table(records: &[TraceRecord]) -> String {
    let rows: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| r.kind == SOLVER_CACHE_KIND)
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    let rate = |hits: u64, misses: u64| -> String {
        let total = hits + misses;
        if total == 0 {
            "-".into()
        } else {
            format!("{:.1}%", 100.0 * hits as f64 / total as f64)
        }
    };
    let mut out = String::from(
        "| task | cache hits | misses | hit rate | session reuse |\n|---|---|---|---|---|\n",
    );
    let (mut th, mut tm) = (0u64, 0u64);
    for r in &rows {
        let (hits, misses) = (r.num("bitblast_cache_hits"), r.num("bitblast_cache_misses"));
        out.push_str(&format!(
            "| {} | {hits} | {misses} | {} | {:.3} |\n",
            r.task,
            rate(hits, misses),
            r.num("session_reuse_milli") as f64 / 1000.0,
        ));
        th += hits;
        tm += misses;
    }
    out.push_str(&format!(
        "| **all** | {th} | {tm} | {} | — |\n",
        rate(th, tm)
    ));
    out
}

/// Renders the per-goal solver cost table from `GoalSolveCost`
/// records: attempts, cumulative calls / conflicts / learned clauses /
/// restarts per `(register, value)` goal, plus p50/p90/p99 per-call
/// conflict quantiles read off the merged log₄ histograms (see
/// [`symbfuzz_smt::trace_hist_quantile`] — upper-bucket-edge
/// estimates, deterministic and merge-stable). Goals are ordered
/// hardest first (cumulative conflicts, then calls); empty when the
/// trace predates solver introspection.
pub fn goal_cost_table(records: &[TraceRecord]) -> String {
    struct Row {
        register: String,
        value: u64,
        attempts: u64,
        calls: u64,
        conflicts: u64,
        learned: u64,
        restarts: u64,
        hist: Vec<u64>,
        last_status: String,
    }
    let mut by_goal: BTreeMap<(&str, u64), Row> = BTreeMap::new();
    for r in records.iter().filter(|r| r.kind == "GoalSolveCost") {
        let (register, value) = (r.str("register"), r.num("value"));
        let row = by_goal.entry((register, value)).or_insert_with(|| Row {
            register: register.to_string(),
            value,
            attempts: 0,
            calls: 0,
            conflicts: 0,
            learned: 0,
            restarts: 0,
            hist: Vec::new(),
            last_status: String::new(),
        });
        row.attempts += 1;
        row.calls += r.num("calls");
        row.conflicts += r.num("conflicts");
        row.learned += r.num("learned");
        row.restarts += r.num("restarts");
        let hist = r.arr("hist");
        if row.hist.len() < hist.len() {
            row.hist.resize(hist.len(), 0);
        }
        for (dst, src) in row.hist.iter_mut().zip(hist) {
            *dst += src;
        }
        row.last_status = r.str("status").to_string();
    }
    if by_goal.is_empty() {
        return String::new();
    }
    let mut rows: Vec<Row> = by_goal.into_values().collect();
    rows.sort_by(|a, b| {
        (b.conflicts, b.calls, &a.register, a.value).cmp(&(
            a.conflicts,
            a.calls,
            &b.register,
            b.value,
        ))
    });
    let mut out = String::from(
        "| goal | attempts | calls | conflicts | learned | restarts \
         | p50 | p90 | p99 | last status |\n|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for g in &rows {
        out.push_str(&format!(
            "| `{}` = {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            g.register,
            g.value,
            g.attempts,
            g.calls,
            g.conflicts,
            g.learned,
            g.restarts,
            trace_hist_quantile(&g.hist, 0.50),
            trace_hist_quantile(&g.hist, 0.90),
            trace_hist_quantile(&g.hist, 0.99),
            g.last_status
        ));
    }
    out
}

/// Renders the campaign timeline: coverage growth, stagnation entries,
/// symbolic episodes, resets and bug detections, in record order.
pub fn timeline(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let line = match r.kind.as_str() {
            "CoverageDelta" => format!(
                "coverage {} (+{}) at {} vectors",
                r.num("coverage"),
                r.num("delta"),
                r.num("vectors")
            ),
            "StagnationEnter" => format!(
                "stagnation after {} flat intervals at {} vectors",
                r.num("intervals"),
                r.num("vectors")
            ),
            "SymbolicEpisode" => {
                let cp = match r.field("checkpoint") {
                    Some(JsonVal::Num(n)) => format!("checkpoint {n}"),
                    _ => "reset state".into(),
                };
                format!(
                    "symbolic episode from {cp}: {} ({} eqns)",
                    r.str("solve_result"),
                    r.num("eqns")
                )
            }
            "BudgetExhausted" => format!(
                "solver budget exhausted ({}) at escalation level {} \
                 after {} conflicts / {} decisions",
                r.str("reason"),
                r.num("level"),
                r.num("conflicts"),
                r.num("decisions")
            ),
            "PartialReset" => format!("partial reset (replayed {} cycles)", r.num("prefix_len")),
            "FullReset" => "full reset".into(),
            "BugFired" => format!(
                "BUG `{}` fired at vector {}",
                r.str("property"),
                r.num("vector")
            ),
            "NodeCovered" => {
                let goal = match r.field("goal") {
                    Some(JsonVal::Num(g)) => format!(" (goal {g})"),
                    _ => String::new(),
                };
                format!(
                    "node {} covered via {}{goal} at vector {}",
                    r.num("node"),
                    r.str("mechanism"),
                    r.num("vector")
                )
            }
            "EdgeCovered" => format!(
                "edge {} -> {} covered via {} at vector {}",
                r.num("src"),
                r.num("dst"),
                r.str("mechanism"),
                r.num("vector")
            ),
            "CoreExtracted" => {
                let core = r.num("core");
                format!(
                    "assumption core for `{}` = {}: {} registers blamed ({})",
                    r.str("register"),
                    r.num("value"),
                    r.num("blamed"),
                    if core == 0 {
                        "hot-signal fallback".to_string()
                    } else {
                        format!("core of {core}")
                    }
                )
            }
            // SmtSolve, Phase and GoalSolveCost records stay in the
            // table views.
            _ => continue,
        };
        out.push_str(&format!("t={:<10} task={} {}\n", r.t, r.task, line));
    }
    out
}

/// Re-serializes one validated record as a canonical flat JSON line:
/// `t`, `task`, `kind`, then the kind-specific fields in record order.
/// The output parses back through [`parse_line`] unchanged, so it can
/// be piped into any consumer of the trace schema.
pub fn record_to_json(r: &TraceRecord) -> String {
    let mut out = format!(
        "{{\"t\":{},\"task\":{},\"kind\":\"{}\"",
        r.t, r.task, r.kind
    );
    for (name, val) in &r.fields {
        out.push_str(",\"");
        out.push_str(name);
        out.push_str("\":");
        match val {
            JsonVal::Num(n) => out.push_str(&n.to_string()),
            JsonVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonVal::Null => out.push_str("null"),
            JsonVal::Str(s) => {
                out.push('"');
                escape_json_into(s, &mut out);
                out.push('"');
            }
            JsonVal::Arr(items) => {
                out.push('[');
                for (i, n) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&n.to_string());
                }
                out.push(']');
            }
        }
    }
    out.push('}');
    out
}

/// Renders a whole trace back to canonical JSONL (one
/// [`record_to_json`] line per record, newline-terminated).
pub fn to_json_lines(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&record_to_json(r));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbfuzz_telemetry::Event;

    #[test]
    fn event_lines_round_trip_through_parser() {
        let events = [
            Event::CoverageDelta {
                vectors: 100,
                coverage: 20,
                delta: 3,
            },
            Event::StagnationEnter {
                vectors: 400,
                intervals: 2,
            },
            Event::SymbolicEpisode {
                checkpoint: Some(5),
                eqns: 12,
                solve_result: SolveStatus::Sat,
            },
            Event::SymbolicEpisode {
                checkpoint: None,
                eqns: 12,
                solve_result: SolveStatus::Unknown(UnknownReason::Conflicts),
            },
            Event::BudgetExhausted {
                reason: UnknownReason::Conflicts,
                level: 2,
                conflicts: 10_000,
                decisions: 31_407,
                propagations: 918_222,
            },
            Event::SmtSolve {
                vars: 40,
                clauses: 90,
                sat: true,
                micros: 17,
            },
            Event::PartialReset { prefix_len: 9 },
            Event::FullReset,
            Event::BugFired {
                property: "a\"b".into(),
                vector: 999,
            },
            Event::NodeCovered {
                node: 4,
                vector: 120,
                mechanism: Mechanism::SolverGuided,
                goal: Some(2),
                checkpoint: None,
            },
            Event::NodeCovered {
                node: 5,
                vector: 121,
                mechanism: Mechanism::ReplayPrefix,
                goal: None,
                checkpoint: Some(3),
            },
            Event::EdgeCovered {
                edge: 9,
                src: 4,
                dst: 5,
                vector: 121,
                mechanism: Mechanism::ConstrainedRandom,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            let line = e.to_json_line(i as u64, 3);
            let rec = parse_line(&line).expect("valid line");
            assert_eq!(rec.t, i as u64);
            assert_eq!(rec.task, 3);
            assert_eq!(rec.kind, e.kind());
        }
        let rec = parse_line(&events[8].to_json_line(0, 0)).unwrap();
        assert_eq!(rec.str("property"), "a\"b");
    }

    #[test]
    fn schema_violations_are_rejected() {
        // Missing field.
        assert!(parse_line("{\"t\":1,\"task\":0,\"kind\":\"PartialReset\"}").is_err());
        // Wrong type.
        assert!(
            parse_line("{\"t\":1,\"task\":0,\"kind\":\"PartialReset\",\"prefix_len\":\"x\"}")
                .is_err()
        );
        // Unknown kind.
        assert!(parse_line("{\"t\":1,\"task\":0,\"kind\":\"Nope\"}").is_err());
        // Extra field.
        assert!(parse_line("{\"t\":1,\"task\":0,\"kind\":\"FullReset\",\"x\":1}").is_err());
        // Unknown solve outcome.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"SymbolicEpisode\",\"checkpoint\":null,\
             \"eqns\":1,\"solve_result\":\"maybe\"}"
        )
        .is_err());
        // A structured unknown round-trips; an unknown ceiling name does not.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"SymbolicEpisode\",\"checkpoint\":null,\
             \"eqns\":1,\"solve_result\":\"unknown:conflicts\"}"
        )
        .is_ok());
        // Unknown budget ceiling name.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"BudgetExhausted\",\"reason\":\"patience\",\
             \"level\":0,\"conflicts\":1,\"decisions\":1,\"propagations\":1}"
        )
        .is_err());
        // Unknown phase name.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"Phase\",\"phase\":\"nap\",\"micros\":4}"
        )
        .is_err());
        // Unknown coverage mechanism.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"NodeCovered\",\"node\":1,\"vector\":2,\
             \"mechanism\":\"telepathy\",\"goal\":null,\"checkpoint\":null}"
        )
        .is_err());
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"EdgeCovered\",\"edge\":0,\"src\":1,\"dst\":2,\
             \"vector\":3,\"mechanism\":\"osmosis\"}"
        )
        .is_err());
        // Syntax errors.
        assert!(parse_flat_object("{\"a\":1").is_err());
        assert!(parse_flat_object("{\"a\":1} x").is_err());
        assert!(parse_flat_object("{\"a\":1,\"a\":2}").is_err());
    }

    #[test]
    fn canonical_json_round_trips_through_the_schema_checker() {
        let events = [
            Event::NodeCovered {
                node: 7,
                vector: 42,
                mechanism: Mechanism::SolverGuided,
                goal: Some(1),
                checkpoint: Some(2),
            },
            Event::BugFired {
                property: "needs \"escaping\"".into(),
                vector: 9,
            },
            Event::FullReset,
        ];
        let text: String = events
            .iter()
            .enumerate()
            .map(|(i, e)| e.to_json_line(i as u64, 0) + "\n")
            .collect();
        let records = parse_trace(&text).unwrap();
        // The canonical re-serialization is byte-identical to what the
        // telemetry layer emitted, and re-validates cleanly.
        assert_eq!(to_json_lines(&records), text);
        assert_eq!(parse_trace(&to_json_lines(&records)).unwrap(), records);
    }

    #[test]
    fn trace_errors_carry_line_numbers() {
        let text = "{\"t\":0,\"task\":0,\"kind\":\"FullReset\"}\n\nnot json\n";
        let err = parse_trace(text).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }

    #[test]
    fn phase_table_shares_sum_to_total() {
        let text = "\
{\"t\":10,\"task\":0,\"kind\":\"Phase\",\"phase\":\"mutate\",\"micros\":30}
{\"t\":20,\"task\":0,\"kind\":\"Phase\",\"phase\":\"settle\",\"micros\":60}
{\"t\":30,\"task\":0,\"kind\":\"Phase\",\"phase\":\"solve\",\"micros\":10}
";
        let recs = parse_trace(text).unwrap();
        let table = phase_table(&recs);
        // A single span lands in one log₄ bucket, so every quantile
        // reads the same bucket-resolution estimate (16–64µs → 63µs).
        assert!(
            table.contains("| mutate | 1 | 30µs | 30.0% | 63µs | 63µs | 63µs |"),
            "{table}"
        );
        assert!(
            table.contains("| settle | 1 | 60µs | 60.0% | 63µs | 63µs | 63µs |"),
            "{table}"
        );
        // The totals row interpolates across the merged histogram:
        // one span in [4,16), two in [16,64).
        assert!(
            table.contains("| **total** | 3 | 100µs | 100.0% | 28µs | 57µs | 63µs |"),
            "{table}"
        );
    }

    #[test]
    fn flight_records_validate_and_round_trip() {
        // The exact shape `Sampler::maybe_sample` mirrors into the
        // trace stream.
        let text = "\
{\"t\":100,\"task\":2,\"kind\":\"Flight\",\"interval\":1,\"vectors\":1000,\"coverage\":42,\
\"stagnant\":0,\"d_vectors\":1000,\"d_solver_calls\":3,\"d_settle_fast_path\":900,\
\"d_settle_escapes\":100}
";
        let recs = parse_trace(text).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].kind, FLIGHT_KIND);
        assert_eq!(recs[0].num("interval"), 1);
        assert_eq!(recs[0].num("d_vectors"), 1000);
        // Canonical re-serialization is byte-identical.
        assert_eq!(to_json_lines(&recs), text);
        // Flight records are heartbeat summaries, not timeline events.
        assert_eq!(timeline(&recs), "");
        // A truncated flight record is a schema violation.
        assert!(parse_line(
            "{\"t\":100,\"task\":2,\"kind\":\"Flight\",\"interval\":1,\"vectors\":1000}"
        )
        .is_err());
    }

    #[test]
    fn metrics_records_validate_and_render_hit_rate() {
        // The exact shape `Collector::emit_settle_metrics` writes.
        let text = "\
{\"t\":1,\"task\":0,\"kind\":\"Metrics\",\"settle_fast_path\":75,\"settle_escapes\":25,\
\"x_island_cones\":3,\"settle_sweeps\":100}
{\"t\":2,\"task\":1,\"kind\":\"Metrics\",\"settle_fast_path\":0,\"settle_escapes\":0,\
\"x_island_cones\":0,\"settle_sweeps\":0}
";
        let recs = parse_trace(text).unwrap();
        let table = settle_mix_table(&recs);
        assert!(
            table.contains("| 0 | 75 | 25 | 75.0% | 3 | 100 |"),
            "{table}"
        );
        assert!(table.contains("| 1 | 0 | 0 | - | 0 | 0 |"), "{table}");
        assert!(
            table.contains("| **all** | 75 | 25 | 75.0% | 3 | 100 |"),
            "{table}"
        );
        // Canonical re-serialization round-trips.
        assert_eq!(to_json_lines(&recs), text);
        // Missing fields are a schema violation.
        assert!(
            parse_line("{\"t\":1,\"task\":0,\"kind\":\"Metrics\",\"settle_fast_path\":1}").is_err()
        );
        // Traces without Metrics records render nothing.
        assert_eq!(settle_mix_table(&[]), "");
    }

    #[test]
    fn solver_cache_records_validate_and_tabulate() {
        // The exact shape `Collector::emit_solver_cache_metrics` writes.
        let text = "\
{\"t\":1,\"task\":0,\"kind\":\"SolverCache\",\"bitblast_cache_hits\":30,\
\"bitblast_cache_misses\":10,\"session_reuse_milli\":800}
{\"t\":2,\"task\":1,\"kind\":\"SolverCache\",\"bitblast_cache_hits\":0,\
\"bitblast_cache_misses\":0,\"session_reuse_milli\":0}
";
        let recs = parse_trace(text).unwrap();
        let table = solver_cache_table(&recs);
        assert!(table.contains("| 0 | 30 | 10 | 75.0% | 0.800 |"), "{table}");
        assert!(table.contains("| 1 | 0 | 0 | - | 0.000 |"), "{table}");
        // Totals sum counters across tasks.
        assert!(
            table.contains("| **all** | 30 | 10 | 75.0% | — |"),
            "{table}"
        );
        // Canonical re-serialization round-trips.
        assert_eq!(to_json_lines(&recs), text);
        // Missing fields are a schema violation.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"SolverCache\",\"bitblast_cache_hits\":1}"
        )
        .is_err());
        // Traces without SolverCache records render nothing.
        assert_eq!(solver_cache_table(&[]), "");
    }

    #[test]
    fn pre_change_solver_cache_lines_still_check() {
        // Written while portfolio racing existed: the race tallies are
        // accepted and dropped.
        let old = "{\"t\":1,\"task\":0,\"kind\":\"SolverCache\",\"bitblast_cache_hits\":30,\
\"bitblast_cache_misses\":10,\"session_reuse_milli\":800,\"portfolio_races\":5,\
\"portfolio_wins\":[3,2]}";
        let rec = parse_line(old).unwrap();
        assert_eq!(rec.num("bitblast_cache_hits"), 30);
        assert_eq!(
            to_json_lines(&[rec]),
            "{\"t\":1,\"task\":0,\"kind\":\"SolverCache\",\"bitblast_cache_hits\":30,\
\"bitblast_cache_misses\":10,\"session_reuse_milli\":800}\n"
        );
        // Retired names are only forgiven on the kind that carried them.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"Metrics\",\"settle_fast_path\":1,\
\"settle_escapes\":0,\"x_island_cones\":0,\"settle_sweeps\":1,\"portfolio_races\":0}"
        )
        .is_err());
    }

    #[test]
    fn solver_cost_records_round_trip_and_tabulate() {
        use symbfuzz_smt::TRACE_HIST_BUCKETS;
        let mut hist = vec![0u64; TRACE_HIST_BUCKETS];
        hist[1] = 8; // eight calls with ≤3 conflicts
        hist[3] = 2; // two calls with ≤63 conflicts
        let events = [
            Event::GoalSolveCost {
                register: "st".into(),
                value: 3,
                status: SolveStatus::Unknown(UnknownReason::Conflicts),
                depth: 4,
                calls: 10,
                conflicts: 40,
                learned: 30,
                restarts: 2,
                hist: hist.clone(),
            },
            Event::GoalSolveCost {
                register: "st".into(),
                value: 3,
                status: SolveStatus::Unknown(UnknownReason::Conflicts),
                depth: 5,
                calls: 10,
                conflicts: 60,
                learned: 45,
                restarts: 3,
                hist,
            },
            Event::GoalSolveCost {
                register: "mode".into(),
                value: 1,
                status: SolveStatus::Sat,
                depth: 2,
                calls: 2,
                conflicts: 0,
                learned: 0,
                restarts: 0,
                hist: vec![0; TRACE_HIST_BUCKETS],
            },
            Event::CoreExtracted {
                register: "st".into(),
                value: 3,
                core: 2,
                blamed: 2,
            },
            Event::CoreExtracted {
                register: "st".into(),
                value: 7,
                core: 0,
                blamed: 1,
            },
        ];
        let text: String = events
            .iter()
            .enumerate()
            .map(|(i, e)| e.to_json_line(i as u64, 0) + "\n")
            .collect();
        let records = parse_trace(&text).unwrap();
        // Canonical re-serialization (array field included) is
        // byte-identical and re-validates.
        assert_eq!(to_json_lines(&records), text);
        assert_eq!(records[0].arr("hist").len(), TRACE_HIST_BUCKETS);

        // Both attempts of the `st`=3 goal fold into one hardest-first
        // row; the merged 20-call histogram keeps its quantile edges.
        let table = goal_cost_table(&records);
        assert!(
            table
                .contains("| `st` = 3 | 2 | 20 | 100 | 75 | 5 | 3 | 63 | 63 | unknown:conflicts |"),
            "{table}"
        );
        assert!(
            table.contains("| `mode` = 1 | 1 | 2 | 0 | 0 | 0 | 0 | 0 | 0 | sat |"),
            "{table}"
        );
        let st = table.find("`st` = 3").unwrap();
        let mode = table.find("`mode` = 1").unwrap();
        assert!(st < mode, "hardest goal first:\n{table}");

        // Core extractions narrate in the timeline; costs stay tabular.
        let tl = timeline(&records);
        assert!(
            tl.contains("assumption core for `st` = 3: 2 registers blamed (core of 2)"),
            "{tl}"
        );
        assert!(
            tl.contains("assumption core for `st` = 7: 1 registers blamed (hot-signal fallback)"),
            "{tl}"
        );
        assert!(!tl.contains("GoalSolveCost"));

        // Traces without solver-cost records render nothing.
        assert_eq!(goal_cost_table(&[]), "");
    }

    #[test]
    fn solver_cost_schema_violations_are_rejected() {
        // Unknown solve status.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"GoalSolveCost\",\"register\":\"st\",\"value\":3,\
             \"status\":\"maybe\",\"depth\":1,\"calls\":1,\"conflicts\":0,\"learned\":0,\
             \"restarts\":0,\"hist\":[]}"
        )
        .is_err());
        // `hist` must be an array.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"GoalSolveCost\",\"register\":\"st\",\"value\":3,\
             \"status\":\"sat\",\"depth\":1,\"calls\":1,\"conflicts\":0,\"learned\":0,\
             \"restarts\":0,\"hist\":7}"
        )
        .is_err());
        // Arrays hold numbers only.
        assert!(parse_flat_object("{\"hist\":[\"x\"]}").is_err());
        assert!(parse_flat_object("{\"hist\":[1,]}").is_err());
        // Missing field.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"CoreExtracted\",\"register\":\"st\",\"value\":3,\
             \"core\":2}"
        )
        .is_err());
    }

    #[test]
    fn timeline_narrates_coverage_and_bugs() {
        let text = "\
{\"t\":5,\"task\":1,\"kind\":\"CoverageDelta\",\"vectors\":100,\"coverage\":8,\"delta\":8}
{\"t\":6,\"task\":1,\"kind\":\"StagnationEnter\",\"vectors\":300,\"intervals\":2}
{\"t\":7,\"task\":1,\"kind\":\"BudgetExhausted\",\"reason\":\"conflicts\",\"level\":1,\
\"conflicts\":500,\"decisions\":1200,\"propagations\":9000}
{\"t\":8,\"task\":1,\"kind\":\"BugFired\",\"property\":\"leak\",\"vector\":321}
";
        let recs = parse_trace(text).unwrap();
        let tl = timeline(&recs);
        assert!(tl.contains("coverage 8 (+8) at 100 vectors"));
        assert!(tl.contains("stagnation after 2 flat intervals"));
        assert!(
            tl.contains("solver budget exhausted (conflicts) at escalation level 1"),
            "{tl}"
        );
        assert!(tl.contains("BUG `leak` fired at vector 321"));
    }
}
