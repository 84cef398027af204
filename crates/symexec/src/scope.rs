//! Per-goal solver introspection: merged CDCL traces, hot signals and
//! blame sets.
//!
//! When introspection is enabled, every reachability query carries a
//! [`GoalScope`] alongside its [`ReachStats`](crate::ReachStats)
//! receipt: the merged [`SolveTrace`] across the geometric depth
//! schedule, a histogram of per-call conflict counts, the hottest
//! VSIDS variables mapped back to netlist signal names, and — for
//! `Unreachable`/`Exhausted` outcomes — a *blame set* of state
//! registers whose concrete values make the target unreachable.
//!
//! Everything here is deterministic: hot signals sort by (permille
//! desc, name asc) and blame sets keep register-name order, so merged
//! reports are byte-identical at any `--jobs` count.

use symbfuzz_smt::{trace_bucket, SolveTrace, TRACE_HIST_BUCKETS};

/// Hot-signal list length carried per goal.
pub const HOT_SIGNALS_K: usize = 8;

/// Maximum state registers posed as assumptions in a blame query.
pub const BLAME_MAX_ASSUMPTIONS: usize = 16;

/// Introspection record for one whole reachability query (every
/// exact-depth solve of the schedule merged).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GoalScope {
    /// Merged CDCL analytics across the depth schedule.
    pub trace: SolveTrace,
    /// Histogram of *per exact-depth call* conflict counts, log₄
    /// buckets (same bucketing as the trace histograms) — the shape of
    /// how hard individual calls were, as opposed to the total.
    pub call_conflict_hist: Vec<u64>,
    /// Hottest netlist signals by VSIDS activity: `(signal name,
    /// permille of the hottest variable's activity)`, sorted by
    /// (permille desc, name asc), at most [`HOT_SIGNALS_K`] entries.
    pub hot_signals: Vec<(String, u64)>,
    /// State registers implicated in an `Unreachable`/`Exhausted`
    /// outcome (assumption-core-lite), in register-name order. Empty
    /// for satisfiable goals or when extraction ran out of budget.
    pub blame: Vec<String>,
    /// Whether [`blame`](Self::blame) came from a real assumption-core
    /// extraction (`true`) or the hot-signal fallback (`false`).
    pub blame_is_core: bool,
}

impl GoalScope {
    /// A scope with the conflict histogram sized and zeroed.
    pub fn new() -> GoalScope {
        GoalScope {
            call_conflict_hist: vec![0; TRACE_HIST_BUCKETS],
            ..GoalScope::default()
        }
    }

    /// Folds one exact-depth call's trace into the scope.
    pub fn note_call(&mut self, trace: &SolveTrace) {
        if self.call_conflict_hist.len() != TRACE_HIST_BUCKETS {
            self.call_conflict_hist = vec![0; TRACE_HIST_BUCKETS];
        }
        self.call_conflict_hist[trace_bucket(trace.learned)] += 1;
        self.trace.merge(trace);
    }

    /// Merges a batch of named hot signals, keeping the maximum
    /// permille per name, then re-sorting and truncating to
    /// [`HOT_SIGNALS_K`].
    pub fn note_hot_signals(&mut self, named: &[(String, u64)]) {
        for (name, permille) in named {
            match self.hot_signals.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 = slot.1.max(*permille),
                None => self.hot_signals.push((name.clone(), *permille)),
            }
        }
        self.hot_signals
            .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.hot_signals.truncate(HOT_SIGNALS_K);
    }
}

/// Parses an engine term name back to the netlist signal it stands
/// for: `cur.foo`, `x0.foo`, `in.foo`, `in@3.foo` and `float.foo` all
/// map to `foo`; synthetic `xlit.N` symbols map to `None`.
pub fn signal_of_term_name(name: &str) -> Option<&str> {
    for prefix in ["cur.", "x0.", "in.", "float."] {
        if let Some(rest) = name.strip_prefix(prefix) {
            return Some(rest);
        }
    }
    if let Some(rest) = name.strip_prefix("in@") {
        if let Some(dot) = rest.find('.') {
            if rest[..dot].chars().all(|c| c.is_ascii_digit()) {
                return Some(&rest[dot + 1..]);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_names_map_back_to_signals() {
        assert_eq!(signal_of_term_name("cur.state"), Some("state"));
        assert_eq!(signal_of_term_name("x0.lock"), Some("lock"));
        assert_eq!(signal_of_term_name("in.cmd"), Some("cmd"));
        assert_eq!(signal_of_term_name("in@12.cmd"), Some("cmd"));
        assert_eq!(signal_of_term_name("float.wire_a"), Some("wire_a"));
        assert_eq!(signal_of_term_name("xlit.7"), None);
        assert_eq!(signal_of_term_name("in@x.cmd"), None);
        assert_eq!(signal_of_term_name("unprefixed"), None);
    }

    #[test]
    fn hot_signals_fold_by_max_and_stay_bounded() {
        let mut s = GoalScope::new();
        s.note_hot_signals(&[("b".into(), 400), ("a".into(), 400)]);
        s.note_hot_signals(&[("b".into(), 900)]);
        assert_eq!(s.hot_signals[0], ("b".to_string(), 900));
        assert_eq!(s.hot_signals[1], ("a".to_string(), 400));
        let many: Vec<(String, u64)> = (0..20).map(|i| (format!("s{i:02}"), 100 + i)).collect();
        s.note_hot_signals(&many);
        assert_eq!(s.hot_signals.len(), HOT_SIGNALS_K);
    }
}
