//! Opt-in CDCL introspection: per-search learning/restart analytics.
//!
//! A [`SolveTrace`] rides inside [`SatSolver`](crate::SatSolver) behind
//! an `Option<Box<_>>`, so the untraced hot path pays one pointer-null
//! test per conflict and nothing else. Traces accumulate across
//! [`solve_budgeted`](crate::SatSolver::solve_budgeted) calls until
//! taken, which is how the symbolic engine charges a whole depth
//! schedule (several solver calls) to one goal.

/// Number of buckets in the log₄ histograms ([`trace_bucket`]).
/// Matches the telemetry collector's latency histograms so the same
/// quantile helpers apply.
pub const TRACE_HIST_BUCKETS: usize = 12;

/// Cap on the restart timeline kept per trace; restarts beyond it are
/// still counted but not timestamped.
pub const RESTART_TIMELINE_CAP: usize = 64;

/// Log₄ bucket index for a count `n` (0 → bucket 0, 1..=3 → 1,
/// 4..=15 → 2, …), saturating at [`TRACE_HIST_BUCKETS`] − 1.
pub fn trace_bucket(n: u64) -> usize {
    if n == 0 {
        return 0;
    }
    let log2 = 63 - n.leading_zeros() as usize;
    (log2 / 2 + 1).min(TRACE_HIST_BUCKETS - 1)
}

/// Quantile estimate over a log₄ histogram: returns the upper bound of
/// the bucket containing quantile `q` (0.0..=1.0) of the mass, i.e.
/// `4^(bucket)` − 1 scaled. Mirrors the telemetry collector's
/// histogram convention so the bench layer can reuse one helper.
pub fn trace_hist_quantile(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = (total as f64 * q).ceil() as u64;
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= target {
            // Upper edge of bucket i: 0 for bucket 0, else 4^i - 1.
            return if i == 0 {
                0
            } else {
                (1u64 << (2 * i)).saturating_sub(1)
            };
        }
    }
    (1u64 << (2 * (buckets.len() - 1))).saturating_sub(1)
}

/// Analytics of one (or several accumulated) CDCL searches.
///
/// All fields are pure functions of the clause database and the
/// decision sequence, so traces are byte-identical across runs and
/// `--jobs` values (no wall-clock anywhere).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveTrace {
    /// Learned clauses recorded (unit learnts included).
    pub learned: u64,
    /// Log₄ histogram of learned-clause sizes (literal counts).
    pub learned_size_hist: [u64; TRACE_HIST_BUCKETS],
    /// Log₄ histogram of learned-clause LBD (distinct decision levels).
    pub lbd_hist: [u64; TRACE_HIST_BUCKETS],
    /// Restarts performed.
    pub restarts: u64,
    /// Conflict count at each restart, in order (first
    /// [`RESTART_TIMELINE_CAP`] only) — the learning-curve x-axis.
    pub restart_timeline: Vec<u64>,
    /// Sum of decision levels at conflict sites. Every traced conflict
    /// learns a clause, so the mean depth is
    /// `conflict_depth_sum / learned`.
    pub conflict_depth_sum: u64,
    /// Deepest decision level at a conflict site.
    pub conflict_depth_max: u32,
    /// Top-K VSIDS-hot variables `(var, activity_permille)` at the
    /// moment the trace was taken, hottest first. Activity is scaled
    /// to 0..=1000 of the hottest variable so the figures survive the
    /// solver's internal rescaling.
    pub hot_vars: Vec<(u32, u64)>,
}

impl SolveTrace {
    /// Records one learned clause (its size and LBD) at a conflict
    /// whose decision level was `depth`.
    pub fn note_learned(&mut self, size: usize, lbd: u32, depth: u32) {
        self.learned += 1;
        self.learned_size_hist[trace_bucket(size as u64)] += 1;
        self.lbd_hist[trace_bucket(lbd as u64)] += 1;
        self.conflict_depth_sum += depth as u64;
        self.conflict_depth_max = self.conflict_depth_max.max(depth);
    }

    /// Records a restart at cumulative conflict count `conflicts`.
    pub fn note_restart(&mut self, conflicts: u64) {
        self.restarts += 1;
        if self.restart_timeline.len() < RESTART_TIMELINE_CAP {
            self.restart_timeline.push(conflicts);
        }
    }

    /// Folds `other` into `self` (histograms add, timelines concat up
    /// to the cap, maxima take the max). Used to accumulate the several
    /// solver calls of one goal's depth schedule.
    pub fn merge(&mut self, other: &SolveTrace) {
        self.learned += other.learned;
        for (a, b) in self
            .learned_size_hist
            .iter_mut()
            .zip(&other.learned_size_hist)
        {
            *a += b;
        }
        for (a, b) in self.lbd_hist.iter_mut().zip(&other.lbd_hist) {
            *a += b;
        }
        self.restarts += other.restarts;
        for &t in &other.restart_timeline {
            if self.restart_timeline.len() >= RESTART_TIMELINE_CAP {
                break;
            }
            self.restart_timeline.push(t);
        }
        self.conflict_depth_sum += other.conflict_depth_sum;
        self.conflict_depth_max = self.conflict_depth_max.max(other.conflict_depth_max);
        if !other.hot_vars.is_empty() {
            self.hot_vars = other.hot_vars.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log4() {
        assert_eq!(trace_bucket(0), 0);
        assert_eq!(trace_bucket(1), 1);
        assert_eq!(trace_bucket(3), 1);
        assert_eq!(trace_bucket(4), 2);
        assert_eq!(trace_bucket(15), 2);
        assert_eq!(trace_bucket(16), 3);
        assert_eq!(trace_bucket(u64::MAX), TRACE_HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_walk_the_histogram() {
        let mut h = [0u64; TRACE_HIST_BUCKETS];
        h[1] = 50; // values 1..=3
        h[3] = 50; // values 16..=63
        assert_eq!(trace_hist_quantile(&h, 0.25), 3);
        assert_eq!(trace_hist_quantile(&h, 0.99), 63);
        assert_eq!(trace_hist_quantile(&[0; TRACE_HIST_BUCKETS], 0.5), 0);
    }

    #[test]
    fn learned_notes_accumulate_and_merge() {
        let mut a = SolveTrace::default();
        a.note_learned(3, 2, 5);
        a.note_learned(20, 4, 9);
        a.note_restart(2);
        assert_eq!(a.learned, 2);
        assert_eq!(a.conflict_depth_sum, 14);
        assert_eq!(a.conflict_depth_max, 9);
        assert_eq!(a.restart_timeline, vec![2]);

        let mut b = SolveTrace::default();
        b.note_learned(1, 1, 2);
        b.note_restart(10);
        b.merge(&a);
        assert_eq!(b.learned, 3);
        assert_eq!(b.restarts, 2);
        assert_eq!(b.restart_timeline, vec![10, 2]);
        assert_eq!(b.conflict_depth_max, 9);
    }

    #[test]
    fn restart_timeline_is_capped_but_counted() {
        let mut t = SolveTrace::default();
        for i in 0..(RESTART_TIMELINE_CAP as u64 + 10) {
            t.note_restart(i);
        }
        assert_eq!(t.restarts, RESTART_TIMELINE_CAP as u64 + 10);
        assert_eq!(t.restart_timeline.len(), RESTART_TIMELINE_CAP);
    }
}
