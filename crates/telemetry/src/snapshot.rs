//! Mergeable point-in-time snapshots of a collector.
//!
//! Snapshots are plain name/value vectors in a fixed order, so the
//! bench pool can merge per-task snapshots deterministically (fold in
//! task-index order) and serialize them byte-identically at any
//! `--jobs N`.

/// Per-phase statistics inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name ([`crate::Phase::name`]).
    pub phase: String,
    /// Completed spans.
    pub count: u64,
    /// Accumulated self-time (children excluded), clock units.
    pub self_micros: u64,
    /// log₄ inclusive-duration histogram ([`crate::HIST_BUCKETS`] wide).
    pub buckets: Vec<u64>,
}

/// Everything a collector knows, frozen: counters, gauges, per-kind
/// event counts and per-phase timings, each in a fixed schema order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per [`crate::Counter`], in `Counter::ALL` order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per [`crate::Gauge`], in `Gauge::ALL` order.
    pub gauges: Vec<(String, u64)>,
    /// `(kind, count)` per [`crate::Event`] kind, in `Event::kind_index` order.
    pub events: Vec<(String, u64)>,
    /// Per-phase stats, in `Phase::ALL` order.
    pub phases: Vec<PhaseStat>,
}

/// Estimates the `q`-quantile (`0.0 ..= 1.0`) of a log₄ duration
/// histogram ([`crate::bucket_of`] layout: bucket `i` holds durations
/// in `[4^i, 4^(i+1))`, bucket 0 starts at 0). Linear interpolation
/// within the crossing bucket; 0 for an empty histogram. Coarse by
/// construction (the buckets are quarter-decades), but monotone in `q`
/// and deterministic, which is what the phase tables need.
pub fn hist_quantile(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    // 1-based rank of the sample the quantile falls on.
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut cum = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (cum + n) as f64 >= rank {
            let lo = if i == 0 { 0.0 } else { 4f64.powi(i as i32) };
            let hi = 4f64.powi(i as i32 + 1);
            let frac = (rank - cum as f64) / n as f64;
            // Clamp below the exclusive upper bound so the estimate
            // stays inside the bucket that contains the rank.
            return (lo + frac * (hi - lo)).round().min(hi - 1.0) as u64;
        }
        cum += n;
    }
    4f64.powi(buckets.len() as i32) as u64
}

fn merge_pairs(into: &mut Vec<(String, u64)>, from: &[(String, u64)], max: bool) {
    // Uneven inputs are legal: a task that never touched a subsystem
    // (never solved, ran zero vectors) serialises an empty list, which
    // contributes nothing.
    if from.is_empty() {
        return;
    }
    if into.is_empty() {
        into.extend(from.iter().cloned());
        return;
    }
    debug_assert_eq!(into.len(), from.len());
    for (dst, src) in into.iter_mut().zip(from) {
        debug_assert_eq!(dst.0, src.0);
        if max {
            dst.1 = dst.1.max(src.1);
        } else {
            dst.1 += src.1;
        }
    }
}

impl MetricsSnapshot {
    /// Folds another snapshot into this one: counters, event counts,
    /// phase counts/self-times and histogram buckets sum; gauges take
    /// the maximum (high-water mark across tasks). Uneven snapshots
    /// merge gracefully: an empty section on either side defers to the
    /// other, and a phase row missing its histogram widens to the
    /// longer bucket vector.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_pairs(&mut self.counters, &other.counters, false);
        merge_pairs(&mut self.gauges, &other.gauges, true);
        merge_pairs(&mut self.events, &other.events, false);
        if other.phases.is_empty() {
            return;
        }
        if self.phases.is_empty() {
            self.phases = other.phases.clone();
            return;
        }
        debug_assert_eq!(self.phases.len(), other.phases.len());
        for (dst, src) in self.phases.iter_mut().zip(&other.phases) {
            debug_assert_eq!(dst.phase, src.phase);
            dst.count += src.count;
            dst.self_micros += src.self_micros;
            if dst.buckets.len() < src.buckets.len() {
                dst.buckets.resize(src.buckets.len(), 0);
            }
            for (b, s) in dst.buckets.iter_mut().zip(&src.buckets) {
                *b += s;
            }
        }
    }

    /// Sum of phase self-times — the accounted share of wall time.
    pub fn phase_total_micros(&self) -> u64 {
        self.phases.iter().map(|p| p.self_micros).sum()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Looks up an event count by kind name.
    pub fn event_count(&self, kind: &str) -> u64 {
        self.events
            .iter()
            .find(|(n, _)| n == kind)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Number of event kinds observed at least once.
    pub fn distinct_event_kinds(&self) -> usize {
        self.events.iter().filter(|(_, v)| *v > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, Counter, Gauge, Phase};
    use crate::event::Event;

    fn sample(vectors: u64, cache: u64) -> MetricsSnapshot {
        let c = std::sync::Arc::new(Collector::deterministic());
        c.add(Counter::Vectors, vectors);
        c.set_gauge(Gauge::SnapshotCache, cache);
        c.record(Event::FullReset);
        c.set_time(4);
        {
            let _t = c.phase(Phase::Mutate);
            c.set_time(10);
        }
        c.snapshot()
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let mut a = sample(3, 10);
        let b = sample(5, 7);
        a.merge(&b);
        assert_eq!(a.counter("vectors"), 8);
        assert_eq!(
            a.gauges
                .iter()
                .find(|(n, _)| n == "snapshot_cache")
                .unwrap()
                .1,
            10
        );
        assert_eq!(a.event_count("FullReset"), 2);
        let mutate = &a.phases[0];
        assert_eq!(mutate.phase, "mutate");
        assert_eq!(mutate.count, 2);
        assert_eq!(mutate.self_micros, 12);
        assert_eq!(mutate.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn merge_into_empty_copies() {
        let mut a = MetricsSnapshot::default();
        let b = sample(2, 1);
        a.merge(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_is_order_insensitive_for_sums() {
        let (x, y, z) = (sample(1, 4), sample(2, 9), sample(3, 2));
        let mut ab = x.clone();
        ab.merge(&y);
        ab.merge(&z);
        let mut ba = z.clone();
        ba.merge(&y);
        ba.merge(&x);
        assert_eq!(ab, ba);
    }

    #[test]
    fn distinct_kinds_counts_nonzero_rows() {
        let s = sample(1, 1);
        assert_eq!(s.distinct_event_kinds(), 1);
        assert_eq!(s.phase_total_micros(), 6);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // Empty histogram → 0 at any quantile.
        assert_eq!(hist_quantile(&[0; 12], 0.5), 0);
        // All mass in one bucket: quantiles stay inside its range.
        let mut h = [0u64; 12];
        h[2] = 100; // durations in [16, 64)
        for q in [0.1, 0.5, 0.9, 0.99] {
            let v = hist_quantile(&h, q);
            assert!((16..64).contains(&v), "q={q} → {v}");
        }
        assert!(hist_quantile(&h, 0.1) < hist_quantile(&h, 0.9));
        // Mass split across buckets: the median lands in the lower
        // bucket, the p99 in the upper.
        let mut h = [0u64; 12];
        h[1] = 90; // [4, 16)
        h[4] = 10; // [256, 1024)
        assert!((4..16).contains(&hist_quantile(&h, 0.5)));
        assert!((256..1024).contains(&hist_quantile(&h, 0.99)));
        // Monotone in q across the whole range.
        let mut prev = 0;
        for i in 0..=20 {
            let v = hist_quantile(&h, i as f64 / 20.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn quantiles_match_collector_buckets() {
        use crate::collector::bucket_of;
        // A duration recorded through the collector's bucketing is
        // recoverable to within its bucket by the estimator.
        let mut h = vec![0u64; crate::HIST_BUCKETS];
        h[bucket_of(500)] += 1;
        let p50 = hist_quantile(&h, 0.5);
        assert_eq!(bucket_of(p50), bucket_of(500));
    }
}
