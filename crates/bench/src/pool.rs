//! Deterministic scoped-thread campaign pool.
//!
//! Campaigns are embarrassingly parallel: each one is a pure function
//! of `(design, strategy, budget, seed)`. The pool fans a fixed item
//! list across `jobs` worker threads pulling from an atomic work-queue
//! index, collects `(index, result)` pairs, and re-sorts by index — so
//! the merged output is byte-identical no matter how many workers ran
//! or in which order they finished. The only nondeterminism any
//! experiment report retains is wall-clock latency (Table 3's
//! `latency_s`), which is documented as such.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers to use when `--jobs` is not given: all available
/// cores (reports are deterministic regardless, see [`run_pool`]).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(index, &items[index])` for every item, fanning the work
/// across up to `jobs` scoped threads, and returns the results in item
/// order. With `jobs <= 1` (or a single item) everything runs on the
/// calling thread; output is identical either way.
pub fn run_pool<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                collected.lock().unwrap().extend(local);
            });
        }
    });
    let mut pairs = collected.into_inner().unwrap();
    pairs.sort_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_preserves_item_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = run_pool(&items, 8, |i, &x| {
            // Uneven per-item work so completion order scrambles.
            std::thread::sleep(std::time::Duration::from_micros((x % 5) * 100));
            (i as u64, x * x)
        });
        for (i, &(idx, sq)) in out.iter().enumerate() {
            assert_eq!(idx, i as u64);
            assert_eq!(sq, (i * i) as u64);
        }
    }

    #[test]
    fn pool_is_identical_across_job_counts() {
        let items: Vec<u32> = (0..23).collect();
        let f = |i: usize, x: &u32| format!("{i}:{}", x.wrapping_mul(2654435761));
        let serial = run_pool(&items, 1, f);
        for jobs in [2, 4, 8, 16] {
            assert_eq!(run_pool(&items, jobs, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn pool_handles_empty_and_oversubscribed() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_pool(&empty, 8, |_, &x| x).is_empty());
        let one = [7u8];
        assert_eq!(run_pool(&one, 64, |_, &x| x + 1), vec![8]);
    }
}
