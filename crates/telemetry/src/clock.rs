//! Time sources for telemetry timestamps.
//!
//! Every timestamp the collector records comes through the [`Clock`]
//! trait, which is the determinism seam of the whole layer: campaigns
//! run with a [`ManualClock`] driven by the input-vector count, so
//! event timestamps and phase durations are pure functions of the
//! campaign seed and merge byte-identically at any parallelism. The
//! bench binaries swap in a [`MonotonicClock`] only when the operator
//! asks for a wall-clock trace (`--trace-out`). Solver wall-clock
//! deadlines (`--solve-wall-ms`) never read the collector's clock: a
//! campaign keeps a [`MonotonicClock`] of its own for them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic microsecond source.
pub trait Clock: Send + Sync {
    /// Microseconds since the clock's epoch. With a [`ManualClock`]
    /// the unit is whatever the driver feeds [`Clock::set`] (the fuzz
    /// loop uses input vectors).
    fn now_micros(&self) -> u64;

    /// Advances a settable clock; real clocks ignore this, so callers
    /// can drive the clock unconditionally.
    fn set(&self, _micros: u64) {}
}

/// Wall-clock time relative to construction.
#[derive(Debug)]
pub struct MonotonicClock {
    start: Instant,
}

impl MonotonicClock {
    /// Starts the clock at zero now.
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            start: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> MonotonicClock {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

/// A deterministic clock advanced explicitly by the driver. Never goes
/// backwards: `set` with a smaller value is ignored.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// Starts at zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    fn set(&self, micros: u64) {
        self.now.fetch_max(micros, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_settable_and_monotone() {
        let c = ManualClock::new();
        assert_eq!(c.now_micros(), 0);
        c.set(5);
        assert_eq!(c.now_micros(), 5);
        c.set(3); // never backwards
        assert_eq!(c.now_micros(), 5);
    }

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now_micros();
        c.set(1_000_000_000); // ignored
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.now_micros() > a);
    }
}
