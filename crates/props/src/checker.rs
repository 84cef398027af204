//! Sampled-history property checker (the UVM-monitor-side scoreboard).

use crate::ast::{Frames, Property};
use symbfuzz_logic::LogicVec;
use symbfuzz_netlist::SignalId;

/// A recorded property violation (paper §4.9: "the simulator logs the
/// property name \[and\] simulation timestamp").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated property.
    pub property: String,
    /// Simulation cycle at which it failed.
    pub cycle: u64,
}

/// Checks a set of properties against every sampled cycle.
///
/// Feed one full value frame per clock cycle via
/// [`on_cycle`](Self::on_cycle). "Now" is read straight from that
/// frame; the checker keeps history only for the signals its properties
/// read in past cycles (under `$past`, `$stable`, `$rose`, `$fell`),
/// in a ring as deep as the deepest of them, overwritten in place.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use symbfuzz_props::{Property, PropertyChecker};
/// use symbfuzz_sim::{Reentry, Simulator};
///
/// let d = Arc::new(symbfuzz_netlist::elaborate_src(
///     "module m(input clk, input rst_n, input a, output logic b);
///        always_ff @(posedge clk or negedge rst_n)
///          if (!rst_n) b <= 1'b0; else b <= a;
///      endmodule", "m")?);
/// let p = Property::parse("b_follows_a", "b == $past(a)", &d)?;
/// let mut checker = PropertyChecker::new(vec![p]);
/// let mut sim = Simulator::new(Arc::clone(&d));
/// sim.reenter(Reentry::FullReset { cycles: 1 });
/// let a = d.signal_by_name("a").unwrap();
/// sim.set_input(a, &symbfuzz_logic::LogicVec::from_u64(1, 1))?;
/// sim.settle()?;
/// checker.on_cycle(sim.cycle(), sim.values());
/// for _ in 0..10 {
///     sim.step();
///     checker.on_cycle(sim.cycle(), sim.values());
/// }
/// assert!(checker.violations().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PropertyChecker {
    properties: Vec<Property>,
    history: History,
    /// Whether each property (by index) has fired yet.
    fired: Vec<bool>,
    violations: Vec<Violation>,
    checked_cycles: u64,
}

impl PropertyChecker {
    /// Builds a checker for the given properties.
    pub fn new(properties: Vec<Property>) -> PropertyChecker {
        let depth = properties
            .iter()
            .map(|p| p.history_depth() as usize)
            .max()
            .unwrap_or(0);
        let mut history = History {
            depth,
            ..History::default()
        };
        for p in &properties {
            p.for_each_past_signal(&mut |s| history.track(s));
        }
        history.frames = vec![LogicVec::zeros(0); depth * history.signals.len()];
        PropertyChecker {
            fired: vec![false; properties.len()],
            properties,
            history,
            violations: Vec::new(),
            checked_cycles: 0,
        }
    }

    /// The properties being monitored.
    pub fn properties(&self) -> &[Property] {
        &self.properties
    }

    /// The first violation of each property that has fired, in
    /// detection order. Later failures of the same property are only
    /// returned by the [`on_cycle`](Self::on_cycle) call that saw them.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Names of properties that have fired at least once.
    pub fn violated_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .violations
            .iter()
            .map(|v| v.property.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Total cycles checked.
    pub fn checked_cycles(&self) -> u64 {
        self.checked_cycles
    }

    /// Clears history (use after a checkpoint restore so `$past` does
    /// not see across the discontinuity) while keeping violations.
    pub fn reset_history(&mut self) {
        self.history.len = 0;
    }

    /// Ingests one sampled frame and evaluates every property at this
    /// cycle. Returns the violations detected *this* cycle.
    pub fn on_cycle(&mut self, cycle: u64, values: &[LogicVec]) -> Vec<Violation> {
        self.checked_cycles += 1;
        let window = Window {
            now: values,
            history: &self.history,
        };
        let mut new = Vec::new();
        for (p, fired) in self.properties.iter().zip(&mut self.fired) {
            if !p.holds_in(&window) {
                let v = Violation {
                    property: p.name().to_string(),
                    cycle,
                };
                if !*fired {
                    *fired = true;
                    self.violations.push(v.clone());
                }
                new.push(v);
            }
        }
        self.history.push(values);
        new
    }
}

/// Past values of the signals the properties read from past cycles: a
/// ring of `depth` frames of one value per tracked signal.
#[derive(Debug, Clone, Default)]
struct History {
    /// Slot of each tracked signal, indexed by [`SignalId::index`]
    /// (`u32::MAX` for an untracked signal).
    slot: Vec<u32>,
    /// Tracked signals in slot order.
    signals: Vec<SignalId>,
    /// `depth` frames of `signals.len()` values each, frame-major.
    frames: Vec<LogicVec>,
    depth: usize,
    /// The frame the next cycle overwrites.
    head: usize,
    /// Frames written since the last rewind (at most `depth`).
    len: usize,
}

impl History {
    fn track(&mut self, s: SignalId) {
        if self.slot.len() <= s.index() {
            self.slot.resize(s.index() + 1, u32::MAX);
        }
        if self.slot[s.index()] == u32::MAX {
            self.slot[s.index()] = self.signals.len() as u32;
            self.signals.push(s);
        }
    }

    /// Records `values` as the newest past frame, overwriting the oldest.
    fn push(&mut self, values: &[LogicVec]) {
        if self.depth == 0 {
            return;
        }
        let n = self.signals.len();
        let frame = &mut self.frames[self.head * n..(self.head + 1) * n];
        for (dst, s) in frame.iter_mut().zip(&self.signals) {
            dst.clone_from(&values[s.index()]);
        }
        self.head = (self.head + 1) % self.depth;
        self.len = (self.len + 1).min(self.depth);
    }
}

/// "Now" from the caller's value table, the past from the ring.
struct Window<'a> {
    now: &'a [LogicVec],
    history: &'a History,
}

impl Frames for Window<'_> {
    fn past_len(&self) -> usize {
        self.history.len
    }

    fn value(&self, sig: SignalId, back: usize) -> &LogicVec {
        if back == 0 {
            return &self.now[sig.index()];
        }
        let h = self.history;
        let frame = (h.head + h.depth - back) % h.depth;
        &h.frames[frame * h.signals.len() + h.slot[sig.index()] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use symbfuzz_logic::LogicVec;
    use symbfuzz_netlist::elaborate_src;
    use symbfuzz_sim::{Reentry, Simulator};

    /// A UART-like DUV with the paper's Bug 11: parity error raised
    /// even when parity checking is disabled.
    const BUGGY_UART: &str = "
        module uart_rx(input clk, input rst_n, input [7:0] rx_data,
                       input parity_bit, input parity_enable, input valid,
                       output logic rx_parity_err);
          always_ff @(posedge clk or negedge rst_n)
            if (!rst_n) rx_parity_err <= 1'b0;
            else rx_parity_err <= valid & ((^rx_data) ^ parity_bit);
        endmodule";

    fn uart() -> (Arc<symbfuzz_netlist::Design>, Simulator) {
        let d = Arc::new(elaborate_src(BUGGY_UART, "uart_rx").unwrap());
        let sim = Simulator::new(Arc::clone(&d));
        (d, sim)
    }

    #[test]
    fn catches_the_uart_parity_bug() {
        let (d, mut sim) = uart();
        // Listing 26: rx_parity_err |-> parity_enable.
        let p = Property::parse("uart_parity", "rx_parity_err |-> parity_enable", &d).unwrap();
        let mut checker = PropertyChecker::new(vec![p]);
        sim.reenter(Reentry::FullReset { cycles: 1 });
        // Odd-parity mismatch with parity disabled: the bug fires.
        for (sig, val) in [
            ("rx_data", 0b0000_0001u64),
            ("parity_bit", 0),
            ("parity_enable", 0),
            ("valid", 1),
        ] {
            let s = d.signal_by_name(sig).unwrap();
            sim.set_input(s, &LogicVec::from_u64(d.signal(s).width, val))
                .unwrap();
        }
        sim.step();
        let v = checker.on_cycle(sim.cycle(), sim.values());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, "uart_parity");
        assert_eq!(checker.violated_names(), vec!["uart_parity"]);
    }

    #[test]
    fn vacuous_when_antecedent_false() {
        let (d, mut sim) = uart();
        let p = Property::parse("uart_parity", "rx_parity_err |-> parity_enable", &d).unwrap();
        let mut checker = PropertyChecker::new(vec![p]);
        sim.reenter(Reentry::FullReset { cycles: 1 });
        // Matching parity: no error flag, property vacuously true.
        for (sig, val) in [
            ("rx_data", 3u64),
            ("parity_bit", 0),
            ("parity_enable", 0),
            ("valid", 1),
        ] {
            let s = d.signal_by_name(sig).unwrap();
            sim.set_input(s, &LogicVec::from_u64(d.signal(s).width, val))
                .unwrap();
        }
        for _ in 0..5 {
            sim.step();
            checker.on_cycle(sim.cycle(), sim.values());
        }
        assert!(checker.violations().is_empty());
        assert_eq!(checker.checked_cycles(), 5);
    }

    #[test]
    fn isunknown_detects_undefined_fsm_state() {
        // Bug 2 pattern (Listing 7): register left X.
        let d = Arc::new(
            elaborate_src(
                "module m(input clk, input [1:0] d, output logic [1:0] q);
                   always_ff @(posedge clk) q <= d;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let p = Property::parse("defined", "!$isunknown(q)", &d).unwrap();
        let mut checker = PropertyChecker::new(vec![p]);
        let mut sim = Simulator::new(Arc::clone(&d));
        // No reset: q is X on the first sampled cycle.
        checker.on_cycle(sim.cycle(), sim.values());
        assert_eq!(checker.violations().len(), 1);
        // Drive a defined value; violation stops recurring.
        let din = d.signal_by_name("d").unwrap();
        sim.set_input(din, &LogicVec::from_u64(2, 1)).unwrap();
        sim.step();
        checker.on_cycle(sim.cycle(), sim.values());
        assert_eq!(checker.violations().len(), 1);
    }

    #[test]
    fn past_with_history_reset() {
        let d = Arc::new(
            elaborate_src(
                "module m(input clk, input rst_n, input a, output logic b);
                   always_ff @(posedge clk or negedge rst_n)
                     if (!rst_n) b <= 1'b0; else b <= a;
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let p = Property::parse("follow", "b == $past(a)", &d).unwrap();
        let mut checker = PropertyChecker::new(vec![p]);
        let mut sim = Simulator::new(Arc::clone(&d));
        sim.reenter(Reentry::FullReset { cycles: 1 });
        let a = d.signal_by_name("a").unwrap();
        // Hold `a` at a defined constant: `b` samples it at each edge,
        // so b(t) == a(t-1) holds from the second frame on and the
        // first frame is vacuous ($past out of history).
        sim.set_input(a, &LogicVec::from_u64(1, 1)).unwrap();
        sim.settle().unwrap();
        checker.on_cycle(sim.cycle(), sim.values());
        for _ in 0..8u64 {
            sim.step();
            checker.on_cycle(sim.cycle(), sim.values());
        }
        assert!(checker.violations().is_empty());
        // After a snapshot restore, history must be cleared or $past
        // would compare across the discontinuity.
        checker.reset_history();
        checker.on_cycle(sim.cycle(), sim.values());
        assert!(checker.violations().is_empty()); // vacuous on first frame
    }

    #[test]
    fn multiple_properties_tracked_independently() {
        let (d, mut sim) = uart();
        let p1 = Property::parse("parity", "rx_parity_err |-> parity_enable", &d).unwrap();
        let p2 = Property::parse("always_true", "1'b1", &d).unwrap();
        let mut checker = PropertyChecker::new(vec![p1, p2]);
        sim.reenter(Reentry::FullReset { cycles: 1 });
        for (sig, val) in [
            ("rx_data", 1u64),
            ("parity_bit", 0),
            ("parity_enable", 0),
            ("valid", 1),
        ] {
            let s = d.signal_by_name(sig).unwrap();
            sim.set_input(s, &LogicVec::from_u64(d.signal(s).width, val))
                .unwrap();
        }
        sim.step();
        checker.on_cycle(sim.cycle(), sim.values());
        assert_eq!(checker.violated_names(), vec!["parity"]);
    }

    #[test]
    fn violation_log_keeps_each_propertys_first_firing() {
        let (d, sim) = uart();
        let never = Property::parse("never", "1'b0", &d).unwrap();
        let parity = Property::parse("parity", "rx_parity_err |-> parity_enable", &d).unwrap();
        let mut checker = PropertyChecker::new(vec![never, parity]);
        for cycle in 0..10_000 {
            let now = checker.on_cycle(cycle, sim.values());
            assert_eq!(now.len(), 1, "every failing cycle is still returned");
            assert_eq!(now[0].cycle, cycle);
        }
        assert_eq!(
            checker.violations(),
            &[Violation {
                property: "never".into(),
                cycle: 0
            }]
        );
        assert_eq!(checker.checked_cycles(), 10_000);
    }

    #[test]
    fn history_holds_only_signals_read_in_the_past() {
        let (d, _) = uart();
        let sig = |n: &str| d.signal_by_name(n).unwrap();
        let props = [
            ("now_only", "rx_parity_err |-> parity_enable"),
            ("edge", "$rose(valid) |-> $past(rx_data, 2) != 8'd0"),
            ("again", "$stable(valid) || parity_bit"),
        ]
        .map(|(n, t)| Property::parse(n, t, &d).unwrap());
        let checker = PropertyChecker::new(props.to_vec());
        assert_eq!(checker.history.signals, vec![sig("valid"), sig("rx_data")]);
        assert_eq!(checker.history.depth, 2);
        assert_eq!(checker.history.frames.len(), 4);
        // No property looks back: no history at all.
        let checker = PropertyChecker::new(props[..1].to_vec());
        assert!(checker.history.signals.is_empty() && checker.history.frames.is_empty());
    }
}
