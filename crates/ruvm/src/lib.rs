//! A miniature UVM (Universal Verification Methodology) layer in Rust.
//!
//! SymbFuzz's headline engineering claim is that it is "the first
//! hardware fuzzing technique implemented on industry-standard UVM"
//! (§1): the paper's fuzzer does not talk to the simulator directly but through
//! the standard sequencer → driver → DUV → monitor → scoreboard
//! pipeline, and steers exploration purely by installing *constraints*
//! into the sequencer (Fig. 2, blocks 8–11). This crate reproduces that
//! architecture:
//!
//! * [`SequenceItem`] — one transaction: a flat stimulus word that the
//!   driver unpacks onto the DUV's input ports (§4.2);
//! * [`Constraint`] — the `constraint {}` mechanism of Listing 3:
//!   pin an input port or a bit range of the stimulus word, or replay
//!   an exact multi-cycle sequence (checkpoint replay, §4.5, and
//!   SMT-derived input sequences, §4.8);
//! * [`Sequencer`] — constrained-random generation with a replay queue;
//! * [`Driver`] / [`Monitor`] / [`AnalysisPort`] ([`Subscriber`]) —
//!   the classic UVM agent internals;
//! * [`Agent`], [`Env`], [`Phase`], [`run_test`] — the phase machine
//!   (build → connect → run → report) for stand-alone UVM-style tests.
//!
//! The fuzzer itself drives only the [`Sequencer`] and the [`Driver`];
//! its properties are checked by `symbfuzz-props` directly.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use symbfuzz_ruvm::{Agent, Constraint, Sequencer};
//! use symbfuzz_sim::{Reentry, Simulator};
//! use symbfuzz_logic::LogicVec;
//!
//! let d = Arc::new(symbfuzz_netlist::elaborate_src(
//!     "module m(input clk, input rst_n, input [7:0] d, output logic [7:0] q);
//!        always_ff @(posedge clk or negedge rst_n)
//!          if (!rst_n) q <= 8'd0; else q <= d;
//!      endmodule", "m")?);
//! let mut sim = Simulator::new(Arc::clone(&d));
//! sim.reenter(Reentry::FullReset { cycles: 2 });
//! let mut agent = Agent::new(Arc::clone(&d), 42);
//! // Pin the whole data port to 0x5A, as a Listing-3-style constraint.
//! let dport = d.signal_by_name("d").unwrap();
//! agent.sequencer_mut().add_constraint(Constraint::fix_input(dport, LogicVec::from_u64(8, 0x5A)));
//! agent.cycle(&mut sim);
//! let q = d.signal_by_name("q").unwrap();
//! assert_eq!(sim.get(q).to_u64(), Some(0x5A));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod components;
mod item;
mod sequencer;

pub use components::{
    run_test, Agent, AnalysisPort, Driver, Env, Monitor, Observation, Phase, Subscriber, UvmTest,
};
pub use item::{Constraint, SequenceItem};
pub use sequencer::Sequencer;
