//! Elaboration of parsed HDL into a flat netlist IR.
//!
//! This crate is the analogue of the Pyverilog-based analysis stage of
//! the SymbFuzz paper (§4.1–§4.4): it flattens the module hierarchy,
//! resolves parameters and enum typedefs, computes signal widths,
//! extracts the I/O interface, builds the *reset distribution tree*
//! (§4.3), and classifies registers into control and data registers
//! (§4.4.1) — control registers being those that appear in a branch
//! predicate or case head and therefore steer the design through its
//! control-flow graph.
//!
//! The output [`Design`] is consumed by the simulator
//! (`symbfuzz-sim`), the symbolic executor (`symbfuzz-symexec`) and the
//! coverage model (`symbfuzz-cfgx`).
//!
//! # Examples
//!
//! ```
//! let src = "module m(input clk, input rst_n, input [3:0] d, output logic [3:0] q);
//!              always_ff @(posedge clk or negedge rst_n)
//!                if (!rst_n) q <= 4'd0; else q <= d;
//!            endmodule";
//! let file = symbfuzz_hdl::parse(src)?;
//! let design = symbfuzz_netlist::elaborate(&file, "m")?;
//! assert_eq!(design.inputs().count(), 3);
//! assert!(design.signal_by_name("q").is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod analysis;
mod compile;
mod elab;
mod ir;
mod sched;

pub use analysis::{classify_registers, reset_tree, DesignStats, RegClass, ResetTree};
pub use compile::{compile, word_mask, CompileStats, CompiledDesign, Op, OpClass, WordCode};
pub use elab::{elaborate, elaborate_src, ElabError};
pub use ir::*;
pub use sched::{comb_schedule, CombSchedule, SchedUnit};
