//! Security-property language and runtime checker.
//!
//! SymbFuzz detects bugs not by golden-model comparison but as
//! violations of SystemVerilog-assertion-style *security properties*
//! bound to the design (§4.9). The properties in the paper (Listings
//! 5–32) live in the boolean layer of SVA plus a handful of sampled
//! functions; this crate implements exactly that fragment:
//!
//! * boolean/bit operators, comparisons, ternary, bit/part selects;
//! * overlapping `|->` and non-overlapping `|=>` implication;
//! * `$past(expr[, n])`, `$isunknown(expr)`, `$stable(expr)`,
//!   `$rose(expr)`, `$fell(expr)`;
//! * design constants (enum variants, parameters) by name.
//!
//! A property is checked every clock cycle against the simulator's
//! current values and a ring of past values of just the signals it
//! reads in earlier cycles; a failure produces a [`Violation`] with the
//! cycle number, which the fuzzer logs into its bug report
//! (Algorithm 1, lines 23–25).
//!
//! A property holds when it evaluates to true *or* is vacuous (an
//! implication whose antecedent is false, or a `$past` reaching before
//! cycle 0). An `X` result is treated as a violation only for
//! properties that demand definedness via `!$isunknown(...)`; plain
//! boolean results of `X` are conservatively reported as violations
//! (four-state pessimism: an assertion that cannot be shown to hold has
//! failed).
//!
//! # Examples
//!
//! ```
//! use symbfuzz_props::Property;
//!
//! let d = symbfuzz_netlist::elaborate_src(
//!     "module m(input clk, input rst_n, input en, output logic busy);
//!        always_ff @(posedge clk or negedge rst_n)
//!          if (!rst_n) busy <= 1'b0; else busy <= en;
//!      endmodule", "m")?;
//! // \"if busy rose, en must have been high on the previous cycle\"
//! let p = Property::parse("busy_cause", "$rose(busy) |-> $past(en)", &d)?;
//! assert_eq!(p.name(), "busy_cause");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod ast;
mod checker;
mod parser;

pub use ast::{PExpr, Property};
pub use checker::{PropertyChecker, Violation};
pub use parser::PropError;
