//! Control-flow-graph coverage model.
//!
//! SymbFuzz redefines coverage "in terms of control-register
//! interaction tuples" (§3, §4.6): a CFG *node* is one assignment of
//! values to the design's control registers (the Cartesian product of
//! Eqn. 3 bounds the node population), an *edge* is an observed
//! transition between two nodes, and coverage is the set of exercised
//! `⟨edge ID, node⟩` tuples. Nodes whose observed fanout reaches the
//! checkpoint threshold (≥ 3 outgoing edges, §4.5) are *checkpoints*;
//! for every node the [`Cfg`] also records the input-word sequence that
//! first reached it from reset, so the fuzzer can replay its way back
//! to a checkpoint instead of re-randomising from scratch.
//!
//! Those paths are stored once: every input word on some node's path
//! is one position in a trie the nodes share, and a node records only
//! the position where its path ends. A rollback moves the trie's
//! cursor, a path's length is a depth, and ancestry is a walk up the
//! few node-owned positions above a node. Node keys are the control
//! registers' bit planes packed into 64-bit words.
//!
//! The same structure powers the stagnation detector of Algorithm 1
//! (lines 13–22): [`Cfg::observe`] reports whether anything new was
//! covered, and the caller counts quiet intervals against the
//! threshold `Th`.
//!
//! Every first-seen node and edge is additionally stamped with a
//! [`Provenance`] record — the vector index, generating mechanism
//! (constrained-random, solver-guided with its goal id, or replay
//! prefix after a partial reset) and the active checkpoint — so a
//! campaign can attribute each coverage point to the mechanism that
//! earned it (the `covmap` artifact and `covreport` bin build on
//! this).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use symbfuzz_cfgx::{Cfg, Provenance};
//! use symbfuzz_logic::LogicVec;
//!
//! let d = Arc::new(symbfuzz_netlist::elaborate_src(
//!     "module m(input clk, input rst_n, input go, output logic [1:0] st);
//!        always_ff @(posedge clk or negedge rst_n)
//!          if (!rst_n) st <= 2'd0;
//!          else begin
//!            // `st` steers a branch, making it a control register.
//!            if (st != 2'd3 && go) st <= st + 2'd1;
//!          end
//!      endmodule", "m")?);
//! let ctrl = symbfuzz_netlist::classify_registers(&d).control;
//! let st = d.signal_by_name("st").unwrap();
//! assert_eq!(ctrl, vec![st]);
//! let mut cfg = Cfg::new(Arc::clone(&d), ctrl);
//! // Observe states 0 → 1 → 2 (frames carry the full value table).
//! let mut frame: Vec<LogicVec> =
//!     d.signals.iter().map(|s| LogicVec::zeros(s.width)).collect();
//! for v in 0..3 {
//!     frame[st.index()] = LogicVec::from_u64(2, v);
//!     cfg.observe(&frame, &LogicVec::from_u64(1, 1), v, Provenance::random(v));
//! }
//! assert_eq!(cfg.node_count(), 3);
//! assert_eq!(cfg.edge_count(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cfg;
mod trie;

pub use cfg::{Cfg, EdgeRec, NodeId, ObserveOutcome, Provenance};
