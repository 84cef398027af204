//! Flat netlist intermediate representation.

use std::collections::HashMap;
use std::fmt;
use symbfuzz_hdl::{BinaryOp, Edge, UnaryOp};
use symbfuzz_logic::LogicVec;

/// Index of a signal in a [`Design`]'s signal table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub u32);

impl SignalId {
    /// The table index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Index of a branch (an `if` or `case`) in a [`Design`]'s branch table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BranchId(pub u32);

impl BranchId {
    /// The table index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// How a signal connects to the outside or is driven inside the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalKind {
    /// Top-level input port, driven by the testbench.
    Input,
    /// Top-level output port.
    Output,
    /// Internal net or variable.
    Internal,
}

/// A signal in the flattened design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signal {
    /// Hierarchical name, e.g. `u_core.state`.
    pub name: String,
    /// Bit width.
    pub width: u32,
    /// Port/internal classification.
    pub kind: SignalKind,
    /// Written by a sequential process (state-holding element).
    pub is_register: bool,
    /// Used as a clock in some sensitivity list.
    pub is_clock: bool,
    /// Used as an asynchronous reset in some sensitivity list.
    pub is_reset: bool,
    /// For enum-typed signals, the number of *legal* encodings
    /// (`n_j` in the paper's Eqn. 3); `None` for plain vectors where all
    /// `2^width` encodings are legal.
    pub legal_encodings: Option<u64>,
}

/// An elaborated expression: identifiers resolved, constants folded,
/// widths computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NExpr {
    /// A constant value.
    Const(LogicVec),
    /// A whole-signal read.
    Sig(SignalId),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<NExpr>,
        /// Result width.
        width: u32,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<NExpr>,
        /// Right operand.
        rhs: Box<NExpr>,
        /// Result width.
        width: u32,
    },
    /// `cond ? then : els` (operands resized to `width`).
    Ternary {
        /// Condition (reduced to one bit).
        cond: Box<NExpr>,
        /// Value when the condition is true.
        then: Box<NExpr>,
        /// Value when the condition is false.
        els: Box<NExpr>,
        /// Result width.
        width: u32,
    },
    /// Dynamic single-bit select `sig[index]`.
    BitSelect {
        /// Selected signal.
        sig: SignalId,
        /// Index expression.
        index: Box<NExpr>,
    },
    /// Constant part select `sig[lo +: width]`.
    PartSelect {
        /// Selected signal.
        sig: SignalId,
        /// Low bit.
        lo: u32,
        /// Selected width.
        width: u32,
    },
    /// Concatenation; element 0 is the most significant part.
    Concat {
        /// Parts, most significant first.
        parts: Vec<NExpr>,
        /// Total width.
        width: u32,
    },
}

impl NExpr {
    /// The width of the value this expression produces.
    pub fn width(&self) -> u32 {
        match self {
            NExpr::Const(v) => v.width(),
            NExpr::Sig(_) => panic!("NExpr::Sig width requires the design; use Design::expr_width"),
            NExpr::Unary { width, .. }
            | NExpr::Binary { width, .. }
            | NExpr::Ternary { width, .. }
            | NExpr::Concat { width, .. }
            | NExpr::PartSelect { width, .. } => *width,
            NExpr::BitSelect { .. } => 1,
        }
    }

    /// Collects every signal read by this expression into `out`.
    pub fn collect_reads(&self, out: &mut Vec<SignalId>) {
        match self {
            NExpr::Const(_) => {}
            NExpr::Sig(s) => out.push(*s),
            NExpr::Unary { operand, .. } => operand.collect_reads(out),
            NExpr::Binary { lhs, rhs, .. } => {
                lhs.collect_reads(out);
                rhs.collect_reads(out);
            }
            NExpr::Ternary {
                cond, then, els, ..
            } => {
                cond.collect_reads(out);
                then.collect_reads(out);
                els.collect_reads(out);
            }
            NExpr::BitSelect { sig, index } => {
                out.push(*sig);
                index.collect_reads(out);
            }
            NExpr::PartSelect { sig, .. } => out.push(*sig),
            NExpr::Concat { parts, .. } => {
                for p in parts {
                    p.collect_reads(out);
                }
            }
        }
    }
}

/// An elaborated assignment target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NLValue {
    /// Whole signal.
    Full(SignalId),
    /// Constant bit range `sig[lo +: width]`.
    Part {
        /// Assigned signal.
        sig: SignalId,
        /// Low bit.
        lo: u32,
        /// Assigned width.
        width: u32,
    },
    /// Dynamic single bit `sig[index]`.
    DynBit {
        /// Assigned signal.
        sig: SignalId,
        /// Index expression.
        index: NExpr,
    },
}

impl NLValue {
    /// The signal this lvalue (partially) writes.
    pub fn sig(&self) -> SignalId {
        match self {
            NLValue::Full(s) => *s,
            NLValue::Part { sig, .. } | NLValue::DynBit { sig, .. } => *sig,
        }
    }
}

/// An elaborated statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NStmt {
    /// Statement sequence.
    Block(Vec<NStmt>),
    /// Two-way branch. `branch` indexes [`Design::branches`].
    If {
        /// Branch table entry.
        branch: BranchId,
        /// Condition, reduced to one bit at evaluation.
        cond: NExpr,
        /// Taken branch.
        then: Box<NStmt>,
        /// Else branch, if any.
        els: Option<Box<NStmt>>,
    },
    /// Multi-way branch. `branch` indexes [`Design::branches`].
    Case {
        /// Branch table entry.
        branch: BranchId,
        /// Scrutinised expression.
        subject: NExpr,
        /// Arms: (labels, body). Labels are compared with case equality.
        arms: Vec<(Vec<NExpr>, NStmt)>,
        /// Default body, if any.
        default: Option<Box<NStmt>>,
    },
    /// Assignment; `blocking` selects `=` vs `<=` semantics.
    Assign {
        /// Target.
        lhs: NLValue,
        /// Source expression.
        rhs: NExpr,
        /// `true` for blocking.
        blocking: bool,
    },
    /// No-op.
    Nop,
}

impl NStmt {
    fn collect_rw(&self, reads: &mut Vec<SignalId>, writes: &mut Vec<SignalId>) {
        match self {
            NStmt::Block(stmts) => {
                for s in stmts {
                    s.collect_rw(reads, writes);
                }
            }
            NStmt::If {
                cond, then, els, ..
            } => {
                cond.collect_reads(reads);
                then.collect_rw(reads, writes);
                if let Some(e) = els {
                    e.collect_rw(reads, writes);
                }
            }
            NStmt::Case {
                subject,
                arms,
                default,
                ..
            } => {
                subject.collect_reads(reads);
                for (labels, body) in arms {
                    for l in labels {
                        l.collect_reads(reads);
                    }
                    body.collect_rw(reads, writes);
                }
                if let Some(d) = default {
                    d.collect_rw(reads, writes);
                }
            }
            NStmt::Assign { lhs, rhs, .. } => {
                rhs.collect_reads(reads);
                if let NLValue::DynBit { index, .. } = lhs {
                    index.collect_reads(reads);
                }
                writes.push(lhs.sig());
            }
            NStmt::Nop => {}
        }
    }
}

/// The flavour of a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcKind {
    /// Combinational: re-evaluated until fixpoint every delta cycle.
    Comb,
    /// Sequential: evaluated at a clock edge.
    Seq {
        /// Clock signal.
        clock: SignalId,
        /// Triggering clock edge.
        clock_edge: Edge,
        /// Asynchronous reset (signal, active edge), if declared.
        reset: Option<(SignalId, Edge)>,
    },
}

/// A process: one `always` block or one continuous assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Process {
    /// Comb vs. seq.
    pub kind: ProcKind,
    /// Elaborated body.
    pub body: NStmt,
    /// Signals read anywhere in the body (deduplicated).
    pub reads: Vec<SignalId>,
    /// Signals written anywhere in the body (deduplicated).
    pub writes: Vec<SignalId>,
    /// Hierarchical prefix of the instance this process came from
    /// (empty for the top module).
    pub scope: String,
}

impl Process {
    /// Builds a process, deriving the read/write sets from `body`.
    pub fn new(kind: ProcKind, body: NStmt, scope: String) -> Process {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        body.collect_rw(&mut reads, &mut writes);
        reads.sort_unstable();
        reads.dedup();
        writes.sort_unstable();
        writes.dedup();
        Process {
            kind,
            body,
            reads,
            writes,
            scope,
        }
    }
}

/// Why a branch exists, for diagnostics and coverage naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// An `if`/`else`.
    If,
    /// A `case` statement.
    Case,
}

/// Static description of a branch point — the unit of the paper's
/// edge-coverage model (§4.6): each *outcome* of each branch is a
/// potential CFG edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchInfo {
    /// `if` vs `case`.
    pub kind: BranchKind,
    /// Number of distinct outcomes: 2 for `if`, `#arms (+1 if default)`
    /// for `case`.
    pub outcomes: u32,
    /// Signals read by the predicate / case head.
    pub cond_signals: Vec<SignalId>,
    /// Hierarchical scope the branch belongs to.
    pub scope: String,
}

/// A flattened, elaborated design.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Design {
    /// Top module name.
    pub name: String,
    /// Signal table; indexed by [`SignalId`].
    pub signals: Vec<Signal>,
    /// All processes (continuous assignments become comb processes).
    pub processes: Vec<Process>,
    /// Branch table; indexed by [`BranchId`].
    pub branches: Vec<BranchInfo>,
    /// Source line count of the original HDL (for Table 3).
    pub source_loc: u32,
    /// Named constants visible for property evaluation: parameters,
    /// localparams and enum variants, keyed by hierarchical name
    /// (top-level names unprefixed).
    pub consts: HashMap<String, LogicVec>,
    pub(crate) by_name: HashMap<String, SignalId>,
}

impl Design {
    /// Looks up a signal id by hierarchical name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    /// The signal record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.index()]
    }

    /// A human-readable label for process `i` — the logic cone's name
    /// in profiler tables. Named after the first signal the process
    /// writes (already hierarchical for sub-instances), falling back
    /// to `proc<i>` for a process with no writes or an out-of-range
    /// index. Deterministic: derived purely from the elaborated IR.
    pub fn proc_label(&self, i: usize) -> String {
        self.processes
            .get(i)
            .and_then(|p| p.writes.first())
            .map(|&w| self.signal(w).name.clone())
            .unwrap_or_else(|| format!("proc{i}"))
    }

    /// Iterates over top-level input ports (including clocks/resets).
    pub fn inputs(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == SignalKind::Input)
            .map(|(i, _)| SignalId(i as u32))
    }

    /// Iterates over top-level output ports.
    pub fn outputs(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == SignalKind::Output)
            .map(|(i, _)| SignalId(i as u32))
    }

    /// Iterates over state-holding signals (registers).
    pub fn registers(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_register)
            .map(|(i, _)| SignalId(i as u32))
    }

    /// Free-running input ports: inputs that are neither clocks nor
    /// resets — the bits the fuzzer controls each cycle.
    pub fn fuzzable_inputs(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.inputs()
            .filter(|id| !self.signal(*id).is_clock && !self.signal(*id).is_reset)
    }

    /// Total fuzzable input width in bits.
    pub fn fuzz_width(&self) -> u32 {
        self.fuzzable_inputs().map(|id| self.signal(id).width).sum()
    }
}
