//! Lowering the elaborated netlist into flat word-level bytecode.
//!
//! The compiled simulation kernel replaces the per-step `NStmt`/`NExpr`
//! tree walk with straight-line bytecode over packed two-state words.
//! Each process body is lowered independently into a [`WordCode`]: a
//! register-allocated op sequence whose registers are plain `u64`
//! word slots and whose loads/stores address the simulator's canonical
//! `LogicVec` value table through its packed word view.
//!
//! The bytecode is only *semantically valid* while every signal the
//! code loads is fully two-state (no `X`/`Z` bit). The simulator
//! enforces that per dispatch — the per-cone "X-island" check — and
//! escapes to the four-state interpreter otherwise, so the lowering
//! here may assume definite operands throughout. Under that assumption
//! every op below is a bit-exact translation of the corresponding
//! `LogicVec` operation followed by the interpreter's `resized(width)`
//! normalisation (the `mask` fields).
//!
//! A process is *rejected* (left to the interpreter permanently) when
//! any loaded or stored signal or any expression node is wider than 64
//! bits or zero-width, when a dynamic bit index cannot be proven
//! in-range from its operand's value bound, or when an `X`/`Z`-bearing
//! constant participates in data flow (constant *case labels* with
//! unknown bits are instead elided: they can never case-match a
//! definite subject).
//!
//! Lowering performs two optimisations:
//!
//! * **constant folding** — subtrees whose operands are all constants
//!   are evaluated at compile time *with the interpreter's own
//!   `LogicVec` operations*, so folded results are trivially identical
//!   to what the tree walk would produce;
//! * **constant-branch pruning** — an `if`/`case` whose outcome is
//!   decided by constants lowers to the recorded outcome plus the taken
//!   arm only. The `Record` op is kept, so branch-coverage counters
//!   stay identical to the interpreter's.
//!
//! No cone is eliminated, so every signal stays exact and the
//! simulator keeps its bit-identical `values()` contract.

use crate::ir::{BranchId, Design, NExpr, NLValue, NStmt, ProcKind, SignalId};
use crate::sched::CombSchedule;
use symbfuzz_hdl::{BinaryOp, UnaryOp};
use symbfuzz_logic::{Bit, LogicVec};

/// The all-ones mask of a word of `width` bits (`width` ≥ 64 ⇒ all 64).
#[inline]
pub fn word_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// One bytecode instruction. Registers (`dst`/`a`/`b`/…) index the
/// VM's `u64` scratch slots; `sig` fields index the simulator's signal
/// value table; `target` fields are instruction indices.
///
/// Every value-producing op leaves `dst < 2^w` for the `w` implied by
/// its `mask`, mirroring the interpreter's `resized(width)` after each
/// expression node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `dst = val`.
    Imm { dst: u16, val: u64 },
    /// `dst =` low value word of signal `sig` (whole-signal read).
    Load { dst: u16, sig: u32 },
    /// `dst = (sig >> lo) & mask` (constant part/bit select).
    LoadPart {
        dst: u16,
        sig: u32,
        lo: u32,
        mask: u64,
    },
    /// `dst = (sig >> regs[idx]) & 1`; the index is proven in-range.
    LoadBit { dst: u16, sig: u32, idx: u16 },
    /// `dst = !a & mask` (bitwise NOT at the operand width).
    Not { dst: u16, a: u16, mask: u64 },
    /// `dst = a.wrapping_neg() & mask` (two's complement).
    Neg { dst: u16, a: u16, mask: u64 },
    /// `dst = (a == mask)` — AND-reduction over the operand width.
    RedAnd { dst: u16, a: u16, mask: u64 },
    /// `dst = (a != 0)` — OR-reduction / condition truthiness.
    RedOr { dst: u16, a: u16 },
    /// `dst = popcount(a) & 1` — XOR-reduction.
    RedXor { dst: u16, a: u16 },
    /// `dst = (a == 0)` — logical NOT / NOR-reduction.
    EqZero { dst: u16, a: u16 },
    /// `dst = a & b`.
    And { dst: u16, a: u16, b: u16 },
    /// `dst = a | b`.
    Or { dst: u16, a: u16, b: u16 },
    /// `dst = a ^ b`.
    Xor { dst: u16, a: u16, b: u16 },
    /// `dst = a & imm` — the `resized(width)` truncation.
    AndImm { dst: u16, a: u16, imm: u64 },
    /// `dst = (a + b) & mask` (wrapping at the masked width).
    Add { dst: u16, a: u16, b: u16, mask: u64 },
    /// `dst = (a - b) & mask`.
    Sub { dst: u16, a: u16, b: u16, mask: u64 },
    /// `dst = (a * b) & mask`.
    Mul { dst: u16, a: u16, b: u16, mask: u64 },
    /// `dst = (a == b)`.
    Eq { dst: u16, a: u16, b: u16 },
    /// `dst = (a != b)`.
    Ne { dst: u16, a: u16, b: u16 },
    /// `dst = (a < b)` unsigned.
    Lt { dst: u16, a: u16, b: u16 },
    /// `dst = (a <= b)` unsigned.
    Le { dst: u16, a: u16, b: u16 },
    /// `dst = regs[amt] >= w ? 0 : (a << regs[amt]) & mask`.
    Shl {
        dst: u16,
        a: u16,
        amt: u16,
        w: u32,
        mask: u64,
    },
    /// `dst = regs[amt] >= w ? 0 : (a >> regs[amt]) & mask`.
    Shr {
        dst: u16,
        a: u16,
        amt: u16,
        w: u32,
        mask: u64,
    },
    /// `dst = (a << sh) & mask`, `sh < 64` by construction.
    ShlImm {
        dst: u16,
        a: u16,
        sh: u32,
        mask: u64,
    },
    /// `dst = (a >> sh) & mask`, `sh < 64` by construction.
    ShrImm {
        dst: u16,
        a: u16,
        sh: u32,
        mask: u64,
    },
    /// `dst = c != 0 ? t : e` (both arms pre-masked to the node width).
    Mux { dst: u16, c: u16, t: u16, e: u16 },
    /// Unconditional jump.
    Jmp { target: u32 },
    /// Jump when `regs[c] == 0`.
    Jz { c: u16, target: u32 },
    /// Jump when `regs[c] != 0`.
    Jnz { c: u16, target: u32 },
    /// Record a branch outcome (coverage instrumentation).
    Record { branch: u32, outcome: u32 },
    /// Blocking full-signal store: `sig = src & mask`, definite.
    Store { sig: u32, src: u16, mask: u64 },
    /// Blocking part store of `width = popcount(mask)` bits at `lo`.
    StorePart {
        sig: u32,
        src: u16,
        lo: u32,
        mask: u64,
    },
    /// Blocking dynamic single-bit store at in-range `regs[idx]`.
    StoreBit { sig: u32, src: u16, idx: u16 },
    /// Non-blocking store of `width` bits at `lo`, committed with the
    /// interpreter's NBA queue.
    NbaStore {
        sig: u32,
        src: u16,
        lo: u32,
        width: u32,
        mask: u64,
    },
    /// Non-blocking dynamic single-bit store.
    NbaStoreBit { sig: u32, src: u16, idx: u16 },
}

/// Coarse instruction classes for profiling: every [`Op`] belongs to
/// exactly one class, so per-cone op-class histograms partition the
/// bytecode ([`WordCode::class_histogram`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Immediate constants (`Imm`).
    Const,
    /// Signal reads (`Load*`).
    Load,
    /// One-operand ALU ops, including reductions.
    Unary,
    /// Two-operand ALU ops (logic, arithmetic, comparisons).
    Binary,
    /// Shifts, dynamic and immediate.
    Shift,
    /// Conditional selects (`Mux`).
    Mux,
    /// Jumps and branch-coverage recording.
    Control,
    /// Signal writes, blocking and non-blocking.
    Store,
}

impl OpClass {
    /// Number of classes.
    pub const COUNT: usize = 8;

    /// All classes in index order.
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::Const,
        OpClass::Load,
        OpClass::Unary,
        OpClass::Binary,
        OpClass::Shift,
        OpClass::Mux,
        OpClass::Control,
        OpClass::Store,
    ];

    /// Stable lowercase name used in profiler tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Const => "const",
            OpClass::Load => "load",
            OpClass::Unary => "unary",
            OpClass::Binary => "binary",
            OpClass::Shift => "shift",
            OpClass::Mux => "mux",
            OpClass::Control => "control",
            OpClass::Store => "store",
        }
    }

    /// Index into [`OpClass::ALL`].
    pub fn index(self) -> usize {
        OpClass::ALL.iter().position(|c| *c == self).unwrap()
    }
}

impl Op {
    /// The profiling class this instruction belongs to.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Imm { .. } => OpClass::Const,
            Op::Load { .. } | Op::LoadPart { .. } | Op::LoadBit { .. } => OpClass::Load,
            Op::Not { .. }
            | Op::Neg { .. }
            | Op::RedAnd { .. }
            | Op::RedOr { .. }
            | Op::RedXor { .. }
            | Op::EqZero { .. } => OpClass::Unary,
            Op::And { .. }
            | Op::Or { .. }
            | Op::Xor { .. }
            | Op::AndImm { .. }
            | Op::Add { .. }
            | Op::Sub { .. }
            | Op::Mul { .. }
            | Op::Eq { .. }
            | Op::Ne { .. }
            | Op::Lt { .. }
            | Op::Le { .. } => OpClass::Binary,
            Op::Shl { .. } | Op::Shr { .. } | Op::ShlImm { .. } | Op::ShrImm { .. } => {
                OpClass::Shift
            }
            Op::Mux { .. } => OpClass::Mux,
            Op::Jmp { .. } | Op::Jz { .. } | Op::Jnz { .. } | Op::Record { .. } => OpClass::Control,
            Op::Store { .. }
            | Op::StorePart { .. }
            | Op::StoreBit { .. }
            | Op::NbaStore { .. }
            | Op::NbaStoreBit { .. } => OpClass::Store,
        }
    }
}

/// Compiled straight-line bytecode for one process body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordCode {
    /// Instruction sequence; executes top to bottom with explicit jumps.
    pub ops: Vec<Op>,
    /// Number of `u64` scratch registers the code uses.
    pub nregs: u16,
    /// Signals the code loads, ascending and deduplicated — the
    /// process's input cone after pruning. The simulator's X-island
    /// check requires every one of these to be two-state before
    /// dispatching the fast path.
    pub reads: Vec<SignalId>,
}

impl WordCode {
    /// Static instruction counts per [`OpClass`], in `OpClass::ALL`
    /// order. Multiplying by a cone's execution count gives the
    /// dynamic op-class mix without touching the hot loop.
    pub fn class_histogram(&self) -> [u64; OpClass::COUNT] {
        let mut hist = [0u64; OpClass::COUNT];
        for op in &self.ops {
            hist[op.class().index()] += 1;
        }
        hist
    }
}

/// Aggregate statistics from one [`compile`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Total processes in the design.
    pub processes: usize,
    /// Processes lowered to bytecode.
    pub compiled: usize,
    /// Processes left interpreted because they sit in a cyclic
    /// schedule unit (local fixpoint required).
    pub cyclic: usize,
    /// Processes rejected by the lowering restrictions.
    pub rejected: usize,
    /// Expression nodes folded to constants.
    pub folded_consts: usize,
    /// Branches reduced to a recorded outcome plus the taken arm.
    pub pruned_branches: usize,
    /// Total instructions across all compiled processes.
    pub total_ops: usize,
}

/// The compiled form of a design: per-process bytecode where lowering
/// succeeded, plus compile statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledDesign {
    /// Bytecode per process (indexed like `design.processes`); `None`
    /// where the process stays interpreted.
    pub procs: Vec<Option<WordCode>>,
    /// Lowering statistics.
    pub stats: CompileStats,
}

/// Lowers every process of `design` into word-level bytecode.
///
/// Processes inside cyclic units of `sched` are not lowered: they need
/// local fixpoint iteration (and comb-loop detection), which stays with
/// the interpreter. Rejected processes simply keep `None` — the
/// simulator falls back per process, so partial compilability degrades
/// throughput, never correctness.
pub fn compile(design: &Design, sched: &CombSchedule) -> CompiledDesign {
    let mut in_cycle = vec![false; design.processes.len()];
    for unit in sched.units.iter().filter(|u| u.cyclic) {
        for &p in &unit.procs {
            in_cycle[p as usize] = true;
        }
    }
    let mut stats = CompileStats {
        processes: design.processes.len(),
        ..CompileStats::default()
    };
    let mut procs = Vec::with_capacity(design.processes.len());
    for (i, p) in design.processes.iter().enumerate() {
        if in_cycle[i] {
            stats.cyclic += 1;
            procs.push(None);
            continue;
        }
        let mut lw = Lowerer::new(design, matches!(p.kind, ProcKind::Comb));
        match lw.lower_stmt(&p.body) {
            Ok(()) => {
                stats.compiled += 1;
                stats.folded_consts += lw.folded;
                stats.pruned_branches += lw.pruned;
                stats.total_ops += lw.ops.len();
                procs.push(Some(lw.finish()));
            }
            Err(_) => {
                stats.rejected += 1;
                procs.push(None);
            }
        }
    }
    CompiledDesign { procs, stats }
}

/// Why a process could not be lowered (internal; collapses to `None`).
struct Reject(#[allow(dead_code)] &'static str);

type R<T> = Result<T, Reject>;

#[derive(Debug, Clone, Copy)]
enum RVal {
    Imm(u64),
    Reg(u16),
}

/// A lowered expression value with its static magnitude bound:
/// `value < 2^bound`. The bound powers redundant-mask elision and the
/// in-range proofs for dynamic bit indices.
#[derive(Debug, Clone, Copy)]
struct Val {
    rv: RVal,
    bound: u32,
}

fn imm_val(v: u64) -> Val {
    Val {
        rv: RVal::Imm(v),
        bound: 64 - v.leading_zeros(),
    }
}

struct Lowerer<'a> {
    design: &'a Design,
    /// Comb processes treat non-blocking assigns as blocking,
    /// mirroring the interpreter's `blocking || comb` rule.
    is_comb: bool,
    ops: Vec<Op>,
    free: Vec<u16>,
    next: u16,
    high: u16,
    reads: Vec<SignalId>,
    folded: usize,
    pruned: usize,
}

impl<'a> Lowerer<'a> {
    fn new(design: &'a Design, is_comb: bool) -> Lowerer<'a> {
        Lowerer {
            design,
            is_comb,
            ops: Vec::new(),
            free: Vec::new(),
            next: 0,
            high: 0,
            reads: Vec::new(),
            folded: 0,
            pruned: 0,
        }
    }

    fn finish(mut self) -> WordCode {
        self.reads.sort_unstable();
        self.reads.dedup();
        WordCode {
            ops: self.ops,
            nregs: self.high,
            reads: self.reads,
        }
    }

    fn alloc(&mut self) -> u16 {
        let r = self.free.pop().unwrap_or_else(|| {
            let r = self.next;
            self.next += 1;
            r
        });
        self.high = self.high.max(self.next);
        r
    }

    fn release(&mut self, v: Val) {
        if let RVal::Reg(r) = v.rv {
            self.free.push(r);
        }
    }

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.ops[at] {
            Op::Jmp { target } | Op::Jz { target, .. } | Op::Jnz { target, .. } => *target = to,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Materialises a value into a register. The caller owns the
    /// returned register (release it via `free.push` when consumed).
    fn reg_of(&mut self, v: Val) -> u16 {
        match v.rv {
            RVal::Reg(r) => r,
            RVal::Imm(val) => {
                let dst = self.alloc();
                self.emit(Op::Imm { dst, val });
                dst
            }
        }
    }

    fn width_of(&self, e: &NExpr) -> u32 {
        match e {
            NExpr::Sig(s) => self.design.signal(*s).width,
            _ => e.width(),
        }
    }

    fn check_width(&self, w: u32) -> R<u32> {
        if w == 0 || w > 64 {
            Err(Reject("width outside 1..=64"))
        } else {
            Ok(w)
        }
    }

    /// Masks `v` down to `w` bits if its bound does not already prove
    /// the truncation redundant — the interpreter's `resized(w)`.
    fn mask_to(&mut self, v: Val, w: u32) -> Val {
        if v.bound <= w {
            return v;
        }
        match v.rv {
            RVal::Imm(x) => imm_val(x & word_mask(w)),
            RVal::Reg(a) => {
                self.free.push(a);
                let dst = self.alloc();
                self.emit(Op::AndImm {
                    dst,
                    a,
                    imm: word_mask(w),
                });
                Val {
                    rv: RVal::Reg(dst),
                    bound: w,
                }
            }
        }
    }

    /// Proof that a dynamic index register can never reach `width`:
    /// its maximum value `2^bound - 1` must stay below `width`.
    fn index_in_range(&self, idx: Val, width: u32) -> bool {
        idx.bound < 32 && (1u64 << idx.bound) <= width as u64
    }

    // ---- expressions -----------------------------------------------------

    /// Lowers `e`; the result equals the interpreter's `eval(e)` as a
    /// packed word (assuming all loaded signals are definite).
    fn lower_expr(&mut self, e: &NExpr) -> R<Val> {
        match e {
            NExpr::Const(v) => {
                self.check_width(v.width())?;
                if v.has_unknown() {
                    return Err(Reject("X/Z constant in data flow"));
                }
                Ok(imm_val(
                    v.to_u64().ok_or(Reject("const out of word range"))?,
                ))
            }
            NExpr::Sig(s) => {
                let w = self.check_width(self.design.signal(*s).width)?;
                self.reads.push(*s);
                let dst = self.alloc();
                self.emit(Op::Load { dst, sig: s.0 });
                Ok(Val {
                    rv: RVal::Reg(dst),
                    bound: w,
                })
            }
            NExpr::Unary { op, operand, width } => self.lower_unary(*op, operand, *width),
            NExpr::Binary {
                op,
                lhs,
                rhs,
                width,
            } => self.lower_binary(*op, lhs, rhs, *width),
            NExpr::Ternary {
                cond,
                then,
                els,
                width,
            } => self.lower_ternary(cond, then, els, *width),
            NExpr::BitSelect { sig, index } => {
                let sw = self.check_width(self.design.signal(*sig).width)?;
                let idx = self.lower_expr(index)?;
                self.reads.push(*sig);
                match idx.rv {
                    RVal::Imm(i) => {
                        if i >= sw as u64 {
                            // The interpreter yields X for an
                            // out-of-range constant index.
                            return Err(Reject("constant bit index out of range"));
                        }
                        let dst = self.alloc();
                        self.emit(Op::LoadPart {
                            dst,
                            sig: sig.0,
                            lo: i as u32,
                            mask: 1,
                        });
                        Ok(Val {
                            rv: RVal::Reg(dst),
                            bound: 1,
                        })
                    }
                    RVal::Reg(r) => {
                        if !self.index_in_range(idx, sw) {
                            return Err(Reject("dynamic bit index not provably in range"));
                        }
                        self.free.push(r);
                        let dst = self.alloc();
                        self.emit(Op::LoadBit {
                            dst,
                            sig: sig.0,
                            idx: r,
                        });
                        Ok(Val {
                            rv: RVal::Reg(dst),
                            bound: 1,
                        })
                    }
                }
            }
            NExpr::PartSelect { sig, lo, width } => {
                let sw = self.check_width(self.design.signal(*sig).width)?;
                let w = self.check_width(*width)?;
                if lo + w > sw {
                    return Err(Reject("part select out of range"));
                }
                self.reads.push(*sig);
                let dst = self.alloc();
                self.emit(Op::LoadPart {
                    dst,
                    sig: sig.0,
                    lo: *lo,
                    mask: word_mask(w),
                });
                Ok(Val {
                    rv: RVal::Reg(dst),
                    bound: w,
                })
            }
            NExpr::Concat { parts, width } => self.lower_concat(parts, *width),
        }
    }

    fn lower_unary(&mut self, op: UnaryOp, operand: &NExpr, width: u32) -> R<Val> {
        let wn = self.check_width(width)?;
        let wa = self.check_width(self.width_of(operand))?;
        let a = self.lower_expr(operand)?;
        if let RVal::Imm(v) = a.rv {
            // Fold with the interpreter's own LogicVec semantics.
            let lv = LogicVec::from_u64(wa, v);
            let out = match op {
                UnaryOp::LogNot => LogicVec::from_bit(!lv.to_condition()),
                UnaryOp::BitNot => !&lv,
                UnaryOp::RedAnd => LogicVec::from_bit(lv.reduce_and()),
                UnaryOp::RedOr => LogicVec::from_bit(lv.reduce_or()),
                UnaryOp::RedXor => LogicVec::from_bit(lv.reduce_xor()),
                UnaryOp::RedNand => LogicVec::from_bit(!lv.reduce_and()),
                UnaryOp::RedNor => LogicVec::from_bit(!lv.reduce_or()),
                UnaryOp::Neg => lv.neg(),
            };
            let folded = out.resized(wn).to_u64().ok_or(Reject("fold produced X"))?;
            self.folded += 1;
            return Ok(imm_val(folded));
        }
        let ra = self.reg_of(a);
        self.free.push(ra);
        let dst = self.alloc();
        let out = match op {
            UnaryOp::LogNot | UnaryOp::RedNor => {
                self.emit(Op::EqZero { dst, a: ra });
                1
            }
            UnaryOp::RedOr => {
                self.emit(Op::RedOr { dst, a: ra });
                1
            }
            UnaryOp::RedAnd => {
                self.emit(Op::RedAnd {
                    dst,
                    a: ra,
                    mask: word_mask(wa),
                });
                1
            }
            UnaryOp::RedNand => {
                self.emit(Op::RedAnd {
                    dst,
                    a: ra,
                    mask: word_mask(wa),
                });
                let d2 = dst;
                self.emit(Op::EqZero { dst: d2, a: d2 });
                1
            }
            UnaryOp::RedXor => {
                self.emit(Op::RedXor { dst, a: ra });
                1
            }
            UnaryOp::BitNot => {
                let w = wa.min(wn);
                self.emit(Op::Not {
                    dst,
                    a: ra,
                    mask: word_mask(w),
                });
                w
            }
            UnaryOp::Neg => {
                let w = wa.min(wn);
                self.emit(Op::Neg {
                    dst,
                    a: ra,
                    mask: word_mask(w),
                });
                w
            }
        };
        Ok(Val {
            rv: RVal::Reg(dst),
            bound: out,
        })
    }

    fn lower_binary(&mut self, op: BinaryOp, lhs: &NExpr, rhs: &NExpr, width: u32) -> R<Val> {
        let wn = self.check_width(width)?;
        let wa = self.check_width(self.width_of(lhs))?;
        let wb = self.check_width(self.width_of(rhs))?;
        let a = self.lower_expr(lhs)?;
        let b = self.lower_expr(rhs)?;
        if let (RVal::Imm(va), RVal::Imm(vb)) = (a.rv, b.rv) {
            let la = LogicVec::from_u64(wa, va);
            let lb = LogicVec::from_u64(wb, vb);
            let out = eval_binary_const(op, &la, &lb);
            let folded = out.resized(wn).to_u64().ok_or(Reject("fold produced X"))?;
            self.folded += 1;
            return Ok(imm_val(folded));
        }
        // Logical short-circuits on a constant side fold without
        // evaluating the other side — matching Kleene logic exactly
        // (`0 & x == 0`, `1 | x == 1` for any x, X included).
        match (op, a.rv, b.rv) {
            (BinaryOp::LogAnd, RVal::Imm(0), _) | (BinaryOp::LogAnd, _, RVal::Imm(0)) => {
                self.release(a);
                self.release(b);
                self.folded += 1;
                return Ok(imm_val(0));
            }
            (BinaryOp::LogOr, RVal::Imm(v), _) | (BinaryOp::LogOr, _, RVal::Imm(v)) if v != 0 => {
                self.release(a);
                self.release(b);
                self.folded += 1;
                return Ok(imm_val(1));
            }
            _ => {}
        }
        let m = wa.max(wb);
        let out_w = m.min(wn);
        let mask = word_mask(out_w);
        // Constant shift amounts lower to immediate shifts (or zero).
        if matches!(op, BinaryOp::Shl | BinaryOp::Shr) {
            if let RVal::Imm(n) = b.rv {
                // Shift results keep the lhs width, then resize to wn.
                let w = wa.min(wn);
                if n >= wa as u64 {
                    self.release(a);
                    return Ok(imm_val(0));
                }
                let ra = self.reg_of(a);
                self.free.push(ra);
                let dst = self.alloc();
                let opcode = if op == BinaryOp::Shl {
                    Op::ShlImm {
                        dst,
                        a: ra,
                        sh: n as u32,
                        mask: word_mask(w),
                    }
                } else {
                    Op::ShrImm {
                        dst,
                        a: ra,
                        sh: n as u32,
                        mask: word_mask(w),
                    }
                };
                self.emit(opcode);
                return Ok(Val {
                    rv: RVal::Reg(dst),
                    bound: w,
                });
            }
        }
        let ra = self.reg_of(a);
        let rb = self.reg_of(b);
        self.free.push(ra);
        self.free.push(rb);
        let dst = self.alloc();
        let bound = match op {
            BinaryOp::Add => {
                self.emit(Op::Add {
                    dst,
                    a: ra,
                    b: rb,
                    mask,
                });
                (a.bound.max(b.bound) + 1).min(out_w)
            }
            BinaryOp::Sub => {
                self.emit(Op::Sub {
                    dst,
                    a: ra,
                    b: rb,
                    mask,
                });
                out_w
            }
            BinaryOp::Mul => {
                self.emit(Op::Mul {
                    dst,
                    a: ra,
                    b: rb,
                    mask,
                });
                (a.bound.saturating_add(b.bound)).min(out_w)
            }
            BinaryOp::And => {
                self.emit(Op::And { dst, a: ra, b: rb });
                a.bound.min(b.bound)
            }
            BinaryOp::Or => {
                self.emit(Op::Or { dst, a: ra, b: rb });
                a.bound.max(b.bound)
            }
            BinaryOp::Xor => {
                self.emit(Op::Xor { dst, a: ra, b: rb });
                a.bound.max(b.bound)
            }
            BinaryOp::LogAnd | BinaryOp::LogOr => {
                // (a != 0) op (b != 0); reuse operand registers for
                // the reductions, then combine into dst.
                self.emit(Op::RedOr { dst: ra, a: ra });
                self.emit(Op::RedOr { dst: rb, a: rb });
                if op == BinaryOp::LogAnd {
                    self.emit(Op::And { dst, a: ra, b: rb });
                } else {
                    self.emit(Op::Or { dst, a: ra, b: rb });
                }
                1
            }
            BinaryOp::Eq | BinaryOp::CaseEq => {
                self.emit(Op::Eq { dst, a: ra, b: rb });
                1
            }
            BinaryOp::Ne | BinaryOp::CaseNe => {
                self.emit(Op::Ne { dst, a: ra, b: rb });
                1
            }
            BinaryOp::Lt => {
                self.emit(Op::Lt { dst, a: ra, b: rb });
                1
            }
            BinaryOp::Le => {
                self.emit(Op::Le { dst, a: ra, b: rb });
                1
            }
            BinaryOp::Gt => {
                self.emit(Op::Lt { dst, a: rb, b: ra });
                1
            }
            BinaryOp::Ge => {
                self.emit(Op::Le { dst, a: rb, b: ra });
                1
            }
            BinaryOp::Shl => {
                let w = wa.min(wn);
                self.emit(Op::Shl {
                    dst,
                    a: ra,
                    amt: rb,
                    w: wa,
                    mask: word_mask(w),
                });
                w
            }
            BinaryOp::Shr => {
                let w = wa.min(wn);
                self.emit(Op::Shr {
                    dst,
                    a: ra,
                    amt: rb,
                    w: wa,
                    mask: word_mask(w),
                });
                w
            }
        };
        let truncated = match op {
            // Bitwise results are at width m; apply the node resize if
            // it truncates below the operand bound.
            BinaryOp::And | BinaryOp::Or | BinaryOp::Xor => {
                let v = Val {
                    rv: RVal::Reg(dst),
                    bound,
                };
                self.mask_to(v, out_w)
            }
            _ => Val {
                rv: RVal::Reg(dst),
                bound,
            },
        };
        Ok(truncated)
    }

    fn lower_ternary(&mut self, cond: &NExpr, then: &NExpr, els: &NExpr, width: u32) -> R<Val> {
        let wn = self.check_width(width)?;
        let c = self.lower_expr(cond)?;
        if let RVal::Imm(v) = c.rv {
            // Definite constant condition: only the taken arm exists.
            self.folded += 1;
            let arm = if v != 0 { then } else { els };
            let val = self.lower_expr(arm)?;
            return Ok(self.mask_to(val, wn));
        }
        let t = self.lower_expr(then)?;
        let t = self.mask_to(t, wn);
        let e = self.lower_expr(els)?;
        let e = self.mask_to(e, wn);
        let rc = self.reg_of(c);
        let rt = self.reg_of(t);
        let re = self.reg_of(e);
        self.free.push(rc);
        self.free.push(rt);
        self.free.push(re);
        let dst = self.alloc();
        self.emit(Op::Mux {
            dst,
            c: rc,
            t: rt,
            e: re,
        });
        Ok(Val {
            rv: RVal::Reg(dst),
            bound: t.bound.max(e.bound),
        })
    }

    fn lower_concat(&mut self, parts: &[NExpr], width: u32) -> R<Val> {
        let wn = self.check_width(width)?;
        let total: u32 = parts.iter().map(|p| self.width_of(p)).sum();
        if total > 64 {
            return Err(Reject("concat wider than a word"));
        }
        let mut acc: Option<(Val, u32)> = None;
        for p in parts {
            let wp = self.check_width(self.width_of(p))?;
            let pv = self.lower_expr(p)?;
            acc = Some(match acc {
                None => (pv, wp),
                Some((hi, hw)) => {
                    let nw = hw + wp;
                    match (hi.rv, pv.rv) {
                        (RVal::Imm(h), RVal::Imm(l)) => (imm_val((h << wp) | l), nw),
                        _ => {
                            let rh = self.reg_of(hi);
                            self.free.push(rh);
                            let sh = self.alloc();
                            self.emit(Op::ShlImm {
                                dst: sh,
                                a: rh,
                                sh: wp,
                                mask: word_mask(nw),
                            });
                            let rl = self.reg_of(pv);
                            self.free.push(rl);
                            self.free.push(sh);
                            let dst = self.alloc();
                            self.emit(Op::Or { dst, a: sh, b: rl });
                            (
                                Val {
                                    rv: RVal::Reg(dst),
                                    bound: nw,
                                },
                                nw,
                            )
                        }
                    }
                }
            });
        }
        let (v, _) = acc.ok_or(Reject("empty concat"))?;
        Ok(self.mask_to(v, wn))
    }

    // ---- statements ------------------------------------------------------

    fn lower_stmt(&mut self, s: &NStmt) -> R<()> {
        match s {
            NStmt::Block(stmts) => {
                for st in stmts {
                    self.lower_stmt(st)?;
                }
                Ok(())
            }
            NStmt::Nop => Ok(()),
            NStmt::If {
                branch,
                cond,
                then,
                els,
            } => self.lower_if(*branch, cond, then, els.as_deref()),
            NStmt::Case {
                branch,
                subject,
                arms,
                default,
            } => self.lower_case(*branch, subject, arms, default.as_deref()),
            NStmt::Assign { lhs, rhs, blocking } => self.lower_assign(lhs, rhs, *blocking),
        }
    }

    fn lower_if(
        &mut self,
        branch: BranchId,
        cond: &NExpr,
        then: &NStmt,
        els: Option<&NStmt>,
    ) -> R<()> {
        // A constant condition — X included — decides the branch at
        // compile time: `to_condition` is One only on a definite 1
        // bit, and the interpreter takes `else` otherwise.
        if let NExpr::Const(v) = cond {
            self.pruned += 1;
            if v.to_condition() == Bit::One {
                self.emit(Op::Record {
                    branch: branch.0,
                    outcome: 0,
                });
                return self.lower_stmt(then);
            }
            self.emit(Op::Record {
                branch: branch.0,
                outcome: 1,
            });
            return match els {
                Some(e) => self.lower_stmt(e),
                None => Ok(()),
            };
        }
        let c = self.lower_expr(cond)?;
        if let RVal::Imm(v) = c.rv {
            self.pruned += 1;
            let (outcome, arm) = if v != 0 { (0, Some(then)) } else { (1, els) };
            self.emit(Op::Record {
                branch: branch.0,
                outcome,
            });
            return match arm {
                Some(a) => self.lower_stmt(a),
                None => Ok(()),
            };
        }
        let rc = self.reg_of(c);
        self.free.push(rc);
        let jz = self.emit(Op::Jz {
            c: rc,
            target: u32::MAX,
        });
        self.emit(Op::Record {
            branch: branch.0,
            outcome: 0,
        });
        self.lower_stmt(then)?;
        let jend = self.emit(Op::Jmp { target: u32::MAX });
        let else_at = self.here();
        self.patch(jz, else_at);
        self.emit(Op::Record {
            branch: branch.0,
            outcome: 1,
        });
        if let Some(e) = els {
            self.lower_stmt(e)?;
        }
        let end = self.here();
        self.patch(jend, end);
        Ok(())
    }

    fn lower_case(
        &mut self,
        branch: BranchId,
        subject: &NExpr,
        arms: &[(Vec<NExpr>, NStmt)],
        default: Option<&NStmt>,
    ) -> R<()> {
        let sw = self.check_width(self.width_of(subject))?;
        let s = self.lower_expr(subject)?;
        // Fully constant dispatch: pick the arm at compile time with
        // the interpreter's own case-equality.
        if let RVal::Imm(sv) = s.rv {
            if arms
                .iter()
                .all(|(labels, _)| labels.iter().all(|l| matches!(l, NExpr::Const(_))))
            {
                self.pruned += 1;
                let subj = LogicVec::from_u64(sw, sv);
                for (i, (labels, body)) in arms.iter().enumerate() {
                    for label in labels {
                        let NExpr::Const(lv) = label else {
                            unreachable!()
                        };
                        if subj.case_eq(lv) {
                            self.emit(Op::Record {
                                branch: branch.0,
                                outcome: i as u32,
                            });
                            return self.lower_stmt(body);
                        }
                    }
                }
                self.emit(Op::Record {
                    branch: branch.0,
                    outcome: arms.len() as u32,
                });
                return match default {
                    Some(d) => self.lower_stmt(d),
                    None => Ok(()),
                };
            }
        }
        let rs = self.reg_of(s);
        // Compare chain: first matching label jumps to its arm.
        let mut arm_jumps: Vec<(usize, usize)> = Vec::new();
        for (i, (labels, _)) in arms.iter().enumerate() {
            for label in labels {
                if let NExpr::Const(lv) = label {
                    if lv.has_unknown() {
                        // An X/Z label can never case-match the
                        // definite subject the fast path guarantees.
                        continue;
                    }
                }
                let l = self.lower_expr(label)?;
                let rl = self.reg_of(l);
                self.free.push(rl);
                let d = self.alloc();
                self.emit(Op::Eq {
                    dst: d,
                    a: rs,
                    b: rl,
                });
                let j = self.emit(Op::Jnz {
                    c: d,
                    target: u32::MAX,
                });
                self.free.push(d);
                arm_jumps.push((j, i));
            }
        }
        self.free.push(rs);
        // Fallthrough: no label matched.
        self.emit(Op::Record {
            branch: branch.0,
            outcome: arms.len() as u32,
        });
        if let Some(d) = default {
            self.lower_stmt(d)?;
        }
        let mut end_jumps = vec![self.emit(Op::Jmp { target: u32::MAX })];
        for (i, (_, body)) in arms.iter().enumerate() {
            let at = self.here();
            for &(j, _) in arm_jumps.iter().filter(|(_, a)| *a == i) {
                self.patch(j, at);
            }
            self.emit(Op::Record {
                branch: branch.0,
                outcome: i as u32,
            });
            self.lower_stmt(body)?;
            end_jumps.push(self.emit(Op::Jmp { target: u32::MAX }));
        }
        let end = self.here();
        for j in end_jumps {
            self.patch(j, end);
        }
        Ok(())
    }

    fn lower_assign(&mut self, lhs: &NLValue, rhs: &NExpr, blocking: bool) -> R<()> {
        let v = self.lower_expr(rhs)?;
        let direct = blocking || self.is_comb;
        match lhs {
            NLValue::Full(sig) => {
                let w = self.check_width(self.design.signal(*sig).width)?;
                let src = self.reg_of(v);
                self.free.push(src);
                let op = if direct {
                    Op::Store {
                        sig: sig.0,
                        src,
                        mask: word_mask(w),
                    }
                } else {
                    Op::NbaStore {
                        sig: sig.0,
                        src,
                        lo: 0,
                        width: w,
                        mask: word_mask(w),
                    }
                };
                self.emit(op);
            }
            NLValue::Part { sig, lo, width } => {
                let sw = self.check_width(self.design.signal(*sig).width)?;
                let w = self.check_width(*width)?;
                if lo + w > sw {
                    return Err(Reject("part store out of range"));
                }
                let src = self.reg_of(v);
                self.free.push(src);
                let op = if direct {
                    Op::StorePart {
                        sig: sig.0,
                        src,
                        lo: *lo,
                        mask: word_mask(w),
                    }
                } else {
                    Op::NbaStore {
                        sig: sig.0,
                        src,
                        lo: *lo,
                        width: w,
                        mask: word_mask(w),
                    }
                };
                self.emit(op);
            }
            NLValue::DynBit { sig, index } => {
                let sw = self.check_width(self.design.signal(*sig).width)?;
                let idx = self.lower_expr(index)?;
                match idx.rv {
                    RVal::Imm(i) => {
                        if i >= sw as u64 {
                            // Out-of-range constant index smears X.
                            return Err(Reject("constant store index out of range"));
                        }
                        let src = self.reg_of(v);
                        self.free.push(src);
                        let op = if direct {
                            Op::StorePart {
                                sig: sig.0,
                                src,
                                lo: i as u32,
                                mask: 1,
                            }
                        } else {
                            Op::NbaStore {
                                sig: sig.0,
                                src,
                                lo: i as u32,
                                width: 1,
                                mask: 1,
                            }
                        };
                        self.emit(op);
                    }
                    RVal::Reg(r) => {
                        if !self.index_in_range(idx, sw) {
                            return Err(Reject("dynamic store index not provably in range"));
                        }
                        let src = self.reg_of(v);
                        self.free.push(src);
                        self.free.push(r);
                        let op = if direct {
                            Op::StoreBit {
                                sig: sig.0,
                                src,
                                idx: r,
                            }
                        } else {
                            Op::NbaStoreBit {
                                sig: sig.0,
                                src,
                                idx: r,
                            }
                        };
                        self.emit(op);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Interpreter-identical constant evaluation of a binary op.
fn eval_binary_const(op: BinaryOp, a: &LogicVec, b: &LogicVec) -> LogicVec {
    match op {
        BinaryOp::Add => a.add(b),
        BinaryOp::Sub => a.sub(b),
        BinaryOp::Mul => a.mul(b),
        BinaryOp::And => a & b,
        BinaryOp::Or => a | b,
        BinaryOp::Xor => a ^ b,
        BinaryOp::LogAnd => LogicVec::from_bit(a.to_condition() & b.to_condition()),
        BinaryOp::LogOr => LogicVec::from_bit(a.to_condition() | b.to_condition()),
        BinaryOp::Eq => LogicVec::from_bit(a.logic_eq(b)),
        BinaryOp::Ne => LogicVec::from_bit(!a.logic_eq(b)),
        BinaryOp::CaseEq => LogicVec::from_bit(Bit::from_bool(a.case_eq(b))),
        BinaryOp::CaseNe => LogicVec::from_bit(Bit::from_bool(!a.case_eq(b))),
        BinaryOp::Lt => LogicVec::from_bit(a.ult(b)),
        BinaryOp::Le => LogicVec::from_bit(a.ule(b)),
        BinaryOp::Gt => LogicVec::from_bit(b.ult(a)),
        BinaryOp::Ge => LogicVec::from_bit(b.ule(a)),
        BinaryOp::Shl => a.shl_vec(b),
        BinaryOp::Shr => a.lshr_vec(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate_src;
    use crate::sched::comb_schedule;

    fn compiled(src: &str, top: &str) -> (Design, CompiledDesign) {
        let d = elaborate_src(src, top).unwrap();
        let sched = comb_schedule(&d);
        let c = compile(&d, &sched);
        (d, c)
    }

    #[test]
    fn simple_designs_fully_compile() {
        let (_, c) = compiled(
            "module m(input clk, input rst_n, input [7:0] d, output logic [7:0] q, output [7:0] y);
               assign y = d ^ 8'hA5;
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 8'd0; else q <= q + 8'd1;
             endmodule",
            "m",
        );
        assert_eq!(c.stats.processes, 2);
        assert_eq!(c.stats.compiled, 2);
        assert_eq!(c.stats.rejected, 0);
        assert!(c.stats.total_ops > 0);
        assert!(c.procs.iter().all(|p| p.is_some()));
        // Seq process: non-blocking stores appear.
        assert!(c
            .procs
            .iter()
            .flatten()
            .any(|wc| wc.ops.iter().any(|op| matches!(op, Op::NbaStore { .. }))));
    }

    #[test]
    fn op_classes_partition_the_bytecode() {
        let (d, c) = compiled(
            "module m(input clk, input rst_n, input [7:0] d, output logic [7:0] q, output [7:0] y);
               assign y = d ^ 8'hA5;
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 8'd0; else q <= q + 8'd1;
             endmodule",
            "m",
        );
        for wc in c.procs.iter().flatten() {
            let hist = wc.class_histogram();
            // Every instruction lands in exactly one class.
            assert_eq!(hist.iter().sum::<u64>(), wc.ops.len() as u64);
            // Any executable cone ends in at least one store.
            assert!(hist[OpClass::Store.index()] >= 1);
        }
        assert_eq!(OpClass::ALL.len(), OpClass::COUNT);
        for (i, cl) in OpClass::ALL.iter().enumerate() {
            assert_eq!(cl.index(), i);
        }
        // Class names are unique (they key JSON objects).
        let mut names: Vec<&str> = OpClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OpClass::COUNT);
        // Cone labels name the written signal, per process.
        let labels: Vec<String> = (0..d.processes.len()).map(|i| d.proc_label(i)).collect();
        assert!(labels.contains(&"y".to_string()), "{labels:?}");
        assert!(labels.contains(&"q".to_string()), "{labels:?}");
        assert_eq!(d.proc_label(99), "proc99");
    }

    #[test]
    fn wide_signals_are_rejected_not_miscompiled() {
        let (_, c) = compiled(
            "module m(input [95:0] a, input [95:0] b, output [95:0] y, output [3:0] z);
               assign y = a & b;
               assign z = 4'd3;
             endmodule",
            "m",
        );
        assert_eq!(c.stats.rejected, 1);
        assert_eq!(c.stats.compiled, 1);
    }

    #[test]
    fn constant_folding_collapses_to_imm_store() {
        let (_, c) = compiled(
            "module m(output [7:0] y);
               assign y = 8'd2 + 8'd3 * 8'd4;
             endmodule",
            "m",
        );
        assert!(c.stats.folded_consts >= 2);
        let wc = c.procs[0].as_ref().unwrap();
        assert!(wc
            .ops
            .iter()
            .any(|op| matches!(op, Op::Imm { val: 14, .. })));
        assert!(!wc.ops.iter().any(|op| matches!(op, Op::Add { .. })));
        assert!(wc.reads.is_empty());
    }

    #[test]
    fn constant_branch_prunes_but_keeps_record() {
        let (_, c) = compiled(
            "module m(input [3:0] d, output logic [3:0] y);
               always_comb
                 if (1'b1) y = d; else y = 4'd0;
             endmodule",
            "m",
        );
        assert_eq!(c.stats.pruned_branches, 1);
        let wc = c.procs[0].as_ref().unwrap();
        assert!(wc
            .ops
            .iter()
            .any(|op| matches!(op, Op::Record { outcome: 0, .. })));
        assert!(!wc.ops.iter().any(|op| matches!(op, Op::Jz { .. })));
    }

    #[test]
    fn unprovable_dynamic_index_is_rejected() {
        // A 5-bit index into a 20-bit vector can reach 31: unprovable.
        let (_, c) = compiled(
            "module m(input [4:0] i, input [19:0] d, output logic o);
               always_comb o = d[i];
             endmodule",
            "m",
        );
        assert_eq!(c.stats.rejected, 1);
        // A 4-bit index into a 16-bit vector is always in range.
        let (_, c) = compiled(
            "module m(input [3:0] i, input [15:0] d, output logic o);
               always_comb o = d[i];
             endmodule",
            "m",
        );
        assert_eq!(c.stats.compiled, 1);
        let wc = c.procs[0].as_ref().unwrap();
        assert!(wc.ops.iter().any(|op| matches!(op, Op::LoadBit { .. })));
    }

    #[test]
    fn register_slots_are_reused() {
        let (_, c) = compiled(
            "module m(input [7:0] a, input [7:0] b, input [7:0] d, output [7:0] y);
               assign y = (a + b) ^ (a - b) ^ (d & a) ^ (d | b);
             endmodule",
            "m",
        );
        let wc = c.procs[0].as_ref().unwrap();
        // Free-list allocation keeps the register file small even for
        // a chain of eight operand loads.
        assert!(wc.nregs <= 4, "nregs = {}", wc.nregs);
    }

    #[test]
    fn x_case_labels_are_elided() {
        let (_, c) = compiled(
            "module m(input [1:0] sel, output logic [3:0] y);
               always_comb
                 case (sel)
                   2'b0x: y = 4'd9;
                   2'd2:  y = 4'd2;
                   default: y = 4'd0;
                 endcase
             endmodule",
            "m",
        );
        assert_eq!(c.stats.compiled, 1);
        let wc = c.procs[0].as_ref().unwrap();
        // One live label comparison (2'd2); the X label is gone.
        assert_eq!(
            wc.ops
                .iter()
                .filter(|op| matches!(op, Op::Eq { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn cyclic_units_stay_interpreted() {
        let (_, c) = compiled(
            "module m(input a, output y);
               wire t;
               assign t = a ? !y : 1'b0;
               assign y = t;
             endmodule",
            "m",
        );
        assert!(c.stats.cyclic >= 2);
        assert!(c.procs.iter().all(|p| p.is_none()));
    }
}
