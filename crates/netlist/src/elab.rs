//! Elaboration: AST → flat [`Design`].

use crate::ir::*;
use std::collections::HashMap;
use std::fmt;
use symbfuzz_hdl as hdl;
use symbfuzz_hdl::{
    AlwaysKind, BinaryOp, Direction, Expr, Item, LValue, Module, SourceFile, Stmt, UnaryOp,
};
use symbfuzz_logic::LogicVec;

/// Error produced during elaboration (unresolved names, width
/// mismatches, non-constant bounds, unsupported constructs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabError {
    msg: String,
}

impl ElabError {
    fn new(msg: impl Into<String>) -> ElabError {
        ElabError { msg: msg.into() }
    }
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "elaboration error: {}", self.msg)
    }
}

impl std::error::Error for ElabError {}

/// Unroll bound for `for` loops (a generous cap; real loops in the
/// benchmark RTL iterate over register arrays of at most a few dozen
/// entries).
const MAX_LOOP_ITERATIONS: usize = 1024;

/// Elaborates `top` (and, recursively, every module it instantiates)
/// into a flat [`Design`].
///
/// Port connections written as plain identifiers are aliased (the child
/// port shares the parent's [`SignalId`]); expression connections
/// synthesise glue processes.
///
/// # Errors
///
/// Returns [`ElabError`] for unknown modules/signals, non-constant
/// ranges, out-of-range selects, or width-incompatible aliases.
///
/// # Examples
///
/// ```
/// let file = symbfuzz_hdl::parse(
///     "module m(input a, output y); assign y = !a; endmodule")?;
/// let d = symbfuzz_netlist::elaborate(&file, "m")?;
/// assert_eq!(d.processes.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn elaborate(file: &SourceFile, top: &str) -> Result<Design, ElabError> {
    let mut e = Elab {
        file,
        design: Design::default(),
    };
    e.design.name = top.to_string();
    let module = file
        .module(top)
        .ok_or_else(|| ElabError::new(format!("unknown top module `{top}`")))?;
    e.module(module, "", &HashMap::new(), None)?;
    e.mark_registers();
    Ok(e.design)
}

/// Parses `src` and elaborates `top`, recording the source line count in
/// [`Design::source_loc`] (used by the Table 3 statistics).
///
/// # Errors
///
/// Propagates parse and elaboration errors.
pub fn elaborate_src(src: &str, top: &str) -> Result<Design, ElabError> {
    let file = hdl::parse(src).map_err(|e| ElabError::new(e.to_string()))?;
    let mut d = elaborate(&file, top)?;
    d.source_loc = src.lines().filter(|l| !l.trim().is_empty()).count() as u32;
    Ok(d)
}

/// Per-instance elaboration scope.
struct Scope {
    prefix: String,
    /// Parameters, localparams and enum variants.
    consts: HashMap<String, LogicVec>,
    /// typedef name → (width, variant count).
    enums: HashMap<String, (u32, u64)>,
    /// Local name → flat signal (includes aliased ports).
    signals: HashMap<String, SignalId>,
}

/// How an instance port is connected from the parent side.
enum Conn {
    Alias(SignalId),
    InExpr(NExpr),
    OutLv(NLValue),
}

struct Elab<'a> {
    file: &'a SourceFile,
    design: Design,
}

impl<'a> Elab<'a> {
    fn add_signal(
        &mut self,
        name: String,
        width: u32,
        kind: SignalKind,
    ) -> Result<SignalId, ElabError> {
        if self.design.by_name.contains_key(&name) {
            return Err(ElabError::new(format!("duplicate signal `{name}`")));
        }
        let id = SignalId(self.design.signals.len() as u32);
        self.design.signals.push(Signal {
            name: name.clone(),
            width,
            kind,
            is_register: false,
            is_clock: false,
            is_reset: false,
            legal_encodings: None,
        });
        self.design.by_name.insert(name, id);
        Ok(id)
    }

    fn module(
        &mut self,
        module: &Module,
        prefix: &str,
        param_overrides: &HashMap<String, LogicVec>,
        port_conns: Option<&HashMap<String, Conn>>,
    ) -> Result<(), ElabError> {
        let mut scope = Scope {
            prefix: prefix.to_string(),
            consts: HashMap::new(),
            enums: HashMap::new(),
            signals: HashMap::new(),
        };

        // Parameters (defaults overridden by the instantiation).
        for p in &module.params {
            let v = match param_overrides.get(&p.name) {
                Some(v) => v.clone(),
                None => self.const_value(&p.value, &scope)?,
            };
            self.design
                .consts
                .insert(format!("{prefix}{}", p.name), v.clone());
            scope.consts.insert(p.name.clone(), v);
        }

        // Ports.
        for port in &module.ports {
            let width = self.port_width(module, port, &scope)?;
            let flat = format!("{prefix}{}", port.name);
            let conn = port_conns.and_then(|c| c.get(&port.name));
            match conn {
                Some(Conn::Alias(parent)) => {
                    let pw = self.design.signal(*parent).width;
                    if pw != width {
                        return Err(ElabError::new(format!(
                            "width mismatch on port `{flat}`: port is {width} bits, connection is {pw}"
                        )));
                    }
                    scope.signals.insert(port.name.clone(), *parent);
                }
                _ => {
                    let kind = if prefix.is_empty() {
                        match port.dir {
                            Direction::Input => SignalKind::Input,
                            Direction::Output => SignalKind::Output,
                        }
                    } else {
                        SignalKind::Internal
                    };
                    let id = self.add_signal(flat.clone(), width, kind)?;
                    scope.signals.insert(port.name.clone(), id);
                    match (conn, port.dir) {
                        (Some(Conn::InExpr(expr)), Direction::Input) => {
                            self.design.processes.push(Process::new(
                                ProcKind::Comb,
                                NStmt::Assign {
                                    lhs: NLValue::Full(id),
                                    rhs: expr.clone(),
                                    blocking: true,
                                },
                                prefix.to_string(),
                            ));
                        }
                        (Some(Conn::OutLv(lv)), Direction::Output) => {
                            self.design.processes.push(Process::new(
                                ProcKind::Comb,
                                NStmt::Assign {
                                    lhs: lv.clone(),
                                    rhs: NExpr::Sig(id),
                                    blocking: true,
                                },
                                prefix.to_string(),
                            ));
                        }
                        (Some(_), _) => {
                            return Err(ElabError::new(format!(
                                "connection direction mismatch on port `{flat}`"
                            )));
                        }
                        (None, _) => {}
                    }
                }
            }
        }

        // Pass 1: declarations.
        for item in &module.items {
            match item {
                Item::Typedef(t) => {
                    let width = match &t.range {
                        Some(r) => self.range_width(r, &scope)?,
                        None => (64 - (t.variants.len() as u64).saturating_sub(1).leading_zeros())
                            .max(1),
                    };
                    let mut next = 0u64;
                    for (vname, vexpr) in &t.variants {
                        let value = match vexpr {
                            Some(e) => self.const_u64(e, &scope)?,
                            None => next,
                        };
                        next = value + 1;
                        let lv = LogicVec::from_u64(width, value);
                        self.design
                            .consts
                            .insert(format!("{prefix}{vname}"), lv.clone());
                        scope.consts.insert(vname.clone(), lv);
                    }
                    scope
                        .enums
                        .insert(t.name.clone(), (width, t.variants.len() as u64));
                }
                Item::Localparam(p) => {
                    let v = self.const_value(&p.value, &scope)?;
                    self.design
                        .consts
                        .insert(format!("{prefix}{}", p.name), v.clone());
                    scope.consts.insert(p.name.clone(), v);
                }
                Item::Net(n) => {
                    let (width, legal) = match (&n.type_name, &n.range) {
                        (Some(tn), _) => {
                            let (w, count) = *scope.enums.get(tn).ok_or_else(|| {
                                ElabError::new(format!("unknown type `{tn}` in `{prefix}`"))
                            })?;
                            (w, Some(count))
                        }
                        (None, Some(r)) => (self.range_width(r, &scope)?, None),
                        (None, None) => (1, None),
                    };
                    for name in &n.names {
                        let id = self.add_signal(
                            format!("{prefix}{name}"),
                            width,
                            SignalKind::Internal,
                        )?;
                        self.design.signals[id.index()].legal_encodings = legal;
                        scope.signals.insert(name.clone(), id);
                    }
                }
                _ => {}
            }
        }

        // Ports declared with a typedef name get their enum legal count.
        for port in &module.ports {
            if let Some(tn) = &port.type_name {
                if let Some((_, count)) = scope.enums.get(tn) {
                    let id = scope.signals[&port.name];
                    self.design.signals[id.index()].legal_encodings = Some(*count);
                }
            }
        }

        // Pass 2: behaviour.
        for item in &module.items {
            match item {
                Item::Assign { lhs, rhs } => {
                    let lv = self.lvalue(lhs, &scope)?;
                    let rhs = self.expr(rhs, &scope)?;
                    self.design.processes.push(Process::new(
                        ProcKind::Comb,
                        NStmt::Assign {
                            lhs: lv,
                            rhs,
                            blocking: true,
                        },
                        prefix.to_string(),
                    ));
                }
                Item::Always(a) => {
                    let kind = match &a.kind {
                        AlwaysKind::Comb => ProcKind::Comb,
                        AlwaysKind::Ff { clock, reset } => {
                            let clk = self.resolve_signal(&clock.signal, &scope)?;
                            self.design.signals[clk.index()].is_clock = true;
                            let rst = match reset {
                                Some(r) => {
                                    let rid = self.resolve_signal(&r.signal, &scope)?;
                                    self.design.signals[rid.index()].is_reset = true;
                                    Some((rid, r.edge))
                                }
                                None => None,
                            };
                            ProcKind::Seq {
                                clock: clk,
                                clock_edge: clock.edge,
                                reset: rst,
                            }
                        }
                    };
                    let body = self.stmt(&a.body, &scope)?;
                    self.design
                        .processes
                        .push(Process::new(kind, body, prefix.to_string()));
                }
                Item::Instance(inst) => {
                    let child = self
                        .file
                        .module(&inst.module)
                        .ok_or_else(|| ElabError::new(format!("unknown module `{}`", inst.module)))?
                        .clone();
                    let mut overrides = HashMap::new();
                    for (pname, pexpr) in &inst.params {
                        overrides.insert(pname.clone(), self.const_value(pexpr, &scope)?);
                    }
                    let mut conns: HashMap<String, Conn> = HashMap::new();
                    for (port_name, cexpr) in &inst.conns {
                        let port = child.port(port_name).ok_or_else(|| {
                            ElabError::new(format!(
                                "module `{}` has no port `{port_name}`",
                                inst.module
                            ))
                        })?;
                        let conn = match (cexpr, port.dir) {
                            (Expr::Ident(name), _) if scope.signals.contains_key(name) => {
                                Conn::Alias(scope.signals[name])
                            }
                            (_, Direction::Input) => Conn::InExpr(self.expr(cexpr, &scope)?),
                            (_, Direction::Output) => {
                                let lv = self.expr_as_lvalue(cexpr, &scope)?;
                                Conn::OutLv(lv)
                            }
                        };
                        conns.insert(port_name.clone(), conn);
                    }
                    let child_prefix = format!("{prefix}{}.", inst.name);
                    self.module(&child, &child_prefix, &overrides, Some(&conns))?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn mark_registers(&mut self) {
        let mut regs = Vec::new();
        for p in &self.design.processes {
            if matches!(p.kind, ProcKind::Seq { .. }) {
                regs.extend(p.writes.iter().copied());
            }
        }
        for r in regs {
            self.design.signals[r.index()].is_register = true;
        }
    }

    fn port_width(
        &self,
        _module: &Module,
        port: &hdl::PortDecl,
        scope: &Scope,
    ) -> Result<u32, ElabError> {
        if let Some(tn) = &port.type_name {
            // Enum typedefs are declared in the body, which we have not
            // visited yet on the first use; scan the items directly.
            if let Some((w, _)) = scope.enums.get(tn) {
                return Ok(*w);
            }
            return Err(ElabError::new(format!(
                "port `{}` uses type `{tn}` declared after the port list (unsupported)",
                port.name
            )));
        }
        match &port.range {
            Some(r) => self.range_width(r, scope),
            None => Ok(1),
        }
    }

    fn range_width(&self, r: &hdl::Range, scope: &Scope) -> Result<u32, ElabError> {
        let msb = self.const_i64(&r.msb, scope)?;
        let lsb = self.const_i64(&r.lsb, scope)?;
        if lsb != 0 || msb < lsb {
            return Err(ElabError::new(format!(
                "unsupported range [{msb}:{lsb}] (must be [N:0])"
            )));
        }
        Ok((msb - lsb + 1) as u32)
    }

    fn resolve_signal(&self, name: &str, scope: &Scope) -> Result<SignalId, ElabError> {
        scope
            .signals
            .get(name)
            .copied()
            .ok_or_else(|| ElabError::new(format!("unknown signal `{}{name}`", scope.prefix)))
    }

    // ---- constants ---------------------------------------------------------

    fn const_value(&self, expr: &Expr, scope: &Scope) -> Result<LogicVec, ElabError> {
        match expr {
            Expr::Literal(text) => {
                LogicVec::parse_literal(text).map_err(|e| ElabError::new(e.to_string()))
            }
            Expr::Ident(name) => scope
                .consts
                .get(name)
                .cloned()
                .ok_or_else(|| ElabError::new(format!("`{name}` is not a constant"))),
            _ => {
                let v = self.const_i64(expr, scope)?;
                Ok(LogicVec::from_u64(32, v as u64))
            }
        }
    }

    fn const_u64(&self, expr: &Expr, scope: &Scope) -> Result<u64, ElabError> {
        Ok(self.const_i64(expr, scope)? as u64)
    }

    fn const_i64(&self, expr: &Expr, scope: &Scope) -> Result<i64, ElabError> {
        match expr {
            Expr::Literal(text) => {
                let v = LogicVec::parse_literal(text).map_err(|e| ElabError::new(e.to_string()))?;
                v.to_u64().map(|x| x as i64).ok_or_else(|| {
                    ElabError::new(format!("literal `{text}` is not a defined constant"))
                })
            }
            Expr::Ident(name) => {
                let v = scope
                    .consts
                    .get(name)
                    .ok_or_else(|| ElabError::new(format!("`{name}` is not a constant")))?;
                v.to_u64()
                    .map(|x| x as i64)
                    .ok_or_else(|| ElabError::new(format!("constant `{name}` contains x/z")))
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.const_i64(lhs, scope)?;
                let b = self.const_i64(rhs, scope)?;
                Ok(match op {
                    BinaryOp::Add => a + b,
                    BinaryOp::Sub => a - b,
                    BinaryOp::Mul => a * b,
                    BinaryOp::Shl => a << b,
                    BinaryOp::Shr => a >> b,
                    BinaryOp::Lt => (a < b) as i64,
                    BinaryOp::Le => (a <= b) as i64,
                    BinaryOp::Gt => (a > b) as i64,
                    BinaryOp::Ge => (a >= b) as i64,
                    BinaryOp::Eq => (a == b) as i64,
                    BinaryOp::Ne => (a != b) as i64,
                    _ => {
                        return Err(ElabError::new(
                            "non-constant operator in constant expression",
                        ))
                    }
                })
            }
            Expr::Unary {
                op: UnaryOp::Neg,
                operand,
            } => Ok(-self.const_i64(operand, scope)?),
            _ => Err(ElabError::new("expression is not constant")),
        }
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&self, expr: &Expr, scope: &Scope) -> Result<NExpr, ElabError> {
        Ok(match expr {
            Expr::Literal(text) => NExpr::Const(
                LogicVec::parse_literal(text).map_err(|e| ElabError::new(e.to_string()))?,
            ),
            Expr::Ident(name) => {
                if let Some(id) = scope.signals.get(name) {
                    NExpr::Sig(*id)
                } else if let Some(v) = scope.consts.get(name) {
                    NExpr::Const(v.clone())
                } else {
                    return Err(ElabError::new(format!(
                        "unknown identifier `{}{name}`",
                        scope.prefix
                    )));
                }
            }
            Expr::Unary { op, operand } => {
                let inner = self.expr(operand, scope)?;
                let width = match op {
                    UnaryOp::BitNot | UnaryOp::Neg => self.width_of(&inner),
                    _ => 1,
                };
                NExpr::Unary {
                    op: *op,
                    operand: Box::new(inner),
                    width,
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.expr(lhs, scope)?;
                let r = self.expr(rhs, scope)?;
                let width = match op {
                    BinaryOp::Add
                    | BinaryOp::Sub
                    | BinaryOp::Mul
                    | BinaryOp::And
                    | BinaryOp::Or
                    | BinaryOp::Xor => self.width_of(&l).max(self.width_of(&r)),
                    BinaryOp::Shl | BinaryOp::Shr => self.width_of(&l),
                    _ => 1,
                };
                NExpr::Binary {
                    op: *op,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                    width,
                }
            }
            Expr::Ternary { cond, then, els } => {
                let c = self.expr(cond, scope)?;
                let t = self.expr(then, scope)?;
                let e = self.expr(els, scope)?;
                let width = self.width_of(&t).max(self.width_of(&e));
                NExpr::Ternary {
                    cond: Box::new(c),
                    then: Box::new(t),
                    els: Box::new(e),
                    width,
                }
            }
            Expr::BitSelect { base, index } => {
                let sig = self.resolve_signal(base, scope)?;
                match self.const_i64(index, scope) {
                    Ok(i) => {
                        let w = self.design.signal(sig).width;
                        if i < 0 || i as u32 >= w {
                            return Err(ElabError::new(format!(
                                "bit index {i} out of range for `{base}` (width {w})"
                            )));
                        }
                        NExpr::PartSelect {
                            sig,
                            lo: i as u32,
                            width: 1,
                        }
                    }
                    Err(_) => NExpr::BitSelect {
                        sig,
                        index: Box::new(self.expr(index, scope)?),
                    },
                }
            }
            Expr::PartSelect { base, msb, lsb } => {
                let sig = self.resolve_signal(base, scope)?;
                let msb = self.const_i64(msb, scope)?;
                let lsb = self.const_i64(lsb, scope)?;
                let w = self.design.signal(sig).width;
                if lsb < 0 || msb < lsb || msb as u32 >= w {
                    return Err(ElabError::new(format!(
                        "part select [{msb}:{lsb}] out of range for `{base}` (width {w})"
                    )));
                }
                NExpr::PartSelect {
                    sig,
                    lo: lsb as u32,
                    width: (msb - lsb + 1) as u32,
                }
            }
            Expr::Concat(parts) => {
                let parts: Vec<NExpr> = parts
                    .iter()
                    .map(|p| self.expr(p, scope))
                    .collect::<Result<_, _>>()?;
                let width = parts.iter().map(|p| self.width_of(p)).sum();
                NExpr::Concat { parts, width }
            }
            Expr::Replicate { count, value } => {
                let n = self.const_i64(count, scope)?;
                if n <= 0 {
                    return Err(ElabError::new("replication count must be positive"));
                }
                let inner = self.expr(value, scope)?;
                let width = self.width_of(&inner) * n as u32;
                NExpr::Concat {
                    parts: vec![inner; n as usize],
                    width,
                }
            }
        })
    }

    fn width_of(&self, e: &NExpr) -> u32 {
        match e {
            NExpr::Sig(s) => self.design.signal(*s).width,
            other => other.width(),
        }
    }

    fn lvalue(&self, lv: &LValue, scope: &Scope) -> Result<NLValue, ElabError> {
        match lv {
            LValue::Ident(name) => Ok(NLValue::Full(self.resolve_signal(name, scope)?)),
            LValue::BitSelect { base, index } => {
                let sig = self.resolve_signal(base, scope)?;
                match self.const_i64(index, scope) {
                    Ok(i) => {
                        let w = self.design.signal(sig).width;
                        if i < 0 || i as u32 >= w {
                            return Err(ElabError::new(format!(
                                "bit index {i} out of range for `{base}` (width {w})"
                            )));
                        }
                        Ok(NLValue::Part {
                            sig,
                            lo: i as u32,
                            width: 1,
                        })
                    }
                    Err(_) => Ok(NLValue::DynBit {
                        sig,
                        index: self.expr(index, scope)?,
                    }),
                }
            }
            LValue::PartSelect { base, msb, lsb } => {
                let sig = self.resolve_signal(base, scope)?;
                let msb = self.const_i64(msb, scope)?;
                let lsb = self.const_i64(lsb, scope)?;
                let w = self.design.signal(sig).width;
                if lsb < 0 || msb < lsb || msb as u32 >= w {
                    return Err(ElabError::new(format!(
                        "part select [{msb}:{lsb}] out of range for `{base}` (width {w})"
                    )));
                }
                Ok(NLValue::Part {
                    sig,
                    lo: lsb as u32,
                    width: (msb - lsb + 1) as u32,
                })
            }
        }
    }

    fn expr_as_lvalue(&self, e: &Expr, scope: &Scope) -> Result<NLValue, ElabError> {
        let lv = match e {
            Expr::Ident(name) => LValue::Ident(name.clone()),
            Expr::BitSelect { base, index } => LValue::BitSelect {
                base: base.clone(),
                index: index.clone(),
            },
            Expr::PartSelect { base, msb, lsb } => LValue::PartSelect {
                base: base.clone(),
                msb: msb.clone(),
                lsb: lsb.clone(),
            },
            other => {
                return Err(ElabError::new(format!(
                    "output port connection must be assignable, got {other:?}"
                )))
            }
        };
        self.lvalue(&lv, scope)
    }

    // ---- statements ---------------------------------------------------------

    fn stmt(&mut self, s: &Stmt, scope: &Scope) -> Result<NStmt, ElabError> {
        Ok(match s {
            Stmt::Block { stmts, .. } => NStmt::Block(
                stmts
                    .iter()
                    .map(|s| self.stmt(s, scope))
                    .collect::<Result<_, _>>()?,
            ),
            Stmt::If { cond, then, els } => {
                let c = self.expr(cond, scope)?;
                let branch = self.add_branch(BranchKind::If, 2, &c, scope);
                NStmt::If {
                    branch,
                    cond: c,
                    then: Box::new(self.stmt(then, scope)?),
                    els: match els {
                        Some(e) => Some(Box::new(self.stmt(e, scope)?)),
                        None => None,
                    },
                }
            }
            Stmt::Case {
                subject,
                arms,
                default,
                ..
            } => {
                let subj = self.expr(subject, scope)?;
                let outcomes = arms.len() as u32 + default.is_some() as u32;
                let branch = self.add_branch(BranchKind::Case, outcomes, &subj, scope);
                let mut narms = Vec::new();
                for arm in arms {
                    let labels = arm
                        .labels
                        .iter()
                        .map(|l| self.expr(l, scope))
                        .collect::<Result<_, _>>()?;
                    narms.push((labels, self.stmt(&arm.body, scope)?));
                }
                NStmt::Case {
                    branch,
                    subject: subj,
                    arms: narms,
                    default: match default {
                        Some(d) => Some(Box::new(self.stmt(d, scope)?)),
                        None => None,
                    },
                }
            }
            Stmt::Assign { lhs, rhs, blocking } => NStmt::Assign {
                lhs: self.lvalue(lhs, scope)?,
                rhs: self.expr(rhs, scope)?,
                blocking: *blocking,
            },
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                // Constant-bound unrolling: the loop variable becomes a
                // per-iteration constant in a child scope.
                let mut i = self.const_i64(init, scope)?;
                let mut unrolled = Vec::new();
                let mut iter_scope = Scope {
                    prefix: scope.prefix.clone(),
                    consts: scope.consts.clone(),
                    enums: scope.enums.clone(),
                    signals: scope.signals.clone(),
                };
                for count in 0..=MAX_LOOP_ITERATIONS {
                    if count == MAX_LOOP_ITERATIONS {
                        return Err(ElabError::new(format!(
                            "for-loop over `{var}` exceeds {MAX_LOOP_ITERATIONS} iterations"
                        )));
                    }
                    iter_scope
                        .consts
                        .insert(var.clone(), LogicVec::from_u64(32, i as u64));
                    let keep = self.const_i64(cond, &iter_scope)?;
                    if keep == 0 {
                        break;
                    }
                    unrolled.push(self.stmt(body, &iter_scope)?);
                    i = self.const_i64(step, &iter_scope)?;
                }
                NStmt::Block(unrolled)
            }
            Stmt::Nop => NStmt::Nop,
        })
    }

    fn add_branch(
        &mut self,
        kind: BranchKind,
        outcomes: u32,
        cond: &NExpr,
        scope: &Scope,
    ) -> BranchId {
        let mut cond_signals = Vec::new();
        cond.collect_reads(&mut cond_signals);
        cond_signals.sort_unstable();
        cond_signals.dedup();
        let id = BranchId(self.design.branches.len() as u32);
        self.design.branches.push(BranchInfo {
            kind,
            outcomes,
            cond_signals,
            scope: scope.prefix.clone(),
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbfuzz_hdl::parse;

    fn elab(src: &str, top: &str) -> Design {
        elaborate(&parse(src).unwrap(), top).unwrap()
    }

    #[test]
    fn simple_module_signals_and_processes() {
        let d = elab(
            "module m(input a, input b, output y); assign y = a & b; endmodule",
            "m",
        );
        assert_eq!(d.signals.len(), 3);
        assert_eq!(d.processes.len(), 1);
        assert_eq!(d.inputs().count(), 2);
        assert_eq!(d.outputs().count(), 1);
    }

    #[test]
    fn register_and_clock_classification() {
        let d = elab(
            "module m(input clk, input rst_n, input d, output logic q);
               always_ff @(posedge clk or negedge rst_n)
                 if (!rst_n) q <= 1'b0; else q <= d;
             endmodule",
            "m",
        );
        let clk = d.signal_by_name("clk").unwrap();
        let rst = d.signal_by_name("rst_n").unwrap();
        let q = d.signal_by_name("q").unwrap();
        assert!(d.signal(clk).is_clock);
        assert!(d.signal(rst).is_reset);
        assert!(d.signal(q).is_register);
        assert_eq!(d.fuzzable_inputs().count(), 1); // only `d`
        assert_eq!(d.fuzz_width(), 1);
    }

    #[test]
    fn parameters_resolve_widths() {
        let d = elab(
            "module m #(parameter W = 8)(input [W-1:0] a, output [W-1:0] y);
               assign y = a + 8'd1;
             endmodule",
            "m",
        );
        assert_eq!(d.signal(d.signal_by_name("a").unwrap()).width, 8);
    }

    #[test]
    fn enum_typedef_sets_legal_encodings() {
        let d = elab(
            "module m(input clk, input [2:0] op, output logic [2:0] o);
               typedef enum logic [2:0] {A = 0, B = 1, C = 2} st_t;
               st_t s;
               always_ff @(posedge clk) s <= op;
               always_comb o = s;
             endmodule",
            "m",
        );
        let s = d.signal_by_name("s").unwrap();
        assert_eq!(d.signal(s).width, 3);
        assert_eq!(d.signal(s).legal_encodings, Some(3));
        assert!(d.signal(s).is_register);
    }

    #[test]
    fn hierarchy_flattens_with_aliases() {
        let d = elab(
            "module sub(input clk, input d, output logic q);
               always_ff @(posedge clk) q <= d;
             endmodule
             module top(input clk, input d, output q);
               sub u0 (.clk(clk), .d(d), .q(q));
             endmodule",
            "top",
        );
        // Aliased connections reuse parent signals: only 3 signals total.
        assert_eq!(d.signals.len(), 3);
        let q = d.signal_by_name("q").unwrap();
        assert!(d.signal(q).is_register);
        assert!(d.signal(d.signal_by_name("clk").unwrap()).is_clock);
    }

    #[test]
    fn expression_connections_create_glue() {
        let d = elab(
            "module sub(input [3:0] d, output [3:0] q);
               assign q = d;
             endmodule
             module top(input [3:0] a, output [3:0] y);
               wire [3:0] t;
               sub u0 (.d(a + 4'd1), .q(t));
               assign y = t;
             endmodule",
            "top",
        );
        // The expression-connected input gets its own child-scope signal;
        // the identifier-connected output is aliased onto `t`.
        assert!(d.signal_by_name("u0.d").is_some());
        assert!(d.signal_by_name("u0.q").is_none());
        // glue in + child assign + top assign = 3 processes.
        assert_eq!(d.processes.len(), 3);
    }

    #[test]
    fn branches_are_catalogued() {
        let d = elab(
            "module m(input [1:0] s, input c, output logic [1:0] y);
               always_comb begin
                 if (c) y = 2'd0;
                 else begin
                   case (s)
                     2'd0: y = 2'd1;
                     2'd1: y = 2'd2;
                     default: y = 2'd3;
                   endcase
                 end
               end
             endmodule",
            "m",
        );
        assert_eq!(d.branches.len(), 2);
        assert_eq!(d.branches[0].kind, BranchKind::If);
        assert_eq!(d.branches[0].outcomes, 2);
        assert_eq!(d.branches[1].kind, BranchKind::Case);
        assert_eq!(d.branches[1].outcomes, 3);
        let s = d.signal_by_name("s").unwrap();
        assert_eq!(d.branches[1].cond_signals, vec![s]);
    }

    #[test]
    fn parameter_overrides_propagate() {
        let d = elab(
            "module sub #(parameter W = 2)(input [W-1:0] d, output [W-1:0] q);
               assign q = d;
             endmodule
             module top(input [7:0] a, output [7:0] y);
               sub #(.W(8)) u0 (.d(a), .q(y));
             endmodule",
            "top",
        );
        // `a` aliased into u0.d: width must match the overridden 8.
        assert_eq!(d.signal(d.signal_by_name("a").unwrap()).width, 8);
    }

    #[test]
    fn errors_are_reported() {
        let file = parse("module m(input a, output y); assign y = missing; endmodule").unwrap();
        assert!(elaborate(&file, "m").is_err());
        assert!(elaborate(&file, "nope").is_err());
        let bad_width = parse(
            "module s(input [3:0] d, output [3:0] q); assign q = d; endmodule
             module t(input [7:0] a, output [7:0] y); s u(.d(a), .q(y)); endmodule",
        )
        .unwrap();
        assert!(elaborate(&bad_width, "t").is_err());
    }

    #[test]
    fn part_select_bounds_checked() {
        let file = parse("module m(input [3:0] a, output y); assign y = a[7]; endmodule").unwrap();
        assert!(elaborate(&file, "m").is_err());
    }

    #[test]
    fn for_loops_unroll_at_elaboration() {
        let d = elab(
            "module m(input clk, input rst_n, input we, input [7:0] wdata,
                      output logic [7:0] q);
               always_ff @(posedge clk or negedge rst_n) begin
                 if (!rst_n) q <= 8'd0;
                 else begin
                   for (int i = 0; i < 8; i = i + 1) begin
                     if (we) q[i] <= wdata[i];
                   end
                 end
               end
             endmodule",
            "m",
        );
        // The loop body contains one `if (we)` branch per unrolled
        // iteration (plus the reset if): 9 branches total.
        assert_eq!(d.branches.len(), 9);
    }

    #[test]
    fn runaway_for_loops_are_rejected() {
        let file = parse(
            "module m(input a, output logic y);
               always_comb begin
                 for (int i = 0; i < 10000; i = i + 1) y = a;
               end
             endmodule",
        )
        .unwrap();
        assert!(elaborate(&file, "m").is_err());
    }

    #[test]
    fn source_loc_recorded() {
        let d = elaborate_src(
            "module m(input a, output y);\n  assign y = a;\nendmodule\n",
            "m",
        )
        .unwrap();
        assert_eq!(d.source_loc, 3);
    }
}
