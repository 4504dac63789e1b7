//! Stack-based bytecode VM for scalar expressions.
//!
//! [`Program::compile`] lowers an [`Expr`] against a [`Schema`] into a
//! flat op sequence behind one `Arc`: column references resolve to row
//! indices (the per-row `index_of` string lookups of the recursive
//! walker disappear), function arities are checked once, column-free
//! subtrees constant-fold via [`fold`], and Kleene `AND`/`OR` and
//! `if()` short-circuits compile to jumps. A reusable [`Vm`] executes a
//! program over rows with a pre-sized value stack, no recursion, and no
//! per-row heap allocation for non-text values (text moves by `Arc`
//! refcount).
//!
//! The recursive [`Expr::eval`] stays as the semantic *oracle*: on every
//! row a compiled program reproduces its result — value or error,
//! including evaluation order of side conditions — and the property
//! suite holds the two byte-identical. Both engines call the same
//! scalar kernels (`bin_scalar`, `eval_func`, `between_scalar`, …) so
//! they cannot drift. Compilation is total: an unknown column or a
//! wrong-arity call compiles to an op that raises the walker's exact
//! error when evaluation reaches it, and only then — a never-taken
//! branch may hold one, as the walker never looks there. No caller has
//! anything to fall back from.
//!
//! The columnar kernels ([`crate::column::kernel::CompiledPredicate`])
//! are the *vectorized* backend of the same front end: both lower the
//! [`fold`]-normalized tree, one to stack ops, one to bitmask kernels.

use std::sync::Arc;

use bi_types::{Schema, Value};

use crate::error::RelationError;

use super::{BinOp, Expr, Func};

/// One bytecode instruction. Operands index the constant pool or are
/// absolute jump targets; the stack discipline is fixed at compile time.
#[derive(Debug, Clone)]
enum Op {
    /// Push `row[i]` (the column reference, pre-resolved).
    Col(u32),
    /// Push constant-pool entry `i`.
    Const(u32),
    /// Kleene NOT of the top value.
    Not,
    /// Arithmetic negation of the top value.
    Neg,
    /// Replace the top value with `IS NULL` (never NULL itself).
    IsNull,
    /// Non-logical binary operator over the top two values.
    Bin(BinOp),
    /// Fused `row[l] <op> consts[r]`: both operands are pre-resolved
    /// leaves, so neither is staged (or cloned) on the stack.
    BinColConst(BinOp, u32, u32),
    /// Fused `row[l] <op> row[r]`.
    BinColCol(BinOp, u32, u32),
    /// Fused `top <op> consts[i]`: replaces the top of the stack in
    /// place, skipping the constant push/pop round-trip.
    BinTopConst(BinOp, u32),
    /// Fused `top <op> row[i]`, likewise in place.
    BinTopCol(BinOp, u32),
    /// Function call over the top `n` values (never `Func::If`, which
    /// compiles to jumps).
    Call(Func, usize),
    /// Membership test of the top value against prepared list `i`.
    InList(u32),
    /// `BETWEEN` over the top three values (`e`, `lo`, `hi`).
    Between,
    /// Kleene AND probe: the top value must be Bool or NULL (a non-bool
    /// errors *before* the right side runs, like the oracle); when it
    /// is FALSE, jump to `target` leaving FALSE as the result.
    AndProbe(u32),
    /// Kleene OR probe: jump when the top value is TRUE.
    OrProbe(u32),
    /// Merge the two logic operands left on the stack (Kleene table).
    Logic(BinOp),
    /// Pop the `if()` condition; fall through into the then-branch when
    /// it is TRUE, else jump to `target` (the else-branch). The untaken
    /// branch is never executed, so it may even divide by zero.
    IfProbe(u32),
    /// Unconditional jump (end of a then-branch).
    Jump(u32),
    /// Raise error-pool entry `i`: an unknown column, or a call with the
    /// wrong number of arguments, reached by evaluation.
    Fail(u32),
}

/// An `IN`-list from the constant pool with its NULL-membership
/// precomputed (`x IN (a, NULL)` is UNKNOWN when `x ≠ a`).
#[derive(Debug)]
struct ListPool {
    items: Vec<Value>,
    has_null: bool,
}

/// The shared constant pool of a program.
#[derive(Debug, Default)]
struct Pool {
    consts: Vec<Value>,
    lists: Vec<ListPool>,
    /// The walker's errors for the nodes that cannot run ([`Op::Fail`]).
    errors: Vec<RelationError>,
}

/// A compiled expression: ops + constant pool behind `Arc`s, so clones
/// are refcount bumps and one compilation serves any number of threads.
#[derive(Debug, Clone)]
pub struct Program {
    ops: Arc<Vec<Op>>,
    pool: Arc<Pool>,
    stack_need: usize,
}

impl Program {
    /// Compiles `e` against `schema`: constant-folds, resolves columns
    /// to row indices, checks arities, and lowers short-circuits to
    /// jumps. Total: an unknown column, or a call with the wrong number
    /// of arguments, becomes an op that raises the walker's error where
    /// the walker would — only on rows whose evaluation reaches it.
    pub fn compile(e: &Expr, schema: &Schema) -> Program {
        Program::lower(&fold(e), schema)
    }

    /// Lowers an already-folded tree.
    fn lower(e: &Expr, schema: &Schema) -> Program {
        let mut c = Compiler {
            ops: Vec::new(),
            pool: Pool::default(),
            schema,
        };
        let stack_need = c.emit(e);
        Program {
            ops: Arc::new(c.ops),
            pool: Arc::new(c.pool),
            stack_need,
        }
    }

    /// Number of instructions (diagnostic).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program has no instructions (never happens for a
    /// compiled expression; kept for `len` symmetry).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The value-stack depth a [`Vm`] needs for this program.
    pub fn stack_need(&self) -> usize {
        self.stack_need
    }

    /// One-shot evaluation (allocates a fresh [`Vm`]; loops should hold
    /// their own `Vm` and call [`Vm::run`]).
    pub fn eval_row(&self, row: &[Value]) -> Result<Value, RelationError> {
        Vm::new().run(self, row)
    }
}

/// A reusable interpreter: one value stack, grown once per program and
/// reused across rows. Not `Sync` — each worker thread holds its own.
#[derive(Debug, Default)]
pub struct Vm {
    stack: Vec<Value>,
}

#[cold]
fn corrupt() -> RelationError {
    RelationError::Internal {
        message: "expression VM stack underflow",
    }
}

impl Vm {
    /// A fresh interpreter with an empty stack.
    pub fn new() -> Vm {
        Vm { stack: Vec::new() }
    }

    #[inline]
    fn pop(&mut self) -> Result<Value, RelationError> {
        self.stack.pop().ok_or_else(corrupt)
    }

    /// Runs `p` against one row. `row` must have the shape of the
    /// schema the program was compiled against (tables guarantee this).
    pub fn run(&mut self, p: &Program, row: &[Value]) -> Result<Value, RelationError> {
        self.stack.clear();
        self.stack.reserve(p.stack_need);
        let ops: &[Op] = &p.ops;
        let pool: &Pool = &p.pool;
        let mut pc = 0usize;
        while let Some(op) = ops.get(pc) {
            match op {
                Op::Col(i) => {
                    let v = row.get(*i as usize).ok_or_else(corrupt)?;
                    self.stack.push(v.clone());
                }
                Op::Const(i) => {
                    let v = pool.consts.get(*i as usize).ok_or_else(corrupt)?;
                    self.stack.push(v.clone());
                }
                Op::Not => {
                    let v = self.pop()?;
                    self.stack.push(super::not_value(v)?);
                }
                Op::Neg => {
                    let v = self.pop()?;
                    self.stack.push(super::neg_value(v)?);
                }
                Op::IsNull => {
                    let v = self.pop()?;
                    self.stack.push(Value::Bool(v.is_null()));
                }
                Op::Bin(op) => {
                    let rv = self.pop()?;
                    let lv = self.pop()?;
                    self.stack.push(super::bin_scalar(*op, &lv, &rv)?);
                }
                Op::BinColConst(op, l, r) => {
                    let lv = row.get(*l as usize).ok_or_else(corrupt)?;
                    let rv = pool.consts.get(*r as usize).ok_or_else(corrupt)?;
                    self.stack.push(super::bin_scalar(*op, lv, rv)?);
                }
                Op::BinColCol(op, l, r) => {
                    let lv = row.get(*l as usize).ok_or_else(corrupt)?;
                    let rv = row.get(*r as usize).ok_or_else(corrupt)?;
                    self.stack.push(super::bin_scalar(*op, lv, rv)?);
                }
                Op::BinTopConst(op, i) => {
                    let rv = pool.consts.get(*i as usize).ok_or_else(corrupt)?;
                    let lv = self.stack.last_mut().ok_or_else(corrupt)?;
                    let v = super::bin_scalar(*op, lv, rv)?;
                    *lv = v;
                }
                Op::BinTopCol(op, i) => {
                    let rv = row.get(*i as usize).ok_or_else(corrupt)?;
                    let lv = self.stack.last_mut().ok_or_else(corrupt)?;
                    let v = super::bin_scalar(*op, lv, rv)?;
                    *lv = v;
                }
                Op::Call(f, n) => {
                    let start = self.stack.len().checked_sub(*n).ok_or_else(corrupt)?;
                    let v = super::eval_func(*f, &self.stack[start..])?;
                    self.stack.truncate(start);
                    self.stack.push(v);
                }
                Op::InList(i) => {
                    let v = self.pop()?;
                    let lp = pool.lists.get(*i as usize).ok_or_else(corrupt)?;
                    self.stack
                        .push(super::in_list_value(&v, &lp.items, lp.has_null));
                }
                Op::Between => {
                    let hi = self.pop()?;
                    let lo = self.pop()?;
                    let v = self.pop()?;
                    self.stack.push(super::between_scalar(&v, &lo, &hi)?);
                }
                Op::AndProbe(target) => {
                    let v = self.stack.last().ok_or_else(corrupt)?;
                    if !v.is_null() && !v.as_bool()? {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::OrProbe(target) => {
                    let v = self.stack.last().ok_or_else(corrupt)?;
                    if !v.is_null() && v.as_bool()? {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::Logic(op) => {
                    let rv = self.pop()?;
                    let lv = self.pop()?;
                    self.stack.push(super::logic_merge(*op, &lv, &rv)?);
                }
                Op::IfProbe(target) => {
                    let cond = self.pop()?;
                    if cond.is_null() || !cond.as_bool()? {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::Jump(target) => {
                    pc = *target as usize;
                    continue;
                }
                Op::Fail(i) => {
                    return Err(pool
                        .errors
                        .get(*i as usize)
                        .map_or_else(corrupt, Clone::clone));
                }
            }
            pc += 1;
        }
        let out = self.pop()?;
        debug_assert!(self.stack.is_empty(), "program left values on the stack");
        Ok(out)
    }
}

/// The compiler: walks the (folded) tree once, emitting ops and
/// computing the exact peak stack depth.
struct Compiler<'a> {
    ops: Vec<Op>,
    pool: Pool,
    schema: &'a Schema,
}

impl Compiler<'_> {
    /// Interns `v` in the constant pool.
    fn konst(&mut self, v: Value) -> u32 {
        let consts = &mut self.pool.consts;
        if let Some(i) = consts.iter().position(|c| c == &v) {
            return i as u32;
        }
        consts.push(v);
        (consts.len() - 1) as u32
    }

    /// The row index of `e` when it is a column the schema resolves.
    fn column(&self, e: &Expr) -> Option<u32> {
        match e {
            Expr::Col(name) => self.schema.index_of(name).ok().map(|i| i as u32),
            _ => None,
        }
    }

    /// Emits a node that raises `err` when evaluation reaches it.
    fn fail(&mut self, err: RelationError) -> usize {
        self.pool.errors.push(err);
        self.ops.push(Op::Fail((self.pool.errors.len() - 1) as u32));
        1
    }

    /// Back-patches the jump target of the probe at `at`.
    fn patch(&mut self, at: usize, target: u32) {
        if let Some(op) = self.ops.get_mut(at) {
            match op {
                Op::AndProbe(t) | Op::OrProbe(t) | Op::IfProbe(t) | Op::Jump(t) => *t = target,
                _ => debug_assert!(false, "patched a non-jump op"),
            }
        }
    }

    /// Emits code for `e`; returns the peak stack depth of the emitted
    /// fragment (relative to its own entry).
    fn emit(&mut self, e: &Expr) -> usize {
        match e {
            Expr::Col(name) => match self.schema.index_of(name) {
                Ok(i) => {
                    self.ops.push(Op::Col(i as u32));
                    1
                }
                Err(err) => self.fail(err.into()),
            },
            Expr::Lit(v) => {
                let i = self.konst(v.clone());
                self.ops.push(Op::Const(i));
                1
            }
            Expr::Not(x) => {
                let n = self.emit(x);
                self.ops.push(Op::Not);
                n
            }
            Expr::Neg(x) => {
                let n = self.emit(x);
                self.ops.push(Op::Neg);
                n
            }
            Expr::IsNull(x) => {
                let n = self.emit(x);
                self.ops.push(Op::IsNull);
                n
            }
            Expr::Bin(op @ (BinOp::And | BinOp::Or), l, r) => {
                let nl = self.emit(l);
                let probe = self.ops.len();
                self.ops.push(if *op == BinOp::And {
                    Op::AndProbe(0)
                } else {
                    Op::OrProbe(0)
                });
                let nr = self.emit(r);
                self.ops.push(Op::Logic(*op));
                let end = self.ops.len() as u32;
                self.patch(probe, end);
                nl.max(1 + nr)
            }
            // Peephole: leaf operands of a non-logical binary op fuse
            // into one instruction that feeds `bin_scalar` by reference
            // — no operand clones, no stack traffic. Evaluation order
            // is preserved: fused leaves cannot error at run time (only
            // resolved columns fuse; literals are values already), and
            // an unresolved column takes the generic left-then-right path.
            Expr::Bin(op, l, r) => match (self.column(l), self.column(r), r.as_ref()) {
                (Some(i), _, Expr::Lit(v)) => {
                    let k = self.konst(v.clone());
                    self.ops.push(Op::BinColConst(*op, i, k));
                    1
                }
                (Some(i), Some(j), _) => {
                    self.ops.push(Op::BinColCol(*op, i, j));
                    1
                }
                (_, _, Expr::Lit(v)) => {
                    let nl = self.emit(l);
                    let k = self.konst(v.clone());
                    self.ops.push(Op::BinTopConst(*op, k));
                    nl
                }
                (_, Some(j), _) => {
                    let nl = self.emit(l);
                    self.ops.push(Op::BinTopCol(*op, j));
                    nl
                }
                _ => {
                    let nl = self.emit(l);
                    let nr = self.emit(r);
                    self.ops.push(Op::Bin(*op));
                    nl.max(1 + nr)
                }
            },
            Expr::Func(f, args) => {
                // The walker checks arity before it evaluates any
                // argument, so a bad call fails as a whole.
                if let Err(err) = f.check_arity(args.len()) {
                    return self.fail(err);
                }
                if *f == Func::If {
                    let nc = self.emit(&args[0]);
                    let probe = self.ops.len();
                    self.ops.push(Op::IfProbe(0));
                    let nt = self.emit(&args[1]);
                    let jump = self.ops.len();
                    self.ops.push(Op::Jump(0));
                    let else_at = self.ops.len() as u32;
                    self.patch(probe, else_at);
                    let ne = self.emit(&args[2]);
                    let end = self.ops.len() as u32;
                    self.patch(jump, end);
                    nc.max(nt).max(ne)
                } else {
                    let mut need = 0usize;
                    for (i, a) in args.iter().enumerate() {
                        need = need.max(i + self.emit(a));
                    }
                    self.ops.push(Op::Call(*f, args.len()));
                    need
                }
            }
            Expr::InList(x, list) => {
                let n = self.emit(x);
                self.pool.lists.push(ListPool {
                    items: list.clone(),
                    has_null: list.iter().any(Value::is_null),
                });
                self.ops
                    .push(Op::InList((self.pool.lists.len() - 1) as u32));
                n
            }
            Expr::Between(x, lo, hi) => {
                let nx = self.emit(x);
                let nl = self.emit(lo);
                let nh = self.emit(hi);
                self.ops.push(Op::Between);
                nx.max(1 + nl).max(2 + nh)
            }
        }
    }
}

/// True when the expression references any column.
fn has_columns(e: &Expr) -> bool {
    match e {
        Expr::Col(_) => true,
        Expr::Lit(_) => false,
        Expr::Not(x) | Expr::Neg(x) | Expr::IsNull(x) => has_columns(x),
        Expr::Bin(_, l, r) => has_columns(l) || has_columns(r),
        Expr::Func(_, args) => args.iter().any(has_columns),
        Expr::InList(x, _) => has_columns(x),
        Expr::Between(x, lo, hi) => has_columns(x) || has_columns(lo) || has_columns(hi),
    }
}

/// Constant-folds `e` without changing oracle semantics: a column-free
/// subtree that evaluates cleanly becomes a literal; one that *errors*
/// is kept as ops (the error must surface only if the oracle would
/// actually execute that path — it may sit under a short-circuit guard).
/// Literal short-circuits (`FALSE AND x`, `TRUE OR x`, `if()` with a
/// literal condition) drop the dead branch outright, because the oracle
/// never evaluates it. Shared front end of both the scalar VM and the
/// columnar kernel compiler.
pub fn fold(e: &Expr) -> Expr {
    let folded = match e {
        Expr::Col(_) | Expr::Lit(_) => e.clone(),
        Expr::Not(x) => Expr::Not(Box::new(fold(x))),
        Expr::Neg(x) => Expr::Neg(Box::new(fold(x))),
        Expr::IsNull(x) => Expr::IsNull(Box::new(fold(x))),
        Expr::Bin(op, l, r) => {
            let l = fold(l);
            let r = fold(r);
            // A literal Bool left side cannot error, so the oracle
            // decides AND/OR on it without touching the right side.
            match (op, &l) {
                (BinOp::And, Expr::Lit(Value::Bool(false))) => {
                    return Expr::Lit(Value::Bool(false))
                }
                (BinOp::Or, Expr::Lit(Value::Bool(true))) => return Expr::Lit(Value::Bool(true)),
                _ => {}
            }
            Expr::Bin(*op, Box::new(l), Box::new(r))
        }
        Expr::Func(f, args) => {
            let args: Vec<Expr> = args.iter().map(fold).collect();
            // `if()` with a literal condition takes exactly one branch
            // under the oracle (NULL ⇒ else), dead branch and all.
            if *f == Func::If && args.len() == 3 {
                match args[0] {
                    Expr::Lit(Value::Bool(true)) => {
                        let mut args = args;
                        return args.swap_remove(1);
                    }
                    Expr::Lit(Value::Bool(false)) | Expr::Lit(Value::Null) => {
                        let mut args = args;
                        return args.swap_remove(2);
                    }
                    _ => {}
                }
            }
            Expr::Func(*f, args)
        }
        Expr::InList(x, list) => Expr::InList(Box::new(fold(x)), list.clone()),
        Expr::Between(x, lo, hi) => {
            Expr::Between(Box::new(fold(x)), Box::new(fold(lo)), Box::new(fold(hi)))
        }
    };
    if matches!(folded, Expr::Lit(_)) || has_columns(&folded) {
        return folded;
    }
    // Column-free: evaluate now, on the VM (the children are folded
    // already). On error keep the ops — the error belongs to run time,
    // and only to paths that execute.
    match Program::lower(&folded, &Schema::empty()).eval_row(&[]) {
        Ok(v) => Expr::Lit(v),
        Err(_) => folded,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{col, lit, parse};
    use super::*;
    use bi_types::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("Patient", DataType::Text),
            Column::nullable("Doctor", DataType::Text),
            Column::new("Cost", DataType::Int),
            Column::new("Weight", DataType::Float),
            Column::new("Date", DataType::Date),
        ])
        .unwrap()
    }

    fn row() -> Vec<Value> {
        vec![
            "Alice".into(),
            Value::Null,
            Value::Int(60),
            Value::Float(2.5),
            Value::date("2007-02-12").unwrap(),
        ]
    }

    /// Oracle and VM agree (value or error) on an expression text.
    fn agree(text: &str) {
        let _ = agree_on(&parse(text).unwrap());
    }

    /// Oracle and VM agree (value or error) on an expression; returns
    /// the shared result.
    fn agree_on(e: &Expr) -> Result<Value, RelationError> {
        let s = schema();
        let r = row();
        let oracle = e.eval(&s, &r);
        let got = Vm::new().run(&Program::compile(e, &s), &r);
        assert_eq!(got, oracle, "{e}");
        got
    }

    #[test]
    fn vm_matches_oracle_on_basics() {
        for text in [
            "Cost + 1",
            "Cost * 2 - 10",
            "Cost / 8",
            "-Cost",
            "Cost >= 60 AND Patient = 'Alice'",
            "Doctor = 'Luis'",
            "Doctor = 'Luis' OR TRUE",
            "Doctor = 'Luis' AND FALSE",
            "NOT (Doctor = 'Luis')",
            "Doctor IS NULL",
            "Cost BETWEEN 10 AND 100",
            "Patient IN ('Alice', 'Bob')",
            "Doctor IN ('Luis')",
            "year(Date) = 2007",
            "substr(Patient, 1, 3)",
            "coalesce(Doctor, 'unknown')",
            "nullif(Cost, 60)",
            "if(Cost > 50, 'high', 'low')",
            "if(Doctor = 'Luis', 'x', 'y')",
            "concat(Patient, ' ', Cost)",
            "length(upper(Patient)) + abs(-Cost)",
        ] {
            agree(text);
        }
    }

    #[test]
    fn vm_matches_oracle_on_errors() {
        for text in ["Cost / 0", "Patient < 3", "Patient + 1", "-Patient"] {
            let e = parse(text).unwrap();
            let s = schema();
            let r = row();
            let oracle = e.eval(&s, &r).unwrap_err();
            let p = Program::compile(&e, &s);
            assert_eq!(Vm::new().run(&p, &r).unwrap_err(), oracle, "{text}");
        }
    }

    #[test]
    fn short_circuits_guard_errors_like_the_oracle() {
        // The right side would divide by zero; the guard must keep the
        // VM from ever executing it — exactly like the oracle.
        for text in [
            "FALSE AND 1 / 0 > 1",
            "TRUE OR 1 / 0 > 1",
            "Cost < 0 AND 1 / 0 > 1",
            "Cost > 0 OR 1 / 0 > 1",
            "if(TRUE, Cost, 1 / 0)",
            "if(Cost > 50, Cost, 1 / 0)",
        ] {
            agree(text);
        }
    }

    #[test]
    fn compile_fails_exactly_where_the_walker_fails() {
        let unknown = |e: &Expr| matches!(agree_on(e), Err(RelationError::Type(_)));
        let arity = |e: &Expr| matches!(agree_on(e), Err(RelationError::Arity { .. }));
        // An unknown column fails only where evaluation reaches it.
        assert!(unknown(&col("Nope")));
        assert!(unknown(&col("Cost").gt(lit(1)).and(col("Nope").eq(lit(1)))));
        assert_eq!(
            agree_on(&col("Cost").lt(lit(1)).and(col("Nope").eq(lit(1)))),
            Ok(Value::Bool(false))
        );
        assert_eq!(
            agree_on(&parse("if(Cost > 50, Cost, Nope)").unwrap()),
            Ok(Value::Int(60))
        );
        assert!(unknown(&parse("if(Cost < 50, Cost, Nope)").unwrap()));
        // Unresolved leaves skip the fused ops and keep the walker's
        // left-then-right order: the left side's error comes first.
        for text in [
            "Nope + 1",
            "1 + Nope",
            "Nope = Cost",
            "Cost = Nope",
            "Nope = 1 / 0",
        ] {
            assert!(unknown(&parse(text).unwrap()), "{text}");
        }
        assert_eq!(
            agree_on(&parse("1 / 0 = Nope").unwrap()),
            Err(RelationError::DivisionByZero)
        );
        // A wrong-arity call fails as a whole, before its arguments run
        // — and only when reached.
        assert!(arity(&Expr::Func(Func::Substr, vec![col("Patient")])));
        assert!(arity(&Expr::Func(Func::Upper, vec![col("Nope"), lit(1)])));
        assert!(arity(&Expr::Func(Func::If, vec![lit(true), col("Cost")])));
        assert!(arity(&Expr::Func(Func::Coalesce, vec![])));
        assert_eq!(
            agree_on(&col("Cost").lt(lit(0)).and(Expr::Func(Func::Substr, vec![]))).unwrap(),
            Value::Bool(false)
        );
        // Any argument count the walker evaluates, the VM evaluates.
        let mut args = vec![lit(Value::Null); usize::from(u16::MAX) + 5];
        args.push(col("Cost"));
        assert_eq!(
            agree_on(&Expr::Func(Func::Coalesce, args)),
            Ok(Value::Int(60))
        );
    }

    #[test]
    fn constant_folding_is_semantics_preserving() {
        // Clean constant subtrees fold to literals.
        assert_eq!(fold(&parse("1 + 2 * 3").unwrap()), lit(7));
        assert_eq!(fold(&parse("lower('ABC')").unwrap()), lit("abc"));
        // Erroring constant subtrees are kept (the error is a run-time
        // property of the executed path).
        let boom = parse("1 / 0").unwrap();
        assert_eq!(fold(&boom), boom);
        // Dead branches behind literal guards disappear.
        assert_eq!(fold(&parse("FALSE AND 1 / 0 > 1").unwrap()), lit(false));
        assert_eq!(fold(&parse("TRUE OR Cost > 1").unwrap()), lit(true));
        assert_eq!(fold(&parse("if(TRUE, Cost, 1 / 0)").unwrap()), col("Cost"));
        assert_eq!(fold(&parse("if(NULL, 1 / 0, Cost)").unwrap()), col("Cost"));
        // TRUE AND x must keep x; NULL guards keep both logic sides.
        let e = parse("TRUE AND Cost > 1").unwrap();
        assert_eq!(fold(&e), e);
        // Folding happens inside compile: a folded-constant predicate
        // compiles down to a single push.
        let p = Program::compile(&parse("1 + 1 = 2").unwrap(), &schema());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn programs_share_ops_across_clones() {
        let p = Program::compile(&parse("Cost > 10").unwrap(), &schema());
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.ops, &q.ops));
        assert_eq!(q.eval_row(&row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn stack_need_is_honoured() {
        // Deep right-leaning arithmetic exercises the computed depth:
        // each `n + rest` stages its literal before recursing into
        // `rest`, except the innermost `5 + Cost`, which fuses.
        let e = parse("1 + (2 + (3 + (4 + (5 + Cost))))").unwrap();
        let p = Program::compile(&e, &schema());
        assert_eq!(p.stack_need(), 5, "stack_need {}", p.stack_need());
        assert_eq!(Vm::new().run(&p, &row()).unwrap(), Value::Int(75));
        // Coalesce keeps all args on the stack at once (no short-circuit
        // in the oracle either — every arg is evaluated).
        let e = parse("coalesce(Doctor, Doctor, Doctor, Patient)").unwrap();
        let p = Program::compile(&e, &schema());
        assert!(p.stack_need() >= 4);
        assert_eq!(Vm::new().run(&p, &row()).unwrap(), Value::from("Alice"));
    }
}
