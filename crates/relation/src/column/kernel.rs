//! Vectorized predicate kernels over [`ColumnChunk`]s.
//!
//! [`CompiledPredicate::compile`] lowers an [`Expr`] into a tree of
//! column-wise kernels that evaluate a whole morsel per call into a
//! tri-state [`BoolMask`] (TRUE / FALSE / UNKNOWN — SQL's three-valued
//! logic), from which a selection vector of surviving row indices is
//! drawn. The query crate's fused pipeline is the one driver: its
//! kernel stages sweep morsels of the source's cached chunk and pass
//! the selection on, so survivors are late-materialized. The same
//! kernels serve plan filters and the PLA row checks (`FilterRows` /
//! retention obligations become filter predicates through the VPD
//! rewriter).
//!
//! Compilation is *total or declined*: an expression compiles only when
//! every node is guaranteed to evaluate without a runtime error on a
//! well-typed chunk (so a compiled kernel is infallible), and the
//! caller runs the predicate on the scalar VM otherwise. A compiled
//! predicate reproduces the row engine's `Expr::eval` tri-state exactly
//! on every row — the row path stays the oracle, and the property
//! suites hold the two to byte-identical filter results.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use bi_types::{DataType, Date, Schema, Value};

use crate::expr::{fold, BinOp, Expr};

use super::{Column, ColumnChunk, ColumnData, Validity};

/// A three-valued boolean vector: bit `i` of `truth` is set for TRUE
/// rows, of `known` for non-UNKNOWN rows (`truth ⊆ known` always).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoolMask {
    truth: Vec<u64>,
    known: Vec<u64>,
    len: usize,
}

impl BoolMask {
    fn words(len: usize) -> usize {
        len.div_ceil(64)
    }

    /// All rows UNKNOWN.
    fn unknown(len: usize) -> Self {
        BoolMask {
            truth: vec![0; Self::words(len)],
            known: vec![0; Self::words(len)],
            len,
        }
    }

    /// Every row the same constant (`None` = UNKNOWN).
    fn constant(len: usize, v: Option<bool>) -> Self {
        let mut m = Self::unknown(len);
        if let Some(b) = v {
            for w in m.known.iter_mut() {
                *w = !0;
            }
            if b {
                m.truth.clone_from(&m.known);
            }
            m.mask_tail();
        }
        m
    }

    /// Builds a mask row-by-row from a tri-state closure.
    fn from_fn(len: usize, mut f: impl FnMut(usize) -> Option<bool>) -> Self {
        let mut m = Self::unknown(len);
        for i in 0..len {
            if let Some(b) = f(i) {
                m.known[i / 64] |= 1u64 << (i % 64);
                if b {
                    m.truth[i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        m
    }

    /// Zeroes bits beyond `len` in the last word (keeps `selected` and
    /// the word-wise Kleene ops honest).
    fn mask_tail(&mut self) {
        if !self.len.is_multiple_of(64) {
            if let Some(w) = self.known.last_mut() {
                *w &= (1u64 << (self.len % 64)) - 1;
            }
            if let Some(w) = self.truth.last_mut() {
                *w &= (1u64 << (self.len % 64)) - 1;
            }
        }
    }

    /// Kleene AND, word-wise: FALSE dominates UNKNOWN.
    fn and_assign(&mut self, o: &BoolMask) {
        debug_assert_eq!(self.len, o.len);
        for w in 0..self.truth.len() {
            let (ta, ka, tb, kb) = (self.truth[w], self.known[w], o.truth[w], o.known[w]);
            self.truth[w] = ta & tb;
            self.known[w] = (ka & kb) | (ka & !ta) | (kb & !tb);
        }
    }

    /// Kleene OR, word-wise: TRUE dominates UNKNOWN.
    fn or_assign(&mut self, o: &BoolMask) {
        debug_assert_eq!(self.len, o.len);
        for w in 0..self.truth.len() {
            let (ta, ka, tb, kb) = (self.truth[w], self.known[w], o.truth[w], o.known[w]);
            self.truth[w] = ta | tb;
            self.known[w] = (ka & kb) | ta | tb;
        }
    }

    /// Kleene NOT: UNKNOWN stays UNKNOWN.
    fn not_assign(&mut self) {
        for w in 0..self.truth.len() {
            self.truth[w] = self.known[w] & !self.truth[w];
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Count of TRUE rows.
    pub fn count_true(&self) -> usize {
        self.truth.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether local row `j` is exactly TRUE (UNKNOWN rows are not).
    /// The pipeline executor's selection-vector pass-through uses this
    /// to intersect a later kernel's mask with an existing selection
    /// instead of eagerly compacting rows between filters.
    #[inline]
    pub fn is_true(&self, j: usize) -> bool {
        debug_assert!(j < self.len);
        (self.truth[j / 64] >> (j % 64)) & 1 == 1
    }

    /// The selection vector: absolute indices (`base` + local offset)
    /// of exactly-TRUE rows, ascending.
    pub fn selected(&self, base: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_true());
        for (w, &word) in self.truth.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let tz = bits.trailing_zeros();
                out.push(base + (w as u32) * 64 + tz);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// Comparison operators a kernel can vectorize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn from_bin(op: BinOp) -> Option<CmpOp> {
        Some(match op {
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    /// The op with sides swapped (`lit < col` ⇒ `col > lit`).
    fn mirror(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }

    fn is_ordering(self) -> bool {
        !matches!(self, CmpOp::Eq | CmpOp::Ne)
    }

    #[inline]
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Per-dtype prepared `IN`-list membership structures.
#[derive(Debug, Clone)]
enum ListPrep {
    /// Int column: exact `i64` members plus the `f64`-space keys of
    /// Float members (`Int(a) = Float(b)` compares in `f64` space).
    Ints {
        exact: HashSet<i64>,
        fkeys: HashSet<u64>,
    },
    /// Float column: all numeric members collapse to `float_key` space.
    Floats {
        keys: HashSet<u64>,
    },
    /// Text column: members resolve to dictionary codes per chunk.
    Texts {
        items: Vec<Arc<str>>,
    },
    Dates {
        set: HashSet<Date>,
    },
    Bools {
        has_true: bool,
        has_false: bool,
    },
}

/// One compiled kernel node.
#[derive(Debug, Clone)]
enum Node {
    Const(Option<bool>),
    /// A bare `Bool` column used as a predicate.
    BoolCol(usize),
    IsNull(usize),
    CmpLit {
        col: usize,
        op: CmpOp,
        lit: Value,
    },
    CmpCol {
        a: usize,
        b: usize,
        op: CmpOp,
    },
    InList {
        col: usize,
        prep: ListPrep,
        has_null: bool,
    },
    /// `lo <= col <= hi` with literal, non-null, comparable bounds
    /// (kept as one node: `BETWEEN` is UNKNOWN — not FALSE — whenever
    /// any operand is NULL, which a Kleene AND of two comparisons
    /// would not reproduce).
    Between {
        col: usize,
        lo: Value,
        hi: Value,
    },
    Not(Box<Node>),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
}

/// An [`Expr`] predicate lowered to column-wise kernels.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    root: Node,
    cols: Vec<usize>,
}

/// True when values of these static types may be *ordered* without a
/// runtime `Incomparable` error (mirrors `expr::compare`).
fn orderable(a: DataType, b: DataType) -> bool {
    let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Float);
    a == b || (numeric(a) && numeric(b))
}

impl CompiledPredicate {
    /// Lowers `pred` against `schema`, or declines (`None`) when any
    /// node is unsupported or could error at runtime. Callers must fall
    /// back to the row engine on `None`.
    ///
    /// Shares the scalar VM's front end: the tree is [`fold`]-normalized
    /// first (constant subtrees become literals, dead branches behind
    /// literal guards disappear), then lowered to bitmask kernels — one
    /// compiler front end, two backends.
    pub fn compile(pred: &Expr, schema: &Schema) -> Option<CompiledPredicate> {
        let pred = fold(pred);
        let mut cols = std::collections::BTreeSet::new();
        let root = compile_node(&pred, schema, &mut cols)?;
        Some(CompiledPredicate {
            root,
            cols: cols.into_iter().collect(),
        })
    }

    /// Schema positions of every column the kernels read (the set a
    /// chunk conversion must materialize).
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Evaluates rows `[start, end)` of `chunk` into a tri-state mask.
    /// Infallible by construction: compilation declined anything that
    /// could error.
    pub fn eval_range(&self, chunk: &ColumnChunk, start: usize, end: usize) -> BoolMask {
        debug_assert!(end <= chunk.len());
        eval_node(&self.root, chunk, start, end)
    }
}

fn compile_node(
    e: &Expr,
    schema: &Schema,
    cols: &mut std::collections::BTreeSet<usize>,
) -> Option<Node> {
    match e {
        Expr::Lit(Value::Bool(b)) => Some(Node::Const(Some(*b))),
        Expr::Lit(Value::Null) => Some(Node::Const(None)),
        Expr::Lit(_) => None,
        Expr::Col(n) => {
            let i = schema.index_of(n).ok()?;
            if schema.columns()[i].dtype != DataType::Bool {
                return None;
            }
            cols.insert(i);
            Some(Node::BoolCol(i))
        }
        Expr::Not(inner) => Some(Node::Not(Box::new(compile_node(inner, schema, cols)?))),
        Expr::IsNull(inner) => match inner.as_ref() {
            Expr::Col(n) => {
                let i = schema.index_of(n).ok()?;
                cols.insert(i);
                Some(Node::IsNull(i))
            }
            Expr::Lit(v) => Some(Node::Const(Some(v.is_null()))),
            _ => None,
        },
        Expr::Bin(BinOp::And, l, r) => Some(Node::And(
            Box::new(compile_node(l, schema, cols)?),
            Box::new(compile_node(r, schema, cols)?),
        )),
        Expr::Bin(BinOp::Or, l, r) => Some(Node::Or(
            Box::new(compile_node(l, schema, cols)?),
            Box::new(compile_node(r, schema, cols)?),
        )),
        Expr::Bin(op, l, r) => {
            let op = CmpOp::from_bin(*op)?;
            match (l.as_ref(), r.as_ref()) {
                (Expr::Col(n), Expr::Lit(v)) => compile_cmp_lit(n, op, v, schema, cols),
                (Expr::Lit(v), Expr::Col(n)) => compile_cmp_lit(n, op.mirror(), v, schema, cols),
                (Expr::Col(a), Expr::Col(b)) => {
                    let (ia, ib) = (schema.index_of(a).ok()?, schema.index_of(b).ok()?);
                    let (ta, tb) = (schema.columns()[ia].dtype, schema.columns()[ib].dtype);
                    if op.is_ordering() && !orderable(ta, tb) {
                        return None; // row engine raises Incomparable
                    }
                    cols.insert(ia);
                    cols.insert(ib);
                    Some(Node::CmpCol { a: ia, b: ib, op })
                }
                (Expr::Lit(a), Expr::Lit(b)) => {
                    if a.is_null() || b.is_null() {
                        return Some(Node::Const(None));
                    }
                    if op.is_ordering() && !orderable(a.dtype()?, b.dtype()?) {
                        return None;
                    }
                    Some(Node::Const(Some(op.test(a.cmp(b)))))
                }
                _ => None,
            }
        }
        Expr::InList(inner, list) => match inner.as_ref() {
            Expr::Col(n) => {
                let i = schema.index_of(n).ok()?;
                cols.insert(i);
                let has_null = list.iter().any(Value::is_null);
                let prep = prep_list(schema.columns()[i].dtype, list);
                Some(Node::InList {
                    col: i,
                    prep,
                    has_null,
                })
            }
            Expr::Lit(v) => {
                if v.is_null() {
                    return Some(Node::Const(None));
                }
                if list.contains(v) {
                    Some(Node::Const(Some(true)))
                } else if list.iter().any(Value::is_null) {
                    Some(Node::Const(None))
                } else {
                    Some(Node::Const(Some(false)))
                }
            }
            _ => None,
        },
        Expr::Between(inner, lo, hi) => {
            let (Expr::Col(n), Expr::Lit(lo), Expr::Lit(hi)) =
                (inner.as_ref(), lo.as_ref(), hi.as_ref())
            else {
                return None;
            };
            let i = schema.index_of(n).ok()?;
            // A NULL bound makes every row UNKNOWN (even NULL cells).
            if lo.is_null() || hi.is_null() {
                return Some(Node::Const(None));
            }
            let ct = schema.columns()[i].dtype;
            if !orderable(ct, lo.dtype()?) || !orderable(ct, hi.dtype()?) {
                return None; // row engine raises Incomparable
            }
            cols.insert(i);
            Some(Node::Between {
                col: i,
                lo: lo.clone(),
                hi: hi.clone(),
            })
        }
        Expr::Neg(_) | Expr::Func(..) => None,
    }
}

fn compile_cmp_lit(
    name: &str,
    op: CmpOp,
    lit: &Value,
    schema: &Schema,
    cols: &mut std::collections::BTreeSet<usize>,
) -> Option<Node> {
    let i = schema.index_of(name).ok()?;
    if lit.is_null() {
        // `col op NULL` is UNKNOWN for every row.
        return Some(Node::Const(None));
    }
    if op.is_ordering() && !orderable(schema.columns()[i].dtype, lit.dtype()?) {
        return None; // row engine raises Incomparable per row
    }
    cols.insert(i);
    Some(Node::CmpLit {
        col: i,
        op,
        lit: lit.clone(),
    })
}

fn prep_list(dtype: DataType, list: &[Value]) -> ListPrep {
    match dtype {
        DataType::Int => {
            let mut exact = HashSet::new();
            let mut fkeys = HashSet::new();
            for v in list {
                match v {
                    Value::Int(i) => {
                        exact.insert(*i);
                    }
                    Value::Float(f) => {
                        fkeys.insert(Value::float_key(*f));
                    }
                    _ => {}
                }
            }
            ListPrep::Ints { exact, fkeys }
        }
        DataType::Float => {
            let mut keys = HashSet::new();
            for v in list {
                match v {
                    Value::Float(f) => {
                        keys.insert(Value::float_key(*f));
                    }
                    Value::Int(i) => {
                        keys.insert(Value::float_key(*i as f64));
                    }
                    _ => {}
                }
            }
            ListPrep::Floats { keys }
        }
        DataType::Text => {
            let mut items = Vec::new();
            for v in list {
                if let Value::Text(s) = v {
                    items.push(Arc::clone(s));
                }
            }
            ListPrep::Texts { items }
        }
        DataType::Date => {
            let set = list
                .iter()
                .filter_map(|v| {
                    if let Value::Date(d) = v {
                        Some(*d)
                    } else {
                        None
                    }
                })
                .collect();
            ListPrep::Dates { set }
        }
        DataType::Bool => ListPrep::Bools {
            has_true: list.contains(&Value::Bool(true)),
            has_false: list.contains(&Value::Bool(false)),
        },
    }
}

/// Vectorized comparison of valid rows through `f`; NULL rows are
/// UNKNOWN.
#[inline]
fn cmp_mask<T>(
    start: usize,
    end: usize,
    validity: &Validity,
    data: &[T],
    f: impl Fn(&T) -> bool,
) -> BoolMask {
    if validity.all_valid_hint() {
        BoolMask::from_fn(end - start, |j| Some(f(&data[start + j])))
    } else {
        BoolMask::from_fn(end - start, |j| {
            let i = start + j;
            if validity.is_null(i) {
                None
            } else {
                Some(f(&data[i]))
            }
        })
    }
}

fn eval_node(node: &Node, chunk: &ColumnChunk, start: usize, end: usize) -> BoolMask {
    let len = end - start;
    let col = |c: usize| -> &Column {
        chunk
            .column(c)
            .unwrap_or_else(|| unreachable!("compiled column materialized"))
    };
    match node {
        Node::Const(v) => BoolMask::constant(len, *v),
        Node::BoolCol(c) => {
            let col = col(*c);
            let ColumnData::Bool(data) = &col.data else {
                unreachable!("typed by compile")
            };
            cmp_mask(start, end, &col.validity, data, |b| *b)
        }
        Node::IsNull(c) => {
            let v = &col(*c).validity;
            BoolMask::from_fn(len, |j| Some(v.is_null(start + j)))
        }
        Node::CmpLit { col: c, op, lit } => eval_cmp_lit(col(*c), *op, lit, start, end),
        Node::CmpCol { a, b, op } => eval_cmp_col(col(*a), col(*b), *op, start, end),
        Node::InList {
            col: c,
            prep,
            has_null,
        } => eval_in_list(col(*c), prep, *has_null, start, end),
        Node::Between { col: c, lo, hi } => {
            // Exact BETWEEN tri-state: both bounds are non-null literals
            // (compile guarantees), so a row is UNKNOWN iff its cell is
            // NULL, else TRUE iff lo <= v <= hi.
            let mut ge = eval_cmp_lit(col(*c), CmpOp::Ge, lo, start, end);
            let le = eval_cmp_lit(col(*c), CmpOp::Le, hi, start, end);
            ge.and_assign(&le);
            ge
        }
        Node::Not(inner) => {
            let mut m = eval_node(inner, chunk, start, end);
            m.not_assign();
            m
        }
        Node::And(l, r) => {
            let mut m = eval_node(l, chunk, start, end);
            m.and_assign(&eval_node(r, chunk, start, end));
            m
        }
        Node::Or(l, r) => {
            let mut m = eval_node(l, chunk, start, end);
            m.or_assign(&eval_node(r, chunk, start, end));
            m
        }
    }
}

/// An integer key that orders dates as `Date::cmp` does (year, then
/// month, then day): the month and day fill the low 16 bits below the
/// year. One integer compare per row instead of a three-field compare.
#[inline]
fn date_key(d: &Date) -> i32 {
    (i32::from(d.year()) << 16) | (i32::from(d.month()) << 8) | i32::from(d.day())
}

fn eval_cmp_lit(col: &Column, op: CmpOp, lit: &Value, start: usize, end: usize) -> BoolMask {
    let v = &col.validity;
    match (&col.data, lit) {
        (ColumnData::Int(data), Value::Int(b)) => {
            let b = *b;
            cmp_mask(start, end, v, data, |x| op.test(x.cmp(&b)))
        }
        (ColumnData::Int(data), Value::Float(f)) => {
            // Mirrors Value::cmp's (Int, Float) arm exactly.
            let nf = Value::norm_float(*f);
            cmp_mask(start, end, v, data, |x| op.test((*x as f64).total_cmp(&nf)))
        }
        (ColumnData::Float(data), Value::Int(b)) => {
            let bf = *b as f64;
            cmp_mask(start, end, v, data, |x| {
                op.test(Value::norm_float(*x).total_cmp(&bf))
            })
        }
        (ColumnData::Float(data), Value::Float(f)) => {
            let nf = Value::norm_float(*f);
            cmp_mask(start, end, v, data, |x| {
                op.test(Value::norm_float(*x).total_cmp(&nf))
            })
        }
        (ColumnData::Text { codes, dict }, Value::Text(s)) => match op {
            CmpOp::Eq | CmpOp::Ne => {
                // One dictionary probe for the whole morsel, then pure
                // u32 compares.
                let lit_code = dict.code_of(s);
                cmp_mask(start, end, v, codes, |c| match lit_code {
                    Some(lc) => op.test(if *c == lc {
                        Ordering::Equal
                    } else {
                        Ordering::Less
                    }),
                    None => op == CmpOp::Ne,
                })
            }
            _ => {
                // Ordering against a literal: one string compare per
                // *distinct* value (code LUT), not per row.
                let lut: Vec<bool> = (0..dict.len())
                    .map(|c| op.test(dict.get(c as u32).as_ref().cmp(&**s)))
                    .collect();
                cmp_mask(start, end, v, codes, |c| lut[*c as usize])
            }
        },
        (ColumnData::Date(data), Value::Date(d)) => {
            let d = date_key(d);
            cmp_mask(start, end, v, data, |x| op.test(date_key(x).cmp(&d)))
        }
        (ColumnData::Bool(data), Value::Bool(b)) => {
            let b = *b;
            cmp_mask(start, end, v, data, |x| op.test(x.cmp(&b)))
        }
        // Statically cross-typed (compile rejected ordering): equality
        // across distinct types is simply false for every valid row.
        (_, _) => {
            debug_assert!(!op.is_ordering());
            let const_result = op == CmpOp::Ne;
            match &col.data {
                ColumnData::Bool(d) => cmp_mask(start, end, v, d, |_| const_result),
                ColumnData::Int(d) => cmp_mask(start, end, v, d, |_| const_result),
                ColumnData::Float(d) => cmp_mask(start, end, v, d, |_| const_result),
                ColumnData::Text { codes, .. } => cmp_mask(start, end, v, codes, |_| const_result),
                ColumnData::Date(d) => cmp_mask(start, end, v, d, |_| const_result),
            }
        }
    }
}

fn eval_cmp_col(a: &Column, b: &Column, op: CmpOp, start: usize, end: usize) -> BoolMask {
    let len = end - start;
    let valid = |i: usize| !a.validity.is_null(i) && !b.validity.is_null(i);
    macro_rules! pairwise {
        ($da:expr, $db:expr, $ord:expr) => {
            BoolMask::from_fn(len, |j| {
                let i = start + j;
                if valid(i) {
                    Some(op.test($ord(&$da[i], &$db[i])))
                } else {
                    None
                }
            })
        };
    }
    match (&a.data, &b.data) {
        (ColumnData::Int(da), ColumnData::Int(db)) => {
            pairwise!(da, db, |x: &i64, y: &i64| x.cmp(y))
        }
        (ColumnData::Int(da), ColumnData::Float(db)) => {
            pairwise!(da, db, |x: &i64, y: &f64| (*x as f64)
                .total_cmp(&Value::norm_float(*y)))
        }
        (ColumnData::Float(da), ColumnData::Int(db)) => {
            pairwise!(da, db, |x: &f64, y: &i64| Value::norm_float(*x)
                .total_cmp(&(*y as f64)))
        }
        (ColumnData::Float(da), ColumnData::Float(db)) => {
            pairwise!(da, db, |x: &f64, y: &f64| Value::norm_float(*x)
                .total_cmp(&Value::norm_float(*y)))
        }
        (
            ColumnData::Text {
                codes: ca,
                dict: da,
            },
            ColumnData::Text {
                codes: cb,
                dict: db,
            },
        ) => BoolMask::from_fn(len, |j| {
            let i = start + j;
            if valid(i) {
                Some(op.test(da.get(ca[i]).cmp(db.get(cb[i]))))
            } else {
                None
            }
        }),
        (ColumnData::Date(da), ColumnData::Date(db)) => {
            pairwise!(da, db, |x: &Date, y: &Date| date_key(x).cmp(&date_key(y)))
        }
        (ColumnData::Bool(da), ColumnData::Bool(db)) => {
            pairwise!(da, db, |x: &bool, y: &bool| x.cmp(y))
        }
        // Statically cross-typed: never equal when both valid.
        (_, _) => {
            debug_assert!(!op.is_ordering());
            let const_result = op == CmpOp::Ne;
            BoolMask::from_fn(len, |j| {
                if valid(start + j) {
                    Some(const_result)
                } else {
                    None
                }
            })
        }
    }
}

fn eval_in_list(
    col: &Column,
    prep: &ListPrep,
    has_null: bool,
    start: usize,
    end: usize,
) -> BoolMask {
    let v = &col.validity;
    // SQL: a non-matching row is UNKNOWN (not FALSE) when the list has
    // a NULL member — the row *might* equal it.
    let miss = if has_null { None } else { Some(false) };
    macro_rules! membership {
        ($data:expr, $hit:expr) => {
            BoolMask::from_fn(end - start, |j| {
                let i = start + j;
                if v.is_null(i) {
                    None
                } else if $hit(&$data[i]) {
                    Some(true)
                } else {
                    miss
                }
            })
        };
    }
    match (&col.data, prep) {
        (ColumnData::Int(data), ListPrep::Ints { exact, fkeys }) => {
            membership!(data, |x: &i64| exact.contains(x)
                || (!fkeys.is_empty()
                    && fkeys.contains(&Value::float_key(*x as f64))))
        }
        (ColumnData::Float(data), ListPrep::Floats { keys }) => {
            membership!(data, |x: &f64| keys.contains(&Value::float_key(*x)))
        }
        (ColumnData::Text { codes, dict }, ListPrep::Texts { items }) => {
            let code_set: HashSet<u32> = items.iter().filter_map(|s| dict.code_of(s)).collect();
            membership!(codes, |c: &u32| code_set.contains(c))
        }
        (ColumnData::Date(data), ListPrep::Dates { set }) => {
            membership!(data, |d: &Date| set.contains(d))
        }
        (
            ColumnData::Bool(data),
            ListPrep::Bools {
                has_true,
                has_false,
            },
        ) => {
            membership!(data, |b: &bool| if *b { *has_true } else { *has_false })
        }
        _ => unreachable!("prep built from the column's dtype"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::table::Table;
    use bi_types::Column as SchemaColumn;

    fn table() -> Table {
        let schema = Schema::new(vec![
            SchemaColumn::new("name", DataType::Text),
            SchemaColumn::nullable("age", DataType::Int),
            SchemaColumn::nullable("score", DataType::Float),
            SchemaColumn::nullable("ok", DataType::Bool),
            SchemaColumn::new("day", DataType::Date),
        ])
        .unwrap();
        let day = |s: &str| Value::date(s).unwrap();
        Table::from_rows(
            "T",
            schema,
            vec![
                vec![
                    "alice".into(),
                    Value::Int(34),
                    Value::Float(1.5),
                    Value::Bool(true),
                    day("2007-02-12"),
                ],
                vec![
                    "bob".into(),
                    Value::Null,
                    Value::Float(-0.0),
                    Value::Bool(false),
                    day("2007-03-10"),
                ],
                vec![
                    "carol".into(),
                    Value::Int(7),
                    Value::Null,
                    Value::Null,
                    day("2008-04-15"),
                ],
                vec![
                    "alice".into(),
                    Value::Int(-2),
                    Value::Float(f64::NAN),
                    Value::Bool(true),
                    day("2007-08-10"),
                ],
                vec![
                    "dave".into(),
                    Value::Int(34),
                    Value::Float(2.0),
                    Value::Bool(false),
                    day("2007-10-15"),
                ],
            ],
        )
        .unwrap()
    }

    /// The compiled kernel keeps exactly the oracle's rows, in order,
    /// whether it sweeps the table in one range or in ragged morsels.
    fn assert_matches_oracle(t: &Table, pred: &Expr) {
        let oracle = t.filter(pred).expect("oracle accepts compiled predicates");
        let k = CompiledPredicate::compile(pred, t.schema())
            .unwrap_or_else(|| panic!("predicate should compile: {pred}"));
        let chunk = ColumnChunk::from_table_cols(t, k.columns()).expect("table converts");
        for step in [t.len().max(1), 2] {
            let mut kept = Vec::new();
            for start in (0..t.len()).step_by(step) {
                let end = (start + step).min(t.len());
                kept.extend(k.eval_range(&chunk, start, end).selected(start as u32));
            }
            let rows: Vec<_> = kept.iter().map(|&i| &t.rows()[i as usize]).collect();
            let expect: Vec<_> = oracle.rows().iter().collect();
            assert_eq!(rows, expect, "step={step} pred={pred}");
        }
    }

    #[test]
    fn comparison_kernels_match_row_filter() {
        let t = table();
        for pred in [
            col("age").ge(lit(7)),
            col("age").lt(lit(34)),
            col("name").eq(lit("alice")),
            col("name").ne(lit("alice")),
            col("name").lt(lit("bob")),
            col("name").eq(lit("nobody")),
            col("score").gt(lit(0.0)),
            col("score").le(lit(1.5)),
            col("age").eq(lit(34.0)), // Int column vs Float literal
            col("score").ge(lit(2)),  // Float column vs Int literal
            col("day").ge(Expr::Lit(Value::date("2007-03-10").unwrap())),
            col("ok").eq(lit(true)),
            Expr::Col("ok".into()), // bare Bool column as predicate
        ] {
            assert_matches_oracle(&t, &pred);
        }
    }

    #[test]
    fn null_logic_matches_row_filter() {
        let t = table();
        for pred in [
            col("age").is_null(),
            col("age").is_null().not(),
            col("age").eq(lit(34)).and(col("ok").eq(lit(true))),
            col("age").eq(lit(34)).or(col("score").is_null()),
            col("age").eq(Expr::Lit(Value::Null)),
            col("age").eq(Expr::Lit(Value::Null)).not(),
            col("ok").not(),
            Expr::Between(Box::new(col("age")), Box::new(lit(0)), Box::new(lit(40))),
            Expr::Between(
                Box::new(col("age")),
                Box::new(lit(0)),
                Box::new(Expr::Lit(Value::Null)),
            )
            .not(),
            Expr::InList(Box::new(col("name")), vec!["alice".into(), "dave".into()]),
            Expr::InList(Box::new(col("age")), vec![Value::Int(7), Value::Null]).not(),
            Expr::InList(Box::new(col("age")), vec![Value::Float(34.0)]),
            Expr::InList(
                Box::new(col("score")),
                vec![Value::Int(2), Value::Float(0.0)],
            ),
        ] {
            assert_matches_oracle(&t, &pred);
        }
    }

    #[test]
    fn nan_and_negative_zero_follow_value_order() {
        let t = table();
        // NaN sorts above every number under total_cmp; -0.0 == 0.0.
        assert_matches_oracle(&t, &col("score").gt(lit(1.0e9)));
        assert_matches_oracle(&t, &col("score").eq(lit(0.0)));
        assert_matches_oracle(&t, &col("score").eq(lit(f64::NAN)));
    }

    #[test]
    fn col_col_comparisons_match() {
        let schema = Schema::new(vec![
            SchemaColumn::nullable("a", DataType::Int),
            SchemaColumn::nullable("b", DataType::Float),
            SchemaColumn::new("s", DataType::Text),
            SchemaColumn::new("t", DataType::Text),
        ])
        .unwrap();
        let t = Table::from_rows(
            "C",
            schema,
            vec![
                vec![Value::Int(1), Value::Float(1.0), "x".into(), "x".into()],
                vec![Value::Int(2), Value::Float(1.5), "x".into(), "y".into()],
                vec![Value::Null, Value::Float(0.0), "y".into(), "x".into()],
                vec![Value::Int(-1), Value::Null, "z".into(), "z".into()],
            ],
        )
        .unwrap();
        for pred in [
            col("a").eq(col("b")),
            col("a").lt(col("b")),
            col("s").eq(col("t")),
            col("s").gt(col("t")),
            col("a").eq(col("s")), // cross-type equality: always false
            col("a").ne(col("s")),
        ] {
            assert_matches_oracle(&t, &pred);
        }
    }

    #[test]
    fn unsupported_predicates_decline() {
        let t = table();
        let compiles = |pred: &Expr| CompiledPredicate::compile(pred, t.schema()).is_some();
        // Functions, arithmetic, and cross-type ordering stay on the
        // scalar VM.
        let f = Expr::Func(crate::expr::Func::Length, vec![col("name")]).gt(lit(3));
        assert!(!compiles(&f));
        let arith = Expr::Bin(BinOp::Add, Box::new(col("age")), Box::new(lit(1))).ge(lit(8));
        assert!(!compiles(&arith));
        assert!(!compiles(&col("name").lt(lit(3))));
        // Non-boolean columns are not predicates.
        assert!(!compiles(&col("age")));
    }

    #[test]
    fn date_key_orders_like_value_cmp() {
        use rand::{Rng, SeedableRng};
        let day = |y, m, d| Date::new(y, m, d).unwrap();
        // Boundary years and the first and last day of their months and
        // years, then random dates across the whole range.
        let mut dates = Vec::new();
        for y in [1, 2, 3, 4, 99, 100, 255, 256, 1999, 2000, 2007, 9998, 9999] {
            for (m, d) in [(1, 1), (1, 31), (2, 28), (6, 15), (12, 1), (12, 31)] {
                dates.push(day(y, m, d));
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for _ in 0..500 {
            dates.push(day(
                rng.gen_range(1i16..=9999),
                rng.gen_range(1u8..=12),
                rng.gen_range(1u8..=28),
            ));
        }
        for a in &dates {
            for b in &dates {
                assert_eq!(
                    date_key(a).cmp(&date_key(b)),
                    Value::Date(*a).cmp(&Value::Date(*b)),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn empty_and_keep_all_paths() {
        let t = table();
        assert_matches_oracle(&t, &col("age").is_null().or(col("age").is_null().not()));
        let empty = Table::new("E", t.schema().clone());
        assert_matches_oracle(&empty, &col("age").ge(lit(0)));
    }
}
