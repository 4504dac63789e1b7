//! A write-ahead log for the system facade.
//!
//! The audit story of the paper hinges on the journal surviving the
//! process: "monitoring and auditing to detect violations" (§2.iv) is a
//! *third-party* activity, performed later, possibly after the BI
//! provider restarted. This module gives [`crate::BiSystem`] an
//! append-only on-disk log of every state mutation — policy changes,
//! ETL commits, report definitions, grants, deliveries — from which
//! [`crate::BiSystem::recover`] rebuilds the journal, the policy-epoch
//! history *and* the MVCC data-version history, so post-restart
//! rechecks replay the same conditions pre-restart ones did.
//!
//! ## Format
//!
//! The file starts with an 8-byte magic (`PLABIWAL`) and a little-endian
//! `u32` format version. Each record is framed
//! `[u32 le payload length][u64 le FNV-1a checksum][payload]`.
//! A torn trailing frame — short length, short payload, or checksum
//! mismatch at the tail — is *expected* after a crash: the reader stops
//! there and reports the valid prefix length so the writer can truncate
//! and resume. A bad magic or unsupported format version is fatal
//! ([`WalError::Corrupt`]): the file is not a WAL at all.
//!
//! Payloads use a hand-rolled binary codec (std only, no serde):
//! strings are length-prefixed UTF-8, integers little-endian, enums a
//! `u8` tag. Plans and expressions encode their full tree; decode is
//! depth-bounded so corrupt bytes cannot blow the stack.
//!
//! Table payloads (format 2) are dictionary-coded: after the row count
//! comes a `u32` dictionary length and the table's distinct text-cell
//! strings in first-appearance order; each text cell is then a `u32`
//! code into that dictionary. A decoded table holds one shared
//! `Arc<str>` per distinct string. The dictionary is per table, so
//! every frame still decodes on its own — the property torn-tail
//! resumption ([`WalWriter::append_at`]) relies on. Text inside plans,
//! expressions, journal entries and names stays length-prefixed.
//! Format 1 logs (per-cell strings) are refused as an unsupported
//! version.
//!
//! ## Durability level
//!
//! [`WalWriter::append`] flushes userspace buffers (`flush`) but does
//! not `fsync`: an OS crash can lose the last records, a process crash
//! cannot. That is the deliberate price of keeping the per-delivery
//! logging overhead within the benchmark budget (`bench_gates` gates it);
//! a deployment wanting full durability would fsync on a timer.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use bi_audit::{AuditEntry, Outcome, Provenance};
use bi_exec::TraceId;
use bi_pla::Violation;
use bi_query::plan::{AggFunc, AggItem, JoinKind, Plan, SortKey};
use bi_relation::expr::{BinOp, Expr, Func};
use bi_relation::Table;
use bi_types::{Column, ConsumerId, DataType, Date, ReportId, RoleId, Schema, SourceId, Value};

/// 8-byte file magic.
pub const MAGIC: &[u8; 8] = b"PLABIWAL";
/// On-disk format version.
pub const FORMAT_VERSION: u32 = 2;
/// Header length in bytes (magic + format version).
pub const HEADER_LEN: u64 = 12;
/// Frame overhead per record (length + checksum).
const FRAME_LEN: usize = 12;
/// Decode recursion bound for plans/expressions.
const MAX_DEPTH: usize = 512;
/// Upper bound on a single record payload (a guard against reading a
/// garbage length as a multi-gigabyte allocation).
const MAX_PAYLOAD: u32 = 1 << 30;

/// Errors surfaced by the WAL layer.
#[derive(Debug)]
pub enum WalError {
    Io(std::io::Error),
    /// The file is not a WAL (bad magic / unsupported version) or a
    /// non-tail frame fails validation.
    Corrupt {
        offset: u64,
        message: String,
    },
    /// The log decoded but replaying it into a system failed (e.g. a
    /// journaled PLA no longer parses).
    Replay {
        message: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { offset, message } => {
                write!(f, "wal corrupt at byte {offset}: {message}")
            }
            WalError::Replay { message } => write!(f, "wal replay failed: {message}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// FNV-1a 64-bit, the frame checksum. Not cryptographic — it detects
/// torn writes and bit rot, which is all a WAL needs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One table committed by an ETL run: the rows, the data version the
/// warehouse assigned at commit time, and the full source attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct EtlTable {
    pub table: Table,
    /// Warehouse-assigned data version journaled at commit time. The
    /// assignment is deterministic (first load = 1, +1 per storage
    /// change), so replaying the loads in order reassigns it — recovery
    /// verifies that instead of aliasing.
    pub version: u64,
    pub sources: Vec<SourceId>,
}

/// One logged state mutation. The variants mirror the mutating methods
/// of [`crate::BiSystem`] one-to-one, so replaying the records through
/// those methods reproduces the same epoch sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// First record of every log: the business date the system was
    /// created at.
    Init { today: Date },
    /// `register_source`: the source's tables (schemas + rows).
    RegisterSource {
        source: SourceId,
        tables: Vec<Table>,
    },
    /// `add_pla` / `add_pla_text`: the document text, verbatim for the
    /// text path, `Display`-rendered for the structured path. One record
    /// per call — one policy-epoch bump on replay, same as live.
    AddPla { dsl: String },
    /// `add_meta_report`: annotations as DSL text, approvals by source.
    AddMeta {
        id: ReportId,
        title: String,
        plan: Plan,
        annotations: Vec<String>,
        approved_by: Vec<SourceId>,
    },
    /// `define_report`.
    DefineReport {
        id: ReportId,
        title: String,
        plan: Plan,
        consumers: Vec<RoleId>,
        purpose: Option<String>,
    },
    /// `remove_report`.
    RemoveReport { id: ReportId },
    /// `grant`.
    Grant { consumer: ConsumerId, role: RoleId },
    /// One committed ETL run: every loaded table with its journaled
    /// data version and source attribution.
    EtlCommit { tables: Vec<EtlTable> },
    /// One journal append (delivery or refusal), in full.
    Delivery { entry: AuditEntry },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => put_u8(out, 0),
        Some(s) => {
            put_u8(out, 1);
            put_str(out, s);
        }
    }
}

fn put_date(out: &mut Vec<u8>, d: Date) {
    out.extend_from_slice(&d.year().to_le_bytes());
    put_u8(out, d.month());
    put_u8(out, d.day());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Bool(b) => {
            put_u8(out, 1);
            put_u8(out, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(out, 2);
            put_i64(out, *i);
        }
        Value::Float(x) => {
            put_u8(out, 3);
            put_u64(out, x.to_bits());
        }
        Value::Text(s) => {
            put_u8(out, 4);
            put_str(out, s);
        }
        Value::Date(d) => {
            put_u8(out, 5);
            put_date(out, *d);
        }
    }
}

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Date => 4,
    }
}

fn put_schema(out: &mut Vec<u8>, s: &Schema) {
    put_u32(out, s.columns().len() as u32);
    for c in s.columns() {
        put_str(out, &c.name);
        put_u8(out, dtype_tag(c.dtype));
        put_u8(out, u8::from(c.nullable));
    }
}

/// Writes a table: name, schema, row count, the dictionary of its
/// distinct text cells (first-appearance order), then the rows with
/// every text cell as a `u32` dictionary code. The cells are coded in
/// one pass into a side buffer, since the dictionary precedes them.
fn put_table(out: &mut Vec<u8>, t: &Table) {
    put_str(out, t.name());
    put_schema(out, t.schema());
    put_u64(out, t.rows().len() as u64);
    let mut codes: HashMap<&str, u32> = HashMap::new();
    let mut dict: Vec<&str> = Vec::new();
    let mut cells = Vec::new();
    for v in t.rows().iter().flatten() {
        match v {
            Value::Text(s) => {
                let next = dict.len() as u32;
                let code = *codes.entry(s).or_insert_with(|| {
                    dict.push(s);
                    next
                });
                put_u8(&mut cells, 4);
                put_u32(&mut cells, code);
            }
            other => put_value(&mut cells, other),
        }
    }
    put_u32(out, dict.len() as u32);
    for s in dict {
        put_str(out, s);
    }
    out.extend_from_slice(&cells);
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Eq => 4,
        BinOp::Ne => 5,
        BinOp::Lt => 6,
        BinOp::Le => 7,
        BinOp::Gt => 8,
        BinOp::Ge => 9,
        BinOp::And => 10,
        BinOp::Or => 11,
    }
}

fn func_tag(f: Func) -> u8 {
    match f {
        Func::Year => 0,
        Func::Month => 1,
        Func::Quarter => 2,
        Func::Lower => 3,
        Func::Upper => 4,
        Func::Length => 5,
        Func::Abs => 6,
        Func::Coalesce => 7,
        Func::Concat => 8,
        Func::Substr => 9,
        Func::If => 10,
        Func::NullIf => 11,
    }
}

fn put_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Col(name) => {
            put_u8(out, 0);
            put_str(out, name);
        }
        Expr::Lit(v) => {
            put_u8(out, 1);
            put_value(out, v);
        }
        Expr::Not(inner) => {
            put_u8(out, 2);
            put_expr(out, inner);
        }
        Expr::Neg(inner) => {
            put_u8(out, 3);
            put_expr(out, inner);
        }
        Expr::IsNull(inner) => {
            put_u8(out, 4);
            put_expr(out, inner);
        }
        Expr::Bin(op, l, r) => {
            put_u8(out, 5);
            put_u8(out, binop_tag(*op));
            put_expr(out, l);
            put_expr(out, r);
        }
        Expr::Func(f, args) => {
            put_u8(out, 6);
            put_u8(out, func_tag(*f));
            put_u32(out, args.len() as u32);
            for a in args {
                put_expr(out, a);
            }
        }
        Expr::InList(inner, values) => {
            put_u8(out, 7);
            put_expr(out, inner);
            put_u32(out, values.len() as u32);
            for v in values {
                put_value(out, v);
            }
        }
        Expr::Between(x, lo, hi) => {
            put_u8(out, 8);
            put_expr(out, x);
            put_expr(out, lo);
            put_expr(out, hi);
        }
    }
}

fn aggfunc_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::CountDistinct => 1,
        AggFunc::Sum => 2,
        AggFunc::Avg => 3,
        AggFunc::Min => 4,
        AggFunc::Max => 5,
    }
}

fn put_plan(out: &mut Vec<u8>, p: &Plan) {
    match p {
        Plan::Scan { table } => {
            put_u8(out, 0);
            put_str(out, table);
        }
        Plan::Filter { input, pred } => {
            put_u8(out, 1);
            put_plan(out, input);
            put_expr(out, pred);
        }
        Plan::Project { input, items } => {
            put_u8(out, 2);
            put_plan(out, input);
            put_u32(out, items.len() as u32);
            for (name, e) in items {
                put_str(out, name);
                put_expr(out, e);
            }
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
            right_prefix,
        } => {
            put_u8(out, 3);
            put_plan(out, left);
            put_plan(out, right);
            put_u8(
                out,
                match kind {
                    JoinKind::Inner => 0,
                    JoinKind::Left => 1,
                },
            );
            put_u32(out, on.len() as u32);
            for (l, r) in on {
                put_str(out, l);
                put_str(out, r);
            }
            put_str(out, right_prefix);
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            put_u8(out, 4);
            put_plan(out, input);
            put_u32(out, group_by.len() as u32);
            for g in group_by {
                put_str(out, g);
            }
            put_u32(out, aggs.len() as u32);
            for a in aggs {
                put_str(out, &a.name);
                put_u8(out, aggfunc_tag(a.func));
                put_opt_str(out, a.arg.as_deref());
            }
        }
        Plan::Union { left, right } => {
            put_u8(out, 5);
            put_plan(out, left);
            put_plan(out, right);
        }
        Plan::Distinct { input } => {
            put_u8(out, 6);
            put_plan(out, input);
        }
        Plan::Sort { input, keys } => {
            put_u8(out, 7);
            put_plan(out, input);
            put_u32(out, keys.len() as u32);
            for k in keys {
                put_str(out, &k.column);
                put_u8(out, u8::from(k.descending));
            }
        }
        Plan::Limit { input, n } => {
            put_u8(out, 8);
            put_plan(out, input);
            put_u64(out, *n as u64);
        }
    }
}

fn put_violations(out: &mut Vec<u8>, vs: &[Violation]) {
    put_u32(out, vs.len() as u32);
    for v in vs {
        put_str(out, &v.kind);
        put_str(out, &v.description);
        put_str(out, &v.subject);
    }
}

fn put_entry(out: &mut Vec<u8>, e: &AuditEntry) {
    put_u64(out, e.seq);
    put_date(out, e.when);
    put_str(out, e.consumer.as_str());
    put_u32(out, e.roles.len() as u32);
    for r in e.roles.iter() {
        put_str(out, r.as_str());
    }
    put_str(out, e.report.as_str());
    put_plan(out, &e.plan);
    put_opt_str(out, e.purpose.as_deref());
    put_u32(out, e.actions.len() as u32);
    for a in e.actions.iter() {
        put_str(out, a);
    }
    match &e.outcome {
        Outcome::Delivered {
            rows,
            suppressed_groups,
        } => {
            put_u8(out, 0);
            put_u64(out, *rows as u64);
            put_u64(out, *suppressed_groups as u64);
        }
        Outcome::Refused { violations } => {
            put_u8(out, 1);
            put_violations(out, violations);
        }
    }
    put_u64(out, e.provenance.policy_epoch);
    put_u64(out, e.provenance.trace.value());
    put_u32(out, e.provenance.source_versions.len() as u32);
    for (t, v) in e.provenance.source_versions.iter() {
        put_str(out, t);
        put_u64(out, *v);
    }
}

impl WalRecord {
    /// Serializes the record payload (no frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Init { today } => {
                put_u8(&mut out, 0);
                put_date(&mut out, *today);
            }
            WalRecord::RegisterSource { source, tables } => {
                put_u8(&mut out, 1);
                put_str(&mut out, source.as_str());
                put_u32(&mut out, tables.len() as u32);
                for t in tables {
                    put_table(&mut out, t);
                }
            }
            WalRecord::AddPla { dsl } => {
                put_u8(&mut out, 2);
                put_str(&mut out, dsl);
            }
            WalRecord::AddMeta {
                id,
                title,
                plan,
                annotations,
                approved_by,
            } => {
                put_u8(&mut out, 3);
                put_str(&mut out, id.as_str());
                put_str(&mut out, title);
                put_plan(&mut out, plan);
                put_u32(&mut out, annotations.len() as u32);
                for a in annotations {
                    put_str(&mut out, a);
                }
                put_u32(&mut out, approved_by.len() as u32);
                for s in approved_by {
                    put_str(&mut out, s.as_str());
                }
            }
            WalRecord::DefineReport {
                id,
                title,
                plan,
                consumers,
                purpose,
            } => {
                put_u8(&mut out, 4);
                put_str(&mut out, id.as_str());
                put_str(&mut out, title);
                put_plan(&mut out, plan);
                put_u32(&mut out, consumers.len() as u32);
                for c in consumers {
                    put_str(&mut out, c.as_str());
                }
                put_opt_str(&mut out, purpose.as_deref());
            }
            WalRecord::RemoveReport { id } => {
                put_u8(&mut out, 5);
                put_str(&mut out, id.as_str());
            }
            WalRecord::Grant { consumer, role } => {
                put_u8(&mut out, 6);
                put_str(&mut out, consumer.as_str());
                put_str(&mut out, role.as_str());
            }
            WalRecord::EtlCommit { tables } => {
                put_u8(&mut out, 7);
                put_u32(&mut out, tables.len() as u32);
                for t in tables {
                    put_table(&mut out, &t.table);
                    put_u64(&mut out, t.version);
                    put_u32(&mut out, t.sources.len() as u32);
                    for s in &t.sources {
                        put_str(&mut out, s.as_str());
                    }
                }
            }
            WalRecord::Delivery { entry } => {
                put_u8(&mut out, 8);
                put_entry(&mut out, entry);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A decode cursor over one record payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = Result<T, String>;

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        if end > self.buf.len() {
            return Err(format!("payload truncated at byte {}", self.pos));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DecodeResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn i64(&mut self) -> DecodeResult<i64> {
        Ok(self.u64()? as i64)
    }

    fn i16(&mut self) -> DecodeResult<i16> {
        let b = self.take(2)?;
        Ok(i16::from_le_bytes([b[0], b[1]]))
    }

    /// A length-prefixed string, borrowed from the payload.
    fn str_ref(&mut self) -> DecodeResult<&'a str> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        std::str::from_utf8(b).map_err(|_| "invalid utf-8".to_string())
    }

    fn str(&mut self) -> DecodeResult<String> {
        Ok(self.str_ref()?.to_owned())
    }

    fn opt_str(&mut self) -> DecodeResult<Option<String>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            t => Err(format!("bad option tag {t}")),
        }
    }

    fn date(&mut self) -> DecodeResult<Date> {
        let y = self.i16()?;
        let m = self.u8()?;
        let d = self.u8()?;
        Date::new(y, m, d).map_err(|e| format!("bad date: {e}"))
    }

    fn value(&mut self) -> DecodeResult<Value> {
        let tag = self.u8()?;
        self.value_tagged(tag)
    }

    fn value_tagged(&mut self, tag: u8) -> DecodeResult<Value> {
        match tag {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.u8()? != 0)),
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            4 => Ok(Value::text(self.str_ref()?)),
            5 => Ok(Value::Date(self.date()?)),
            t => Err(format!("bad value tag {t}")),
        }
    }

    fn dtype(&mut self) -> DecodeResult<DataType> {
        match self.u8()? {
            0 => Ok(DataType::Bool),
            1 => Ok(DataType::Int),
            2 => Ok(DataType::Float),
            3 => Ok(DataType::Text),
            4 => Ok(DataType::Date),
            t => Err(format!("bad dtype tag {t}")),
        }
    }

    fn schema(&mut self) -> DecodeResult<Schema> {
        let n = self.u32()? as usize;
        let mut cols = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = self.str()?;
            let dtype = self.dtype()?;
            let nullable = self.u8()? != 0;
            cols.push(if nullable {
                Column::nullable(name, dtype)
            } else {
                Column::new(name, dtype)
            });
        }
        Schema::new(cols).map_err(|e| format!("bad schema: {e}"))
    }

    /// A table cell: a [`Cur::value`] except that text is a code into
    /// the table's dictionary, resolved by sharing its `Arc<str>`.
    fn cell(&mut self, dict: &[Arc<str>]) -> DecodeResult<Value> {
        match self.u8()? {
            4 => {
                let code = self.u32()?;
                dict.get(code as usize)
                    .map(|s| Value::Text(Arc::clone(s)))
                    .ok_or_else(|| format!("text code {code} past a dictionary of {}", dict.len()))
            }
            tag => self.value_tagged(tag),
        }
    }

    fn table(&mut self) -> DecodeResult<Table> {
        let name = self.str()?;
        let schema = self.schema()?;
        let width = schema.len();
        let n = self.u64()? as usize;
        // Every dictionary entry takes at least its 4-byte length, which
        // bounds the capacity a garbage count can reserve.
        let d = self.u32()? as usize;
        let mut dict: Vec<Arc<str>> = Vec::with_capacity(d.min((self.buf.len() - self.pos) / 4));
        for _ in 0..d {
            dict.push(Arc::from(self.str_ref()?));
        }
        let mut rows = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let mut row = Vec::with_capacity(width);
            for _ in 0..width {
                row.push(self.cell(&dict)?);
            }
            rows.push(row);
        }
        Table::from_rows(name, schema, rows).map_err(|e| format!("ill-typed table row: {e}"))
    }

    fn binop(&mut self) -> DecodeResult<BinOp> {
        Ok(match self.u8()? {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::Div,
            4 => BinOp::Eq,
            5 => BinOp::Ne,
            6 => BinOp::Lt,
            7 => BinOp::Le,
            8 => BinOp::Gt,
            9 => BinOp::Ge,
            10 => BinOp::And,
            11 => BinOp::Or,
            t => return Err(format!("bad binop tag {t}")),
        })
    }

    fn func(&mut self) -> DecodeResult<Func> {
        Ok(match self.u8()? {
            0 => Func::Year,
            1 => Func::Month,
            2 => Func::Quarter,
            3 => Func::Lower,
            4 => Func::Upper,
            5 => Func::Length,
            6 => Func::Abs,
            7 => Func::Coalesce,
            8 => Func::Concat,
            9 => Func::Substr,
            10 => Func::If,
            11 => Func::NullIf,
            t => return Err(format!("bad func tag {t}")),
        })
    }

    fn expr(&mut self, depth: usize) -> DecodeResult<Expr> {
        if depth > MAX_DEPTH {
            return Err("expression nests too deep".to_string());
        }
        Ok(match self.u8()? {
            0 => Expr::Col(self.str()?),
            1 => Expr::Lit(self.value()?),
            2 => Expr::Not(Box::new(self.expr(depth + 1)?)),
            3 => Expr::Neg(Box::new(self.expr(depth + 1)?)),
            4 => Expr::IsNull(Box::new(self.expr(depth + 1)?)),
            5 => {
                let op = self.binop()?;
                let l = self.expr(depth + 1)?;
                let r = self.expr(depth + 1)?;
                Expr::Bin(op, Box::new(l), Box::new(r))
            }
            6 => {
                let f = self.func()?;
                let n = self.u32()? as usize;
                let mut args = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    args.push(self.expr(depth + 1)?);
                }
                Expr::Func(f, args)
            }
            7 => {
                let inner = self.expr(depth + 1)?;
                let n = self.u32()? as usize;
                let mut values = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    values.push(self.value()?);
                }
                Expr::InList(Box::new(inner), values)
            }
            8 => {
                let x = self.expr(depth + 1)?;
                let lo = self.expr(depth + 1)?;
                let hi = self.expr(depth + 1)?;
                Expr::Between(Box::new(x), Box::new(lo), Box::new(hi))
            }
            t => return Err(format!("bad expr tag {t}")),
        })
    }

    fn plan(&mut self, depth: usize) -> DecodeResult<Plan> {
        if depth > MAX_DEPTH {
            return Err("plan nests too deep".to_string());
        }
        Ok(match self.u8()? {
            0 => Plan::Scan { table: self.str()? },
            1 => {
                let input = Box::new(self.plan(depth + 1)?);
                let pred = self.expr(depth + 1)?;
                Plan::Filter { input, pred }
            }
            2 => {
                let input = Box::new(self.plan(depth + 1)?);
                let n = self.u32()? as usize;
                let mut items = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let name = self.str()?;
                    let e = self.expr(depth + 1)?;
                    items.push((name, e));
                }
                Plan::Project { input, items }
            }
            3 => {
                let left = Box::new(self.plan(depth + 1)?);
                let right = Box::new(self.plan(depth + 1)?);
                let kind = match self.u8()? {
                    0 => JoinKind::Inner,
                    1 => JoinKind::Left,
                    t => return Err(format!("bad join kind {t}")),
                };
                let n = self.u32()? as usize;
                let mut on = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let l = self.str()?;
                    let r = self.str()?;
                    on.push((l, r));
                }
                let right_prefix = self.str()?;
                Plan::Join {
                    left,
                    right,
                    kind,
                    on,
                    right_prefix,
                }
            }
            4 => {
                let input = Box::new(self.plan(depth + 1)?);
                let n = self.u32()? as usize;
                let mut group_by = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    group_by.push(self.str()?);
                }
                let n = self.u32()? as usize;
                let mut aggs = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let name = self.str()?;
                    let func = match self.u8()? {
                        0 => AggFunc::Count,
                        1 => AggFunc::CountDistinct,
                        2 => AggFunc::Sum,
                        3 => AggFunc::Avg,
                        4 => AggFunc::Min,
                        5 => AggFunc::Max,
                        t => return Err(format!("bad agg func tag {t}")),
                    };
                    let arg = self.opt_str()?;
                    aggs.push(AggItem { name, func, arg });
                }
                Plan::Aggregate {
                    input,
                    group_by,
                    aggs,
                }
            }
            5 => {
                let left = Box::new(self.plan(depth + 1)?);
                let right = Box::new(self.plan(depth + 1)?);
                Plan::Union { left, right }
            }
            6 => Plan::Distinct {
                input: Box::new(self.plan(depth + 1)?),
            },
            7 => {
                let input = Box::new(self.plan(depth + 1)?);
                let n = self.u32()? as usize;
                let mut keys = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let column = self.str()?;
                    let descending = self.u8()? != 0;
                    keys.push(SortKey { column, descending });
                }
                Plan::Sort { input, keys }
            }
            8 => {
                let input = Box::new(self.plan(depth + 1)?);
                let n = self.u64()? as usize;
                Plan::Limit { input, n }
            }
            t => return Err(format!("bad plan tag {t}")),
        })
    }

    fn violations(&mut self) -> DecodeResult<Vec<Violation>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let kind = self.str()?;
            let description = self.str()?;
            let subject = self.str()?;
            out.push(Violation {
                kind,
                description,
                subject,
            });
        }
        Ok(out)
    }

    fn entry(&mut self) -> DecodeResult<AuditEntry> {
        let seq = self.u64()?;
        let when = self.date()?;
        let consumer = ConsumerId::from(self.str_ref()?);
        let n = self.u32()? as usize;
        let mut roles = std::collections::BTreeSet::new();
        for _ in 0..n {
            roles.insert(RoleId::from(self.str_ref()?));
        }
        let report = ReportId::from(self.str_ref()?);
        let plan = self.plan(0)?;
        let purpose = self.opt_str()?;
        let n = self.u32()? as usize;
        let mut actions = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            actions.push(self.str()?);
        }
        let outcome = match self.u8()? {
            0 => {
                let rows = self.u64()? as usize;
                let suppressed_groups = self.u64()? as usize;
                Outcome::Delivered {
                    rows,
                    suppressed_groups,
                }
            }
            1 => Outcome::Refused {
                violations: self.violations()?,
            },
            t => return Err(format!("bad outcome tag {t}")),
        };
        let policy_epoch = self.u64()?;
        let trace = TraceId::new(self.u64()?);
        let n = self.u32()? as usize;
        let mut source_versions = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let t = self.str()?;
            let v = self.u64()?;
            source_versions.push((t, v));
        }
        Ok(AuditEntry {
            seq,
            when,
            consumer,
            roles: Arc::new(roles),
            report,
            plan: Arc::new(plan),
            purpose,
            actions: actions.into(),
            outcome,
            provenance: Provenance::new(policy_epoch, trace).with_sources(source_versions),
        })
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl WalRecord {
    /// Decodes one record payload.
    pub fn decode(buf: &[u8]) -> DecodeResult<WalRecord> {
        let mut c = Cur::new(buf);
        let rec = match c.u8()? {
            0 => WalRecord::Init { today: c.date()? },
            1 => {
                let source = SourceId::from(c.str_ref()?);
                let n = c.u32()? as usize;
                let mut tables = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    tables.push(c.table()?);
                }
                WalRecord::RegisterSource { source, tables }
            }
            2 => WalRecord::AddPla { dsl: c.str()? },
            3 => {
                let id = ReportId::from(c.str_ref()?);
                let title = c.str()?;
                let plan = c.plan(0)?;
                let n = c.u32()? as usize;
                let mut annotations = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    annotations.push(c.str()?);
                }
                let n = c.u32()? as usize;
                let mut approved_by = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    approved_by.push(SourceId::from(c.str_ref()?));
                }
                WalRecord::AddMeta {
                    id,
                    title,
                    plan,
                    annotations,
                    approved_by,
                }
            }
            4 => {
                let id = ReportId::from(c.str_ref()?);
                let title = c.str()?;
                let plan = c.plan(0)?;
                let n = c.u32()? as usize;
                let mut consumers = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    consumers.push(RoleId::from(c.str_ref()?));
                }
                let purpose = c.opt_str()?;
                WalRecord::DefineReport {
                    id,
                    title,
                    plan,
                    consumers,
                    purpose,
                }
            }
            5 => WalRecord::RemoveReport {
                id: ReportId::from(c.str_ref()?),
            },
            6 => {
                let consumer = ConsumerId::from(c.str_ref()?);
                let role = RoleId::from(c.str_ref()?);
                WalRecord::Grant { consumer, role }
            }
            7 => {
                let n = c.u32()? as usize;
                let mut tables = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let table = c.table()?;
                    let version = c.u64()?;
                    let m = c.u32()? as usize;
                    let mut sources = Vec::with_capacity(m.min(4096));
                    for _ in 0..m {
                        sources.push(SourceId::from(c.str_ref()?));
                    }
                    tables.push(EtlTable {
                        table,
                        version,
                        sources,
                    });
                }
                WalRecord::EtlCommit { tables }
            }
            8 => WalRecord::Delivery { entry: c.entry()? },
            t => return Err(format!("bad record tag {t}")),
        };
        if !c.finished() {
            return Err(format!(
                "{} trailing byte(s) after record",
                buf.len() - c.pos
            ));
        }
        Ok(rec)
    }
}

// ---------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------

/// Appends framed records to a WAL file, flushing each.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
}

impl WalWriter {
    /// Creates (truncating) a fresh WAL at `path` and writes the header.
    pub fn create(path: &Path) -> Result<WalWriter, WalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(MAGIC)?;
        file.write_all(&FORMAT_VERSION.to_le_bytes())?;
        file.flush()?;
        Ok(WalWriter { file })
    }

    /// Reopens an existing WAL for appending, first truncating it to
    /// `valid_len` (dropping any torn tail the reader found).
    pub fn append_at(path: &Path, valid_len: u64) -> Result<WalWriter, WalError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter { file })
    }

    /// Appends one record; returns the framed byte count.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, WalError> {
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        Ok(frame.len() as u64)
    }
}

/// The result of scanning a WAL file: every valid record, the byte
/// length of the valid prefix, and how many torn trailing bytes were
/// ignored (0 for a cleanly closed log).
#[derive(Debug)]
pub struct WalReadout {
    pub records: Vec<WalRecord>,
    pub valid_len: u64,
    pub torn_bytes: u64,
}

/// Reads a WAL file front to back. A bad header is fatal; a torn or
/// corrupt *tail* frame stops the scan and is reported as torn bytes —
/// the expected shape of a crash mid-append.
pub fn read_wal(path: &Path) -> Result<WalReadout, WalError> {
    let mut file = File::open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_LEN as usize {
        return Err(WalError::Corrupt {
            offset: 0,
            message: format!("file too short for a WAL header ({} bytes)", bytes.len()),
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(WalError::Corrupt {
            offset: 0,
            message: "bad magic".to_string(),
        });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(WalError::Corrupt {
            offset: 8,
            message: format!("unsupported format version {version}"),
        });
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    // Any anomaly from here on is treated as a torn tail: stop, keep
    // the valid prefix.
    while pos + FRAME_LEN <= bytes.len() {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        if len > MAX_PAYLOAD {
            break;
        }
        let len = len as usize;
        let payload_start = pos + FRAME_LEN;
        let Some(payload_end) = payload_start.checked_add(len) else {
            break;
        };
        if payload_end > bytes.len() {
            break;
        }
        let mut crc = [0u8; 8];
        crc.copy_from_slice(&bytes[pos + 4..pos + 12]);
        let payload = &bytes[payload_start..payload_end];
        if fnv1a(payload) != u64::from_le_bytes(crc) {
            break;
        }
        let Ok(rec) = WalRecord::decode(payload) else {
            break;
        };
        records.push(rec);
        pos = payload_end;
    }
    Ok(WalReadout {
        records,
        valid_len: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_query::plan::scan;
    use bi_relation::expr::{col, lit};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bi-wal-test-{}-{}", std::process::id(), name));
        p
    }

    fn sample_table() -> Table {
        Table::from_rows(
            "T",
            Schema::new(vec![
                Column::new("Drug", DataType::Text),
                Column::nullable("Dose", DataType::Float),
                Column::new("Day", DataType::Date),
            ])
            .unwrap(),
            vec![
                vec![
                    Value::text("aspirin"),
                    Value::Float(1.5),
                    Value::Date(Date::new(2008, 3, 9).unwrap()),
                ],
                vec![
                    Value::text("ibuprofen"),
                    Value::Null,
                    Value::Date(Date::new(2008, 3, 10).unwrap()),
                ],
            ],
        )
        .unwrap()
    }

    fn sample_records() -> Vec<WalRecord> {
        let plan = scan("T")
            .filter(col("Dose").gt(lit(1.0)))
            .aggregate(vec!["Drug".into()], vec![AggItem::count_star("n")]);
        vec![
            WalRecord::Init {
                today: Date::new(2008, 7, 1).unwrap(),
            },
            WalRecord::RegisterSource {
                source: SourceId::new("hospital"),
                tables: vec![sample_table()],
            },
            WalRecord::AddPla {
                dsl: "pla \"p\" source hospital version 1 level source {\n}".into(),
            },
            WalRecord::AddMeta {
                id: ReportId::new("m1"),
                title: "universe".into(),
                plan: plan.clone(),
                annotations: vec![],
                approved_by: vec![SourceId::new("hospital")],
            },
            WalRecord::DefineReport {
                id: ReportId::new("r1"),
                title: "counts".into(),
                plan: plan.clone(),
                consumers: vec![RoleId::new("analyst")],
                purpose: Some("quality".into()),
            },
            WalRecord::Grant {
                consumer: ConsumerId::new("ada"),
                role: RoleId::new("analyst"),
            },
            WalRecord::EtlCommit {
                tables: vec![EtlTable {
                    table: sample_table(),
                    version: 41,
                    sources: vec![SourceId::new("hospital"), SourceId::new("laboratory")],
                }],
            },
            WalRecord::Delivery {
                entry: AuditEntry {
                    seq: 0,
                    when: Date::new(2008, 7, 1).unwrap(),
                    consumer: ConsumerId::new("ada"),
                    roles: Arc::new([RoleId::new("analyst")].into_iter().collect()),
                    report: ReportId::new("r1"),
                    plan: Arc::new(plan),
                    purpose: Some("quality".into()),
                    actions: vec!["suppress small groups".into()].into(),
                    outcome: Outcome::Delivered {
                        rows: 7,
                        suppressed_groups: 2,
                    },
                    provenance: Provenance::new(3, TraceId::new(9))
                        .with_sources(vec![("T".into(), 41)]),
                },
            },
            WalRecord::RemoveReport {
                id: ReportId::new("r1"),
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_the_codec() {
        for rec in sample_records() {
            let bytes = rec.encode();
            let back = WalRecord::decode(&bytes).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn refusal_outcomes_roundtrip() {
        let rec = WalRecord::Delivery {
            entry: AuditEntry {
                seq: 3,
                when: Date::new(2008, 7, 2).unwrap(),
                consumer: ConsumerId::new("bob"),
                roles: Arc::default(),
                report: ReportId::new("r2"),
                plan: Arc::new(scan("T")),
                purpose: None,
                actions: Arc::default(),
                outcome: Outcome::Refused {
                    violations: vec![Violation {
                        kind: "distribution".into(),
                        description: "no declared role".into(),
                        subject: "r2".into(),
                    }],
                },
                provenance: Provenance::default(),
            },
        };
        assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn file_roundtrip_and_torn_tail_recovery() {
        let path = tmp("roundtrip");
        let records = sample_records();
        {
            let mut w = WalWriter::create(&path).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
        }
        let readout = read_wal(&path).unwrap();
        assert_eq!(readout.records, records);
        assert_eq!(readout.torn_bytes, 0);
        let clean_len = readout.valid_len;

        // Truncate mid-record: the valid prefix survives, the tail is
        // reported torn.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(clean_len - 5).unwrap();
        drop(f);
        let torn = read_wal(&path).unwrap();
        assert_eq!(torn.records.len(), records.len() - 1);
        assert_eq!(torn.records, records[..records.len() - 1]);
        assert!(torn.torn_bytes > 0);

        // Resuming at the valid prefix truncates the torn tail and
        // appends cleanly.
        {
            let mut w = WalWriter::append_at(&path, torn.valid_len).unwrap();
            w.append(&records[records.len() - 1]).unwrap();
        }
        let healed = read_wal(&path).unwrap();
        assert_eq!(healed.records, records);
        assert_eq!(healed.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_payload_bytes_stop_the_scan() {
        let path = tmp("corrupt");
        let records = sample_records();
        {
            let mut w = WalWriter::create(&path).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
        }
        // Flip a byte in the middle of the file: everything before the
        // damaged frame survives, nothing after it is trusted.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let readout = read_wal(&path).unwrap();
        assert!(readout.records.len() < records.len());
        assert_eq!(readout.records[..], records[..readout.records.len()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_fatal_not_torn() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTAWAL!rest of the file").unwrap();
        assert!(matches!(read_wal(&path), Err(WalError::Corrupt { .. })));
        std::fs::remove_file(&path).ok();
    }
}
