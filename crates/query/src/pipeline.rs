//! Push-based fused pipeline execution.
//!
//! The operator-at-a-time evaluator in [`crate::exec`] materializes a
//! full [`Table`] between every plan node: a Filter→Project→Aggregate
//! chain touches each row three times and allocates two intermediate
//! tables (plus a fresh columnar conversion per operator). This module
//! decomposes a plan at its *pipeline breakers* — join build sides,
//! full aggregation, sort — and streams morsels through the fused
//! non-breaking chain in a single pass:
//!
//! * **Filters** run as vectorized predicate kernels over the source's
//!   (cached) [`ColumnChunk`] when they compile, scalar-VM programs
//!   otherwise. Survivors travel as a selection vector — no row is
//!   copied just to be dropped by the next stage.
//! * **Projections** compile to VM programs against the statically
//!   inferred intermediate schema ([`bi_relation::project_schema`]) and
//!   materialize only the rows that survived every filter below them
//!   (late materialization). A *trailing* projection of bare column
//!   references — the pruning shape PLA rewrites produce — never
//!   materializes at all: it compiles to a column remap the sink
//!   applies, so survivors stream from source storage into the sink.
//! * An equality **join** (inner or left) directly under the sink is
//!   streamed too. Its build (right) side runs through the normal
//!   evaluator and is indexed from its cached key chunk; the chain above
//!   forms the probe (left) side, and each surviving probe row maps to
//!   its ascending list of matching build rows. Sinks read cells from
//!   either side by (probe row, build row), so neither the filtered
//!   probe table nor the joined table is ever built.
//! * A terminal **Aggregate** folds each morsel into partial per-group
//!   states that merge in morsel order. Rows are slotted into groups by
//!   per-column codes from the cached chunks (dictionary codes for text,
//!   the column's cached dense codes otherwise); only rows a VM
//!   projection has already materialized hash their `Value`s. A
//!   terminal **Limit** stops early when every stage is an infallible
//!   kernel.
//!
//! Parallelism rides the existing morsel substrate
//! ([`bi_exec::try_par_ranges`]): deterministic morsel order, lowest-
//! index error discipline, thread-local partial-aggregate states merged
//! in morsel order — so results are byte-identical at any thread count.
//!
//! The operator-at-a-time engine (with the serial row join) remains the
//! byte-identity oracle and the decline target. The ladder has three
//! rungs, every one counted:
//!
//! * `pipeline.decline.compile` — a stage or the join header didn't
//!   compile (the walker or a header error owns the semantics);
//! * `pipeline.decline.convert` — the source or build side declined
//!   columnar conversion for the kernel or join-key columns;
//! * `pipeline.decline.shape` — an aggregate the partial states can't
//!   reproduce bit-for-bit (non-numeric `sum`/`avg`, missing argument),
//!   or a join without keys or with cross-typed keys.
//!
//! Declines discovered *before* the source runs return `None` and the
//! caller's match arms execute the plan as always. Declines after the
//! source is in hand (and any fused evaluation error —
//! `pipeline.fallback.error`) re-run just the chain operator-at-a-time
//! over that source, so the source never executes twice and every error
//! is the oracle's error, verbatim.
//!
//! Fused evaluation is stage-major per morsel while the oracle is
//! operator-major over the whole input; both evaluate every stage over
//! exactly the same surviving rows, so *whether* an error occurs is
//! identical — only which error comes first can differ. That is why the
//! error fallback re-runs instead of surfacing the fused error.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use bi_exec::{Counter, ExecConfig};
use bi_relation::{
    ChunkColumn, ColumnChunk, ColumnData, ColumnarError, CompiledPredicate, Expr, GroupCodes,
    Program, RelationError, Table, Vm,
};
use bi_types::{DataType, Schema, Value};

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::exec;
use crate::plan::{AggFunc, AggItem, JoinKind, Plan};

/// Attempts fused execution of `plan`. `None` means "not a candidate"
/// (no fusible chain, or a lone operator with nothing to fuse) and the
/// caller proceeds operator-at-a-time; `Some` is a complete result —
/// possibly via a counted decline to the operator-at-a-time chain over
/// the already-executed inputs.
pub(crate) fn try_fused(
    plan: &Plan,
    cat: &Catalog,
    cfg: &ExecConfig,
    stack: &mut Vec<String>,
) -> Option<Result<Table, QueryError>> {
    let chain = decompose(plan)?;
    // Fusion's win is the `fused_ops - 1` intermediate tables it skips.
    // A lone operator skips none, and the operator-at-a-time engine
    // already has its fast paths (keep-all storage sharing, dense-code
    // group-by). A join always streams: its probe never builds the
    // joined table. Row counts play no part: the decision must be known
    // before the source executes.
    if chain.join.is_none() && chain.fused_ops() < 2 {
        return None;
    }
    // The source (scan, join, …) and the build side execute through the
    // normal evaluator, which counts their operators and may itself fuse
    // a deeper chain.
    let src = match exec::exec_guarded(chain.source, cat, cfg, stack) {
        Ok(t) => t,
        Err(e) => return Some(Err(e)),
    };
    let build = match chain.join {
        None => None,
        Some(j) => match exec::exec_guarded(j.build, cat, cfg, stack) {
            Ok(t) => Some(t),
            // The oracle evaluates the whole probe side before the build
            // side, so a probe-chain error comes first.
            Err(e) => return Some(run_probe_ops(src, &chain.ops, cfg).and(Err(e))),
        },
    };
    Some(run_chain(src, build, &chain, cfg))
}

// ---------------------------------------------------------------------
// Plan decomposition
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum ChainOp<'p> {
    Filter(&'p Expr),
    Project(&'p [(String, Expr)]),
}

#[derive(Clone, Copy)]
enum Sink<'p> {
    /// The chain's output is the result (root is a Filter/Project/Join).
    Materialize,
    /// Terminal `Limit n` over the chain.
    Limit(usize),
    /// Terminal full aggregation (a pipeline breaker, absorbed as the
    /// sink: partial states stream, only the group table materializes).
    Aggregate {
        group_by: &'p [String],
        aggs: &'p [AggItem],
    },
}

/// An equality join the chain streams through: `ops` form its probe
/// (left) side, `build` is its right input.
#[derive(Clone, Copy)]
struct JoinOp<'p> {
    build: &'p Plan,
    kind: JoinKind,
    on: &'p [(String, String)],
    right_prefix: &'p str,
}

struct Chain<'p> {
    /// Fusible stages bottom-up: `ops[0]` sees source rows. Under a join
    /// they are the probe side's chain.
    ops: Vec<ChainOp<'p>>,
    join: Option<JoinOp<'p>>,
    sink: Sink<'p>,
    /// First non-fusible node under the chain (pipeline breaker).
    source: &'p Plan,
}

impl Chain<'_> {
    fn fused_ops(&self) -> usize {
        self.ops.len() + usize::from(!matches!(self.sink, Sink::Materialize))
    }
}

/// Splits a plan into (sink, join, chain, source) at the topmost
/// breaker. A join is streamed only directly under the sink; a filter
/// or projection between them fuses over the materialized join instead.
/// `Limit(Sort(…))` is deliberately *not* captured: the sort kernel's
/// top-k fusion in the operator-at-a-time engine handles it.
fn decompose(plan: &Plan) -> Option<Chain<'_>> {
    let (sink, top) = match plan {
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => (Sink::Aggregate { group_by, aggs }, input.as_ref()),
        Plan::Limit { input, n }
            if matches!(
                input.as_ref(),
                Plan::Filter { .. } | Plan::Project { .. } | Plan::Join { .. }
            ) =>
        {
            (Sink::Limit(*n), input.as_ref())
        }
        Plan::Filter { .. } | Plan::Project { .. } | Plan::Join { .. } => (Sink::Materialize, plan),
        _ => return None,
    };
    let (join, mut cur) = match top {
        Plan::Join {
            left,
            right,
            kind,
            on,
            right_prefix,
        } => (
            Some(JoinOp {
                build: right,
                kind: *kind,
                on,
                right_prefix,
            }),
            left.as_ref(),
        ),
        _ => (None, top),
    };
    let mut ops = Vec::new();
    loop {
        match cur {
            Plan::Filter { input, pred } => {
                ops.push(ChainOp::Filter(pred));
                cur = input.as_ref();
            }
            Plan::Project { input, items } => {
                ops.push(ChainOp::Project(items));
                cur = input.as_ref();
            }
            source => {
                ops.reverse();
                return Some(Chain {
                    ops,
                    join,
                    sink,
                    source,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Stage compilation
// ---------------------------------------------------------------------

enum Stage {
    /// Vectorized predicate over the source chunk (pre-projection only).
    Kernel(CompiledPredicate),
    /// Scalar-VM predicate over whatever rows reach it.
    VmFilter(Program),
    /// Scalar-VM projection; materializes its survivors.
    VmProject(Vec<Program>),
}

/// Where one output column's cells are read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// A column of the row leaving the probe chain: a source column, or
    /// one of a VM projection's materialized cells.
    Probe(usize),
    /// A column of the matching build row (NULL for left-join padding).
    Build(usize),
}

enum CompiledSink {
    Materialize,
    Limit(usize),
    Aggregate(AggSink),
}

/// The compiled join: key columns of both sides, in key order.
struct JoinPlan {
    kind: JoinKind,
    /// Probe key columns in the *source* schema.
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
}

struct Compiled {
    stages: Vec<Stage>,
    /// Union of source columns the kernel stages read (one conversion).
    kernel_cols: Vec<usize>,
    /// Schema of the chain's output when it differs from the source's
    /// (a projection or a join).
    schema: Option<Arc<Schema>>,
    /// Where each output column comes from, when that is not simply the
    /// row leaving the last stage: a trailing bare-column projection (a
    /// remap) and/or a join's two sides. An aggregate sink consumes it
    /// at compile time (indices composed away).
    slots: Option<Vec<Slot>>,
    join: Option<JoinPlan>,
    sink: CompiledSink,
}

impl Compiled {
    /// Whether some stage materializes rows (only those take the
    /// `Value`-hashing aggregate fold).
    fn materializes(&self) -> bool {
        self.stages.iter().any(|s| matches!(s, Stage::VmProject(_)))
    }
}

/// Whether `op` materializes rows in a fused chain: every projection
/// except a trailing one of bare column references (which compiles to a
/// remap).
fn op_materializes(op: &ChainOp, last: bool) -> bool {
    match op {
        ChainOp::Filter(_) => false,
        ChainOp::Project(items) => !(last && items.iter().all(|(_, e)| matches!(e, Expr::Col(_)))),
    }
}

/// Compiles every stage against the *evolving* schema (each projection
/// replaces it), then the join header and the sink. Any stage that
/// doesn't compile declines the whole chain — the operator-at-a-time
/// fallback owns walker semantics and error surfaces.
fn compile(
    chain: &Chain,
    src_schema: Arc<Schema>,
    build_schema: Option<&Schema>,
) -> Result<Compiled, Counter> {
    let mut schema = src_schema;
    let mut reshaped = false;
    let mut stages = Vec::with_capacity(chain.ops.len());
    let mut kernel_cols = std::collections::BTreeSet::new();
    // A trailing bare-column projection: output → input column.
    let mut remap: Option<Vec<usize>> = None;
    for (idx, op) in chain.ops.iter().enumerate() {
        match op {
            ChainOp::Filter(pred) => {
                if !reshaped {
                    if let Some(k) = CompiledPredicate::compile(pred, &schema) {
                        kernel_cols.extend(k.columns().iter().copied());
                        stages.push(Stage::Kernel(k));
                        continue;
                    }
                }
                match Program::compile(pred, &schema) {
                    Ok(p) => stages.push(Stage::VmFilter(p)),
                    Err(_) => return Err(Counter::PipelineDeclineCompile),
                }
            }
            ChainOp::Project(items) => {
                let out = match bi_relation::project_schema(&schema, items) {
                    Ok(s) => Arc::new(s),
                    // The oracle's projection raises the same inference
                    // error; declining surfaces it verbatim.
                    Err(_) => return Err(Counter::PipelineDeclineCompile),
                };
                // A trailing projection of bare column references (the
                // pruning/rename shape) needs no evaluation: it becomes
                // a remap the sink applies, and the rows below it stay
                // unmaterialized.
                if !op_materializes(op, idx + 1 == chain.ops.len()) {
                    let map: Option<Vec<usize>> = items
                        .iter()
                        .map(|(_, e)| match e {
                            Expr::Col(name) => schema.index_of(name).ok(),
                            _ => None,
                        })
                        .collect();
                    if let Some(map) = map {
                        remap = Some(map);
                        schema = out;
                        reshaped = true;
                        continue;
                    }
                }
                let programs: Result<Vec<Program>, RelationError> = items
                    .iter()
                    .map(|(_, e)| Program::compile(e, &schema))
                    .collect();
                match programs {
                    Ok(ps) => stages.push(Stage::VmProject(ps)),
                    Err(_) => return Err(Counter::PipelineDeclineCompile),
                }
                schema = out;
                reshaped = true;
            }
        }
    }
    let probe_col = |j: usize| remap.as_ref().map_or(j, |m| m[j]);
    let mut slots: Option<Vec<Slot>> = remap
        .as_ref()
        .map(|m| m.iter().copied().map(Slot::Probe).collect());
    let mut join = None;
    if let (Some(j), Some(build)) = (chain.join, build_schema) {
        // Header errors (duplicate output names, unknown key columns) are
        // the row join's to raise, in its order.
        let Ok(joined) = exec::join_schema(&schema, build, j.kind, j.right_prefix) else {
            return Err(Counter::PipelineDeclineCompile);
        };
        let keys = |s: &Schema, side: fn(&(String, String)) -> &String| {
            j.on.iter()
                .map(|pair| s.index_of(side(pair)))
                .collect::<Result<Vec<usize>, _>>()
                .map_err(|_| Counter::PipelineDeclineCompile)
        };
        let lks = keys(&schema, |(l, _)| l)?;
        let rks = keys(build, |(_, r)| r)?;
        // Cross joins, and cross-typed keys (which never compare equal),
        // stay on the row join.
        let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Float);
        let compatible = lks.iter().zip(&rks).all(|(&l, &r)| {
            let (lt, rt) = (schema.columns()[l].dtype, build.columns()[r].dtype);
            lt == rt || (numeric(lt) && numeric(rt))
        });
        if j.on.is_empty() || !compatible {
            return Err(Counter::PipelineDeclineShape);
        }
        let mut out: Vec<Slot> = (0..schema.len())
            .map(|c| Slot::Probe(probe_col(c)))
            .collect();
        out.extend((0..build.len()).map(Slot::Build));
        slots = Some(out);
        schema = Arc::new(joined);
        reshaped = true;
        join = Some(JoinPlan {
            kind: j.kind,
            probe_keys: lks.into_iter().map(probe_col).collect(),
            build_keys: rks,
        });
    }
    let sink = match chain.sink {
        Sink::Materialize => CompiledSink::Materialize,
        Sink::Limit(n) => CompiledSink::Limit(n),
        Sink::Aggregate { group_by, aggs } => {
            let mut agg = compile_agg(&schema, group_by, aggs)?;
            // Compose the slots into the key/argument columns: the fold
            // then reads source (or build, or last-materialized) rows
            // directly and the remap costs nothing per row.
            if let Some(map) = slots.take() {
                let at = |s: Slot| match s {
                    Slot::Probe(j) | Slot::Build(j) => map[j],
                };
                for k in &mut agg.keys {
                    *k = at(*k);
                }
                for s in &mut agg.specs {
                    s.arg = s.arg.map(at);
                }
            }
            CompiledSink::Aggregate(agg)
        }
    };
    Ok(Compiled {
        stages,
        kernel_cols: kernel_cols.into_iter().collect(),
        schema: reshaped.then_some(schema),
        slots,
        join,
        sink,
    })
}

/// How one aggregate accumulates across morsels.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PartialKind {
    /// `COUNT(*)` — member rows.
    CountStar,
    /// `COUNT(col)` — non-null arguments.
    Count,
    /// `COUNT(DISTINCT col)` — set union.
    Distinct,
    /// Integer `SUM` with the oracle's per-prefix `checked_add`
    /// overflow semantics (tracked exactly via `i128` prefix extremes).
    SumInt,
    /// First minimum (`Iterator::min` keeps the first).
    Min,
    /// Last maximum (`Iterator::max` keeps the last).
    Max,
    /// Retain the group's non-null values in row order and replay
    /// [`exec::eval_agg_values`] at finalize — bit-exact row-order
    /// float accumulation for `AVG` and float `SUM`.
    Retained,
}

struct AggSpec {
    func: AggFunc,
    arg: Option<Slot>,
    kind: PartialKind,
}

struct AggSink {
    schema: Arc<Schema>,
    /// Group-key columns.
    keys: Vec<Slot>,
    specs: Vec<AggSpec>,
}

fn compile_agg(
    schema: &Arc<Schema>,
    group_by: &[String],
    aggs: &[AggItem],
) -> Result<AggSink, Counter> {
    // The oracle raises header errors (unknown column, bad output type)
    // before touching any row; delegating reproduces them exactly.
    let Ok((out_schema, arg_idx)) = exec::aggregate_header(schema, group_by, aggs) else {
        return Err(Counter::PipelineDeclineShape);
    };
    let Ok(keys) = group_by
        .iter()
        .map(|g| schema.index_of(g).map(Slot::Probe))
        .collect::<Result<Vec<Slot>, bi_types::TypeError>>()
    else {
        return Err(Counter::PipelineDeclineShape);
    };
    let mut specs = Vec::with_capacity(aggs.len());
    for (a, arg) in aggs.iter().zip(&arg_idx) {
        let kind = match (a.func, arg) {
            (AggFunc::Count, None) => PartialKind::CountStar,
            (AggFunc::Count, Some(_)) => PartialKind::Count,
            (AggFunc::CountDistinct, Some(_)) => PartialKind::Distinct,
            (AggFunc::Min, Some(_)) => PartialKind::Min,
            (AggFunc::Max, Some(_)) => PartialKind::Max,
            (AggFunc::Sum, Some(c)) => match schema.columns()[*c].dtype {
                DataType::Int => PartialKind::SumInt,
                // A Float-typed column may legally hold Int values
                // (all-Int groups sum with integer overflow semantics),
                // so float sums replay the oracle verbatim.
                DataType::Float => PartialKind::Retained,
                // Non-numeric sums error per *non-empty* group in the
                // oracle — and succeed over zero groups. Shape decline.
                _ => return Err(Counter::PipelineDeclineShape),
            },
            (AggFunc::Avg, Some(c)) => match schema.columns()[*c].dtype {
                DataType::Int | DataType::Float => PartialKind::Retained,
                _ => return Err(Counter::PipelineDeclineShape),
            },
            // Missing arguments error per group in the oracle; zero
            // groups succeed. Only the oracle can tell them apart.
            (_, None) => return Err(Counter::PipelineDeclineShape),
        };
        specs.push(AggSpec {
            func: a.func,
            arg: arg.map(Slot::Probe),
            kind,
        });
    }
    Ok(AggSink {
        schema: Arc::new(out_schema),
        keys,
        specs,
    })
}

// ---------------------------------------------------------------------
// Fused evaluation
// ---------------------------------------------------------------------

/// Fused-evaluation failure. Either kind routes to the counted
/// operator-at-a-time fallback; neither ever reaches the caller.
#[derive(Debug)]
enum PipeErr {
    /// A real evaluation error. The oracle errors too (it evaluates
    /// every stage over the same surviving rows), but stage-major vs
    /// operator-major order may pick a different *first* error — so the
    /// fused error is discarded and the fallback re-runs to surface the
    /// oracle's, verbatim.
    Query,
    /// Data contradicted a static assumption (e.g. a non-Int value in
    /// an Int column of a trusted table). The oracle handles it.
    Degrade,
}

impl From<RelationError> for PipeErr {
    fn from(_: RelationError) -> Self {
        PipeErr::Query
    }
}

/// Rows of one morsel as they move through the stages.
enum MorselRows {
    /// Every row in `[start, end)` of the source.
    All,
    /// Surviving source-row indices, ascending (late materialization).
    Sel(Vec<u32>),
    /// Projected rows of the survivors.
    Mat(Vec<Vec<Value>>),
}

/// The build row of a probe row a left join pads with NULLs.
const NO_ROW: u32 = u32::MAX;

/// One output row of a morsel, addressed without materializing it.
#[derive(Clone, Copy)]
enum RowRef<'m> {
    /// A source (probe) row and its build row (`NO_ROW` without a join,
    /// or for left-join padding).
    Src(u32, u32),
    /// A row a VM projection materialized.
    Mat(&'m [Value]),
}

static NULL: Value = Value::Null;

fn run_chain(
    src: Table,
    build: Option<Table>,
    chain: &Chain,
    cfg: &ExecConfig,
) -> Result<Table, QueryError> {
    if chain.join.is_some() {
        let last = chain.ops.len().saturating_sub(1);
        if chain
            .ops
            .iter()
            .enumerate()
            .any(|(i, op)| op_materializes(op, i == last))
        {
            // Computed probe columns: fuse the probe side on its own into
            // a table (the oracle evaluates it first too), then stream the
            // join over that table's key columns.
            let probe_side = Chain {
                ops: chain.ops.clone(),
                join: None,
                sink: Sink::Materialize,
                source: chain.source,
            };
            let probe = run_chain(src, None, &probe_side, cfg)?;
            let join_only = Chain {
                ops: Vec::new(),
                ..*chain
            };
            return run_chain(probe, build, &join_only, cfg);
        }
    }
    let compiled = match compile(
        chain,
        src.schema_shared(),
        build.as_ref().map(Table::schema),
    ) {
        Ok(c) => c,
        Err(decline) => {
            cfg.obs.count(decline);
            return run_ops(src, build, chain, cfg);
        }
    };
    let chunks = match Chunks::convert(&src, build.as_ref(), &compiled, cfg) {
        Ok(c) => c,
        Err(e) => {
            cfg.obs.count(e.counter());
            cfg.obs.count(Counter::PipelineDeclineConvert);
            return run_ops(src, build, chain, cfg);
        }
    };
    let fused = {
        let _span = cfg.obs.span(bi_exec::SpanKind::QueryPipeline);
        let name = match &build {
            Some(b) => format!("{}⋈{}", src.name(), b.name()),
            None => src.name().to_string(),
        };
        Fused::new(&src, build.as_ref(), &compiled, &chunks, name).and_then(|f| f.run(cfg))
    };
    match fused {
        Ok(out) => {
            cfg.obs.count(Counter::PlanChoicePipeline);
            count_ops(chain, cfg);
            Ok(out)
        }
        Err(_) => {
            cfg.obs.count(Counter::PipelineFallbackError);
            run_ops(src, build, chain, cfg)
        }
    }
}

/// The probe side's chain operator-at-a-time over its source — through
/// the exact helpers the tree walk uses, so counters, engine choices,
/// and errors are the oracle's.
fn run_probe_ops(src: Table, ops: &[ChainOp], cfg: &ExecConfig) -> Result<Table, QueryError> {
    let mut t = src;
    for op in ops {
        t = match op {
            ChainOp::Filter(pred) => exec::filter_op(&t, pred, cfg)?,
            ChainOp::Project(items) => exec::project_op(&t, items, cfg)?,
        };
    }
    Ok(t)
}

/// The decline/fallback target: the chain, operator-at-a-time, over the
/// already-executed source and build side; joins run on the serial row
/// join, the oracle.
fn run_ops(
    src: Table,
    build: Option<Table>,
    chain: &Chain,
    cfg: &ExecConfig,
) -> Result<Table, QueryError> {
    let mut t = run_probe_ops(src, &chain.ops, cfg)?;
    if let (Some(j), Some(build)) = (chain.join, build) {
        cfg.obs.count(Counter::QueryJoin);
        t = exec::join_op(&t, &build, j.kind, j.on, j.right_prefix, cfg)?;
    }
    match chain.sink {
        Sink::Materialize => Ok(t),
        Sink::Limit(n) => exec::limit_op(&t, n, cfg),
        Sink::Aggregate { group_by, aggs } => exec::aggregate_op(&t, group_by, aggs, cfg),
    }
}

/// Per-operator counters/spans for a fused chain, so workload totals
/// match the operator-at-a-time engine exactly.
fn count_ops(chain: &Chain, cfg: &ExecConfig) {
    for op in &chain.ops {
        match op {
            ChainOp::Filter(_) => {
                cfg.obs.count(Counter::QueryFilter);
                drop(cfg.obs.span(bi_exec::SpanKind::QueryFilter));
            }
            ChainOp::Project(_) => cfg.obs.count(Counter::QueryProject),
        }
    }
    if chain.join.is_some() {
        cfg.obs.count(Counter::QueryJoin);
        drop(cfg.obs.span(bi_exec::SpanKind::QueryJoinBuild));
        drop(cfg.obs.span(bi_exec::SpanKind::QueryJoinProbe));
    }
    match chain.sink {
        Sink::Materialize => {}
        Sink::Limit(_) => cfg.obs.count(Counter::QueryLimit),
        Sink::Aggregate { .. } => {
            cfg.obs.count(Counter::QueryAggregate);
            drop(cfg.obs.span(bi_exec::SpanKind::QueryAggregate));
        }
    }
}

/// The cached column chunks a fused run reads.
struct Chunks {
    /// Source columns: kernel inputs, probe keys, probe-side group keys.
    src: Option<ColumnChunk>,
    /// Build columns: join keys and build-side group keys.
    build: Option<ColumnChunk>,
    /// Whether every group-key column converted (the aggregate sink then
    /// slots rows by codes).
    coded: bool,
}

impl Chunks {
    fn convert(
        src: &Table,
        build: Option<&Table>,
        compiled: &Compiled,
        cfg: &ExecConfig,
    ) -> Result<Chunks, ColumnarError> {
        let mut src_cols = compiled.kernel_cols.clone();
        let mut build_cols = Vec::new();
        if let Some(j) = &compiled.join {
            src_cols.extend(&j.probe_keys);
            build_cols.extend(&j.build_keys);
        }
        // Group keys are read by code only when no stage materializes.
        let keyed = match &compiled.sink {
            CompiledSink::Aggregate(sink) if !compiled.materializes() => Some(sink),
            _ => None,
        };
        let (mut src_keys, mut build_keys) = (Vec::new(), Vec::new());
        for k in keyed.iter().flat_map(|sink| &sink.keys) {
            match *k {
                Slot::Probe(c) => src_keys.push(c),
                Slot::Build(c) => build_keys.push(c),
            }
        }
        let (src_chunk, src_coded) = convert_side(src, &src_cols, &src_keys, cfg)?;
        let (build_chunk, build_coded) = match build {
            Some(b) => convert_side(b, &build_cols, &build_keys, cfg)?,
            None => (None, true),
        };
        Ok(Chunks {
            src: src_chunk,
            build: build_chunk,
            coded: keyed.is_some() && src_coded && build_coded,
        })
    }
}

/// `cols` plus the group-key columns `keys` of `t`, through the chunk
/// cache. When a key column declines, `cols` alone (the flag reports
/// which) — the aggregate then hashes `Value`s instead of codes.
fn convert_side(
    t: &Table,
    cols: &[usize],
    keys: &[usize],
    cfg: &ExecConfig,
) -> Result<(Option<ColumnChunk>, bool), ColumnarError> {
    let convert = |wanted: &[usize]| -> Result<Option<ColumnChunk>, ColumnarError> {
        if wanted.is_empty() {
            return Ok(None);
        }
        let mut wanted = wanted.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        let chunk = ColumnChunk::from_table_cols_cached(t, &wanted, cfg)?;
        cfg.obs.count(Counter::ColumnarConvert);
        Ok(Some(chunk))
    };
    if keys.is_empty() {
        return Ok((convert(cols)?, true));
    }
    let all: Vec<usize> = cols.iter().chain(keys).copied().collect();
    match convert(&all) {
        Ok(chunk) => Ok((chunk, true)),
        Err(e) => {
            cfg.obs.count(e.counter());
            Ok((convert(cols)?, false))
        }
    }
}

/// A join key column of one side, read as `u64` keys in a keyspace both
/// sides share; `None` for NULL (never matches).
struct KeyEnc<'a> {
    col: &'a ChunkColumn,
    /// Text probe keys: probe dictionary code → build dictionary code
    /// (`NO_MATCH` for a string the build side lacks) — one string
    /// lookup per *distinct* probe value, integer compares per row.
    trans: Option<Vec<u64>>,
    /// Int keys against a Float column compare in `f64` `float_key`
    /// space, mirroring `Value::cmp`.
    float_space: bool,
}

/// A translated text key absent from the build side. Build codes are
/// dense `u32`s, so it never collides with a real one.
const NO_MATCH: u64 = u64::MAX;

impl KeyEnc<'_> {
    #[inline]
    fn key(&self, i: usize) -> Option<u64> {
        if self.col.validity.is_null(i) {
            return None;
        }
        Some(match &self.col.data {
            ColumnData::Text { codes, .. } => match &self.trans {
                Some(t) => t[codes[i] as usize],
                None => u64::from(codes[i]),
            },
            ColumnData::Int(v) if self.float_space => Value::float_key(v[i] as f64),
            ColumnData::Int(v) => v[i] as u64,
            ColumnData::Float(v) => Value::float_key(v[i]),
            ColumnData::Date(v) => v[i].days_from_epoch() as u64,
            ColumnData::Bool(v) => u64::from(v[i]),
        })
    }
}

/// Encoders for one (probe, build) key-column pair.
fn key_pair<'a>(probe: &'a ChunkColumn, build: &'a ChunkColumn) -> (KeyEnc<'a>, KeyEnc<'a>) {
    let float_space =
        matches!(probe.data, ColumnData::Float(_)) || matches!(build.data, ColumnData::Float(_));
    let trans = match (&probe.data, &build.data) {
        (ColumnData::Text { dict: pd, .. }, ColumnData::Text { dict: bd, .. }) => Some(
            (0..pd.len() as u32)
                .map(|c| bd.code_of(pd.get(c)).map_or(NO_MATCH, u64::from))
                .collect(),
        ),
        _ => None,
    };
    (
        KeyEnc {
            col: probe,
            trans,
            float_space,
        },
        KeyEnc {
            col: build,
            trans: None,
            float_space,
        },
    )
}

/// Build-side match lists, each ascending — the order the serial probe
/// emits.
enum MatchLists {
    /// A single text key: lists by build dictionary code, flattened
    /// (`rows[offsets[c]..offsets[c + 1]]`) — no hashing per probe.
    ByCode { offsets: Vec<u32>, rows: Vec<u32> },
    /// Any other key: hashed composite `u64` encodings.
    Hashed(HashMap<Vec<u64>, Vec<u32>>),
}

/// The streamed join: probe-key encoders and the build side's index.
struct Joiner<'a> {
    kind: JoinKind,
    probe: Vec<KeyEnc<'a>>,
    lists: MatchLists,
}

impl<'a> Joiner<'a> {
    fn new(
        plan: &JoinPlan,
        src: &'a ColumnChunk,
        build: &'a ColumnChunk,
        build_len: usize,
    ) -> Option<Self> {
        let mut probe = Vec::with_capacity(plan.probe_keys.len());
        let mut keys = Vec::with_capacity(plan.build_keys.len());
        for (&p, &b) in plan.probe_keys.iter().zip(&plan.build_keys) {
            let (pe, be) = key_pair(src.column(p)?, build.column(b)?);
            probe.push(pe);
            keys.push(be);
        }
        let lists = match keys.as_slice() {
            [only] => match &only.col.data {
                ColumnData::Text { codes, dict } => {
                    let valid = |i: usize| !only.col.validity.is_null(i);
                    let mut offsets = vec![0u32; dict.len() + 1];
                    for (i, &c) in codes.iter().enumerate() {
                        if valid(i) {
                            offsets[c as usize + 1] += 1;
                        }
                    }
                    for c in 0..dict.len() {
                        offsets[c + 1] += offsets[c];
                    }
                    let mut fill = offsets.clone();
                    let mut rows = vec![0u32; offsets[dict.len()] as usize];
                    for (i, &c) in codes.iter().enumerate() {
                        if valid(i) {
                            rows[fill[c as usize] as usize] = i as u32;
                            fill[c as usize] += 1;
                        }
                    }
                    MatchLists::ByCode { offsets, rows }
                }
                _ => hash_lists(&keys, build_len),
            },
            _ => hash_lists(&keys, build_len),
        };
        Some(Joiner {
            kind: plan.kind,
            probe,
            lists,
        })
    }

    /// Build rows matching probe row `p`, ascending. `buf` is scratch
    /// space for composite keys.
    #[inline]
    fn matches(&self, p: usize, buf: &mut Vec<u64>) -> &[u32] {
        match &self.lists {
            MatchLists::ByCode { offsets, rows } => match self.probe[0].key(p) {
                Some(c) if (c as usize) < offsets.len() - 1 => {
                    let c = c as usize;
                    &rows[offsets[c] as usize..offsets[c + 1] as usize]
                }
                _ => &[],
            },
            MatchLists::Hashed(map) => {
                buf.clear();
                for e in &self.probe {
                    match e.key(p) {
                        Some(k) => buf.push(k),
                        // A NULL in any key position never matches.
                        None => return &[],
                    }
                }
                map.get(buf.as_slice()).map_or(&[], Vec::as_slice)
            }
        }
    }
}

fn hash_lists(keys: &[KeyEnc], build_len: usize) -> MatchLists {
    let mut map: HashMap<Vec<u64>, Vec<u32>> = HashMap::new();
    let mut key = Vec::with_capacity(keys.len());
    'rows: for i in 0..build_len {
        key.clear();
        for e in keys {
            match e.key(i) {
                Some(k) => key.push(k),
                None => continue 'rows,
            }
        }
        match map.get_mut(key.as_slice()) {
            Some(list) => list.push(i as u32),
            None => {
                map.insert(key.clone(), vec![i as u32]);
            }
        }
    }
    MatchLists::Hashed(map)
}

/// A group-key column's codes, from either side of the join.
enum KeyCodes<'a> {
    Probe(GroupCodes<'a>),
    Build(GroupCodes<'a>),
}

impl KeyCodes<'_> {
    #[inline]
    fn code(&self, p: u32, b: u32) -> u32 {
        match self {
            KeyCodes::Probe(g) => g.code(p as usize),
            KeyCodes::Build(g) if b == NO_ROW => g.null_code(),
            KeyCodes::Build(g) => g.code(b as usize),
        }
    }

    fn cardinality(&self) -> u32 {
        match self {
            KeyCodes::Probe(g) | KeyCodes::Build(g) => g.cardinality(),
        }
    }
}

/// Everything one fused run reads, shared by every morsel.
struct Fused<'a> {
    src: &'a Table,
    build_rows: &'a [Vec<Value>],
    compiled: &'a Compiled,
    chunk: Option<&'a ColumnChunk>,
    join: Option<Joiner<'a>>,
    /// Group-key codes when the aggregate sink slots rows by code.
    codes: Option<Vec<KeyCodes<'a>>>,
    name: String,
}

impl<'a> Fused<'a> {
    fn new(
        src: &'a Table,
        build: Option<&'a Table>,
        compiled: &'a Compiled,
        chunks: &'a Chunks,
        name: String,
    ) -> Result<Self, PipeErr> {
        // The conversions materialized exactly the columns read below;
        // step aside to the oracle if that invariant ever breaks.
        let join = match (&compiled.join, &chunks.src, &chunks.build, build) {
            (None, ..) => None,
            (Some(plan), Some(s), Some(b), Some(bt)) => {
                Some(Joiner::new(plan, s, b, bt.len()).ok_or(PipeErr::Degrade)?)
            }
            _ => return Err(PipeErr::Degrade),
        };
        let codes = match (&compiled.sink, chunks.coded) {
            (CompiledSink::Aggregate(sink), true) => {
                let side = |c: &'a Option<ColumnChunk>, col: usize| {
                    c.as_ref()
                        .and_then(|c| c.column(col))
                        .map(ChunkColumn::group_codes)
                        .ok_or(PipeErr::Degrade)
                };
                let codes: Result<Vec<KeyCodes>, PipeErr> = sink
                    .keys
                    .iter()
                    .map(|k| match *k {
                        Slot::Probe(c) => side(&chunks.src, c).map(KeyCodes::Probe),
                        Slot::Build(c) => side(&chunks.build, c).map(KeyCodes::Build),
                    })
                    .collect();
                Some(codes?)
            }
            _ => None,
        };
        Ok(Fused {
            src,
            build_rows: build.map_or(&[], Table::rows),
            compiled,
            chunk: chunks.src.as_ref(),
            join,
            codes,
            name,
        })
    }

    fn run(&self, cfg: &ExecConfig) -> Result<Table, PipeErr> {
        match &self.compiled.sink {
            CompiledSink::Aggregate(sink) => self.aggregate(sink, cfg),
            CompiledSink::Limit(n) => self.limit(*n, cfg),
            CompiledSink::Materialize => self.materialize(cfg),
        }
    }

    fn schema(&self) -> Arc<Schema> {
        self.compiled
            .schema
            .clone()
            .unwrap_or_else(|| self.src.schema_shared())
    }

    /// One morsel through every stage. Selection vectors pass through
    /// filters unmaterialized; the first projection materializes
    /// survivors.
    fn push_morsel(&self, start: usize, end: usize) -> Result<MorselRows, PipeErr> {
        let src = self.src;
        let mut vm = Vm::new();
        let mut state = MorselRows::All;
        for stage in &self.compiled.stages {
            state = match stage {
                Stage::Kernel(k) => {
                    let Some(chunk) = self.chunk else {
                        return Err(PipeErr::Degrade);
                    };
                    let mask = k.eval_range(chunk, start, end);
                    match state {
                        MorselRows::All => MorselRows::Sel(mask.selected(start as u32)),
                        MorselRows::Sel(mut sel) => {
                            sel.retain(|&i| mask.is_true(i as usize - start));
                            MorselRows::Sel(sel)
                        }
                        // Kernels never compile after a projection.
                        MorselRows::Mat(_) => return Err(PipeErr::Degrade),
                    }
                }
                Stage::VmFilter(p) => match state {
                    MorselRows::All => {
                        let mut sel = Vec::new();
                        for i in start..end {
                            if vm.run(p, &src.rows()[i])?.as_bool().unwrap_or(false) {
                                sel.push(i as u32);
                            }
                        }
                        MorselRows::Sel(sel)
                    }
                    MorselRows::Sel(sel) => {
                        let mut out = Vec::with_capacity(sel.len());
                        for i in sel {
                            if vm
                                .run(p, &src.rows()[i as usize])?
                                .as_bool()
                                .unwrap_or(false)
                            {
                                out.push(i);
                            }
                        }
                        MorselRows::Sel(out)
                    }
                    MorselRows::Mat(rows) => {
                        let mut out = Vec::with_capacity(rows.len());
                        for row in rows {
                            if vm.run(p, &row)?.as_bool().unwrap_or(false) {
                                out.push(row);
                            }
                        }
                        MorselRows::Mat(out)
                    }
                },
                Stage::VmProject(programs) => {
                    let mut project = |row: &[Value]| -> Result<Vec<Value>, PipeErr> {
                        let mut cells = Vec::with_capacity(programs.len());
                        for p in programs {
                            cells.push(vm.run(p, row)?);
                        }
                        Ok(cells)
                    };
                    MorselRows::Mat(match state {
                        MorselRows::All => {
                            let mut out = Vec::with_capacity(end - start);
                            for i in start..end {
                                out.push(project(&src.rows()[i])?);
                            }
                            out
                        }
                        MorselRows::Sel(sel) => {
                            let mut out = Vec::with_capacity(sel.len());
                            for &i in &sel {
                                out.push(project(&src.rows()[i as usize])?);
                            }
                            out
                        }
                        MorselRows::Mat(rows) => {
                            let mut out = Vec::with_capacity(rows.len());
                            for row in rows {
                                out.push(project(&row)?);
                            }
                            out
                        }
                    })
                }
            };
        }
        Ok(state)
    }

    /// Calls `f` on every output row of one morsel, in output order: the
    /// surviving rows, each expanded to its join matches (or padded, for
    /// a left join) when the chain streams a join.
    fn for_each_row<'m, F>(
        &self,
        m: &'m MorselRows,
        start: usize,
        end: usize,
        mut f: F,
    ) -> Result<(), PipeErr>
    where
        F: FnMut(RowRef<'m>) -> Result<(), PipeErr>,
    {
        if let MorselRows::Mat(rows) = m {
            // Probe rows are always source rows (computed probe columns
            // are materialized into a table first).
            if self.join.is_some() {
                return Err(PipeErr::Degrade);
            }
            return rows.iter().try_for_each(|r| f(RowRef::Mat(r)));
        }
        let mut buf = Vec::new();
        let mut visit = |p: u32| -> Result<(), PipeErr> {
            let Some(join) = &self.join else {
                return f(RowRef::Src(p, NO_ROW));
            };
            let matches = join.matches(p as usize, &mut buf);
            if matches.is_empty() && join.kind == JoinKind::Left {
                return f(RowRef::Src(p, NO_ROW));
            }
            matches.iter().try_for_each(|&b| f(RowRef::Src(p, b)))
        };
        match m {
            MorselRows::Sel(sel) => sel.iter().try_for_each(|&p| visit(p)),
            _ => (start as u32..end as u32).try_for_each(visit),
        }
    }

    /// The cell of output column `s` in row `r`.
    #[inline]
    fn cell<'r>(&'r self, r: RowRef<'r>, s: Slot) -> &'r Value {
        match (r, s) {
            (RowRef::Src(p, _), Slot::Probe(c)) => &self.src.rows()[p as usize][c],
            (RowRef::Src(_, b), Slot::Build(c)) if b != NO_ROW => &self.build_rows[b as usize][c],
            (RowRef::Mat(row), Slot::Probe(c)) => &row[c],
            _ => &NULL,
        }
    }

    /// Row `r` as the chain outputs it.
    fn emit(&self, r: RowRef) -> Vec<Value> {
        match (&self.compiled.slots, r) {
            (Some(slots), RowRef::Src(p, b)) => {
                let probe = &self.src.rows()[p as usize];
                let build = self.build_rows.get(b as usize);
                let mut row = Vec::with_capacity(slots.len());
                row.extend(slots.iter().map(|&s| match (s, build) {
                    (Slot::Probe(c), _) => probe[c].clone(),
                    (Slot::Build(c), Some(cells)) => cells[c].clone(),
                    (Slot::Build(_), None) => Value::Null,
                }));
                row
            }
            (Some(slots), _) => slots.iter().map(|&s| self.cell(r, s).clone()).collect(),
            (None, RowRef::Src(p, _)) => self.src.rows()[p as usize].clone(),
            (None, RowRef::Mat(row)) => row.to_vec(),
        }
    }

    /// One morsel's output rows. Materialized rows the chain outputs as
    /// they are move instead of being copied.
    fn emit_morsel(
        &self,
        m: MorselRows,
        start: usize,
        end: usize,
    ) -> Result<Vec<Vec<Value>>, PipeErr> {
        match m {
            MorselRows::Mat(rows) if self.compiled.slots.is_none() => Ok(rows),
            m => {
                let mut out = Vec::new();
                self.for_each_row(&m, start, end, |r| {
                    out.push(self.emit(r));
                    Ok(())
                })?;
                Ok(out)
            }
        }
    }

    fn materialize(&self, cfg: &ExecConfig) -> Result<Table, PipeErr> {
        let len = self.src.len();
        // With the source's own shape, a morsel whose filters kept every
        // row reports it instead of copying; if all of them do, the
        // result shares the source's storage, exactly as each
        // operator-at-a-time filter's keep-all fast path does.
        let sharing = self.compiled.schema.is_none() && self.compiled.slots.is_none();
        let per: Vec<Option<Vec<Vec<Value>>>> =
            bi_exec::try_par_ranges(cfg, len, bi_exec::MORSEL_ROWS, |s, e| {
                let m = self.push_morsel(s, e)?;
                let kept_all = match &m {
                    MorselRows::All => true,
                    MorselRows::Sel(sel) => sel.len() == e - s,
                    MorselRows::Mat(_) => false,
                };
                if sharing && kept_all {
                    return Ok(None);
                }
                self.emit_morsel(m, s, e).map(Some)
            })?;
        if per.iter().all(Option::is_none) && sharing {
            return Ok(self.src.clone());
        }
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for (m, (s, e)) in per.into_iter().zip(morsel_ranges(len)) {
            match m {
                Some(block) => rows.extend(block),
                None => rows.extend_from_slice(&self.src.rows()[s..e]),
            }
        }
        Ok(Table::from_rows_trusted(
            self.name.clone(),
            self.schema(),
            rows,
        ))
    }

    fn limit(&self, n: usize, cfg: &ExecConfig) -> Result<Table, PipeErr> {
        let len = self.src.len();
        // Kernels, remaps and the join probe are pure and infallible:
        // stopping after `n` rows cannot suppress an error the oracle
        // would raise. A fallible stage must see every row — the
        // oracle's Limit fully materializes its input.
        let all_kernel = self
            .compiled
            .stages
            .iter()
            .all(|s| matches!(s, Stage::Kernel(_)));
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(n.min(len));
        if all_kernel {
            for (s, e) in morsel_ranges(len) {
                if rows.len() >= n {
                    break;
                }
                let m = self.push_morsel(s, e)?;
                self.for_each_row(&m, s, e, |r| {
                    if rows.len() < n {
                        rows.push(self.emit(r));
                    }
                    Ok(())
                })?;
            }
        } else {
            let per: Vec<Vec<Vec<Value>>> =
                bi_exec::try_par_ranges(cfg, len, bi_exec::MORSEL_ROWS, |s, e| {
                    self.emit_morsel(self.push_morsel(s, e)?, s, e)
                })?;
            rows.extend(per.into_iter().flatten().take(n));
        }
        Ok(Table::from_rows_trusted(
            self.name.clone(),
            self.schema(),
            rows,
        ))
    }

    fn aggregate(&self, sink: &AggSink, cfg: &ExecConfig) -> Result<Table, PipeErr> {
        let per: Vec<Vec<Group>> =
            bi_exec::try_par_ranges(cfg, self.src.len(), bi_exec::MORSEL_ROWS, |s, e| {
                let m = self.push_morsel(s, e)?;
                match &self.codes {
                    Some(codes) => self.fold_codes(sink, codes, &m, s, e),
                    None => self.fold_values(sink, &m, s, e),
                }
            })?;
        // Merge thread-local states in morsel order: global group order
        // is first appearance in row order — exactly the serial engine's.
        let mut groups: Vec<Group> = Vec::new();
        let merge = |groups: &mut Vec<Group>, at: Option<usize>, mg: Group| match at {
            Some(g) => {
                for (spec, (p, q)) in sink
                    .specs
                    .iter()
                    .zip(groups[g].aggs.iter_mut().zip(mg.aggs))
                {
                    p.merge(q, spec.kind);
                }
            }
            None => groups.push(mg),
        };
        match &self.codes {
            Some(codes) => {
                let cards: Vec<u32> = codes.iter().map(KeyCodes::cardinality).collect();
                let mut slots = GroupSlots::new(&cards);
                for mg in per.into_iter().flatten() {
                    let (g, fresh) = slots.slot(&mg.codes);
                    merge(&mut groups, (!fresh).then_some(g as usize), mg);
                }
            }
            None => {
                let mut by_key: HashMap<Vec<Value>, usize> = HashMap::new();
                for mg in per.into_iter().flatten() {
                    let at = by_key.get(mg.key.as_slice()).copied();
                    if at.is_none() {
                        by_key.insert(mg.key.clone(), groups.len());
                    }
                    merge(&mut groups, at, mg);
                }
            }
        }
        if groups.is_empty() && sink.keys.is_empty() {
            // A global aggregate over zero rows still emits one row.
            groups.push(Group::fresh(sink, Vec::new(), Vec::new()));
        }
        // Validating construction in group order — the serial engine's
        // `Table::new` + `push_row`, so even validation errors match.
        let mut out = Table::new(self.name.clone(), sink.schema.clone());
        for g in groups {
            let mut row = g.key;
            for (spec, p) in sink.specs.iter().zip(g.aggs) {
                row.push(p.finalize(spec.func).map_err(|_| PipeErr::Query)?);
            }
            out.push_row(row).map_err(PipeErr::from)?;
        }
        Ok(out)
    }

    fn update(&self, sink: &AggSink, group: &mut Group, r: RowRef) -> Result<(), PipeErr> {
        for (spec, p) in sink.specs.iter().zip(&mut group.aggs) {
            p.update(spec.kind, spec.arg.map(|s| self.cell(r, s)))?;
        }
        Ok(())
    }

    fn key_cells(&self, sink: &AggSink, r: RowRef) -> Vec<Value> {
        sink.keys.iter().map(|&s| self.cell(r, s).clone()).collect()
    }

    /// Folds one morsel's rows into per-group partial states, in row
    /// order, groups in first-appearance order, slotting each row by its
    /// key columns' codes. Key cells are cloned only when a group opens.
    fn fold_codes(
        &self,
        sink: &AggSink,
        codes: &[KeyCodes],
        m: &MorselRows,
        start: usize,
        end: usize,
    ) -> Result<Vec<Group>, PipeErr> {
        let cards: Vec<u32> = codes.iter().map(KeyCodes::cardinality).collect();
        let mut slots = GroupSlots::new(&cards);
        let mut key = vec![0u32; codes.len()];
        let mut groups: Vec<Group> = Vec::new();
        self.for_each_row(m, start, end, |r| {
            let RowRef::Src(p, b) = r else {
                return Err(PipeErr::Degrade);
            };
            for (k, c) in key.iter_mut().zip(codes) {
                *k = c.code(p, b);
            }
            let (g, fresh) = slots.slot(&key);
            if fresh {
                groups.push(Group::fresh(sink, self.key_cells(sink, r), key.clone()));
            }
            self.update(sink, &mut groups[g as usize], r)
        })?;
        Ok(groups)
    }

    /// The `Value`-hashing fold, for rows a VM projection materialized
    /// (and key columns that declined conversion). Group probing hashes
    /// the key cells in place (no per-row key allocation).
    fn fold_values(
        &self,
        sink: &AggSink,
        m: &MorselRows,
        start: usize,
        end: usize,
    ) -> Result<Vec<Group>, PipeErr> {
        let mut groups: Vec<Group> = Vec::new();
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        self.for_each_row(m, start, end, |r| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            for &s in &sink.keys {
                self.cell(r, s).hash(&mut h);
            }
            let cands = by_hash.entry(h.finish()).or_default();
            let found = cands.iter().copied().find(|&g| {
                groups[g]
                    .key
                    .iter()
                    .zip(&sink.keys)
                    .all(|(k, &s)| k == self.cell(r, s))
            });
            let g = match found {
                Some(g) => g,
                None => {
                    cands.push(groups.len());
                    groups.push(Group::fresh(sink, self.key_cells(sink, r), Vec::new()));
                    groups.len() - 1
                }
            };
            self.update(sink, &mut groups[g], r)
        })?;
        Ok(groups)
    }
}

fn morsel_ranges(len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len)
        .step_by(bi_exec::MORSEL_ROWS)
        .map(move |s| (s, (s + bi_exec::MORSEL_ROWS).min(len)))
}

// ---------------------------------------------------------------------
// Group slotting
// ---------------------------------------------------------------------

/// Key codes below this bound slot through a direct-indexed table; a
/// wider first key column hashes.
const DIRECT_SLOTS: u32 = 1 << 16;

/// Dense group ids for tuples of per-column key codes (one code per key
/// column, each below that column's cardinality), handed out in
/// first-appearance order. Equal tuples ⇔ equal ids, so slotting rows
/// in row order reproduces the serial engine's group order. The one
/// grouping routine behind the fused aggregate sink (per morsel, and
/// again to merge morsels by code) and the columnar group-by.
pub(crate) struct GroupSlots {
    /// First key column: code → its prefix id (`u32::MAX` unseen).
    direct: Vec<u32>,
    /// The same for a first key column too wide to index directly.
    hashed: HashMap<u32, u32>,
    /// Ids handed out for the first key column (or the one group of a
    /// keyless aggregate).
    first: u32,
    /// One map per further key column: `(prefix id, code)` → prefix id,
    /// plus the ids handed out so far.
    folds: Vec<(HashMap<u64, u32>, u32)>,
}

impl GroupSlots {
    pub(crate) fn new(cards: &[u32]) -> Self {
        let direct = match cards.first() {
            Some(&c) if c <= DIRECT_SLOTS => vec![u32::MAX; c as usize],
            _ => Vec::new(),
        };
        GroupSlots {
            direct,
            hashed: HashMap::new(),
            first: 0,
            folds: cards.iter().skip(1).map(|_| (HashMap::new(), 0)).collect(),
        }
    }

    /// The group of `key`, opening the next id when the tuple is new.
    /// Returns `(id, new)`.
    #[inline]
    pub(crate) fn slot(&mut self, key: &[u32]) -> (u32, bool) {
        let Some((&c0, rest)) = key.split_first() else {
            let fresh = self.first == 0;
            self.first = 1;
            return (0, fresh);
        };
        let next = self.first;
        let mut id = match self.direct.get_mut(c0 as usize) {
            Some(s) => {
                if *s == u32::MAX {
                    *s = next;
                }
                *s
            }
            None => *self.hashed.entry(c0).or_insert(next),
        };
        let mut fresh = id == next;
        if fresh {
            self.first += 1;
        }
        for ((map, n), &c) in self.folds.iter_mut().zip(rest) {
            let next = *n;
            id = *map
                .entry(u64::from(id) << 32 | u64::from(c))
                .or_insert(next);
            fresh = id == next;
            if fresh {
                *n += 1;
            }
        }
        (id, fresh)
    }
}

// ---------------------------------------------------------------------
// Partial aggregation
// ---------------------------------------------------------------------

/// One aggregate's accumulated state for one group.
enum PAgg {
    Count(u64),
    Distinct(HashSet<Value>),
    /// Running sum plus the min/max *prefix* sums in `i128`: the oracle
    /// `checked_add`s in `i64`, so it overflows iff any prefix leaves
    /// `i64` — e.g. `[i64::MAX, 1, -1]` errors even though the total
    /// fits. Prefix extremes compose across morsels by offsetting the
    /// right side's extremes by the left side's total.
    SumInt {
        sum: i128,
        lo: i128,
        hi: i128,
        any: bool,
    },
    Best(Option<Value>),
    Retained(Vec<Value>),
}

impl PAgg {
    fn init(kind: PartialKind) -> PAgg {
        match kind {
            PartialKind::CountStar | PartialKind::Count => PAgg::Count(0),
            PartialKind::Distinct => PAgg::Distinct(HashSet::new()),
            PartialKind::SumInt => PAgg::SumInt {
                sum: 0,
                lo: 0,
                hi: 0,
                any: false,
            },
            PartialKind::Min | PartialKind::Max => PAgg::Best(None),
            PartialKind::Retained => PAgg::Retained(Vec::new()),
        }
    }

    fn update(&mut self, kind: PartialKind, cell: Option<&Value>) -> Result<(), PipeErr> {
        let valid = cell.filter(|v| !v.is_null());
        match self {
            PAgg::Count(nn) => {
                if kind == PartialKind::CountStar || valid.is_some() {
                    *nn += 1;
                }
            }
            PAgg::Distinct(set) => {
                if let Some(v) = valid {
                    if !set.contains(v) {
                        set.insert(v.clone());
                    }
                }
            }
            PAgg::SumInt { sum, lo, hi, any } => {
                if let Some(v) = valid {
                    let Value::Int(i) = v else {
                        // A non-Int value in an Int-typed column: data
                        // drifted from the schema under a trusted
                        // constructor. The oracle's dynamic dispatch
                        // handles it; the fused engine steps aside.
                        return Err(PipeErr::Degrade);
                    };
                    *sum += i128::from(*i);
                    *lo = (*lo).min(*sum);
                    *hi = (*hi).max(*sum);
                    *any = true;
                }
            }
            PAgg::Best(best) => {
                if let Some(v) = valid {
                    let replace = match (&best, kind) {
                        (None, _) => true,
                        // First minimum wins ties (strict `<`)…
                        (Some(b), PartialKind::Min) => v.cmp(b) == Ordering::Less,
                        // …last maximum wins ties (`>=`).
                        (Some(b), _) => v.cmp(b) != Ordering::Less,
                    };
                    if replace {
                        *best = Some(v.clone());
                    }
                }
            }
            PAgg::Retained(vals) => {
                if let Some(v) = valid {
                    vals.push(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Merges `other` (a strictly later morsel's state) into `self`.
    fn merge(&mut self, other: PAgg, kind: PartialKind) {
        match (self, other) {
            (PAgg::Count(a), PAgg::Count(b)) => *a += b,
            (PAgg::Distinct(a), PAgg::Distinct(b)) => a.extend(b),
            (
                PAgg::SumInt { sum, lo, hi, any },
                PAgg::SumInt {
                    sum: bsum,
                    lo: blo,
                    hi: bhi,
                    any: bany,
                },
            ) => {
                if bany {
                    *lo = (*lo).min(*sum + blo);
                    *hi = (*hi).max(*sum + bhi);
                    *sum += bsum;
                    *any = true;
                }
            }
            (PAgg::Best(a), PAgg::Best(Some(b))) => {
                let replace = match (&a, kind) {
                    (None, _) => true,
                    (Some(av), PartialKind::Min) => b.cmp(av) == Ordering::Less,
                    (Some(av), _) => b.cmp(av) != Ordering::Less,
                };
                if replace {
                    *a = Some(b);
                }
            }
            (PAgg::Best(_), PAgg::Best(None)) => {}
            (PAgg::Retained(a), PAgg::Retained(b)) => a.extend(b),
            _ => debug_assert!(false, "partial-aggregate kinds never mix"),
        }
    }

    fn finalize(self, func: AggFunc) -> Result<Value, QueryError> {
        Ok(match self {
            PAgg::Count(n) => Value::Int(n as i64),
            PAgg::Distinct(set) => Value::Int(set.len() as i64),
            PAgg::SumInt { sum, lo, hi, any } => {
                if !any {
                    Value::Null
                } else if lo < i128::from(i64::MIN) || hi > i128::from(i64::MAX) {
                    return Err(RelationError::Overflow { op: "sum" }.into());
                } else {
                    Value::Int(sum as i64)
                }
            }
            PAgg::Best(best) => best.unwrap_or(Value::Null),
            PAgg::Retained(vals) => exec::eval_agg_values(func, 0, Some(vals.iter()))?,
        })
    }
}

/// One group's first-encountered key cells (verbatim bytes — matters
/// for `Value`-equal but distinct representations like `-0.0`/`0.0`),
/// its key codes when slotted by code, plus one partial state per
/// aggregate.
struct Group {
    key: Vec<Value>,
    codes: Vec<u32>,
    aggs: Vec<PAgg>,
}

impl Group {
    fn fresh(sink: &AggSink, key: Vec<Value>, codes: Vec<u32>) -> Group {
        Group {
            key,
            codes,
            aggs: sink.specs.iter().map(|s| PAgg::init(s.kind)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::scan;
    use bi_relation::expr::{col, lit};

    #[test]
    fn decompose_finds_chains_and_breakers() {
        let chain = scan("T")
            .filter(col("a").ge(lit(1)))
            .project(vec![("a".into(), col("a"))])
            .aggregate(vec!["a".into()], vec![AggItem::count_star("n")]);
        let d = decompose(&chain).unwrap();
        assert_eq!(d.ops.len(), 2);
        assert!(matches!(d.ops[0], ChainOp::Filter(_)));
        assert!(matches!(d.ops[1], ChainOp::Project(_)));
        assert!(matches!(d.sink, Sink::Aggregate { .. }));
        assert!(matches!(d.source, Plan::Scan { .. }));
        assert!(d.join.is_none());
        assert_eq!(d.fused_ops(), 3);

        // Bare aggregate over a scan: nothing to fuse with.
        let bare = scan("T").aggregate(vec![], vec![AggItem::count_star("n")]);
        assert_eq!(decompose(&bare).unwrap().fused_ops(), 1);

        // Limit(Sort) stays with the top-k fusion, not the pipeline.
        let topk = scan("T")
            .sort(vec![crate::plan::SortKey::asc("a")])
            .limit(5);
        assert!(decompose(&topk).is_none());

        // Limit over a filter chains.
        let lim = scan("T").filter(col("a").ge(lit(1))).limit(5);
        let d = decompose(&lim).unwrap();
        assert_eq!(d.fused_ops(), 2);
        assert!(matches!(d.sink, Sink::Limit(5)));
    }

    #[test]
    fn decompose_streams_a_join_under_its_sink() {
        // Aggregate directly over a join: the probe chain is the join's
        // left side, the build side its right input.
        let plan = scan("F")
            .filter(col("a").ge(lit(1)))
            .join(scan("D"), vec![("k".into(), "k".into())], "d")
            .aggregate(vec!["g".into()], vec![AggItem::count_star("n")]);
        let d = decompose(&plan).unwrap();
        assert!(matches!(d.sink, Sink::Aggregate { .. }));
        assert_eq!(d.ops.len(), 1);
        assert!(matches!(d.source, Plan::Scan { table } if table == "F"));
        let j = d.join.expect("join streamed");
        assert!(matches!(j.build, Plan::Scan { table } if table == "D"));

        // A bare join root enters with a materialize sink.
        let bare = scan("F").join(scan("D"), vec![("k".into(), "k".into())], "d");
        let d = decompose(&bare).unwrap();
        assert!(d.join.is_some() && d.ops.is_empty());
        assert!(matches!(d.sink, Sink::Materialize));

        // A filter between sink and join fuses over the joined table.
        let post = bare
            .clone()
            .filter(col("a").ge(lit(1)))
            .aggregate(vec![], vec![AggItem::count_star("n")]);
        let d = decompose(&post).unwrap();
        assert!(d.join.is_none());
        assert!(matches!(d.source, Plan::Join { .. }));
    }

    #[test]
    fn trailing_identity_projection_compiles_to_a_remap() {
        use bi_types::{Column, DataType};
        // Filter → prune-and-reorder Project → GroupBy: the obligation
        // shape. The projection must cost zero stages — the aggregate's
        // indices point straight at source columns.
        let plan = scan("T")
            .filter(col("v").ge(lit(1)))
            .project(vec![("g".into(), col("g")), ("v".into(), col("v"))])
            .aggregate(vec!["g".into()], vec![AggItem::new("s", AggFunc::Sum, "v")]);
        let chain = decompose(&plan).unwrap();
        let schema = Arc::new(
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("g", DataType::Text),
                Column::new("v", DataType::Int),
            ])
            .unwrap(),
        );
        let compiled = compile(&chain, schema, None).unwrap();
        assert_eq!(
            compiled.stages.len(),
            1,
            "filter only; the projection is a remap"
        );
        assert!(
            compiled.slots.is_none(),
            "the aggregate sink consumes the remap"
        );
        let CompiledSink::Aggregate(agg) = &compiled.sink else {
            panic!("aggregate sink expected");
        };
        assert_eq!(agg.keys, vec![Slot::Probe(1)], "g in the *source* schema");
        assert_eq!(
            agg.specs[0].arg,
            Some(Slot::Probe(2)),
            "v in the *source* schema"
        );

        // A computed projection still compiles to a VM stage.
        let plan = scan("T")
            .project(vec![("g".into(), col("g").eq(lit("x")))])
            .aggregate(vec![], vec![AggItem::count_star("n")]);
        let chain = decompose(&plan).unwrap();
        let schema = Arc::new(Schema::new(vec![Column::new("g", DataType::Text)]).unwrap());
        let compiled = compile(&chain, schema, None).unwrap();
        assert_eq!(compiled.stages.len(), 1);
        assert!(matches!(compiled.stages[0], Stage::VmProject(_)));
    }

    #[test]
    fn join_aggregate_reads_keys_from_either_side() {
        use bi_types::{Column, DataType};
        let fact = Arc::new(
            Schema::new(vec![
                Column::new("drug", DataType::Text),
                Column::new("qty", DataType::Int),
            ])
            .unwrap(),
        );
        let dim = Schema::new(vec![
            Column::new("drug", DataType::Text),
            Column::new("family", DataType::Text),
        ])
        .unwrap();
        let plan = scan("F")
            .join(scan("D"), vec![("drug".into(), "drug".into())], "d")
            .aggregate(
                vec!["family".into(), "drug".into()],
                vec![AggItem::new("q", AggFunc::Sum, "qty")],
            );
        let chain = decompose(&plan).unwrap();
        let compiled = compile(&chain, fact, Some(&dim)).unwrap();
        let CompiledSink::Aggregate(agg) = &compiled.sink else {
            panic!("aggregate sink expected");
        };
        assert_eq!(agg.keys, vec![Slot::Build(1), Slot::Probe(0)]);
        assert_eq!(agg.specs[0].arg, Some(Slot::Probe(1)));
        let join = compiled.join.as_ref().unwrap();
        assert_eq!(
            (join.probe_keys.clone(), join.build_keys.clone()),
            (vec![0], vec![0])
        );

        // Cross-typed keys never compare equal: a counted shape decline.
        let plan = scan("F").join(scan("D"), vec![("qty".into(), "drug".into())], "d");
        let chain = decompose(&plan).unwrap();
        let fact = Arc::new(
            Schema::new(vec![
                Column::new("drug", DataType::Text),
                Column::new("qty", DataType::Int),
            ])
            .unwrap(),
        );
        assert!(matches!(
            compile(&chain, fact, Some(&dim)),
            Err(Counter::PipelineDeclineShape)
        ));
    }

    #[test]
    fn group_slots_assign_first_appearance_ids() {
        // One key column, direct-indexed.
        let mut one = GroupSlots::new(&[4]);
        let ids: Vec<(u32, bool)> = [2, 0, 2, 3, 0].iter().map(|&c| one.slot(&[c])).collect();
        assert_eq!(
            ids,
            [(0, true), (1, true), (0, false), (2, true), (1, false)]
        );

        // A first column too wide to index directly hashes instead.
        let mut wide = GroupSlots::new(&[u32::MAX]);
        assert_eq!(wide.slot(&[70_000]), (0, true));
        assert_eq!(wide.slot(&[5]), (1, true));
        assert_eq!(wide.slot(&[70_000]), (0, false));

        // Two columns: ids follow first appearance of the *tuple*.
        let mut two = GroupSlots::new(&[3, 3]);
        let ids: Vec<u32> = [[0, 1], [1, 1], [0, 1], [0, 2], [1, 1]]
            .iter()
            .map(|k| two.slot(k).0)
            .collect();
        assert_eq!(ids, [0, 1, 0, 2, 1]);

        // No key columns: one global group.
        let mut none = GroupSlots::new(&[]);
        assert_eq!(none.slot(&[]), (0, true));
        assert_eq!(none.slot(&[]), (0, false));
    }

    #[test]
    fn sum_int_prefix_extremes_reproduce_checked_add() {
        // [i64::MAX, 1, -1] sums to i64::MAX but the oracle's
        // checked_add overflows at the second element.
        let mut p = PAgg::init(PartialKind::SumInt);
        for v in [Value::Int(i64::MAX), Value::Int(1), Value::Int(-1)] {
            p.update(PartialKind::SumInt, Some(&v)).unwrap();
        }
        assert!(p.finalize(AggFunc::Sum).is_err());

        // The same holds when the overflow happens across a merge.
        let mut a = PAgg::init(PartialKind::SumInt);
        a.update(PartialKind::SumInt, Some(&Value::Int(i64::MAX)))
            .unwrap();
        let mut b = PAgg::init(PartialKind::SumInt);
        b.update(PartialKind::SumInt, Some(&Value::Int(1))).unwrap();
        b.update(PartialKind::SumInt, Some(&Value::Int(-1)))
            .unwrap();
        a.merge(b, PartialKind::SumInt);
        assert!(a.finalize(AggFunc::Sum).is_err());

        // In-range prefixes merge to the exact sum.
        let mut a = PAgg::init(PartialKind::SumInt);
        a.update(PartialKind::SumInt, Some(&Value::Int(40)))
            .unwrap();
        let mut b = PAgg::init(PartialKind::SumInt);
        b.update(PartialKind::SumInt, Some(&Value::Int(2))).unwrap();
        a.merge(b, PartialKind::SumInt);
        assert_eq!(a.finalize(AggFunc::Sum).unwrap(), Value::Int(42));

        // All-null group: Null, not 0.
        let p = PAgg::init(PartialKind::SumInt);
        assert_eq!(p.finalize(AggFunc::Sum).unwrap(), Value::Null);
    }

    #[test]
    fn min_keeps_first_and_max_keeps_last() {
        // Two Value-equal but byte-distinct floats: 0.0 and -0.0.
        let pos = Value::Float(0.0);
        let neg = Value::Float(-0.0);
        assert_eq!(pos.cmp(&neg), Ordering::Equal);

        let mut mn = PAgg::init(PartialKind::Min);
        mn.update(PartialKind::Min, Some(&pos)).unwrap();
        mn.update(PartialKind::Min, Some(&neg)).unwrap();
        // Iterator::min keeps the first of equals.
        match mn.finalize(AggFunc::Min).unwrap() {
            Value::Float(f) => assert!(f.is_sign_positive()),
            other => panic!("expected float, got {other:?}"),
        }

        let mut mx = PAgg::init(PartialKind::Max);
        mx.update(PartialKind::Max, Some(&pos)).unwrap();
        mx.update(PartialKind::Max, Some(&neg)).unwrap();
        // Iterator::max keeps the last of equals.
        match mx.finalize(AggFunc::Max).unwrap() {
            Value::Float(f) => assert!(f.is_sign_negative()),
            other => panic!("expected float, got {other:?}"),
        }
    }
}
