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
//!   otherwise; consecutive kernels join into one over their
//!   conjunction. Survivors travel as a selection vector — no row is
//!   copied just to be dropped by the next stage.
//! * **Projections** of bare columns and of kernel masks
//!   `if(cond, col, NULL)` — the pruning and masking shapes PLA
//!   rewrites produce — compile to *slots* over source rows, anywhere in
//!   the chain: a slot is a source column, shown only where its mask is
//!   TRUE when it has one. Each mask is a predicate kernel evaluated
//!   once per run over the source chunk, and every sink reads a masked
//!   cell as NULL, the way it reads left-join padding. Operators above
//!   slots are composed through them onto the source schema (a bare
//!   slot becomes its column, a masked one its `if(cond, col, NULL)`),
//!   so a filter there is still a kernel where it compiles. Any other
//!   projection compiles to VM programs and materializes only the rows
//!   that survived every filter below it (late materialization); every
//!   stage above it runs on the VM over those rows.
//! * An equality **join** (inner or left) directly under the sink is
//!   streamed too. Its build (right) side runs through the normal
//!   evaluator and is indexed from its cached key chunk; the chain above
//!   forms the probe (left) side, and each surviving probe row maps to
//!   its ascending list of matching build rows. Sinks read cells from
//!   either side by (probe row, build row), so neither the filtered
//!   probe table nor the joined table is ever built.
//! * A terminal **Aggregate** slots, then evaluates. Morsels run their
//!   stages in parallel down to their output rows; then serial passes in
//!   row order slot those rows into first-appearance groups, one pass
//!   per key column, by per-column codes from the cached chunks
//!   (dictionary codes for text, the column's cached dense codes
//!   otherwise, NULL's code where a mask hides the cell) — only rows a
//!   VM projection materialized, or key columns that declined
//!   conversion, hash their `Value`s. One more pass counts each group
//!   and clones its key cells once. Each group then evaluates every
//!   aggregate in order: one without an argument (`count(*)`) from the
//!   group's size; one with an argument over its members in row order,
//!   placed only when some aggregate reads them — a typed kernel over
//!   the argument's cached column when the argument is a (possibly
//!   masked) source column, the oracle's own [`exec::eval_agg_values`]
//!   otherwise. A terminal **Limit** stops early when every stage is an
//!   infallible kernel.
//!
//! Every Filter/Project/Join/Aggregate root (and a Limit over one)
//! enters here when `columnar` and `pipeline` are on, lone operators
//! included: this is the one columnar executor for them.
//!
//! Parallelism rides the existing morsel substrate
//! ([`bi_exec::try_par_ranges`]): deterministic morsel order and lowest-
//! index error discipline, with grouping and evaluation in row order —
//! so results are byte-identical at any thread count.
//!
//! The operator-at-a-time engine (with the serial row join) remains the
//! byte-identity oracle and the decline target. The ladder has three
//! rungs, every one counted:
//!
//! * `pipeline.decline.compile` — a projection's output types didn't
//!   infer, or the join header didn't resolve (the operator-at-a-time
//!   engine raises those errors);
//! * `pipeline.decline.convert` — the source or build side declined
//!   columnar conversion for the kernel or join-key columns;
//! * `pipeline.decline.shape` — an aggregate header that doesn't
//!   resolve (unknown column, `sum` over a non-numeric type, `min`/`max`
//!   without an argument), or a join without keys or with cross-typed
//!   keys.
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

use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::iter::Empty;
use std::sync::Arc;

use bi_exec::{Counter, ExecConfig};
use bi_relation::expr::col;
use bi_relation::{
    BoolMask, ChunkColumn, ColumnChunk, ColumnData, ColumnarError, CompiledPredicate, Expr, Func,
    GroupCodes, Program, RelationError, Table, Vm,
};
use bi_types::{DataType, Schema, Value};

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::exec;
use crate::plan::{AggFunc, AggItem, JoinKind, Plan};

/// Attempts fused execution of `plan`. `None` means "not a candidate"
/// (the root is no Filter/Project/Join/Aggregate, nor a Limit over one)
/// and the caller proceeds operator-at-a-time; `Some` is a complete
/// result — possibly via a counted decline to the operator-at-a-time
/// chain over the already-executed inputs.
pub(crate) fn try_fused(
    plan: &Plan,
    cat: &Catalog,
    cfg: &ExecConfig,
    stack: &mut Vec<String>,
) -> Option<Result<Table, QueryError>> {
    let chain = decompose(plan)?;
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
    /// sink: rows are slotted into groups where they stand, only the
    /// group table materializes).
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
    /// Vectorized predicate over the source chunk (before any VM
    /// projection).
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
    /// Source column `.0` where mask `.1` is TRUE, NULL elsewhere: an
    /// enforcement mask `if(cond, col, NULL)`, never evaluated per row.
    Masked(usize, usize),
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
    /// Union of source columns the kernel stages and the masks read (one
    /// conversion).
    kernel_cols: Vec<usize>,
    /// The masks of the slots the run reads, each evaluated once over
    /// the source chunk.
    masks: Vec<CompiledPredicate>,
    /// Schema of the chain's output when it differs from the source's
    /// (a projection or a join).
    schema: Option<Arc<Schema>>,
    /// Where each output column comes from, when that is not simply the
    /// row leaving the last stage: slot projections over source rows
    /// and/or a join's two sides. An aggregate sink consumes it at
    /// compile time (indices composed away).
    slots: Option<Vec<Slot>>,
    join: Option<JoinPlan>,
    sink: CompiledSink,
}

impl Compiled {
    /// Whether some stage materializes rows (an aggregate over those
    /// slots by `Value` hashing and evaluates through the oracle's
    /// evaluator).
    fn materializes(&self) -> bool {
        self.stages.iter().any(|s| matches!(s, Stage::VmProject(_)))
    }
}

/// Why a chain does not compile to one fused run.
#[derive(Debug)]
enum Unfused {
    /// A counted decline: the chain runs operator-at-a-time.
    Decline(Counter),
    /// A join whose probe side materializes, or whose probe key reads a
    /// masked slot: the probe side fuses into a table first.
    ProbeFirst,
}

/// The distinct mask conditions of a chain's slots, over the source
/// schema, each with its kernel.
type Masks = Vec<(Expr, CompiledPredicate)>;

/// Compiles every stage against the rows that reach it, then the join
/// header and the sink. Until a VM projection materializes rows,
/// projections of bare columns and kernel masks compile to slots over
/// source rows, and every expression above them is composed through
/// those slots onto the source schema. A projection whose types don't
/// infer, or a join header that doesn't resolve, declines the whole
/// chain — the operator-at-a-time fallback raises those errors in its
/// own order. Filters and projections always compile.
fn compile(
    chain: &Chain,
    src: Arc<Schema>,
    build_schema: Option<&Schema>,
) -> Result<Compiled, Unfused> {
    let mut schema = Arc::clone(&src);
    // Each column's slot over source rows once slot projections reshaped
    // them; `None` while the source's own columns flow, and once a VM
    // projection has materialized rows.
    let mut view: Option<Vec<Slot>> = None;
    let mut materialized = false;
    let mut masks: Masks = Vec::new();
    let mut stages = Vec::with_capacity(chain.ops.len());
    let mut kernel_cols = std::collections::BTreeSet::new();
    // The predicate, over the source schema, of the last stage while that
    // stage is a kernel.
    let mut last_kernel: Option<Expr> = None;
    for op in &chain.ops {
        // Over slots, expressions compile against the source schema.
        let over = if view.is_some() { &src } else { &schema };
        match op {
            ChainOp::Filter(pred) => {
                let pred = through(pred, &schema, view.as_deref(), &src, &masks);
                let kernel = if materialized {
                    None
                } else {
                    CompiledPredicate::compile(&pred, over)
                };
                let Some(k) = kernel else {
                    stages.push(Stage::VmFilter(Program::compile(&pred, over)));
                    last_kernel = None;
                    continue;
                };
                kernel_cols.extend(k.columns().iter().copied());
                // A kernel right after a kernel joins it: kernels are
                // infallible, so their conjunction keeps exactly the rows
                // the two keep in turn, with no selection narrowed in
                // between.
                let pred = pred.into_owned();
                match last_kernel.take() {
                    None => {
                        stages.push(Stage::Kernel(k));
                        last_kernel = Some(pred);
                    }
                    Some(prev) => {
                        let both = prev.and(pred);
                        match (CompiledPredicate::compile(&both, over), stages.last_mut()) {
                            (Some(joint), Some(last)) => {
                                *last = Stage::Kernel(joint);
                                last_kernel = Some(both);
                            }
                            _ => stages.push(Stage::Kernel(k)),
                        }
                    }
                }
            }
            ChainOp::Project(items) => {
                let out = match bi_relation::project_schema(&schema, items) {
                    Ok(s) => Arc::new(s),
                    // The oracle's projection raises the same inference
                    // error; declining surfaces it verbatim.
                    Err(_) => return Err(Unfused::Decline(Counter::PipelineDeclineCompile)),
                };
                if !materialized {
                    if let Some(slots) =
                        slot_items(items, &schema, view.as_deref(), &src, &mut masks)
                    {
                        view = Some(slots);
                        schema = out;
                        continue;
                    }
                }
                let programs = items.iter().map(|(_, e)| {
                    Program::compile(&through(e, &schema, view.as_deref(), &src, &masks), over)
                });
                stages.push(Stage::VmProject(programs.collect()));
                last_kernel = None;
                view = None;
                materialized = true;
                schema = out;
            }
        }
    }
    let mut slots = view;
    let mut join = None;
    if let (Some(j), Some(build)) = (chain.join, build_schema) {
        if materialized {
            return Err(Unfused::ProbeFirst);
        }
        // Header errors (duplicate output names, unknown key columns) are
        // the row join's to raise, in its order.
        let decline = || Unfused::Decline(Counter::PipelineDeclineCompile);
        let Ok(joined) = exec::join_schema(&schema, build, j.kind, j.right_prefix) else {
            return Err(decline());
        };
        let keys = |s: &Schema, side: fn(&(String, String)) -> &String| {
            j.on.iter()
                .map(|pair| s.index_of(side(pair)))
                .collect::<Result<Vec<usize>, _>>()
                .map_err(|_| decline())
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
            return Err(Unfused::Decline(Counter::PipelineDeclineShape));
        }
        let mut out: Vec<Slot> =
            slots.unwrap_or_else(|| (0..schema.len()).map(Slot::Probe).collect());
        let probe_keys = lks
            .iter()
            .map(|&l| match out[l] {
                Slot::Probe(c) => Ok(c),
                _ => Err(Unfused::ProbeFirst),
            })
            .collect::<Result<Vec<usize>, _>>()?;
        out.extend((0..build.len()).map(Slot::Build));
        slots = Some(out);
        schema = Arc::new(joined);
        join = Some(JoinPlan {
            kind: j.kind,
            probe_keys,
            build_keys: rks,
        });
    }
    let reshaped = materialized || slots.is_some();
    let mut sink = match chain.sink {
        Sink::Materialize => CompiledSink::Materialize,
        Sink::Limit(n) => CompiledSink::Limit(n),
        Sink::Aggregate { group_by, aggs } => {
            let mut agg = compile_agg(&schema, group_by, aggs).map_err(Unfused::Decline)?;
            // Compose the slots into the key/argument columns: the sink
            // then reads source (or build, or last-materialized) rows
            // directly and the slots cost nothing per row.
            if let Some(map) = slots.take() {
                let at = |s: Slot| match s {
                    Slot::Probe(j) => map[j],
                    other => other,
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
    let agg = match &mut sink {
        CompiledSink::Aggregate(a) => Some(a),
        _ => None,
    };
    let read = slots
        .iter_mut()
        .flatten()
        .chain(agg.into_iter().flat_map(|a| {
            let args = a.specs.iter_mut().filter_map(|s| s.arg.as_mut());
            a.keys.iter_mut().chain(args)
        }));
    let masks = masks_read(masks, read);
    for k in &masks {
        kernel_cols.extend(k.columns().iter().copied());
    }
    Ok(Compiled {
        stages,
        kernel_cols: kernel_cols.into_iter().collect(),
        masks,
        schema: reshaped.then_some(schema),
        slots,
        join,
        sink,
    })
}

/// The kernels of the masks the `read` slots use, renumbering those
/// slots in order of first use: a mask no output reads any more (say,
/// of a column a later projection dropped) is never evaluated.
fn masks_read<'s>(
    masks: Masks,
    read: impl Iterator<Item = &'s mut Slot>,
) -> Vec<CompiledPredicate> {
    let mut pool: Vec<Option<CompiledPredicate>> =
        masks.into_iter().map(|(_, k)| Some(k)).collect();
    let mut renumbered: Vec<Option<usize>> = vec![None; pool.len()];
    let mut kept = Vec::new();
    for slot in read {
        if let Slot::Masked(_, m) = slot {
            let old = *m;
            *m = *renumbered[old].get_or_insert_with(|| {
                kept.extend(pool[old].take());
                kept.len() - 1
            });
        }
    }
    kept
}

/// The source column and mask behind a slot over source rows.
fn source_cell(slot: Slot) -> Option<(usize, Option<usize>)> {
    match slot {
        Slot::Probe(c) => Some((c, None)),
        Slot::Masked(c, m) => Some((c, Some(m))),
        Slot::Build(_) => None,
    }
}

/// `e` over the rows a stage sees: unchanged over source or
/// materialized rows; over slots, each column it reads becomes its
/// slot's source form — its column, or `if(cond, col, NULL)` when
/// masked. A column the slots lack becomes a call that fails wherever
/// evaluation reaches it, as the unknown column does.
fn through<'e>(
    e: &'e Expr,
    schema: &Schema,
    view: Option<&[Slot]>,
    src: &Schema,
    masks: &Masks,
) -> Cow<'e, Expr> {
    let Some(view) = view else {
        return Cow::Borrowed(e);
    };
    Cow::Owned(crate::contain::replace_cols(e, &mut |name| {
        let cell = schema
            .index_of(name)
            .ok()
            .and_then(|i| source_cell(view[i]));
        Some(match cell {
            Some((c, mask)) => {
                let column = col(src.columns()[c].name.as_str());
                match mask {
                    Some(m) => Expr::Func(
                        Func::If,
                        vec![masks[m].0.clone(), column, Expr::Lit(Value::Null)],
                    ),
                    None => column,
                }
            }
            None => Expr::Func(Func::If, Vec::new()),
        })
    }))
}

/// A projection as slots over source rows: every item a bare column or
/// a mask `if(p, col, NULL)` whose condition, composed onto the source,
/// compiles to a kernel (a masked column masked again ANDs the two
/// conditions). `None` when some item must be evaluated; `masks` is then
/// left as it was.
fn slot_items(
    items: &[(String, Expr)],
    schema: &Schema,
    view: Option<&[Slot]>,
    src: &Schema,
    masks: &mut Masks,
) -> Option<Vec<Slot>> {
    let slot_of = |name: &str| {
        let i = schema.index_of(name).ok()?;
        Some(view.map_or(Slot::Probe(i), |v| v[i]))
    };
    let fresh = masks.len();
    let slots = items
        .iter()
        .map(|(_, e)| match e {
            Expr::Col(name) => slot_of(name),
            Expr::Func(Func::If, args) => {
                let [p, Expr::Col(name), Expr::Lit(Value::Null)] = args.as_slice() else {
                    return None;
                };
                let (c, shown) = source_cell(slot_of(name)?)?;
                let p = through(p, schema, view, src, masks).into_owned();
                let cond = match shown {
                    Some(m) => masks[m].0.clone().and(p),
                    None => p,
                };
                let m = match masks.iter().position(|(e, _)| *e == cond) {
                    Some(m) => m,
                    None => {
                        let kernel = CompiledPredicate::compile(&cond, src)?;
                        masks.push((cond, kernel));
                        masks.len() - 1
                    }
                };
                Some(Slot::Masked(c, m))
            }
            _ => None,
        })
        .collect::<Option<Vec<Slot>>>();
    if slots.is_none() {
        masks.truncate(fresh);
    }
    slots
}

struct AggSpec {
    func: AggFunc,
    arg: Option<Slot>,
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
    // Anything the header admits evaluates per group — on a typed
    // kernel or the oracle's own evaluator, errors included (`avg` over
    // text, a missing `count_distinct` argument) — so no aggregate is
    // refused.
    let specs = aggs
        .iter()
        .zip(&arg_idx)
        .map(|(a, arg)| AggSpec {
            func: a.func,
            arg: arg.map(Slot::Probe),
        })
        .collect();
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
    /// An internal invariant broke (e.g. a chunk column the conversion
    /// should have materialized is missing). The oracle handles the
    /// chain.
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

/// One morsel's output rows, addressed without materializing them.
enum Output {
    /// Every source row in `[start, end)`: all survived, nothing joins.
    Range(u32, u32),
    /// (probe row, build row) pairs in output order: each surviving
    /// probe row expanded to its join matches, ascending (`NO_ROW`
    /// without a join, or for left-join padding).
    Pairs(Vec<(u32, u32)>),
    /// Rows a VM projection materialized.
    Mat(Vec<Vec<Value>>),
}

static NULL: Value = Value::Null;

fn run_chain(
    src: Table,
    build: Option<Table>,
    chain: &Chain,
    cfg: &ExecConfig,
) -> Result<Table, QueryError> {
    let compiled = match compile(
        chain,
        src.schema_shared(),
        build.as_ref().map(Table::schema),
    ) {
        Ok(c) => c,
        Err(Unfused::ProbeFirst) => {
            // Computed or masked probe cells: fuse the probe side on its
            // own into a table (the oracle evaluates it first too), then
            // stream the join over that table's key columns.
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
        Err(Unfused::Decline(decline)) => {
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
            Some(b) => exec::join_output_name(&src, b),
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

/// The cached column chunks a fused run reads, and its masks.
struct Chunks {
    /// Source columns: kernel and mask inputs, probe keys, probe-side
    /// group keys.
    src: Option<ColumnChunk>,
    /// Build columns: join keys and build-side group keys.
    build: Option<ColumnChunk>,
    /// Whether every group-key column converted (the aggregate sink then
    /// slots rows by codes).
    coded: bool,
    /// Each mask's truth over the source rows, evaluated once.
    masks: Vec<BoolMask>,
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
                Slot::Probe(c) | Slot::Masked(c, _) => src_keys.push(c),
                Slot::Build(c) => build_keys.push(c),
            }
        }
        let (src_chunk, src_coded) = convert_side(src, &src_cols, &src_keys, cfg)?;
        let (build_chunk, build_coded) = match build {
            Some(b) => convert_side(b, &build_cols, &build_keys, cfg)?,
            None => (None, true),
        };
        let masks = if compiled.masks.is_empty() {
            Vec::new()
        } else {
            // A constant mask reads no column: it runs over an empty
            // chunk of the source's length.
            let empty;
            let chunk = match &src_chunk {
                Some(c) => c,
                None => {
                    empty = ColumnChunk::from_table_cols(src, &[])?;
                    &empty
                }
            };
            let whole = |k: &CompiledPredicate| k.eval_range(chunk, 0, chunk.len());
            compiled.masks.iter().map(whole).collect()
        };
        Ok(Chunks {
            src: src_chunk,
            build: build_chunk,
            coded: keyed.is_some() && src_coded && build_coded,
            masks,
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
    /// A masked source column: NULL's code where its mask is not TRUE.
    Masked(GroupCodes<'a>, &'a BoolMask),
    Build(GroupCodes<'a>),
}

impl KeyCodes<'_> {
    /// Calls `f` with each output row's group id (`ids`, one per row)
    /// and its code in this column, in row order. The variant is
    /// resolved once, so each arm is one tight loop.
    fn each_code(&self, outs: &[Output], ids: &mut [u32], mut f: impl FnMut(&mut u32, u32)) {
        match *self {
            KeyCodes::Probe(g) => each_row(outs, ids, |id, p, _| f(id, g.code(p as usize))),
            KeyCodes::Masked(g, m) => each_row(outs, ids, |id, p, _| {
                let p = p as usize;
                let code = if m.is_true(p) {
                    g.code(p)
                } else {
                    g.null_code()
                };
                f(id, code)
            }),
            KeyCodes::Build(g) => each_row(outs, ids, |id, _, b| match b {
                NO_ROW => f(id, g.null_code()),
                b => f(id, g.code(b as usize)),
            }),
        }
    }

    fn cardinality(&self) -> u32 {
        match self {
            KeyCodes::Probe(g) | KeyCodes::Masked(g, _) | KeyCodes::Build(g) => g.cardinality(),
        }
    }
}

/// Everything one fused run reads, shared by every morsel.
struct Fused<'a> {
    src: &'a Table,
    build_rows: &'a [Vec<Value>],
    compiled: &'a Compiled,
    chunk: Option<&'a ColumnChunk>,
    /// Each mask's truth over the source rows.
    masks: &'a [BoolMask],
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
                        Slot::Masked(c, m) => {
                            let mask = chunks.masks.get(m).ok_or(PipeErr::Degrade)?;
                            side(&chunks.src, c).map(|g| KeyCodes::Masked(g, mask))
                        }
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
            masks: &chunks.masks,
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

    /// Cells of source rows and build rows, masks applied.
    fn cells(&self) -> Cells<'a> {
        Cells {
            probe: self.src.rows(),
            build: self.build_rows,
            masks: self.masks,
        }
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
                        // Kernels never compile after a VM projection.
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

    /// One morsel's output rows, in output order: its untouched range
    /// when every row survived and nothing joins, the rows a projection
    /// materialized, or else (probe row, build row) pairs — each
    /// surviving probe row expanded to its join matches (or padded, for
    /// a left join).
    fn output(&self, m: MorselRows, start: usize, end: usize) -> Result<Output, PipeErr> {
        let sel = match m {
            // Probe rows are always source rows (computed probe columns
            // are materialized into a table first).
            MorselRows::Mat(_) if self.join.is_some() => return Err(PipeErr::Degrade),
            MorselRows::Mat(rows) => return Ok(Output::Mat(rows)),
            MorselRows::Sel(sel) if sel.len() < end - start || self.join.is_some() => sel,
            // Every row survived.
            _ if self.join.is_none() => return Ok(Output::Range(start as u32, end as u32)),
            _ => (start as u32..end as u32).collect(),
        };
        let Some(join) = &self.join else {
            return Ok(Output::Pairs(
                sel.into_iter().map(|p| (p, NO_ROW)).collect(),
            ));
        };
        let mut pairs = Vec::new();
        let mut buf = Vec::new();
        for p in sel {
            let matches = join.matches(p as usize, &mut buf);
            if matches.is_empty() && join.kind == JoinKind::Left {
                pairs.push((p, NO_ROW));
            } else {
                pairs.extend(matches.iter().map(|&b| (p, b)));
            }
        }
        Ok(Output::Pairs(pairs))
    }

    /// Source row `p` with build row `b`, as the chain outputs it.
    fn emit(&self, p: u32, b: u32) -> Vec<Value> {
        let Some(slots) = &self.compiled.slots else {
            return self.src.rows()[p as usize].clone();
        };
        let cells = self.cells();
        slots.iter().map(|&s| cells.get(p, b, s).clone()).collect()
    }

    /// The first `limit` rows of one morsel's output as the chain
    /// outputs them. Materialized rows (which no slot reads) move
    /// instead of being copied.
    fn emit_output(&self, out: Output, limit: usize) -> Vec<Vec<Value>> {
        match out {
            Output::Range(s, e) => (s..e).take(limit).map(|p| self.emit(p, NO_ROW)).collect(),
            Output::Pairs(pairs) => pairs
                .iter()
                .take(limit)
                .map(|&(p, b)| self.emit(p, b))
                .collect(),
            Output::Mat(mut rows) => {
                rows.truncate(limit);
                rows
            }
        }
    }

    fn materialize(&self, cfg: &ExecConfig) -> Result<Table, PipeErr> {
        let len = self.src.len();
        // With the source's own shape, a morsel whose filters kept every
        // row reports it instead of copying; if all of them do, the
        // result shares the source's storage, exactly as the row
        // engine's keep-all filter does.
        let sharing = self.compiled.schema.is_none() && self.compiled.slots.is_none();
        let per: Vec<Option<Vec<Vec<Value>>>> = bi_exec::try_par_ranges(
            cfg,
            len,
            bi_exec::MORSEL_ROWS,
            |s, e| -> Result<_, PipeErr> {
                let out = self.output(self.push_morsel(s, e)?, s, e)?;
                if sharing && matches!(out, Output::Range(..)) {
                    return Ok(None);
                }
                Ok(Some(self.emit_output(out, usize::MAX)))
            },
        )?;
        if sharing && per.iter().all(Option::is_none) {
            return Ok(self.src.clone());
        }
        let kept = per
            .iter()
            .zip(morsel_ranges(len))
            .map(|(m, (s, e))| m.as_ref().map_or(e - s, Vec::len))
            .sum();
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(kept);
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
        // Kernels, slots and the join probe are pure and infallible:
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
                let out = self.output(self.push_morsel(s, e)?, s, e)?;
                rows.extend(self.emit_output(out, n - rows.len()));
            }
        } else {
            let per: Vec<Vec<Vec<Value>>> = bi_exec::try_par_ranges(
                cfg,
                len,
                bi_exec::MORSEL_ROWS,
                |s, e| -> Result<_, PipeErr> {
                    let out = self.output(self.push_morsel(s, e)?, s, e)?;
                    Ok(self.emit_output(out, n))
                },
            )?;
            rows.extend(per.into_iter().flatten().take(n));
        }
        Ok(Table::from_rows_trusted(
            self.name.clone(),
            self.schema(),
            rows,
        ))
    }

    /// Slot-then-evaluate: morsels run their stages in parallel down to
    /// their output rows; one pass in row order slots those rows into
    /// first-appearance groups; each group then evaluates every
    /// aggregate over its members, in row order.
    fn aggregate(&self, sink: &AggSink, cfg: &ExecConfig) -> Result<Table, PipeErr> {
        let len = self.src.len();
        // With no stage and no join every morsel would report its own
        // untouched range: take the whole input without starting workers.
        let mut outs: Vec<Output> = if self.compiled.stages.is_empty() && self.join.is_none() {
            vec![Output::Range(0, len as u32)]
        } else {
            bi_exec::try_par_ranges(cfg, len, bi_exec::MORSEL_ROWS, |s, e| {
                self.output(self.push_morsel(s, e)?, s, e)
            })?
        };
        // Materialized rows are numbered in row order and read like
        // source rows from here on.
        let materialized = self.compiled.materializes();
        let mut mat: Vec<Vec<Value>> = Vec::new();
        if materialized {
            for out in outs {
                let Output::Mat(rows) = out else {
                    return Err(PipeErr::Degrade);
                };
                mat.extend(rows);
            }
            outs = vec![Output::Range(0, mat.len() as u32)];
        }
        let cells = Cells {
            probe: if materialized { &mat } else { self.src.rows() },
            ..self.cells()
        };
        let mut total = 0;
        for out in &outs {
            total += match out {
                Output::Range(s, e) => (e - s) as usize,
                Output::Pairs(pairs) => pairs.len(),
                Output::Mat(_) => return Err(PipeErr::Degrade),
            };
        }
        let width = sink.keys.len() + sink.specs.len();
        let Groups {
            ids,
            mut heads,
            mut sizes,
        } = match self.codes.as_deref() {
            Some(codes) => Groups::by_codes(codes, &sink.keys, cells, &outs, total, width),
            None => Groups::by_values(&sink.keys, cells, &outs, total, width),
        };
        if heads.is_empty() && sink.keys.is_empty() {
            // A global aggregate over zero rows still emits one row.
            heads.push(Vec::with_capacity(width));
            sizes.push(0);
        }
        // Member rows are placed only for an aggregate that reads cells.
        let placed = OnceCell::new();
        let members =
            || placed.get_or_init(|| Members::place(&outs, &ids, &sizes, self.join.is_some()));
        // Typed columns for the kernels: source arguments, each
        // converted on its own so a column that declines (counted) only
        // sends its own aggregates to the oracle's evaluator.
        let typed: Vec<Option<ColumnChunk>> = sink
            .specs
            .iter()
            .map(|spec| match spec.arg {
                Some(Slot::Probe(c) | Slot::Masked(c, _)) if !materialized => {
                    match ColumnChunk::from_table_cols_cached(self.src, &[c], cfg) {
                        Ok(chunk) => Some(chunk),
                        Err(e) => {
                            cfg.obs.count(e.counter());
                            None
                        }
                    }
                }
                _ => None,
            })
            .collect();
        let mut out = Vec::with_capacity(heads.len());
        for (g, mut row) in heads.into_iter().enumerate() {
            for (spec, chunk) in sink.specs.iter().zip(&typed) {
                let Some(arg) = spec.arg else {
                    // No argument: the group's size is the whole input
                    // (`count(*)`; any other function raises the
                    // oracle's error).
                    let value = exec::eval_agg_values(spec.func, sizes[g], None::<Empty<&Value>>);
                    row.push(value.map_err(|_| PipeErr::Query)?);
                    continue;
                };
                let (rows, build) = members().of(g);
                let (col, shown) = match (arg, chunk) {
                    (Slot::Probe(c), Some(chunk)) => (chunk.column(c), None),
                    (Slot::Masked(c, m), Some(chunk)) => (chunk.column(c), Some(&self.masks[m])),
                    _ => (None, None),
                };
                let kernel = |col| eval_agg_columnar(spec.func, col, shown, rows);
                let value = match col.and_then(kernel) {
                    Some(v) => v,
                    None => {
                        let values = rows
                            .iter()
                            .enumerate()
                            .map(|(k, &p)| {
                                cells.get(p, build.get(k).copied().unwrap_or(NO_ROW), arg)
                            })
                            .filter(|v| !v.is_null());
                        exec::eval_agg_values(spec.func, rows.len(), Some(values))
                    }
                };
                row.push(value.map_err(|_| PipeErr::Query)?);
            }
            out.push(row);
        }
        // Validated like the oracle's `Table::new` + `push_row` (a row
        // that fails re-runs the oracle for its error), in one storage
        // version rather than one per group.
        let table = Table::from_rows(self.name.clone(), sink.schema.clone(), out)?;
        Ok(table)
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

/// Calls `f` with the next item of `per_row` and each output row's
/// (probe row, build row), in row order.
fn each_row<T>(
    outs: &[Output],
    per_row: impl IntoIterator<Item = T>,
    mut f: impl FnMut(T, u32, u32),
) {
    let mut per_row = per_row.into_iter();
    for out in outs {
        match out {
            Output::Range(s, e) => {
                for (p, t) in (*s..*e).zip(per_row.by_ref()) {
                    f(t, p, NO_ROW);
                }
            }
            Output::Pairs(pairs) => {
                for (&(p, b), t) in pairs.iter().zip(per_row.by_ref()) {
                    f(t, p, b);
                }
            }
            Output::Mat(_) => {}
        }
    }
}

/// Dense ids, in first-appearance order, for the `total` output rows'
/// tuples of per-column key codes (each below its column's
/// cardinality), and how many were handed out. One pass per key column:
/// the first column's codes find their ids in a direct-indexed table (a
/// hashed map when too wide), each further column folds `(prefix id,
/// code)` into the next prefix id. Equal tuples ⇔ equal ids, and ids
/// open in row order, so the groups come out in the serial engine's
/// order. Without key columns every row is the one global group.
fn slot_codes(codes: &[KeyCodes], outs: &[Output], total: usize) -> (Vec<u32>, u32) {
    let mut ids = vec![0u32; total];
    let Some((first, rest)) = codes.split_first() else {
        return (ids, u32::from(total > 0));
    };
    let mut next = 0u32;
    let card = first.cardinality();
    if card <= DIRECT_SLOTS {
        let mut direct = vec![u32::MAX; card as usize];
        first.each_code(outs, &mut ids, |id, c| {
            let slot = &mut direct[c as usize];
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
            *id = *slot;
        });
    } else {
        let mut hashed: HashMap<u32, u32> = HashMap::new();
        first.each_code(outs, &mut ids, |id, c| {
            *id = *hashed.entry(c).or_insert(next);
            if *id == next {
                next += 1;
            }
        });
    }
    for column in rest {
        let mut folds: HashMap<u64, u32> = HashMap::with_capacity(next as usize);
        next = 0;
        column.each_code(outs, &mut ids, |id, c| {
            *id = *folds
                .entry(u64::from(*id) << 32 | u64::from(c))
                .or_insert(next);
            if *id == next {
                next += 1;
            }
        });
    }
    (ids, next)
}

// ---------------------------------------------------------------------
// Group evaluation
// ---------------------------------------------------------------------

/// Where a sink's cells are read from: the rows leaving the probe chain
/// (source rows, or the rows a projection materialized), the build
/// side, and the masks over source rows.
#[derive(Clone, Copy)]
struct Cells<'a> {
    probe: &'a [Vec<Value>],
    build: &'a [Vec<Value>],
    masks: &'a [BoolMask],
}

impl<'a> Cells<'a> {
    /// Column `s` of probe row `p` joined to build row `b` (NULL for
    /// left-join padding and where a mask hides the cell).
    #[inline]
    fn get(&self, p: u32, b: u32, s: Slot) -> &'a Value {
        match s {
            Slot::Probe(c) => &self.probe[p as usize][c],
            Slot::Masked(c, m) if self.masks[m].is_true(p as usize) => &self.probe[p as usize][c],
            Slot::Build(c) if b != NO_ROW => &self.build[b as usize][c],
            Slot::Masked(..) | Slot::Build(_) => &NULL,
        }
    }

    /// A group's output row, holding its key cells (row `(p, b)`'s,
    /// cloned) with room for `width` cells, so the aggregates that
    /// follow never grow it.
    fn head(&self, keys: &[Slot], p: u32, b: u32, width: usize) -> Vec<Value> {
        let mut row = Vec::with_capacity(width);
        row.extend(keys.iter().map(|&s| self.get(p, b, s).clone()));
        row
    }
}

/// First-appearance groups of a sink's output rows.
struct Groups {
    /// Each output row's group, in row order.
    ids: Vec<u32>,
    /// Each group's output row so far: its key cells, those of its first
    /// member verbatim (this matters for `Value`-equal but distinct
    /// bytes like `-0.0`/`0.0`).
    heads: Vec<Vec<Value>>,
    /// Each group's member count.
    sizes: Vec<usize>,
}

impl Groups {
    /// Slots rows by key-column codes ([`slot_codes`]), then counts each
    /// group and clones its key cells once, from its first member.
    fn by_codes(
        codes: &[KeyCodes],
        keys: &[Slot],
        cells: Cells,
        outs: &[Output],
        total: usize,
        width: usize,
    ) -> Groups {
        let (ids, groups) = slot_codes(codes, outs, total);
        let groups = groups as usize;
        let mut sizes = vec![0usize; groups];
        let mut heads = Vec::with_capacity(groups);
        each_row(outs, &ids, |&g, p, b| {
            let size = &mut sizes[g as usize];
            if *size == 0 {
                heads.push(cells.head(keys, p, b, width));
            }
            *size += 1;
        });
        Groups { ids, heads, sizes }
    }

    /// Slots rows by hashing their key cells in place: rows a VM
    /// projection materialized, key columns that declined conversion.
    fn by_values(
        keys: &[Slot],
        cells: Cells,
        outs: &[Output],
        total: usize,
        width: usize,
    ) -> Groups {
        let mut ids = vec![0u32; total];
        let mut heads: Vec<Vec<Value>> = Vec::new();
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        each_row(outs, ids.iter_mut(), |id, p, b| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            for &s in keys {
                cells.get(p, b, s).hash(&mut h);
            }
            let cands = by_hash.entry(h.finish()).or_default();
            let found = cands.iter().copied().find(|&g| {
                heads[g]
                    .iter()
                    .zip(keys)
                    .all(|(k, &s)| k == cells.get(p, b, s))
            });
            let g = found.unwrap_or_else(|| {
                cands.push(heads.len());
                heads.push(cells.head(keys, p, b, width));
                heads.len() - 1
            });
            *id = g as u32;
        });
        let mut sizes = vec![0usize; heads.len()];
        for &g in &ids {
            sizes[g as usize] += 1;
        }
        Groups { ids, heads, sizes }
    }
}

/// Every group's members, contiguous per group and in row order: group
/// `g`'s are `rows[starts[g]..starts[g + 1]]`.
struct Members {
    starts: Vec<usize>,
    /// Probe rows: source rows, or indices of materialized rows.
    rows: Vec<u32>,
    /// Each member's build row (`NO_ROW` for left-join padding); empty
    /// when nothing joins.
    build: Vec<u32>,
}

impl Members {
    /// Places the output rows of `outs` by their group `ids` (one per
    /// row, in row order) among groups of the given `sizes`: a counting
    /// sort, so each group's members keep row order.
    fn place(outs: &[Output], ids: &[u32], sizes: &[usize], joined: bool) -> Members {
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut at = 0;
        for &n in sizes {
            starts.push(at);
            at += n;
        }
        starts.push(at);
        // `starts[g]` serves as group `g`'s cursor; once every row is
        // placed it holds group `g + 1`'s start, so one rotation
        // restores the starts.
        let mut rows = vec![0u32; ids.len()];
        let mut build = vec![NO_ROW; if joined { ids.len() } else { 0 }];
        each_row(outs, ids, |&g, p, b| {
            let at = &mut starts[g as usize];
            rows[*at] = p;
            if joined {
                build[*at] = b;
            }
            *at += 1;
        });
        starts.rotate_right(1);
        starts[0] = 0;
        Members {
            starts,
            rows,
            build,
        }
    }

    /// Group `g`'s probe rows and build rows (empty when nothing joins).
    fn of(&self, g: usize) -> (&[u32], &[u32]) {
        let (lo, hi) = (self.starts[g], self.starts[g + 1]);
        (&self.rows[lo..hi], self.build.get(lo..hi).unwrap_or(&[]))
    }
}

/// `Value::cmp` of cells `i` and `j` of one typed column (both valid).
fn cmp_cells(data: &ColumnData, i: usize, j: usize) -> Ordering {
    match data {
        ColumnData::Bool(v) => v[i].cmp(&v[j]),
        ColumnData::Int(v) => v[i].cmp(&v[j]),
        ColumnData::Float(v) => Value::norm_float(v[i]).total_cmp(&Value::norm_float(v[j])),
        ColumnData::Date(v) => v[i].cmp(&v[j]),
        ColumnData::Text { codes, dict } => dict.get(codes[i]).cmp(dict.get(codes[j])),
    }
}

/// Vectorized aggregate over one group's members (source rows, in row
/// order) of a typed column, hidden where `shown` (a mask) is not TRUE.
/// Returns `None` when no kernel applies — the caller falls back to
/// [`exec::eval_agg_values`], which also owns every error message — and
/// otherwise replicates its semantics bit for bit: NULL skipping,
/// row-order float accumulation, `checked_add` overflow with the same
/// error, `Value`-equality distinctness, first-minimum/last-maximum
/// selection (`Iterator::min`/`max`), empty-group `Null`.
fn eval_agg_columnar(
    func: AggFunc,
    col: &ChunkColumn,
    shown: Option<&BoolMask>,
    members: &[u32],
) -> Option<Result<Value, QueryError>> {
    let valid = |i: usize| !col.validity.is_null(i) && shown.is_none_or(|m| m.is_true(i));
    let members = members.iter().map(|&i| i as usize);
    Some(match (func, &col.data) {
        (AggFunc::Count, _) => Ok(Value::Int(members.filter(|&i| valid(i)).count() as i64)),
        (AggFunc::CountDistinct, data) => {
            let mut set: HashSet<u64> = HashSet::new();
            for i in members {
                if !valid(i) {
                    continue;
                }
                // Injective per type; floats via `float_key` so NaN and
                // ±0.0 collapse exactly as `Value` equality does.
                set.insert(match data {
                    ColumnData::Bool(v) => v[i] as u64,
                    ColumnData::Int(v) => v[i] as u64,
                    ColumnData::Float(v) => Value::float_key(v[i]),
                    ColumnData::Date(v) => v[i].days_from_epoch() as u64,
                    ColumnData::Text { codes, .. } => codes[i] as u64,
                });
            }
            Ok(Value::Int(set.len() as i64))
        }
        (AggFunc::Sum, ColumnData::Int(v)) => {
            let mut sum = 0i64;
            let mut any = false;
            for i in members {
                if !valid(i) {
                    continue;
                }
                any = true;
                sum = match sum.checked_add(v[i]) {
                    Some(s) => s,
                    None => return Some(Err(RelationError::Overflow { op: "sum" }.into())),
                };
            }
            Ok(if any { Value::Int(sum) } else { Value::Null })
        }
        (AggFunc::Sum, ColumnData::Float(v)) => {
            let mut sum = 0.0f64;
            let mut any = false;
            for i in members {
                if valid(i) {
                    any = true;
                    sum += v[i];
                }
            }
            Ok(if any { Value::Float(sum) } else { Value::Null })
        }
        (AggFunc::Avg, ColumnData::Int(v)) => {
            let mut sum = 0.0f64;
            let mut n = 0usize;
            for i in members {
                if valid(i) {
                    sum += v[i] as f64;
                    n += 1;
                }
            }
            Ok(if n == 0 {
                Value::Null
            } else {
                Value::Float(sum / n as f64)
            })
        }
        (AggFunc::Avg, ColumnData::Float(v)) => {
            let mut sum = 0.0f64;
            let mut n = 0usize;
            for i in members {
                if valid(i) {
                    sum += v[i];
                    n += 1;
                }
            }
            Ok(if n == 0 {
                Value::Null
            } else {
                Value::Float(sum / n as f64)
            })
        }
        (AggFunc::Min, data) | (AggFunc::Max, data) => {
            let is_max = func == AggFunc::Max;
            let mut best: Option<usize> = None;
            for i in members {
                if !valid(i) {
                    continue;
                }
                best = Some(match best {
                    None => i,
                    Some(b) => {
                        let ord = cmp_cells(data, i, b);
                        // min keeps the first minimum (strict <); max
                        // keeps the last maximum (≥).
                        let replace = if is_max { ord.is_ge() } else { ord.is_lt() };
                        if replace {
                            i
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.map(|i| col.value(i)).unwrap_or(Value::Null))
        }
        _ => return None,
    })
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

        // A bare aggregate over a scan is a chain too: no stages, just
        // the sink.
        let bare = scan("T").aggregate(vec![], vec![AggItem::count_star("n")]);
        let d = decompose(&bare).unwrap();
        assert!(d.ops.is_empty());
        assert!(matches!(d.sink, Sink::Aggregate { .. }));

        // Limit(Sort) stays with the top-k fusion, not the pipeline.
        let topk = scan("T")
            .sort(vec![crate::plan::SortKey::asc("a")])
            .limit(5);
        assert!(decompose(&topk).is_none());

        // Limit over a filter chains.
        let lim = scan("T").filter(col("a").ge(lit(1))).limit(5);
        let d = decompose(&lim).unwrap();
        assert_eq!(d.ops.len(), 1);
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
    fn masked_projection_below_a_filter_stays_columnar() {
        use bi_types::{Column, DataType, Date};
        // The auditor's Doctor report with a date filter of its own:
        // Aggregate ← Filter(Date) ← Project(every column, Doctor masked)
        // ← Filter(Disease <> 'HIV') ← Scan. The mask projection is not
        // the chain's last operator, yet nothing materializes: both
        // filters join one kernel over source rows and the group key
        // reads the Doctor column's codes through the mask.
        let schema = Arc::new(
            Schema::new(vec![
                Column::new("Patient", DataType::Text),
                Column::new("Doctor", DataType::Text),
                Column::new("Disease", DataType::Text),
                Column::new("Date", DataType::Date),
            ])
            .unwrap(),
        );
        let shown = || col("Disease").ne(lit("HIV"));
        let enforced = || {
            let items = schema.columns().iter().map(|c| {
                let e = match c.name.as_str() {
                    "Doctor" => Expr::Func(
                        Func::If,
                        vec![shown(), col("Doctor"), Expr::Lit(Value::Null)],
                    ),
                    name => col(name),
                };
                (c.name.to_string(), e)
            });
            scan("T").filter(shown()).project(items.collect())
        };
        let day = |y, m, d| Value::Date(Date::new(y, m, d).unwrap());
        let plan = enforced()
            .filter(col("Date").ge(lit(day(2007, 1, 1))))
            .aggregate(vec!["Doctor".into()], vec![AggItem::count_star("n")]);
        let chain = decompose(&plan).unwrap();
        let compiled = compile(&chain, Arc::clone(&schema), None).unwrap();
        assert!(
            matches!(compiled.stages.as_slice(), [Stage::Kernel(_)]),
            "both filters join one kernel; the projection is slots"
        );
        assert_eq!(compiled.kernel_cols, vec![2, 3], "Disease and Date");
        assert!(!compiled.materializes());
        assert_eq!(compiled.masks.len(), 1, "one mask, evaluated once");
        let CompiledSink::Aggregate(agg) = &compiled.sink else {
            panic!("aggregate sink expected");
        };
        assert_eq!(agg.keys, vec![Slot::Masked(1, 0)], "Doctor, masked");

        let row = |p: &str, doc: &str, dis: &str, date: Value| {
            vec![p.into(), doc.into(), dis.into(), date]
        };
        let table = Table::from_rows(
            "T",
            Arc::clone(&schema),
            vec![
                row("p1", "d1", "flu", day(2007, 3, 1)),
                row("p2", "d2", "HIV", day(2007, 3, 1)),
                row("p3", "d1", "asthma", day(2006, 3, 1)),
                row("p4", "d2", "flu", day(2008, 3, 1)),
            ],
        )
        .unwrap();
        let cfg = ExecConfig::columnar();
        let chunks = Chunks::convert(&table, None, &compiled, &cfg).unwrap();
        assert!(chunks.coded, "the masked key slots rows by codes");
        let fused = Fused::new(&table, None, &compiled, &chunks, "T".into())
            .and_then(|f| f.run(&cfg))
            .unwrap();
        let mut cat = Catalog::new();
        cat.add_table(table).unwrap();
        let oracle = exec::execute(&plan, &cat).unwrap();
        assert_eq!(fused.rows(), oracle.rows());
        assert_eq!(fused.schema(), oracle.schema());

        // A VM filter between two kernels keeps them apart: it must see
        // exactly the rows the first one keeps.
        let by_zero = Expr::Bin(
            bi_relation::BinOp::Div,
            Box::new(col("Date")),
            Box::new(lit(0)),
        );
        let split = scan("T")
            .filter(shown())
            .filter(by_zero.is_null())
            .filter(col("Date").ge(lit(day(2007, 1, 1))))
            .aggregate(vec!["Doctor".into()], vec![AggItem::count_star("n")]);
        let compiled = compile(&decompose(&split).unwrap(), Arc::clone(&schema), None).unwrap();
        assert!(matches!(
            compiled.stages.as_slice(),
            [Stage::Kernel(_), Stage::VmFilter(_), Stage::Kernel(_)]
        ));

        // A mask whose column a later projection drops is never
        // evaluated, nor are its columns converted.
        let pruned = enforced()
            .project(vec![("Patient".into(), col("Patient"))])
            .aggregate(vec!["Patient".into()], vec![AggItem::count_star("n")]);
        let compiled = compile(&decompose(&pruned).unwrap(), schema, None).unwrap();
        assert!(compiled.masks.is_empty());
        assert_eq!(
            compiled.kernel_cols,
            vec![2],
            "the restriction's Disease only"
        );
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
            Err(Unfused::Decline(Counter::PipelineDeclineShape))
        ));
    }

    #[test]
    fn slot_codes_assign_first_appearance_ids() {
        use bi_types::{Column, DataType};
        let schema = Arc::new(
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ])
            .unwrap(),
        );
        let ints = |a: &[i64], b: &[i64]| {
            let rows = a.iter().zip(b).map(|(&x, &y)| vec![x.into(), y.into()]);
            let t = Table::from_rows("T", Arc::clone(&schema), rows.collect()).unwrap();
            ColumnChunk::from_table(&t).unwrap()
        };
        fn codes<'c>(chunk: &'c ColumnChunk, cols: &[usize]) -> Vec<KeyCodes<'c>> {
            let col = |c| KeyCodes::Probe(chunk.column(c).unwrap().group_codes());
            cols.iter().map(|&c| col(c)).collect()
        }
        let chunk = ints(&[2, 0, 2, 3, 0], &[1, 1, 1, 2, 2]);
        let all = [Output::Range(0, 5)];

        // One key column, direct-indexed.
        let (ids, n) = slot_codes(&codes(&chunk, &[0]), &all, 5);
        assert_eq!((ids, n), (vec![0, 1, 0, 2, 1], 3));

        // Two columns: ids follow first appearance of the *tuple*, across
        // outputs of both kinds.
        let split = [
            Output::Range(0, 2),
            Output::Pairs(vec![(2, NO_ROW), (3, NO_ROW), (4, NO_ROW)]),
        ];
        let (ids, n) = slot_codes(&codes(&chunk, &[0, 1]), &split, 5);
        assert_eq!((ids, n), (vec![0, 1, 0, 2, 3], 4));

        // No key columns: one global group, or none over no rows.
        assert_eq!(slot_codes(&[], &all, 5), (vec![0; 5], 1));
        assert_eq!(slot_codes(&[], &[], 0), (Vec::new(), 0));

        // A first column too wide to index directly hashes instead.
        let wide = (DIRECT_SLOTS as i64) + 10;
        let a: Vec<i64> = (0..wide).rev().collect();
        let chunk = ints(&a, &vec![0; a.len()]);
        let keys = codes(&chunk, &[0]);
        assert!(keys[0].cardinality() > DIRECT_SLOTS);
        let rows = Output::Pairs(vec![(7, NO_ROW), (3, NO_ROW), (7, NO_ROW), (9, NO_ROW)]);
        assert_eq!(slot_codes(&keys, &[rows], 4), (vec![0, 1, 0, 2], 3));
    }
}
