//! Plan evaluation.
//!
//! A straightforward pull-free evaluator: each node materializes its
//! result into a [`Table`]. Joins build a hash index on the right input;
//! aggregation groups by hashing. This is the execution substrate under
//! ETL, warehouse loading, and enforced report rendering.
//!
//! [`execute_with`] takes a [`bi_exec::ExecConfig`]. With
//! `ExecConfig::columnar` and `ExecConfig::pipeline` set, fusible chains
//! — and every equality join — go through the push-based pipeline
//! ([`crate::pipeline`]) first: joins stream their probe side against
//! the build side's cached key chunk and never build the joined table
//! unless it is the result. Whatever the pipeline declines runs here,
//! operator at a time. A grouped aggregate or a sort has two rungs: the
//! columnar kernel when `ExecConfig::columnar` is set and the inputs
//! convert, else the serial row engine, which is the byte-identity
//! oracle; joins here always run on the serial row join. Every decision
//! is counted (`plan.choice.{pipeline,columnar,serial}`). `threads`
//! parallelizes the morsel loops underneath (scalar filters and
//! projections, fused pipelines); they reassemble in morsel order, so
//! results (rows *and* row order) are identical at any thread count.
//!
//! With `ExecConfig::columnar` set, operators first try columnar
//! kernels: filters compile to vectorized predicates over
//! [`bi_relation::ColumnChunk`]s, group-bys slot rows by per-column
//! codes (dictionary codes for text, each cached column's dense codes
//! otherwise) instead of `Value` hashing, with vectorized aggregate
//! kernels over the typed columns, and sorts (including fused
//! `Limit(Sort(…))` top-k) order typed vectors through
//! [`bi_relation::sort_permutation`]. Chunk conversions are served from
//! the process-wide version-keyed column cache, so repeated renders of
//! an unchanged warehouse convert nothing (`chunk.cache.hit/miss`).
//! Every columnar operator either produces a byte-identical result
//! (rows, order, schema, name) or declines and falls back to the row
//! engine, so the row path remains the oracle.
//!
//! Row-at-a-time scalar evaluation (filters that the columnar kernels
//! decline, and all projections) goes through the expression bytecode
//! VM via [`bi_relation::filter_scalar`] / [`bi_relation::project_scalar`]:
//! predicates compile once per operator and execute without recursion
//! or per-row allocation, falling back to the recursive walker only
//! when compilation declines.

use bi_exec::ExecConfig;
use bi_relation::Table;
use bi_types::{Schema, Value};

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::plan::{agg_output_type, AggFunc, AggItem, JoinKind, Plan, SortKey};

/// Executes a plan against a catalog. Views are resolved transparently.
pub fn execute(plan: &Plan, cat: &Catalog) -> Result<Table, QueryError> {
    execute_with(plan, cat, &ExecConfig::serial())
}

/// Executes a plan with the given parallelism configuration.
pub fn execute_with(plan: &Plan, cat: &Catalog, cfg: &ExecConfig) -> Result<Table, QueryError> {
    let _span = cfg.obs.span(bi_exec::SpanKind::QueryExecute);
    exec_guarded(plan, cat, cfg, &mut Vec::new())
}

pub(crate) fn exec_guarded(
    plan: &Plan,
    cat: &Catalog,
    cfg: &ExecConfig,
    stack: &mut Vec<String>,
) -> Result<Table, QueryError> {
    use bi_exec::Counter;
    // Fusible Filter/Project/{Aggregate,Limit} chains go through the
    // push-based pipeline executor first; it declines (with a counted
    // reason) back to the operator-at-a-time engine below.
    if cfg.columnar && cfg.pipeline {
        if let Some(result) = crate::pipeline::try_fused(plan, cat, cfg, stack) {
            return result;
        }
    }
    match plan {
        Plan::Scan { table } => {
            cfg.obs.count(Counter::QueryScan);
            if let Some(t) = cat.table(table) {
                return Ok(t.clone());
            }
            let Some(view) = cat.view(table) else {
                return Err(QueryError::UnknownRelation {
                    name: table.clone(),
                });
            };
            if stack.iter().any(|n| n == table) {
                return Err(QueryError::CyclicView {
                    name: table.clone(),
                });
            }
            stack.push(table.clone());
            let mut out = exec_guarded(view, cat, cfg, stack)?;
            stack.pop();
            out.set_name(table.clone());
            Ok(out)
        }
        Plan::Filter { input, pred } => {
            let t = exec_guarded(input, cat, cfg, stack)?;
            filter_op(&t, pred, cfg)
        }
        Plan::Project { input, items } => {
            let t = exec_guarded(input, cat, cfg, stack)?;
            project_op(&t, items, cfg)
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
            right_prefix,
        } => {
            let lt = exec_guarded(left, cat, cfg, stack)?;
            let rt = exec_guarded(right, cat, cfg, stack)?;
            cfg.obs.count(Counter::QueryJoin);
            join_op(&lt, &rt, *kind, on, right_prefix, cfg)
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let t = exec_guarded(input, cat, cfg, stack)?;
            aggregate_op(&t, group_by, aggs, cfg)
        }
        Plan::Union { left, right } => {
            cfg.obs.count(Counter::QueryUnion);
            let lt = exec_guarded(left, cat, cfg, stack)?;
            let rt = exec_guarded(right, cat, cfg, stack)?;
            Ok(lt.union_all(&rt)?)
        }
        Plan::Distinct { input } => {
            cfg.obs.count(Counter::QueryDistinct);
            Ok(exec_guarded(input, cat, cfg, stack)?.distinct())
        }
        Plan::Sort { input, keys } => {
            cfg.obs.count(Counter::QuerySort);
            let t = exec_guarded(input, cat, cfg, stack)?;
            sort_with(&t, keys, None, cfg)
        }
        Plan::Limit { input, n } => {
            // Fuse `Limit(Sort(…))` into a top-k: the sort kernel then
            // partitions out the k smallest instead of ordering all rows.
            if cfg.columnar {
                if let Plan::Sort {
                    input: sort_input,
                    keys,
                } = input.as_ref()
                {
                    cfg.obs.count(Counter::QueryLimit);
                    cfg.obs.count(Counter::QuerySort);
                    let t = exec_guarded(sort_input, cat, cfg, stack)?;
                    return sort_with(&t, keys, Some(*n), cfg);
                }
            }
            let t = exec_guarded(input, cat, cfg, stack)?;
            limit_op(&t, *n, cfg)
        }
    }
}

/// The Filter operator over a materialized input: columnar kernel first
/// (when the config allows), scalar VM otherwise. Also used by the
/// pipeline executor's operator-at-a-time fallback, so declines there
/// count and behave exactly like the tree walk. The engine that served
/// the filter is recorded (`plan.choice.columnar` / `plan.choice.serial`)
/// so benches see a concrete decision for every operator.
pub(crate) fn filter_op(
    t: &Table,
    pred: &bi_relation::Expr,
    cfg: &ExecConfig,
) -> Result<Table, QueryError> {
    use bi_exec::Counter;
    cfg.obs.count(Counter::QueryFilter);
    let _span = cfg.obs.span(bi_exec::SpanKind::QueryFilter);
    if cfg.columnar {
        if let Some(out) = bi_relation::filter_columnar(t, pred, cfg) {
            cfg.obs.count(Counter::PlanChoiceColumnar);
            return Ok(out);
        }
    }
    cfg.obs.count(Counter::PlanChoiceSerial);
    Ok(bi_relation::filter_scalar(t, pred, cfg)?)
}

/// The Project operator over a materialized input (all projections are
/// scalar-VM evaluated). Shared with the pipeline fallback.
pub(crate) fn project_op(
    t: &Table,
    items: &[(String, bi_relation::Expr)],
    cfg: &ExecConfig,
) -> Result<Table, QueryError> {
    cfg.obs.count(bi_exec::Counter::QueryProject);
    Ok(bi_relation::project_scalar(t, items, cfg)?)
}

/// The Aggregate operator over a materialized input. Shared with the
/// pipeline fallback.
pub(crate) fn aggregate_op(
    t: &Table,
    group_by: &[String],
    aggs: &[AggItem],
    cfg: &ExecConfig,
) -> Result<Table, QueryError> {
    cfg.obs.count(bi_exec::Counter::QueryAggregate);
    let _span = cfg.obs.span(bi_exec::SpanKind::QueryAggregate);
    aggregate_with(t, group_by, aggs, cfg)
}

/// The plain (non-top-k) Limit operator over a materialized input.
/// Shared with the pipeline fallback.
pub(crate) fn limit_op(t: &Table, n: usize, cfg: &ExecConfig) -> Result<Table, QueryError> {
    cfg.obs.count(bi_exec::Counter::QueryLimit);
    // A prefix of an already-validated table needs no re-check.
    let rows: Vec<_> = t.rows().iter().take(n).cloned().collect();
    Ok(Table::from_rows_trusted(
        t.name().to_string(),
        t.schema_shared(),
        rows,
    ))
}

/// Sort (optionally truncated to `limit` rows) via the columnar
/// permutation kernel when the config allows and the key columns
/// convert, the row engine's stable `Value` sort otherwise. Both paths
/// produce identical rows: the kernel reproduces `Table::sort_by`'s
/// comparator and stability exactly, and key-resolution errors fall to
/// the row engine so they surface identically.
fn sort_with(
    t: &Table,
    keys: &[SortKey],
    limit: Option<usize>,
    cfg: &ExecConfig,
) -> Result<Table, QueryError> {
    use bi_exec::Counter;
    if cfg.columnar {
        let idxs: Result<Vec<usize>, _> = keys
            .iter()
            .map(|k| t.schema().index_of(&k.column))
            .collect();
        if let Ok(idxs) = idxs {
            match bi_relation::ColumnChunk::from_table_cols_cached(t, &idxs, cfg) {
                Ok(chunk) => {
                    cfg.obs.count(Counter::ColumnarConvert);
                    let spec: Vec<(usize, bool)> = idxs
                        .iter()
                        .zip(keys)
                        .map(|(&c, k)| (c, k.descending))
                        .collect();
                    if let Some(perm) = bi_relation::sort_permutation(&chunk, &spec, limit) {
                        cfg.obs.count(Counter::ColumnarSortHit);
                        cfg.obs.count(Counter::PlanChoiceColumnar);
                        let rows: Vec<Vec<Value>> =
                            perm.iter().map(|&i| t.rows()[i as usize].clone()).collect();
                        return Ok(Table::from_rows_trusted(
                            t.name().to_string(),
                            t.schema_shared(),
                            rows,
                        ));
                    }
                }
                Err(e) => {
                    cfg.obs.count(e.counter());
                    cfg.obs.count(Counter::ColumnarSortDeclineConvert);
                }
            }
        }
    }
    cfg.obs.count(Counter::PlanChoiceSerial);
    let cols: Vec<&str> = keys.iter().map(|k| k.column.as_str()).collect();
    let desc: Vec<bool> = keys.iter().map(|k| k.descending).collect();
    let sorted = t.sort_by(&cols, &desc)?;
    Ok(match limit {
        None => sorted,
        Some(n) => {
            let rows: Vec<_> = sorted.rows().iter().take(n).cloned().collect();
            Table::from_rows_trusted(sorted.name().to_string(), sorted.schema_shared(), rows)
        }
    })
}

/// Output name of a join: both inputs, so chained joins and self-joins
/// stay distinguishable in catalogs and provenance (naming the output
/// after the left input alone made `A ⋈ A` collide with `A`).
pub fn join_output_name(left: &Table, right: &Table) -> String {
    format!("{}⋈{}", left.name(), right.name())
}

/// Join output schema: left ⊕ prefixed right, right side nullable for
/// left joins. Takes schemas only, so the pipeline can plan a streamed
/// join before its probe side has produced any table.
pub(crate) fn join_schema(
    left: &Schema,
    right: &Schema,
    kind: JoinKind,
    right_prefix: &str,
) -> Result<Schema, QueryError> {
    let schema = left.join(right, right_prefix)?;
    // Left-join output must admit NULLs on the right side.
    if kind == JoinKind::Left {
        let mut cols = schema.columns().to_vec();
        for c in cols.iter_mut().skip(left.len()) {
            c.nullable = true;
        }
        Ok(Schema::new(cols)?)
    } else {
        Ok(schema)
    }
}

/// The Join operator over materialized inputs: the serial row join.
/// Columnar execution streams joins through the pipeline instead; this
/// serves joins when the pipeline is off and every join the pipeline
/// declines (its fallback), so it is the oracle.
pub(crate) fn join_op(
    left: &Table,
    right: &Table,
    kind: JoinKind,
    on: &[(String, String)],
    right_prefix: &str,
    cfg: &ExecConfig,
) -> Result<Table, QueryError> {
    cfg.obs.count(bi_exec::Counter::PlanChoiceSerial);
    let schema = join_schema(left.schema(), right.schema(), kind, right_prefix)?;
    let left_keys: Vec<usize> = on
        .iter()
        .map(|(l, _)| left.schema().index_of(l))
        .collect::<Result<_, _>>()?;
    let right_keys: Vec<usize> = on
        .iter()
        .map(|(_, r)| right.schema().index_of(r))
        .collect::<Result<_, _>>()?;

    // Build a composite-key hash map over the right side. Rows with any
    // NULL key never match (SQL equality).
    use std::collections::HashMap;
    let build_span = cfg.obs.span(bi_exec::SpanKind::QueryJoinBuild);
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, row) in right.rows().iter().enumerate() {
        let key: Vec<Value> = right_keys.iter().map(|&c| row[c].clone()).collect();
        if key.iter().any(Value::is_null) {
            continue;
        }
        index.entry(key).or_default().push(i);
    }
    drop(build_span);

    let _probe_span = cfg.obs.span(bi_exec::SpanKind::QueryJoinProbe);
    let mut out = Table::new(join_output_name(left, right), schema);
    let right_width = right.schema().len();
    for lrow in left.rows() {
        let key: Vec<Value> = left_keys.iter().map(|&c| lrow[c].clone()).collect();
        let matches: &[usize] = if key.iter().any(Value::is_null) {
            &[]
        } else {
            index.get(&key).map(Vec::as_slice).unwrap_or(&[])
        };
        if matches.is_empty() {
            if kind == JoinKind::Left {
                let mut row = lrow.clone();
                row.extend(std::iter::repeat_n(Value::Null, right_width));
                out.push_row(row)?;
            }
            continue;
        }
        for &ri in matches {
            let mut row = lrow.clone();
            row.extend(right.rows()[ri].iter().cloned());
            out.push_row(row)?;
        }
    }
    Ok(out)
}

fn aggregate_with(
    input: &Table,
    group_by: &[String],
    aggs: &[AggItem],
    cfg: &ExecConfig,
) -> Result<Table, QueryError> {
    use bi_exec::Counter;
    // The columnar kernel groups by key codes; a global aggregate has
    // no key and stays on the row engine.
    if cfg.columnar && !group_by.is_empty() {
        if let Some(out) = aggregate_columnar(input, group_by, aggs, cfg)? {
            cfg.obs.count(Counter::PlanChoiceColumnar);
            return Ok(out);
        }
    }
    cfg.obs.count(Counter::PlanChoiceSerial);
    aggregate(input, group_by, aggs)
}

/// Columnar group-by, any number of key columns: rows slot into groups
/// by their key columns' codes through [`crate::pipeline::GroupSlots`]
/// (the fused aggregate sink's grouping routine), so grouping is integer
/// indexing instead of per-row `Value` hashing, and groups come out in
/// first-appearance order — exactly the group order the serial engine
/// emits. Aggregates run on vectorized kernels over the typed argument
/// columns when one applies ([`eval_agg_columnar`]), falling back to
/// [`eval_agg`] per aggregate otherwise, so results — including error
/// cases — are identical. Key and argument columns are served from the
/// version-keyed chunk cache, and a key column's dense codes are built
/// once per cached column. Returns `Ok(None)` for tables that decline
/// columnar conversion of the key columns.
fn aggregate_columnar(
    input: &Table,
    group_by: &[String],
    aggs: &[AggItem],
    cfg: &ExecConfig,
) -> Result<Option<Table>, QueryError> {
    use bi_exec::Counter;
    use bi_relation::ColumnChunk;
    if group_by.is_empty() {
        cfg.obs.count(Counter::ColumnarGroupByDeclineShape);
        return Ok(None);
    }
    let (schema, arg_idx) = aggregate_header(input.schema(), group_by, aggs)?;
    let key_cols: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema().index_of(g))
        .collect::<Result<_, _>>()?;
    let chunk = match ColumnChunk::from_table_cols_cached(input, &key_cols, cfg) {
        Ok(c) => c,
        Err(e) => {
            cfg.obs.count(e.counter());
            cfg.obs.count(Counter::ColumnarGroupByDeclineConvert);
            return Ok(None);
        }
    };
    // The conversion materialized exactly these columns; decline to the
    // row engine rather than abort if that invariant ever breaks.
    let key_data: Option<Vec<&bi_relation::ChunkColumn>> =
        key_cols.iter().map(|&c| chunk.column(c)).collect();
    let Some(key_data) = key_data else {
        cfg.obs.count(Counter::ColumnarGroupByDeclineShape);
        return Ok(None);
    };
    cfg.obs.count(Counter::ColumnarConvert);
    cfg.obs.count(Counter::ColumnarGroupByHit);

    // Slot rows into groups by their key columns' codes (dictionary
    // codes for text, the column's cached dense codes otherwise):
    // first-appearance ids, exactly the group order the serial engine
    // emits.
    let codes: Vec<bi_relation::GroupCodes> = key_data.iter().map(|c| c.group_codes()).collect();
    let cards: Vec<u32> = codes.iter().map(|c| c.cardinality()).collect();
    let mut slots = crate::pipeline::GroupSlots::new(&cards);
    let mut key = vec![0u32; codes.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..input.len() {
        for (k, c) in key.iter_mut().zip(&codes) {
            *k = c.code(i);
        }
        let (g, fresh) = slots.slot(&key);
        if fresh {
            groups.push(Vec::new());
        }
        groups[g as usize].push(i);
    }

    // Argument columns for the vectorized kernels, from the same cache.
    // A column that declines conversion only sends *its* aggregates to
    // the row fallback; `ColumnarConvert` still counts one conversion
    // per operator (the key chunk) so served-operator counts stay
    // comparable across kernel generations.
    let arg_chunks: Vec<Option<ColumnChunk>> = arg_idx
        .iter()
        .map(|arg| {
            let c = (*arg)?;
            match ColumnChunk::from_table_cols_cached(input, &[c], cfg) {
                Ok(ch) => Some(ch),
                Err(e) => {
                    cfg.obs.count(e.counter());
                    None
                }
            }
        })
        .collect();

    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(groups.len());
    for members in &groups {
        // The serial engine emits the *first* row's key values verbatim
        // (matters for Value-equal but distinct bytes, e.g. -0.0/0.0).
        let mut row: Vec<Value> = key_cols
            .iter()
            .map(|&c| input.rows()[members[0]][c].clone())
            .collect();
        for ((a, arg), arg_chunk) in aggs.iter().zip(&arg_idx).zip(&arg_chunks) {
            let kernel = match (arg_chunk, arg) {
                (Some(ch), Some(c)) => ch
                    .column(*c)
                    .and_then(|col| eval_agg_columnar(a.func, col, members)),
                _ => None,
            };
            row.push(match kernel {
                Some(v) => v?,
                None => eval_agg(a.func, input, members, *arg)?,
            });
        }
        rows.push(row);
    }
    Ok(Some(Table::from_rows_trusted(
        input.name().to_string(),
        schema,
        rows,
    )))
}

/// `Value::cmp` of cells `i` and `j` of one typed column (both valid).
fn cmp_cells(data: &bi_relation::ColumnData, i: usize, j: usize) -> std::cmp::Ordering {
    use bi_relation::ColumnData;
    match data {
        ColumnData::Bool(v) => v[i].cmp(&v[j]),
        ColumnData::Int(v) => v[i].cmp(&v[j]),
        ColumnData::Float(v) => Value::norm_float(v[i]).total_cmp(&Value::norm_float(v[j])),
        ColumnData::Date(v) => v[i].cmp(&v[j]),
        ColumnData::Text { codes, dict } => dict.get(codes[i]).cmp(dict.get(codes[j])),
    }
}

/// Vectorized aggregate over one group's members of a typed column.
/// Returns `None` when no kernel applies — the caller falls back to
/// [`eval_agg`], which also owns every error message — and otherwise
/// replicates [`eval_agg`]'s semantics bit for bit: NULL skipping,
/// row-order float accumulation, `checked_add` overflow with the same
/// error, `Value`-equality distinctness, first-minimum/last-maximum
/// selection (`Iterator::min`/`max`), empty-group `Null`.
fn eval_agg_columnar(
    func: AggFunc,
    col: &bi_relation::ChunkColumn,
    members: &[usize],
) -> Option<Result<Value, QueryError>> {
    use bi_relation::ColumnData;
    let valid = |i: usize| !col.validity.is_null(i);
    Some(match (func, &col.data) {
        (AggFunc::Count, _) => Ok(Value::Int(
            members.iter().filter(|&&i| valid(i)).count() as i64
        )),
        (AggFunc::CountDistinct, data) => {
            let mut set: std::collections::HashSet<u64> = std::collections::HashSet::new();
            for &i in members {
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
            for &i in members {
                if !valid(i) {
                    continue;
                }
                any = true;
                sum = match sum.checked_add(v[i]) {
                    Some(s) => s,
                    None => {
                        return Some(Err(
                            bi_relation::RelationError::Overflow { op: "sum" }.into()
                        ))
                    }
                };
            }
            Ok(if any { Value::Int(sum) } else { Value::Null })
        }
        (AggFunc::Sum, ColumnData::Float(v)) => {
            let mut sum = 0.0f64;
            let mut any = false;
            for &i in members {
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
            for &i in members {
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
            for &i in members {
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
            for &i in members {
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

/// Output schema + aggregate argument indices, shared by every
/// aggregation engine (row, columnar, fused pipeline).
/// Takes the input *schema* only, so the pipeline can plan a fused
/// aggregate before the chain below it has produced any table.
pub(crate) fn aggregate_header(
    input: &Schema,
    group_by: &[String],
    aggs: &[AggItem],
) -> Result<(Schema, Vec<Option<usize>>), QueryError> {
    use bi_types::Column;
    let mut cols = Vec::with_capacity(group_by.len() + aggs.len());
    for g in group_by {
        cols.push(input.column(g)?.clone());
    }
    for a in aggs {
        cols.push(Column::nullable(a.name.clone(), agg_output_type(a, input)?));
    }
    let schema = Schema::new(cols)?;
    let arg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| a.arg.as_deref().map(|c| input.index_of(c)).transpose())
        .collect::<Result<_, _>>()?;
    Ok((schema, arg_idx))
}

fn aggregate(input: &Table, group_by: &[String], aggs: &[AggItem]) -> Result<Table, QueryError> {
    let (schema, arg_idx) = aggregate_header(input.schema(), group_by, aggs)?;

    let groups: Vec<(Vec<&Value>, Vec<usize>)> = if group_by.is_empty() {
        // Global aggregate: exactly one group, even over an empty input.
        vec![(Vec::new(), (0..input.len()).collect())]
    } else {
        let keys: Vec<&str> = group_by.iter().map(String::as_str).collect();
        input.group_indices(&keys)?
    };

    let mut out = Table::new(input.name().to_string(), schema);
    for (key, rows) in groups {
        let mut row: Vec<Value> = key.into_iter().cloned().collect();
        for (a, arg) in aggs.iter().zip(&arg_idx) {
            row.push(eval_agg(a.func, input, &rows, *arg)?);
        }
        out.push_row(row)?;
    }
    Ok(out)
}

fn eval_agg(
    func: AggFunc,
    input: &Table,
    rows: &[usize],
    arg: Option<usize>,
) -> Result<Value, QueryError> {
    // Non-null argument values of the group, or None for COUNT(*).
    let values = arg.map(|c| {
        rows.iter()
            .map(move |&r| &input.rows()[r][c])
            .filter(|v: &&Value| !v.is_null())
    });
    eval_agg_values(func, rows.len(), values)
}

/// One aggregate over a group, given the group's member-row count and
/// its non-null argument values in row order. The single source of
/// truth for aggregate semantics: [`eval_agg`] feeds it table rows, the
/// fused pipeline feeds it retained per-group values, and both get
/// byte-identical results *and errors* (including `Sum`'s int/float
/// promotion and `checked_add` overflow order).
pub(crate) fn eval_agg_values<'a, I>(
    func: AggFunc,
    n_rows: usize,
    values: Option<I>,
) -> Result<Value, QueryError>
where
    I: Iterator<Item = &'a Value>,
{
    Ok(match (func, values) {
        (AggFunc::Count, None) => Value::Int(n_rows as i64),
        (AggFunc::Count, Some(vals)) => Value::Int(vals.count() as i64),
        (AggFunc::CountDistinct, Some(vals)) => {
            let set: std::collections::HashSet<&Value> = vals.collect();
            Value::Int(set.len() as i64)
        }
        (AggFunc::CountDistinct, None) => {
            return Err(QueryError::BadAggregate {
                reason: "count_distinct requires an argument".into(),
            })
        }
        (AggFunc::Sum, Some(vals)) => {
            let mut int_sum: i64 = 0;
            let mut float_sum = 0.0f64;
            let mut any = false;
            let mut is_float = false;
            for v in vals {
                any = true;
                match v {
                    Value::Int(i) => {
                        int_sum = int_sum
                            .checked_add(*i)
                            .ok_or(bi_relation::RelationError::Overflow { op: "sum" })?;
                        float_sum += *i as f64;
                    }
                    Value::Float(f) => {
                        is_float = true;
                        float_sum += *f;
                    }
                    other => {
                        return Err(QueryError::BadAggregate {
                            reason: format!("sum over {other:?}"),
                        })
                    }
                }
            }
            if !any {
                Value::Null
            } else if is_float {
                Value::Float(float_sum)
            } else {
                Value::Int(int_sum)
            }
        }
        (AggFunc::Avg, Some(vals)) => {
            let mut sum = 0.0;
            let mut n = 0usize;
            for v in vals {
                sum += v.as_f64().map_err(|e| QueryError::Relation(e.into()))?;
                n += 1;
            }
            if n == 0 {
                Value::Null
            } else {
                Value::Float(sum / n as f64)
            }
        }
        (AggFunc::Min, Some(vals)) => vals.min().cloned().unwrap_or(Value::Null),
        (AggFunc::Max, Some(vals)) => vals.max().cloned().unwrap_or(Value::Null),
        (f, None) => {
            return Err(QueryError::BadAggregate {
                reason: format!("{} requires an argument", f.name()),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::tests::paper_catalog;
    use crate::plan::{scan, SortKey};
    use bi_relation::expr::{col, lit};

    #[test]
    fn fig4_drug_consumption_report() {
        // The paper's Fig. 4 report: drug → consumption (count).
        let cat = paper_catalog();
        let p = scan("Prescriptions")
            .aggregate(
                vec!["Drug".into()],
                vec![AggItem::count_star("Consumption")],
            )
            .sort(vec![SortKey::asc("Drug")]);
        let t = execute(&p, &cat).unwrap();
        assert_eq!(t.len(), 4);
        let dh = t.rows().iter().find(|r| r[0] == Value::from("DH")).unwrap();
        assert_eq!(dh[1], Value::Int(1));
        let dr = t.rows().iter().find(|r| r[0] == Value::from("DR")).unwrap();
        assert_eq!(dr[1], Value::Int(2));
    }

    #[test]
    fn join_prescriptions_with_cost() {
        let cat = paper_catalog();
        let p = scan("Prescriptions")
            .join(scan("DrugCost"), vec![("Drug".into(), "Drug".into())], "dc")
            .project_cols(&["Patient", "Drug", "Cost"]);
        let t = execute(&p, &cat).unwrap();
        assert_eq!(t.len(), 5);
        let alice_dh = t
            .rows()
            .iter()
            .find(|r| r[0] == Value::from("Alice") && r[1] == Value::from("DH"))
            .unwrap();
        assert_eq!(alice_dh[2], Value::Int(60));
    }

    #[test]
    fn left_join_pads_nulls() {
        let cat = paper_catalog();
        // Familydoctor joined to prescriptions by (Patient, Doctor): Chris's
        // prescription has a NULL doctor, so Chris's family-doctor row
        // matches nothing.
        let p = scan("Familydoctor").left_join(
            scan("Prescriptions"),
            vec![
                ("Patient".into(), "Patient".into()),
                ("Doctor".into(), "Doctor".into()),
            ],
            "p",
        );
        let t = execute(&p, &cat).unwrap();
        let chris: Vec<_> = t
            .rows()
            .iter()
            .filter(|r| r[0] == Value::from("Chris"))
            .collect();
        assert_eq!(chris.len(), 1);
        assert!(
            chris[0][2].is_null(),
            "unmatched right side padded with NULL"
        );
        // Inner join would drop Chris entirely.
        let pi = scan("Familydoctor").join(
            scan("Prescriptions"),
            vec![
                ("Patient".into(), "Patient".into()),
                ("Doctor".into(), "Doctor".into()),
            ],
            "p",
        );
        let ti = execute(&pi, &cat).unwrap();
        assert!(ti.rows().iter().all(|r| r[0] != Value::from("Chris")));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let cat = paper_catalog();
        let p = scan("Prescriptions")
            .filter(col("Patient").eq(lit("Nobody")))
            .aggregate(
                vec![],
                vec![
                    AggItem::count_star("n"),
                    AggItem::new("s", AggFunc::Sum, "Drug"),
                ],
            );
        // Sum over Text is a static type error.
        assert!(execute(&p, &cat).is_err());
        let p = scan("Prescriptions")
            .filter(col("Patient").eq(lit("Nobody")))
            .aggregate(vec![], vec![AggItem::count_star("n")]);
        let t = execute(&p, &cat).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::Int(0));
    }

    #[test]
    fn aggregate_functions() {
        let cat = paper_catalog();
        let p = scan("DrugCost").aggregate(
            vec![],
            vec![
                AggItem::new("total", AggFunc::Sum, "Cost"),
                AggItem::new("mean", AggFunc::Avg, "Cost"),
                AggItem::new("lo", AggFunc::Min, "Cost"),
                AggItem::new("hi", AggFunc::Max, "Cost"),
                AggItem::new("kinds", AggFunc::CountDistinct, "Cost"),
            ],
        );
        let t = execute(&p, &cat).unwrap();
        let r = &t.rows()[0];
        assert_eq!(r[0], Value::Int(160));
        assert_eq!(r[1], Value::Float(32.0));
        assert_eq!(r[2], Value::Int(10));
        assert_eq!(r[3], Value::Int(60));
        assert_eq!(r[4], Value::Int(4));
    }

    #[test]
    fn count_column_skips_nulls() {
        let cat = paper_catalog();
        let p = scan("Prescriptions").aggregate(
            vec![],
            vec![AggItem::new("doctors", AggFunc::Count, "Doctor")],
        );
        let t = execute(&p, &cat).unwrap();
        assert_eq!(
            t.rows()[0][0],
            Value::Int(4),
            "Chris's NULL doctor not counted"
        );
    }

    #[test]
    fn views_execute_transparently() {
        let mut cat = paper_catalog();
        cat.add_view(
            "NonHiv",
            scan("Prescriptions").filter(col("Disease").ne(lit("HIV"))),
        )
        .unwrap();
        let t = execute(&scan("NonHiv"), &cat).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.name(), "NonHiv");
        // Cycles still error at execution.
        cat.add_view("L1", scan("L2")).unwrap();
        cat.add_view("L2", scan("L1")).unwrap();
        assert!(matches!(
            execute(&scan("L1"), &cat),
            Err(QueryError::CyclicView { .. })
        ));
    }

    #[test]
    fn union_distinct_sort_limit() {
        let cat = paper_catalog();
        let drugs = scan("Prescriptions").project_cols(&["Drug"]);
        let p = drugs
            .clone()
            .union(drugs)
            .distinct()
            .sort(vec![SortKey::desc("Drug")])
            .limit(2);
        let t = execute(&p, &cat).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][0], Value::from("DV"));
        assert_eq!(t.rows()[1][0], Value::from("DR"));
    }

    #[test]
    fn join_output_names_are_distinct() {
        let cat = paper_catalog();
        // Self-join: the output must not collide with the input name.
        let p = scan("Prescriptions")
            .project_cols(&["Patient", "Drug"])
            .join(
                scan("Prescriptions").project_cols(&["Drug"]),
                vec![("Drug".into(), "Drug".into())],
                "r",
            );
        let t = execute(&p, &cat).unwrap();
        assert_eq!(t.name(), "Prescriptions⋈Prescriptions");
        // Chained joins accumulate both sides.
        let p = scan("Prescriptions").join(
            scan("DrugCost"),
            vec![("Drug".into(), "Drug".into())],
            "dc",
        );
        let t = execute(&p, &cat).unwrap();
        assert_eq!(t.name(), "Prescriptions⋈DrugCost");
    }

    /// Large synthetic input for the columnar and sort oracle tests.
    fn big_catalog(rows: usize) -> Catalog {
        use bi_types::{Column, DataType};
        let fact_schema = Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("G", DataType::Text),
            Column::nullable("V", DataType::Int),
        ])
        .unwrap();
        let fact_rows: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                let v = if i % 97 == 0 {
                    Value::Null
                } else {
                    Value::Int((i % 1000) as i64)
                };
                vec![
                    Value::Int((i % 500) as i64),
                    Value::text(format!("g{}", i % 37)),
                    v,
                ]
            })
            .collect();
        let dim_schema = Schema::new(vec![
            Column::new("K", DataType::Int),
            Column::new("Label", DataType::Text),
        ])
        .unwrap();
        let dim_rows: Vec<Vec<Value>> = (0..400)
            .map(|i| vec![Value::Int(i), Value::text(format!("d{i}"))])
            .collect();
        let mut cat = Catalog::new();
        cat.put_table(Table::from_rows("Fact", fact_schema, fact_rows).unwrap());
        cat.put_table(Table::from_rows("Dim", dim_schema, dim_rows).unwrap());
        cat
    }

    #[test]
    fn columnar_pipeline_matches_serial_exactly() {
        let cat = big_catalog(10_000);
        // Filter + streamed join + code-slotted group-by, all on the
        // columnar paths; `V` has NULLs every 97th row.
        let plan = scan("Fact")
            .filter(col("V").ge(lit(250)).or(col("V").is_null()))
            .join(scan("Dim"), vec![("K".into(), "K".into())], "d")
            .aggregate(
                vec!["G".into()],
                vec![
                    AggItem::count_star("n"),
                    AggItem::new("s", AggFunc::Sum, "V"),
                    AggItem::new("hi", AggFunc::Max, "V"),
                ],
            );
        let serial = execute(&plan, &cat).unwrap();
        for threads in [1, 2, 8] {
            let cfg = ExecConfig::with_threads(threads)
                .with_columnar(true)
                .with_pinned_threads(true);
            let par = execute_with(&plan, &cat, &cfg).unwrap();
            assert_eq!(par.schema(), serial.schema(), "threads={threads}");
            assert_eq!(par.rows(), serial.rows(), "threads={threads}");
            assert_eq!(par.name(), serial.name(), "threads={threads}");
        }
    }

    #[test]
    fn columnar_text_key_join_matches_serial() {
        let cat = paper_catalog();
        let cfg = ExecConfig::columnar();
        for plan in [
            // Text-key inner join on the paper's tables.
            scan("Prescriptions").join(
                scan("DrugCost"),
                vec![("Drug".into(), "Drug".into())],
                "dc",
            ),
            // Left join with NULL keys: Chris's NULL doctor matches nothing.
            scan("Prescriptions")
                .project_cols(&["Patient", "Doctor"])
                .left_join(
                    scan("Prescriptions").project_cols(&["Doctor"]),
                    vec![("Doctor".into(), "Doctor".into())],
                    "r",
                ),
            // Multi-key joins take the composite-key probe; result matches.
            scan("Familydoctor").left_join(
                scan("Prescriptions"),
                vec![
                    ("Patient".into(), "Patient".into()),
                    ("Doctor".into(), "Doctor".into()),
                ],
                "p",
            ),
        ] {
            let serial = execute(&plan, &cat).unwrap();
            let columnar = execute_with(&plan, &cat, &cfg).unwrap();
            assert_eq!(columnar.rows(), serial.rows());
            assert_eq!(columnar.schema(), serial.schema());
            assert_eq!(columnar.name(), serial.name());
        }
    }

    #[test]
    fn columnar_aggregate_errors_match_serial() {
        let cat = big_catalog(5_000);
        let plan = scan("Fact").aggregate(
            vec!["G".into()],
            vec![AggItem::new("bad", AggFunc::Sum, "G")],
        );
        let serial = execute(&plan, &cat).unwrap_err();
        let columnar = execute_with(&plan, &cat, &ExecConfig::columnar()).unwrap_err();
        assert_eq!(columnar, serial);
    }

    #[test]
    fn null_join_keys_never_match() {
        let cat = paper_catalog();
        // Join Prescriptions to itself on Doctor: Chris's NULL doctor row
        // must not match any row (including itself).
        let p = scan("Prescriptions")
            .project_cols(&["Patient", "Doctor"])
            .join(
                scan("Prescriptions").project_cols(&["Doctor"]),
                vec![("Doctor".into(), "Doctor".into())],
                "r",
            );
        let t = execute(&p, &cat).unwrap();
        assert!(t.rows().iter().all(|r| r[0] != Value::from("Chris")));
    }

    /// Regression: the columnar join used to `expect` its key columns
    /// out of the converted chunks. Malformed join keys must surface
    /// the same typed error as the serial engine — never a panic.
    #[test]
    fn malformed_join_keys_error_identically_under_columnar() {
        let cat = paper_catalog();
        for on in [
            vec![("NoSuchLeft".to_string(), "Drug".to_string())],
            vec![("Drug".to_string(), "NoSuchRight".to_string())],
        ] {
            let p = scan("Prescriptions").join(scan("DrugCost"), on, "dc");
            let serial = execute(&p, &cat).unwrap_err();
            let columnar = execute_with(&p, &cat, &ExecConfig::columnar()).unwrap_err();
            assert_eq!(columnar, serial);
        }
    }

    /// Regression: the columnar group-by used to `expect` its key
    /// column; a missing grouping column is a typed error in both
    /// engines.
    #[test]
    fn malformed_group_by_errors_identically_under_columnar() {
        let cat = paper_catalog();
        let p =
            scan("Prescriptions").aggregate(vec!["Ghost".into()], vec![AggItem::count_star("n")]);
        let serial = execute(&p, &cat).unwrap_err();
        let columnar = execute_with(&p, &cat, &ExecConfig::columnar()).unwrap_err();
        assert_eq!(columnar, serial);
    }

    /// Pipeline declines are not silent: the obs layer records the
    /// decline reason, and the row-join fallback still runs the
    /// operator (join build/probe spans recorded exactly once).
    #[test]
    fn columnar_declines_surface_as_obs_counters() {
        let cat = paper_catalog();
        let obs = bi_exec::Obs::enabled();
        let cfg = ExecConfig::columnar().with_obs(obs.clone());
        // A cross-typed key (Text = Int) is outside the streamed join's
        // shape — such keys never compare equal.
        let p = scan("Prescriptions").join(
            scan("DrugCost"),
            vec![
                ("Drug".into(), "Drug".into()),
                ("Patient".into(), "Cost".into()),
            ],
            "dc",
        );
        let observed = execute_with(&p, &cat, &cfg).unwrap();
        assert_eq!(
            observed,
            execute(&p, &cat).unwrap(),
            "decline falls back byte-identically"
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("pipeline.decline.shape"), Some(&1));
        assert_eq!(snap.counters.get("plan.choice.serial"), Some(&1));
        assert_eq!(snap.counters.get("query.op.join"), Some(&1));
        assert_eq!(snap.spans.get("query.join.build").map(|s| s.count), Some(1));
        assert_eq!(snap.spans.get("query.join.probe").map(|s| s.count), Some(1));
    }

    /// Multi-key joins stream through the pipeline's composite-key
    /// probe — no shape decline — and match the row engine byte for
    /// byte.
    #[test]
    fn columnar_multi_key_join_hits_kernel() {
        let cat = paper_catalog();
        let obs = bi_exec::Obs::enabled();
        let cfg = ExecConfig::columnar().with_obs(obs.clone());
        // Two text keys with a NULL (Chris's doctor): NULL in any key
        // position must disqualify the row, as in the serial engine.
        let p = scan("Familydoctor").left_join(
            scan("Prescriptions"),
            vec![
                ("Patient".into(), "Patient".into()),
                ("Doctor".into(), "Doctor".into()),
            ],
            "p",
        );
        let columnar = execute_with(&p, &cat, &cfg).unwrap();
        let serial = execute(&p, &cat).unwrap();
        assert_eq!(columnar.rows(), serial.rows());
        assert_eq!(columnar.schema(), serial.schema());
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("plan.choice.pipeline"), Some(&1));
        assert_eq!(snap.counters.get("pipeline.decline.shape"), None);
    }

    /// Mixed text+int multi-key self-join through the composite-key probe.
    #[test]
    fn columnar_mixed_type_multi_key_join_matches_serial() {
        let cat = big_catalog(5_000);
        let p = scan("Fact").project_cols(&["K", "G"]).join(
            scan("Fact"),
            vec![("K".into(), "K".into()), ("G".into(), "G".into())],
            "r",
        );
        let serial = execute(&p, &cat).unwrap();
        let columnar = execute_with(&p, &cat, &ExecConfig::columnar()).unwrap();
        assert_eq!(columnar.rows(), serial.rows());
        assert_eq!(columnar.name(), serial.name());
    }

    /// Multi-column group-by with vectorized aggregate kernels over
    /// every aggregate function, NULLs included, against the serial
    /// oracle.
    #[test]
    fn columnar_multi_column_group_by_matches_serial() {
        use bi_types::{Column, DataType};
        let schema = Schema::new(vec![
            Column::new("A", DataType::Text),
            Column::new("B", DataType::Int),
            Column::nullable("F", DataType::Float),
            Column::nullable("N", DataType::Int),
        ])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..3_000i64)
            .map(|i| {
                let f = match (i % 11, i % 17) {
                    (0, _) => Value::Null,
                    (_, 0) => Value::Float(f64::NAN),
                    _ if i % 19 == 0 => Value::Float(-0.0),
                    _ => Value::Float((i % 13) as f64 * 0.5),
                };
                let n = if i % 23 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 31)
                };
                vec![Value::text(format!("a{}", i % 7)), Value::Int(i % 5), f, n]
            })
            .collect();
        let mut cat = Catalog::new();
        cat.put_table(Table::from_rows("M", schema, rows).unwrap());
        let plan = scan("M").aggregate(
            vec!["A".into(), "B".into()],
            vec![
                AggItem::count_star("n"),
                AggItem::new("cn", AggFunc::Count, "N"),
                AggItem::new("sn", AggFunc::Sum, "N"),
                AggItem::new("sf", AggFunc::Sum, "F"),
                AggItem::new("af", AggFunc::Avg, "F"),
                AggItem::new("lo", AggFunc::Min, "F"),
                AggItem::new("hi", AggFunc::Max, "N"),
                AggItem::new("df", AggFunc::CountDistinct, "F"),
                AggItem::new("da", AggFunc::CountDistinct, "A"),
            ],
        );
        let serial = execute(&plan, &cat).unwrap();
        assert_eq!(serial.len(), 35, "7 × 5 composite groups");
        let obs = bi_exec::Obs::enabled();
        let cfg = ExecConfig::columnar().with_obs(obs.clone());
        let columnar = execute_with(&plan, &cat, &cfg).unwrap();
        assert_eq!(columnar.schema(), serial.schema());
        assert_eq!(columnar.rows(), serial.rows());
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("columnar.groupby.hit"), Some(&1));
        assert_eq!(snap.counters.get("columnar.groupby.decline.shape"), None);
    }

    /// Columnar sort and the fused `Limit(Sort(…))` top-k match the
    /// row engine's stable sort at every limit.
    #[test]
    fn columnar_sort_and_top_k_match_serial() {
        let cat = big_catalog(3_000);
        let sort_keys = vec![SortKey::desc("G"), SortKey::asc("V")];
        let sorted = scan("Fact").sort(sort_keys.clone());
        let serial = execute(&sorted, &cat).unwrap();
        let obs = bi_exec::Obs::enabled();
        let cfg = ExecConfig::columnar().with_obs(obs.clone());
        let columnar = execute_with(&sorted, &cat, &cfg).unwrap();
        assert_eq!(columnar.rows(), serial.rows());
        assert_eq!(columnar.name(), serial.name());
        assert_eq!(obs.snapshot().counters.get("columnar.sort.hit"), Some(&1));
        for limit in [0, 1, 17, 3_000, 5_000] {
            let plan = scan("Fact").sort(sort_keys.clone()).limit(limit);
            let serial = execute(&plan, &cat).unwrap();
            let columnar = execute_with(&plan, &cat, &ExecConfig::columnar()).unwrap();
            assert_eq!(columnar.rows(), serial.rows(), "limit={limit}");
            assert_eq!(columnar.name(), serial.name(), "limit={limit}");
        }
    }

    /// A streamed join converts each input exactly once —
    /// `columnar.convert` counts conversions, so a join is exactly 2.
    #[test]
    fn columnar_join_converts_each_side_once() {
        let cat = paper_catalog();
        let obs = bi_exec::Obs::enabled();
        let cfg = ExecConfig::columnar().with_obs(obs.clone());
        let p = scan("Prescriptions").join(
            scan("DrugCost"),
            vec![("Drug".into(), "Drug".into())],
            "dc",
        );
        execute_with(&p, &cat, &cfg).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("plan.choice.pipeline"), Some(&1));
        assert_eq!(snap.counters.get("columnar.convert"), Some(&2));
    }
}
