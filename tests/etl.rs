//! ETL commits against an oracle fold.
//!
//! Random source tables (duplicate and near-duplicate rows, NULLs, Int
//! and Float cells including ±0.0 and NaN, dates, text) run through
//! random chains of `FilterRows`, `Derive`, `Deduplicate`, `Standardize`
//! and `Load` over two staged names. Half the tables hold no `Int` cell
//! in their `Float` column, so Deduplicate runs on column codes; the
//! other half decline to `Value` hashing. The runner must match a fold
//! written here from `Table::filter`, `Table::map_rows` and a
//! `HashSet<Row>` distinct — the loaded tables, step reports, typed
//! errors, and which tables share row storage — at 1, 2 and 8 threads.
//! Copy-on-write pins check that a step which updates its rows in place
//! never reaches storage it does not own.

use std::collections::{BTreeMap, HashSet};

use plabi::etl::pipeline::StepReport;
use plabi::etl::{run_pipeline_with, EtlError, EtlReport};
use plabi::exec::{ExecConfig, Obs};
use plabi::prelude::*;
use plabi::relation::expr::Expr;
use plabi::relation::{BinOp, Func, Row};
use plabi::types::{Column, DataType, Schema};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];
const STAGED: [&str; 2] = ["s0", "s1"];
const WAREHOUSE: [&str; 2] = ["W0", "W1"];

fn today() -> Date {
    Date::new(2008, 1, 1).unwrap()
}

fn source_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::nullable("x", DataType::Float),
        Column::nullable("n", DataType::Int),
        Column::new("d", DataType::Date),
        Column::nullable("t", DataType::Text),
    ])
    .unwrap()
}

fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

/// An equal value with other bits: Deduplicate must keep whichever
/// of the two comes first. `Float(2.0)` turns into `Int(2)` only in a
/// `mixed` table.
fn twin(x: &Value, mixed: bool) -> Value {
    match x {
        Value::Float(f) if *f == 0.0 => Value::Float(-f),
        Value::Float(f) if f.is_nan() => Value::Float(f64::from_bits(f.to_bits() ^ 1)),
        Value::Float(f) if *f == 2.0 && mixed => Value::Int(2),
        Value::Int(2) => Value::Float(2.0),
        other => other.clone(),
    }
}

/// A source table: mostly a handful of rows over tiny domains, now and
/// then a few thousand; half of them mixed.
fn random_table(rng: &mut TestRng, name: &str) -> Table {
    let large = rng.below(6) == 0;
    let mixed = rng.below(2) == 0;
    table_of(rng, name, large, mixed)
}

/// A source table of a handful of rows over tiny domains, or a few
/// thousand when `large` (ids then count rows, so later morsels
/// differ). Either way about one row in eight repeats an earlier one:
/// half of those with an equal twin of its `x`, a quarter with one
/// cell drawn afresh, so Deduplicate must tell it apart on any column.
/// Only a `mixed` table holds `Int(2)` cells in the `Float` column `x`,
/// so only its conversion to columns declines.
fn table_of(rng: &mut TestRng, name: &str, large: bool, mixed: bool) -> Table {
    let len = if large {
        4_000 + rng.below(5_000) as usize
    } else {
        rng.below(24) as usize
    };
    let all_xs = [
        Value::Null,
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(1.5),
        Value::Float(-2.0),
        Value::Float(2.0),
        Value::Int(2),
    ];
    let xs = if mixed {
        &all_xs[..]
    } else {
        &all_xs[..all_xs.len() - 1]
    };
    let texts = [
        Value::Null,
        Value::text("a"),
        Value::text("b"),
        Value::text("c"),
    ];
    let mut rows: Vec<Row> = Vec::with_capacity(len);
    for i in 0..len {
        let id = if large { i as i64 } else { rng.below(6) as i64 };
        let n = match rng.below(4) {
            0 => Value::Null,
            k => Value::Int(k as i64),
        };
        let day = Date::new(2007, 1 + rng.below(3) as u8, 1 + rng.below(3) as u8).unwrap();
        let fresh = vec![
            Value::Int(id),
            pick(rng, xs),
            n,
            Value::Date(day),
            pick(rng, &texts),
        ];
        if i > 0 && rng.below(8) == 0 {
            let mut earlier = rows[rng.below(i as u64) as usize].clone();
            match rng.below(4) {
                0 | 1 => earlier[1] = twin(&earlier[1], mixed),
                // A near-duplicate: equal to the earlier row but in one cell.
                2 => {
                    let c = rng.below(fresh.len() as u64) as usize;
                    earlier[c] = fresh[c].clone();
                }
                _ => {}
            }
            rows.push(earlier);
        } else {
            rows.push(fresh);
        }
    }
    Table::from_rows(name, source_schema(), rows).unwrap()
}

fn random_pred(rng: &mut TestRng) -> Expr {
    match rng.below(8) {
        0 => col("id").ge(lit(rng.below(6) as i64)),
        1 => col("id").lt(lit(4_000 + rng.below(5_000) as i64)),
        2 => col("x").gt(lit(0.0)),
        3 => col("x").eq(lit(0.0)),
        4 => col("t").eq(lit("a")),
        5 => Expr::IsNull(Box::new(col("n"))),
        6 => Expr::Not(Box::new(col("t").eq(lit("b")))),
        _ => lit(true),
    }
}

fn random_derived(rng: &mut TestRng) -> Expr {
    let bin = |op, l: Expr, r: Expr| Expr::Bin(op, Box::new(l), Box::new(r));
    match rng.below(11) {
        0 => lit(rng.below(3) as i64),
        1 => bin(BinOp::Mul, col("id"), lit(2)),
        2 => bin(BinOp::Add, col("x"), lit(1.0)),
        // Flips 0.0 to -0.0 and back, so Deduplicate meets both.
        3 => bin(BinOp::Mul, col("x"), lit(-1.0)),
        4 => Expr::Func(Func::Coalesce, vec![col("t"), lit("z")]),
        5 => Expr::Func(Func::Year, vec![col("d")]),
        6 => Expr::Func(
            Func::If,
            vec![Expr::IsNull(Box::new(col("n"))), lit(0), col("n")],
        ),
        // Fails on the first row whose id is k: sometimes deep in a
        // later morsel, sometimes nowhere.
        7 => bin(
            BinOp::Div,
            lit(1),
            bin(BinOp::Sub, col("id"), lit(rng.below(9_000) as i64)),
        ),
        8 => col("x"),
        9 => lit(Value::Null),
        // Exists only when an earlier Derive made it: otherwise a typed
        // schema error.
        _ => col("c1"),
    }
}

/// Extract both staged names (`s1` sometimes from the same source table,
/// so the two start out sharing storage), then up to eight random steps.
fn random_pipeline(rng: &mut TestRng) -> Pipeline {
    let s1_source = if rng.below(2) == 0 {
        ("hospital", "T")
    } else {
        ("lab", "U")
    };
    let mut p = Pipeline::new("prop")
        .step(
            "e0",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "T".into(),
                as_name: "s0".into(),
            },
        )
        .step(
            "e1",
            EtlOp::Extract {
                source: s1_source.0.into(),
                table: s1_source.1.into(),
                as_name: "s1".into(),
            },
        );
    for i in 1..=rng.below(9) {
        let table = pick(rng, &STAGED).to_string();
        let op = match rng.below(5) {
            0 => EtlOp::FilterRows {
                table,
                pred: random_pred(rng),
            },
            1 => EtlOp::Derive {
                table,
                // Now and then a taken name: a typed schema error.
                column: if rng.below(10) == 0 {
                    "id".into()
                } else {
                    format!("c{i}")
                },
                expr: random_derived(rng),
            },
            2 => EtlOp::Deduplicate { table },
            3 => EtlOp::Standardize {
                table,
                column: "t".into(),
                mapping: vec![("a".into(), "b".into()), ("c".into(), "a".into())],
            },
            _ => EtlOp::Load {
                table,
                warehouse_table: pick(rng, &WAREHOUSE).to_string(),
            },
        };
        p = p.step(format!("s{i}"), op);
    }
    p
}

struct Case {
    sources: BTreeMap<SourceId, Catalog>,
    pipeline: Pipeline,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.pipeline)
    }
}

struct CaseStrategy;

impl Strategy for CaseStrategy {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let mut sources = BTreeMap::new();
        for (source, table) in [("hospital", "T"), ("lab", "U")] {
            let mut cat = Catalog::new();
            cat.add_table(random_table(rng, table)).unwrap();
            sources.insert(SourceId::new(source), cat);
        }
        Case {
            sources,
            pipeline: random_pipeline(rng),
        }
    }
}

/// The oracle fold: every step rebuilt from the table primitives, with
/// the storage-sharing rules stated where they apply (extract and load
/// share, a filter or distinct that keeps every row shares).
fn oracle(
    pipeline: &Pipeline,
    sources: &BTreeMap<SourceId, Catalog>,
) -> Result<EtlReport, EtlError> {
    let mut staged: BTreeMap<String, (Table, Vec<SourceId>)> = BTreeMap::new();
    let mut loaded = Vec::new();
    let mut steps = Vec::new();
    for step in &pipeline.steps {
        let get = |staged: &BTreeMap<String, (Table, Vec<SourceId>)>, name: &str| {
            staged
                .get(name)
                .cloned()
                .ok_or_else(|| EtlError::NoSuchStagingTable {
                    name: name.to_string(),
                    step: step.id.clone(),
                })
        };
        let mut touched = 0;
        let (name, out, srcs) = match &step.op {
            EtlOp::Extract {
                source,
                table,
                as_name,
            } => {
                let mut t = sources[source].table(table).unwrap().clone();
                t.set_name(as_name.clone());
                (as_name.clone(), t, vec![source.clone()])
            }
            EtlOp::FilterRows { table, pred } => {
                let (t, srcs) = get(&staged, table)?;
                let out = t.filter(pred)?;
                touched = t.len() - out.len();
                (table.clone(), out, srcs)
            }
            EtlOp::Derive {
                table,
                column,
                expr,
            } => {
                let (t, srcs) = get(&staged, table)?;
                let mut items: Vec<(String, Expr)> = t
                    .schema()
                    .names()
                    .into_iter()
                    .map(|c| (c.to_string(), col(c)))
                    .collect();
                items.push((column.clone(), expr.clone()));
                (table.clone(), t.map_rows(&items)?, srcs)
            }
            EtlOp::Deduplicate { table } => {
                let (t, srcs) = get(&staged, table)?;
                let mut seen = HashSet::new();
                let rows: Vec<Row> = t
                    .rows()
                    .iter()
                    .filter(|r| seen.insert((*r).clone()))
                    .cloned()
                    .collect();
                touched = t.len() - rows.len();
                let out = if touched == 0 {
                    t.clone()
                } else {
                    Table::from_rows(t.name(), t.schema().clone(), rows)?
                };
                (table.clone(), out, srcs)
            }
            EtlOp::Standardize {
                table,
                column,
                mapping,
            } => {
                let (t, srcs) = get(&staged, table)?;
                let c = t.schema().index_of(column)?;
                let mut rows = t.rows().to_vec();
                for row in &mut rows {
                    if let Value::Text(s) = &row[c] {
                        if let Some((_, to)) = mapping.iter().find(|(from, _)| **from == **s) {
                            row[c] = Value::text(to.as_str());
                            touched += 1;
                        }
                    }
                }
                let out = Table::from_rows(t.name(), t.schema().clone(), rows)?;
                (table.clone(), out, srcs)
            }
            EtlOp::Load {
                table,
                warehouse_table,
            } => {
                let (t, srcs) = get(&staged, table)?;
                let mut published = t.clone();
                published.set_name(warehouse_table.clone());
                steps.push(StepReport {
                    step_id: step.id.clone(),
                    op: step.op.tag(),
                    rows_out: published.len(),
                    touched: 0,
                });
                loaded.push((published, srcs));
                continue;
            }
            other => panic!("the oracle does not model {other}"),
        };
        steps.push(StepReport {
            step_id: step.id.clone(),
            op: step.op.tag(),
            rows_out: out.len(),
            touched,
        });
        staged.insert(name, (out, srcs));
    }
    let mut staging = plabi::etl::Staging::new();
    for (_, (t, srcs)) in staged {
        staging.put(t, srcs);
    }
    Ok(EtlReport {
        staging,
        loaded,
        steps,
    })
}

fn source_tables(sources: &BTreeMap<SourceId, Catalog>) -> Vec<&Table> {
    sources
        .values()
        .flat_map(|cat| cat.table_names().into_iter().filter_map(|n| cat.table(n)))
        .collect()
}

/// Every table a run leaves behind, in a fixed order: the sources'
/// tables, the loaded tables, then the staged ones.
fn tables<'a>(sources: &'a BTreeMap<SourceId, Catalog>, r: &'a EtlReport) -> Vec<&'a Table> {
    let mut out = source_tables(sources);
    out.extend(r.loaded.iter().map(|(t, _)| t));
    out.extend(
        r.staging
            .names()
            .into_iter()
            .map(|n| r.staging.get(n, "compare").unwrap()),
    );
    out
}

/// Which pairs of tables share row storage.
fn sharing(tables: &[&Table]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (i, a) in tables.iter().enumerate() {
        for (j, b) in tables.iter().enumerate().skip(i + 1) {
            if a.shares_rows_with(b) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// A rendering that tells equal values with other bits apart — -0.0
/// from 0.0, one NaN payload from another — which `Value` equality and
/// `Debug` do not.
fn fingerprint(t: &Table) -> String {
    let mut s = format!("{}|{:?}|", t.name(), t.schema());
    for row in t.rows() {
        for v in row {
            match v {
                Value::Float(f) => s += &format!("Float({:#x}) ", f.to_bits()),
                other => s += &format!("{other:?} "),
            }
        }
        s.push('\n');
    }
    s
}

fn outcome(sources: &BTreeMap<SourceId, Catalog>, r: &Result<EtlReport, EtlError>) -> String {
    match r {
        Err(e) => format!("error: {e:?}"),
        Ok(r) => {
            let mut s = format!("steps: {:?}\n", r.steps);
            for (t, srcs) in &r.loaded {
                s += &format!("loaded {} from {srcs:?}\n", fingerprint(t));
            }
            for n in r.staging.names() {
                let t = r.staging.get(n, "compare").unwrap();
                s += &format!(
                    "staged {} from {:?}\n",
                    fingerprint(t),
                    r.staging.sources_of(n)
                );
            }
            s + &format!("sharing: {:?}", sharing(&tables(sources, r)))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_etl_runs_match_the_oracle_fold(case in CaseStrategy) {
        let sources = &case.sources;
        let snapshot = || -> Vec<(String, u64)> {
            source_tables(sources)
                .into_iter()
                .map(|t| (fingerprint(t), t.storage_version()))
                .collect()
        };
        let before = snapshot();
        let want = outcome(sources, &oracle(&case.pipeline, sources));
        for threads in THREADS {
            let cfg = ExecConfig::with_threads(threads);
            let got = run_pipeline_with(&case.pipeline, sources, None, today(), &cfg);
            prop_assert_eq!(&outcome(sources, &got), &want, "threads={}\n{:?}", threads, case);
            if let Ok(r) = &got {
                // Live tables share storage exactly when they share a
                // version, and every row keeps exact capacity.
                let all = tables(sources, r);
                for (i, a) in all.iter().enumerate() {
                    for b in &all[i + 1..] {
                        prop_assert_eq!(
                            a.shares_rows_with(b),
                            a.storage_version() == b.storage_version()
                        );
                    }
                    prop_assert!(a.rows().iter().all(|row| row.capacity() == row.len()));
                }
            }
        }
        // No run may have touched the source catalogs.
        prop_assert_eq!(snapshot(), before);
    }
}

fn fixture_sources() -> BTreeMap<SourceId, Catalog> {
    let mut rng = TestRng::deterministic("etl fixture");
    let mut cat = Catalog::new();
    let mut t = random_table(&mut rng, "T");
    while t.len() < 8 {
        t = random_table(&mut rng, "T");
    }
    cat.add_table(t).unwrap();
    [(SourceId::new("hospital"), cat)].into_iter().collect()
}

fn extract(p: Pipeline) -> Pipeline {
    p.step(
        "e",
        EtlOp::Extract {
            source: "hospital".into(),
            table: "T".into(),
            as_name: "s".into(),
        },
    )
}

fn derive(p: Pipeline, column: &str) -> Pipeline {
    p.step(
        format!("d-{column}"),
        EtlOp::Derive {
            table: "s".into(),
            column: column.into(),
            expr: Expr::Bin(BinOp::Mul, Box::new(col("id")), Box::new(lit(10))),
        },
    )
}

fn load(p: Pipeline, warehouse_table: &str) -> Pipeline {
    p.step(
        format!("l-{warehouse_table}"),
        EtlOp::Load {
            table: "s".into(),
            warehouse_table: warehouse_table.into(),
        },
    )
}

/// A table loaded before a Derive keeps its rows, schema and version:
/// the Derive copies the storage it shares with the loaded table.
#[test]
fn derive_after_load_leaves_the_loaded_table_alone() {
    let sources = fixture_sources();
    let first = load(extract(Pipeline::new("first")), "A");
    let alone = run_pipeline_with(&first, &sources, None, today(), &ExecConfig::serial()).unwrap();
    let a_alone = &alone.loaded[0].0;
    let p = load(derive(load(extract(Pipeline::new("cow")), "A"), "k"), "B");
    for threads in THREADS {
        let r = run_pipeline_with(
            &p,
            &sources,
            None,
            today(),
            &ExecConfig::with_threads(threads),
        )
        .unwrap();
        let (a, b) = (&r.loaded[0].0, &r.loaded[1].0);
        assert_eq!(fingerprint(a), fingerprint(a_alone), "threads={threads}");
        assert_eq!(a.storage_version(), a_alone.storage_version());
        assert!(a.shares_rows_with(sources[&SourceId::new("hospital")].table("T").unwrap()));
        assert!(!b.shares_rows_with(a));
        assert_eq!(b.schema().names(), ["id", "x", "n", "d", "t", "k"]);
        assert_eq!(b.len(), a.len());
    }
}

/// A Derive straight after Extract works on storage the source catalog
/// still holds, so it copies it: the source table never changes. The
/// step compiles one program, not one per column.
#[test]
fn derive_after_extract_never_changes_the_source() {
    let sources = fixture_sources();
    let source = sources[&SourceId::new("hospital")].table("T").unwrap();
    let (before, version) = (fingerprint(source), source.storage_version());
    let p = load(derive(extract(Pipeline::new("cow")), "k"), "B");
    for threads in THREADS {
        let cfg = ExecConfig::with_threads(threads).with_obs(Obs::enabled());
        let r = run_pipeline_with(&p, &sources, None, today(), &cfg).unwrap();
        assert_eq!(fingerprint(source), before, "threads={threads}");
        assert_eq!(source.storage_version(), version);
        let b = &r.loaded[0].0;
        assert!(!b.shares_rows_with(source));
        assert_eq!(b.len(), source.len());
        for (row, src) in b.rows().iter().zip(source.rows()) {
            assert_eq!(&row[..5], &src[..]);
            assert_eq!(row.capacity(), 6);
        }
        let counters = cfg.obs.snapshot().counters;
        assert_eq!(counters.get("vm.compile"), Some(&1));
    }
}

/// Large tables take both Deduplicate paths: an `Int`-free one by its
/// columns' cached group codes, a mixed one by `Value` hashing once its
/// conversion declines. Both match the oracle fold at 1, 2 and 8
/// threads, survivors included, and every row ends at exact capacity.
#[test]
fn large_tables_deduplicate_by_codes_or_by_values_like_the_oracle() {
    let mut rng = TestRng::deterministic("etl large tables");
    let clean = table_of(&mut rng, "T", true, false);
    let mixed = table_of(&mut rng, "U", true, true);
    assert!(mixed.rows().iter().any(|r| matches!(r[1], Value::Int(_))));
    let sources: BTreeMap<SourceId, Catalog> = [("hospital", clean), ("lab", mixed)]
        .into_iter()
        .map(|(source, table)| {
            let mut cat = Catalog::new();
            cat.add_table(table).unwrap();
            (SourceId::new(source), cat)
        })
        .collect();
    let mut p = Pipeline::new("large");
    for ((source, table), staged) in [("hospital", "T"), ("lab", "U")].into_iter().zip(STAGED) {
        p = p
            .step(
                format!("e-{staged}"),
                EtlOp::Extract {
                    source: source.into(),
                    table: table.into(),
                    as_name: staged.into(),
                },
            )
            .step(
                format!("dd-{staged}"),
                EtlOp::Deduplicate {
                    table: staged.into(),
                },
            )
            .step(
                format!("d-{staged}"),
                EtlOp::Derive {
                    table: staged.into(),
                    column: "k".into(),
                    expr: Expr::Bin(BinOp::Mul, Box::new(col("x")), Box::new(lit(-1.0))),
                },
            )
            .step(
                format!("l-{staged}"),
                EtlOp::Load {
                    table: staged.into(),
                    warehouse_table: format!("W-{staged}"),
                },
            );
    }
    let want = outcome(&sources, &oracle(&p, &sources));
    for threads in THREADS {
        let cfg = ExecConfig::with_threads(threads).with_obs(Obs::enabled());
        let got = run_pipeline_with(&p, &sources, None, today(), &cfg);
        assert_eq!(outcome(&sources, &got), want, "threads={threads}");
        let r = got.unwrap();
        // Both tables hold duplicates, so both paths copy survivors.
        let dedups = r.steps.iter().filter(|s| s.op == "deduplicate");
        assert!(dedups.map(|s| s.touched).all(|n| n > 0));
        for t in tables(&sources, &r) {
            assert!(t.rows().iter().all(|row| row.capacity() == row.len()));
        }
        // T's five columns came through the chunk cache; U's conversion
        // looked up `id`, then declined at `x`.
        let counters = cfg.obs.snapshot().counters;
        let looked_up = ["chunk.cache.hit", "chunk.cache.miss"]
            .map(|c| counters.get(c).copied().unwrap_or(0))
            .iter()
            .sum::<u64>();
        assert_eq!(looked_up, 5 + 2, "threads={threads}");
        assert_eq!(counters.get("columnar.decline.mixed-numeric"), Some(&1));
    }
}
