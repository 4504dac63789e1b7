//! # bi-obs — std-only observability substrate
//!
//! The paper's central promise is that PLA compliance is *auditable*:
//! every delivered report must be traceable back to the policy
//! decisions, rewrites and anonymization steps that produced it (§5,
//! Figs 4–5). This crate is the runtime half of that promise — a
//! lightweight tracing/metrics layer the whole delivery path threads
//! through `bi_exec::ExecConfig`:
//!
//! * [`Obs`] — a cheap, cloneable recorder handle. Disabled (the
//!   default) it is a two-word `None` and every operation is a true
//!   no-op: no allocation, no atomics, no clock reads on hot paths.
//!   Enabled, counters are lock-free atomic adds and spans cost two
//!   monotonic clock reads.
//! * [`Counter`] — a closed set of named counters (operator executions,
//!   columnar kernel hits and decline reasons, lattice waves, Mondrian
//!   cuts, ETL steps, deliveries, policy-cache hits). Counts are
//!   **exact and deterministic** at any thread count: every counted
//!   event is decided by the query/policy shape, never by scheduling.
//! * [`SpanKind`] / [`Span`] — hierarchical spans with monotonic
//!   timings ([`std::time::Instant`]). Span *counts* are deterministic;
//!   span *durations* are wall-clock and excluded from snapshot
//!   equality.
//! * [`TraceId`] — a per-delivery identifier assigned in request order
//!   and written into the audit journal entry, so a compliance recheck
//!   can replay exactly what the engine did for one delivery.
//! * [`ObsSnapshot`] — the drained, deterministic view: counters, span
//!   stats, and the trace ids issued. Equality compares counters, span
//!   counts and traces — never nanoseconds.
//!
//! ## Determinism contract
//!
//! For a fixed workload and a fixed `ExecConfig` *shape* (columnar
//! on/off), two runs at any thread counts produce snapshots that
//! compare equal. The property tests in `tests/obs.rs` pin this at 1,
//! 2 and 8 threads. Timings are present (`SpanStat::nanos`) but are
//! metadata, not identity.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Declares the closed counter set: enum + stable dotted names.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// A named event counter. The set is closed so storage is a
        /// fixed atomic array (lock-free, no per-event allocation).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Counter { $($(#[$doc])* $variant,)+ }

        impl Counter {
            /// Every counter, in declaration order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)+];

            /// The stable dotted name used in snapshots.
            pub const fn name(self) -> &'static str {
                match self { $(Counter::$variant => $name,)+ }
            }
        }
    };
}

counters! {
    /// One `Plan::Scan` evaluated.
    QueryScan => "query.op.scan",
    /// One `Plan::Filter` evaluated.
    QueryFilter => "query.op.filter",
    /// One `Plan::Project` evaluated.
    QueryProject => "query.op.project",
    /// One `Plan::Join` evaluated.
    QueryJoin => "query.op.join",
    /// One `Plan::Aggregate` evaluated.
    QueryAggregate => "query.op.aggregate",
    /// One `Plan::Union` evaluated.
    QueryUnion => "query.op.union",
    /// One `Plan::Distinct` evaluated.
    QueryDistinct => "query.op.distinct",
    /// One `Plan::Sort` evaluated.
    QuerySort => "query.op.sort",
    /// One `Plan::Limit` evaluated.
    QueryLimit => "query.op.limit",
    /// Vectorized filter kernel served the operator.
    ColumnarFilterHit => "columnar.filter.hit",
    /// Filter predicate did not compile to kernels; row fallback.
    ColumnarFilterDeclineCompile => "columnar.filter.decline.compile",
    /// Filter input declined chunk conversion; row fallback.
    ColumnarFilterDeclineConvert => "columnar.filter.decline.convert",
    /// Dense-code group-by served the operator.
    ColumnarGroupByHit => "columnar.groupby.hit",
    /// Group-by shape unsupported (empty key, invariant break); row fallback.
    ColumnarGroupByDeclineShape => "columnar.groupby.decline.shape",
    /// Group-by input declined chunk conversion; row fallback.
    ColumnarGroupByDeclineConvert => "columnar.groupby.decline.convert",
    /// Typed sort/top-k kernel served the operator.
    ColumnarSortHit => "columnar.sort.hit",
    /// Sort input declined chunk conversion; row fallback.
    ColumnarSortDeclineConvert => "columnar.sort.decline.convert",
    /// One successful `Table → ColumnChunk` conversion.
    ColumnarConvert => "columnar.convert",
    /// One expression compiled to a scalar-VM program.
    VmCompile => "vm.compile",
    /// One compiled program executed over a table (operator-level; the
    /// count is identical at any thread count).
    VmExec => "vm.exec",
    /// Program compilation declined; the recursive walker served.
    VmFallback => "vm.fallback",
    /// Conversion declined: Float column holding Int values.
    ColumnarDeclineMixedNumeric => "columnar.decline.mixed-numeric",
    /// Conversion declined: text dictionary code space exhausted.
    ColumnarDeclineDictOverflow => "columnar.decline.dict-overflow",
    /// Conversion declined: row count exceeds u32 selection space.
    ColumnarDeclineTooManyRows => "columnar.decline.too-many-rows",
    /// Conversion declined: requested column index out of range.
    ColumnarDeclineNoSuchColumn => "columnar.decline.no-such-column",
    /// Lattice heights visited by a successful k-anonymization.
    AnonLatticeWaves => "anonymize.lattice.waves",
    /// Lattice nodes examined (serial-equivalent count).
    AnonLatticeNodes => "anonymize.lattice.nodes",
    /// Rows suppressed by the accepted k-anonymization node.
    AnonSuppressedRows => "anonymize.suppressed-rows",
    /// Median cuts committed by Mondrian.
    AnonMondrianCuts => "anonymize.mondrian.cuts",
    /// Final partitions produced by Mondrian.
    AnonMondrianPartitions => "anonymize.mondrian.partitions",
    /// QI classing served by dense columnar codes.
    AnonQiColumnar => "anonymize.qi.columnar",
    /// QI classing fell back to row-key grouping.
    AnonQiRow => "anonymize.qi.row",
    /// ETL steps executed.
    EtlSteps => "etl.steps",
    /// Rows leaving ETL steps (sum over steps).
    EtlRowsOut => "etl.rows-out",
    /// Tables published to the warehouse.
    EtlLoads => "etl.loads",
    /// Enforced report renders attempted.
    ReportRenders => "report.renders",
    /// Aggregate groups suppressed by k-thresholds.
    ReportSuppressedGroups => "report.suppressed-groups",
    /// Delivery requests received (batch + single).
    DeliverRequests => "deliver.requests",
    /// Requests that rendered and shipped.
    DeliverDelivered => "deliver.delivered",
    /// Requests refused by the compliance gate (journaled).
    DeliverRefused => "deliver.refused",
    /// Requests that errored outside the gate (not journaled).
    DeliverErrors => "deliver.errors",
    /// Combined-policy cache hits.
    PolicyCacheHit => "policy.cache.hit",
    /// Combined-policy cache misses (recombinations).
    PolicyCacheMiss => "policy.cache.miss",
    /// Compiled check-program cache hits (one compile per report and
    /// policy/data epoch serves every consumer and delivery).
    CheckProgramCacheHit => "check.program.cache.hit",
    /// Compiled check-program cache misses (compilations).
    CheckProgramCacheMiss => "check.program.cache.miss",
    /// Audit journal entries appended.
    AuditAppends => "audit.journal.appends",
    /// Version-keyed column cache served a chunk column without a
    /// row scan (strategy counter — excluded from snapshot equality).
    ChunkCacheHit => "chunk.cache.hit",
    /// Version-keyed column cache built and stored a chunk column
    /// (strategy counter — excluded from snapshot equality).
    ChunkCacheMiss => "chunk.cache.miss",
    /// An operator ran on the serial row engine: columnar was off or its
    /// kernel declined (strategy counter — excluded from snapshot
    /// equality).
    PlanChoiceSerial => "plan.choice.serial",
    /// A vectorized columnar kernel served an operator (strategy
    /// counter — excluded from snapshot equality).
    PlanChoiceColumnar => "plan.choice.columnar",
    /// A fused pipeline served an operator chain in one morsel pass
    /// (strategy counter — excluded from snapshot equality).
    PlanChoicePipeline => "plan.choice.pipeline",
    /// Pipeline decomposition found a fusible chain but an operator in
    /// it declined stage compilation (VM or kernel); the chain ran
    /// operator-at-a-time instead.
    PipelineDeclineCompile => "pipeline.decline.compile",
    /// A fused chain's kernel filters needed a chunk conversion that
    /// declined; the chain ran operator-at-a-time instead.
    PipelineDeclineConvert => "pipeline.decline.convert",
    /// A fused chain's sink shape is not supported by partial-aggregate
    /// states (e.g. a malformed aggregate the oracle must error on);
    /// the chain ran operator-at-a-time instead.
    PipelineDeclineShape => "pipeline.decline.shape",
    /// A fused run surfaced an error; the chain re-ran operator-at-a-
    /// time over the same source so the oracle's first error (which can
    /// differ under stage-major vs morsel-major evaluation order) is
    /// the one reported. Never an error path by itself.
    PipelineFallbackError => "pipeline.fallback.error",
    /// A batch delivery group actually rendered (gate + enforce ran
    /// once for the whole equivalence class).
    DeliverRenderUnique => "deliver.render.unique",
    /// A batch request served by another request's render — same
    /// enforcement-equivalence key, no render of its own.
    DeliverRenderShared => "deliver.render.shared",
    /// Cross-batch render cache served a whole group without rendering
    /// (strategy counter — excluded from snapshot equality).
    RenderCacheHit => "render.cache.hit",
    /// Cross-batch render cache had no entry for a group's key
    /// (strategy counter — excluded from snapshot equality).
    RenderCacheMiss => "render.cache.miss",
    /// Render-cache entries dropped to respect the capacity bound
    /// (strategy counter — excluded from snapshot equality).
    RenderCacheEvict => "render.cache.evict",
    /// Table versions evicted from the MVCC history to respect the
    /// retention bound.
    MvccVersionsEvicted => "mvcc.versions.evicted",
    /// Audit replays that resolved every journaled source version from
    /// the MVCC history (or live storage) — exact time travel.
    MvccResolveExact => "mvcc.resolve.exact",
    /// Audit replays where a journaled version had aged out and the
    /// replay fell back, flagged, to current data.
    MvccResolveFallback => "mvcc.resolve.fallback",
    /// Records appended to the write-ahead log.
    WalAppends => "wal.appends",
    /// Bytes appended to the write-ahead log (frame + payload).
    WalBytes => "wal.bytes",
    /// WAL appends that failed at the I/O layer; logging stops (the
    /// in-memory system keeps serving) so the counter is a host signal,
    /// not workload-determined (excluded from snapshot equality).
    WalAppendErrors => "wal.append.errors",
    /// Dispute-resolution queries answered from the journal.
    AuditDisputes => "audit.disputes",
}

/// True for *strategy* counters: they describe which engine served an
/// operator or whether a cache was warm — decisions that legitimately
/// vary with configuration and process history. Workload
/// counters (everything else) are decided by the query/policy shape
/// alone. [`ObsSnapshot`] equality compares only workload counters, so
/// the determinism contract survives adaptive execution.
pub fn is_strategy_counter(name: &str) -> bool {
    name.starts_with("chunk.cache.")
        || name.starts_with("plan.choice.")
        || name.starts_with("render.cache.")
        || name == "wal.append.errors"
}

/// Declares the closed span set: enum + names + static taxonomy depth.
macro_rules! spans {
    ($($(#[$doc:meta])* $variant:ident => ($name:literal, $depth:literal),)+) => {
        /// A named span kind. The taxonomy (who nests under whom on the
        /// canonical delivery path) is static — see [`SpanKind::depth`]
        /// and DESIGN.md §5e — so snapshots stay deterministic even
        /// when work fans out to threads that cannot see their parent.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum SpanKind { $($(#[$doc])* $variant,)+ }

        impl SpanKind {
            /// Every span kind, in taxonomy order.
            pub const ALL: &'static [SpanKind] = &[$(SpanKind::$variant,)+];

            /// The stable dotted name used in snapshots.
            pub const fn name(self) -> &'static str {
                match self { $(SpanKind::$variant => $name,)+ }
            }

            /// Nesting depth on the canonical delivery path (for tree
            /// rendering; a span may also run stand-alone).
            pub const fn depth(self) -> usize {
                match self { $(SpanKind::$variant => $depth,)+ }
            }
        }
    };
}

spans! {
    /// One `deliver_batch` call.
    DeliverBatch => ("deliver.batch", 0),
    /// One request rendered (gate + enforce), batch or single.
    DeliverRender => ("deliver.render", 1),
    /// One enforced report render.
    ReportRender => ("report.render", 2),
    /// One plan executed by the query engine.
    QueryExecute => ("query.execute", 3),
    /// One filter operator.
    QueryFilter => ("query.filter", 4),
    /// One join build phase (index construction).
    QueryJoinBuild => ("query.join.build", 4),
    /// One join probe phase (match + emit).
    QueryJoinProbe => ("query.join.probe", 4),
    /// One aggregation operator.
    QueryAggregate => ("query.aggregate", 4),
    /// One fused pipeline pass (a whole Filter/Project/Aggregate/Limit
    /// chain pushed through morsels in a single sweep).
    QueryPipeline => ("query.pipeline", 4),
    /// One ETL pipeline run.
    EtlPipeline => ("etl.pipeline", 0),
    /// One ETL step.
    EtlStep => ("etl.step", 1),
    /// One full-domain k-anonymization.
    AnonKanonymize => ("anonymize.kanonymize", 0),
    /// One Mondrian partitioning.
    AnonMondrian => ("anonymize.mondrian", 0),
    /// One journal recheck pass.
    AuditRecheck => ("audit.recheck", 0),
    /// One journal replay pass (full render re-execution at journaled
    /// policy epochs and data versions).
    AuditReplay => ("audit.replay", 0),
    /// One dispute-resolution query over the journal.
    AuditDispute => ("audit.dispute", 0),
    /// One WAL recovery (rebuild of a system from its log).
    WalRecover => ("wal.recover", 0),
}

/// A per-delivery trace identifier. Assigned by the system facade in
/// request order (deterministic at any thread count) and written into
/// the matching audit journal entry, so the observability layer and the
/// compliance journal describe the same event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// Wraps a raw trace number.
    pub const fn new(n: u64) -> Self {
        TraceId(n)
    }

    /// The raw trace number.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tr-{:08x}", self.0)
    }
}

/// The shared recorder state behind an enabled [`Obs`].
#[derive(Debug)]
struct Inner {
    counters: Vec<AtomicU64>,
    span_count: Vec<AtomicU64>,
    span_nanos: Vec<AtomicU64>,
    traces: Mutex<Vec<TraceId>>,
}

impl Inner {
    fn new() -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Inner {
            counters: zeros(Counter::ALL.len()),
            span_count: zeros(SpanKind::ALL.len()),
            span_nanos: zeros(SpanKind::ALL.len()),
            traces: Mutex::new(Vec::new()),
        }
    }
}

/// A recorder handle. Cloning shares the underlying recorder; the
/// default/disabled handle is a `None` and all operations are no-ops.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl Obs {
    /// The no-op recorder (the default). Every operation returns
    /// immediately: no allocation, no atomics, no clock reads.
    pub const fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A fresh enabled recorder.
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(Inner::new())),
        }
    }

    /// True when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Increments `c` by one.
    #[inline]
    pub fn count(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increments `c` by `n`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Opens a span; it records its count and monotonic duration when
    /// dropped. Disabled recorders hand back an inert guard without
    /// reading the clock.
    #[inline]
    pub fn span(&self, kind: SpanKind) -> Span<'_> {
        Span {
            rec: self
                .inner
                .as_deref()
                .map(|inner| (inner, kind, Instant::now())),
        }
    }

    /// Records a delivery trace id (request order is the caller's
    /// responsibility; the system facade assigns ids before fan-out).
    pub fn trace(&self, t: TraceId) {
        if let Some(inner) = &self.inner {
            inner
                .traces
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(t);
        }
    }

    /// Drains the recorder into a deterministic snapshot. The recorder
    /// keeps counting; `snapshot` is a read, not a reset.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut snap = ObsSnapshot::default();
        let Some(inner) = &self.inner else {
            return snap;
        };
        for &c in Counter::ALL {
            let v = inner.counters[c as usize].load(Ordering::Relaxed);
            if v != 0 {
                snap.counters.insert(c.name(), v);
            }
        }
        for &k in SpanKind::ALL {
            let count = inner.span_count[k as usize].load(Ordering::Relaxed);
            if count != 0 {
                let nanos = inner.span_nanos[k as usize].load(Ordering::Relaxed);
                snap.spans.insert(k.name(), SpanStat { count, nanos });
            }
        }
        snap.traces = inner
            .traces
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        snap
    }

    /// Zeroes every counter, span stat and recorded trace.
    pub fn reset(&self) {
        if let Some(inner) = &self.inner {
            for a in inner
                .counters
                .iter()
                .chain(&inner.span_count)
                .chain(&inner.span_nanos)
            {
                a.store(0, Ordering::Relaxed);
            }
            inner
                .traces
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clear();
        }
    }
}

/// An open span; drop closes it. Inert (no clock read on either end)
/// when the recorder is disabled.
#[must_use = "a span records its duration when dropped"]
pub struct Span<'a> {
    rec: Option<(&'a Inner, SpanKind, Instant)>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((inner, kind, start)) = self.rec.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            inner.span_count[kind as usize].fetch_add(1, Ordering::Relaxed);
            inner.span_nanos[kind as usize].fetch_add(nanos, Ordering::Relaxed);
        }
    }
}

/// Count + total monotonic duration of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// Times the span ran (deterministic).
    pub count: u64,
    /// Total wall nanoseconds across runs (informational only).
    pub nanos: u64,
}

/// The drained, deterministic view of a recorder.
///
/// Equality (and hashing of the [`fmt::Display`] form) covers workload
/// counters, span *counts* and trace ids; span durations and *strategy*
/// counters (`chunk.cache.*`, `plan.choice.*` — see
/// [`is_strategy_counter`]) are carried but never compared, so
/// `snapshot_a == snapshot_b` is meaningful across runs, thread counts
/// and hosts with different core counts.
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// Non-zero counters by stable name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Span stats by stable name (only kinds that ran).
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// Delivery trace ids, in request order.
    pub traces: Vec<TraceId>,
}

impl ObsSnapshot {
    /// Workload counters only — strategy counters (cache warmth, cost
    /// model choices) are metadata, like span nanos.
    fn semantic_counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters
            .iter()
            .filter(|(n, _)| !is_strategy_counter(n))
            .map(|(n, v)| (*n, *v))
    }
}

impl PartialEq for ObsSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.semantic_counters().eq(other.semantic_counters())
            && self.traces == other.traces
            && self.spans.len() == other.spans.len()
            && self
                .spans
                .iter()
                .zip(&other.spans)
                .all(|((na, sa), (nb, sb))| na == nb && sa.count == sb.count)
    }
}

impl Eq for ObsSnapshot {}

impl fmt::Display for ObsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== obs snapshot ==")?;
        for &kind in SpanKind::ALL {
            if let Some(s) = self.spans.get(kind.name()) {
                writeln!(
                    f,
                    "span    {:indent$}{} ×{}  ({:.3} ms)",
                    "",
                    kind.name(),
                    s.count,
                    s.nanos as f64 / 1e6,
                    indent = kind.depth() * 2
                )?;
            }
        }
        for (name, v) in &self.counters {
            writeln!(f, "counter {name} = {v}")?;
        }
        if !self.traces.is_empty() {
            let ids: Vec<String> = self.traces.iter().map(TraceId::to_string).collect();
            writeln!(f, "traces  [{}]", ids.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.count(Counter::QueryScan);
        obs.add(Counter::EtlRowsOut, 10);
        obs.trace(TraceId::new(1));
        drop(obs.span(SpanKind::QueryExecute));
        let snap = obs.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
        assert!(snap.traces.is_empty());
        assert_eq!(snap, ObsSnapshot::default());
    }

    #[test]
    fn counters_and_spans_accumulate() {
        let obs = Obs::enabled();
        obs.count(Counter::QueryScan);
        obs.count(Counter::QueryScan);
        obs.add(Counter::EtlRowsOut, 42);
        {
            let _s = obs.span(SpanKind::QueryExecute);
        }
        obs.trace(TraceId::new(7));
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("query.op.scan"), Some(&2));
        assert_eq!(snap.counters.get("etl.rows-out"), Some(&42));
        assert_eq!(snap.spans.get("query.execute").map(|s| s.count), Some(1));
        assert_eq!(snap.traces, vec![TraceId::new(7)]);
        // Clones share the recorder.
        let other = obs.clone();
        other.count(Counter::QueryScan);
        assert_eq!(obs.snapshot().counters.get("query.op.scan"), Some(&3));
        obs.reset();
        assert_eq!(obs.snapshot(), ObsSnapshot::default());
    }

    #[test]
    fn equality_ignores_nanos() {
        let a = Obs::enabled();
        let b = Obs::enabled();
        for obs in [&a, &b] {
            obs.count(Counter::DeliverRequests);
            let _s = obs.span(SpanKind::DeliverBatch);
        }
        // Different wall times, equal snapshots.
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(a.span(SpanKind::DeliverBatch));
        drop(b.span(SpanKind::DeliverBatch));
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa, sb);
        assert_ne!(sa.spans["deliver.batch"].nanos, 0);
    }

    #[test]
    fn concurrent_counts_are_exact() {
        let obs = Obs::enabled();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let obs = obs.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        obs.count(Counter::QueryFilter);
                    }
                });
            }
        });
        assert_eq!(obs.snapshot().counters.get("query.op.filter"), Some(&8000));
    }

    #[test]
    fn strategy_counters_do_not_break_equality() {
        assert!(is_strategy_counter("chunk.cache.hit"));
        assert!(is_strategy_counter("plan.choice.serial"));
        assert!(is_strategy_counter("render.cache.hit"));
        assert!(is_strategy_counter("render.cache.evict"));
        assert!(is_strategy_counter("wal.append.errors"));
        assert!(!is_strategy_counter("query.op.scan"));
        assert!(!is_strategy_counter("deliver.render.unique"));
        assert!(!is_strategy_counter("deliver.render.shared"));
        assert!(!is_strategy_counter("wal.appends"));
        assert!(!is_strategy_counter("mvcc.resolve.exact"));
        let a = Obs::enabled();
        let b = Obs::enabled();
        for obs in [&a, &b] {
            obs.count(Counter::QueryAggregate);
        }
        // Different cache warmth / planner choices: still equal.
        a.count(Counter::ChunkCacheHit);
        b.add(Counter::ChunkCacheMiss, 3);
        a.count(Counter::PlanChoiceSerial);
        b.count(Counter::PlanChoiceColumnar);
        assert_eq!(a.snapshot(), b.snapshot());
        // Workload counters still distinguish.
        b.count(Counter::QueryAggregate);
        assert_ne!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn trace_id_renders_stably() {
        assert_eq!(TraceId::new(1).to_string(), "tr-00000001");
        assert_eq!(TraceId::new(0xfeed).to_string(), "tr-0000feed");
        assert_eq!(TraceId::new(5).value(), 5);
    }

    #[test]
    fn snapshot_display_is_deterministic() {
        let obs = Obs::enabled();
        obs.count(Counter::QueryJoin);
        obs.trace(TraceId::new(3));
        let text = obs.snapshot().to_string();
        assert!(text.contains("counter query.op.join = 1"));
        assert!(text.contains("tr-00000003"));
    }
}
