//! The end-to-end system facade.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bi_audit::{AuditLog, Outcome, Provenance, SnapshotFidelity};
use bi_etl::{check_pipeline, run_pipeline_with, EtlReport, Pipeline};
use bi_exec::{Counter, SpanKind, TraceId};
use bi_pla::{CheckProgram, CombinedPolicy, PlaDocument, SubjectRegistry, Violation};
use bi_query::Catalog;
use bi_report::{
    render_checked, ComplianceResult, EnforcedReport, EngineConfig, MetaIndex, MetaReport,
    RenderOutcome, ReportSpec,
};
use bi_types::{ConsumerId, Date, ReportId, RoleId, SourceId};
use bi_warehouse::{Warehouse, WarehouseSnapshot};

use crate::policy::PolicyState;
use crate::render_cache::RenderCache;
use crate::scheduler::{self, RenderedDelivery, Slot};
use crate::wal::{self, EtlTable, WalError, WalRecord, WalWriter};

pub use crate::policy::DEFAULT_POLICY_HISTORY_RETENTION;

/// Errors surfaced by the facade.
#[derive(Debug)]
pub enum SystemError {
    /// ETL refused: the pipeline statically violates the PLAs.
    PipelineViolations(Vec<Violation>),
    Etl(bi_etl::EtlError),
    Report(bi_report::ReportError),
    Query(bi_query::QueryError),
    UnknownReport(ReportId),
    /// Declared referential integrity does not hold in the loaded data.
    BrokenIntegrity(Vec<bi_etl::quality::RiViolation>),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::PipelineViolations(vs) => {
                write!(f, "pipeline violates {} PLA rule(s)", vs.len())
            }
            SystemError::Etl(e) => write!(f, "{e}"),
            SystemError::Report(e) => write!(f, "{e}"),
            SystemError::Query(e) => write!(f, "{e}"),
            SystemError::UnknownReport(id) => write!(f, "unknown report {id}"),
            SystemError::BrokenIntegrity(vs) => {
                write!(
                    f,
                    "declared referential integrity violated ({} finding(s))",
                    vs.len()
                )
            }
        }
    }
}

impl std::error::Error for SystemError {}

impl From<bi_etl::EtlError> for SystemError {
    fn from(e: bi_etl::EtlError) -> Self {
        SystemError::Etl(e)
    }
}

impl From<bi_report::ReportError> for SystemError {
    fn from(e: bi_report::ReportError) -> Self {
        SystemError::Report(e)
    }
}

impl From<bi_query::QueryError> for SystemError {
    fn from(e: bi_query::QueryError) -> Self {
        SystemError::Query(e)
    }
}

/// A defined report and the check programs compiled for it, which
/// leave with the definition when it is replaced or removed.
struct DefinedReport {
    spec: Arc<ReportSpec>,
    /// The delivery-policy and gate-policy programs (indexed by
    /// `gate as usize`), each with the revision it was compiled at.
    programs: Mutex<[Option<(u64, CheckProgram)>; 2]>,
}

impl DefinedReport {
    fn programs(&self) -> MutexGuard<'_, [Option<(u64, CheckProgram)>; 2]> {
        self.programs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The whole outsourced-BI deployment: sources + PLAs + ETL + warehouse
/// + meta-reports + reports + enforcement + audit.
pub struct BiSystem {
    sources: BTreeMap<SourceId, Catalog>,
    table_source: BTreeMap<String, SourceId>,
    /// Full attribution: every source feeding each table (a warehouse
    /// table built by joining/linking carries them all).
    table_sources_all: BTreeMap<String, Vec<SourceId>>,
    policies: PolicyState,
    warehouse: Warehouse,
    reports: BTreeMap<ReportId, DefinedReport>,
    subjects: SubjectRegistry,
    log: AuditLog,
    engine: EngineConfig,
    today: Date,
    /// Bumped by every mutation of what a render or a check program
    /// reads: sources and their attribution, PLAs, warehouse data,
    /// report definitions and the engine. Check programs and cached
    /// renders are reused only at the revision they were made at.
    revision: u64,
    /// Next delivery trace number; trace 0 is reserved for entries
    /// journaled outside a live engine ([`Provenance::default`]).
    next_trace: u64,
    /// Cross-batch render cache, holding renders of one revision.
    render_cache: RenderCache,
    /// Write-ahead log, when [`BiSystem::enable_wal`] attached one.
    /// `None` during WAL replay (recovery must not re-log itself) and
    /// after an append error (logging stops, serving continues).
    wal: Option<WalWriter>,
}

impl BiSystem {
    /// A fresh system at the given business date.
    pub fn new(today: Date) -> Self {
        BiSystem {
            sources: BTreeMap::new(),
            table_source: BTreeMap::new(),
            table_sources_all: BTreeMap::new(),
            policies: PolicyState::new(),
            warehouse: Warehouse::new(),
            reports: BTreeMap::new(),
            subjects: SubjectRegistry::new(),
            log: AuditLog::new(),
            engine: EngineConfig::default(),
            today,
            revision: 0,
            next_trace: 1,
            render_cache: RenderCache::default(),
            wal: None,
        }
    }

    /// Assigns the next delivery trace id (request order).
    fn next_trace(&mut self) -> TraceId {
        let t = TraceId::new(self.next_trace);
        self.next_trace += 1;
        t
    }

    /// Registers a data source with its catalog; table names are
    /// attributed to the source for join-permission checks.
    pub fn register_source(&mut self, source: impl Into<SourceId>, catalog: Catalog) {
        let sid = source.into();
        let logged = WalRecord::RegisterSource {
            source: sid.clone(),
            tables: catalog
                .table_names()
                .iter()
                .filter_map(|t| catalog.table(t).cloned())
                .collect(),
        };
        for t in catalog.table_names() {
            self.table_source.insert(t.to_string(), sid.clone());
            self.table_sources_all
                .insert(t.to_string(), vec![sid.clone()]);
        }
        self.sources.insert(sid, catalog);
        self.revision += 1;
        self.wal_append(logged);
    }

    /// Registers a PLA document (from any level).
    pub fn add_pla(&mut self, doc: PlaDocument) {
        let dsl = doc.to_string();
        self.policies.add_documents([doc]);
        self.revision += 1;
        self.wal_append(WalRecord::AddPla { dsl });
    }

    /// Parses and registers PLA documents from DSL text.
    pub fn add_pla_text(&mut self, text: &str) -> Result<usize, bi_pla::PlaError> {
        let docs = bi_pla::dsl::parse_documents(text)?;
        let n = docs.len();
        self.policies.add_documents(docs);
        self.revision += 1;
        // The WAL keeps the caller's text verbatim — replay re-parses
        // exactly what was registered, one epoch bump per call.
        self.wal_append(WalRecord::AddPla {
            dsl: text.to_string(),
        });
        Ok(n)
    }

    /// Bounds the epoch-keyed policy-snapshot history (at least 1),
    /// evicting oldest epochs immediately. Rechecks of entries whose
    /// epoch aged out fall back — flagged — to the current policy.
    pub fn set_policy_history_retention(&mut self, retain: usize) {
        self.policies.set_retention(retain);
    }

    /// The combined (most-restrictive-wins) policy over every document
    /// registered so far, including meta-report annotations. Combined
    /// once per PLA mutation (`add_pla`, `add_pla_text`,
    /// `add_meta_report`); calls in between share it.
    pub fn policy(&self) -> Arc<CombinedPolicy> {
        Arc::clone(self.policies.full())
    }

    /// Consumer/role registry. Role grants need no new revision: the
    /// render key holds the effective role set, and check programs never
    /// read subjects.
    pub fn subjects_mut(&mut self) -> &mut SubjectRegistry {
        &mut self.subjects
    }

    /// Engine configuration (pseudonym keys, hierarchies). Engine knobs
    /// change render output, so mutable access starts a new revision.
    pub fn engine_mut(&mut self) -> &mut EngineConfig {
        self.revision += 1;
        &mut self.engine
    }

    /// The warehouse (catalog, star schema, declared FKs).
    pub fn warehouse(&self) -> &Warehouse {
        &self.warehouse
    }

    /// Mutable warehouse access (dimension/fact registration). Starts a
    /// new revision: the caller may change the catalog, which renders
    /// and compiled check programs read.
    pub fn warehouse_mut(&mut self) -> &mut Warehouse {
        self.revision += 1;
        &mut self.warehouse
    }

    /// The audit journal.
    pub fn audit_log(&self) -> &AuditLog {
        &self.log
    }

    /// Statically checks and runs an ETL pipeline with source-level
    /// enforcement; loads its outputs into the warehouse and validates
    /// declared referential integrity over the loaded tables.
    pub fn run_etl(
        &mut self,
        pipeline: &Pipeline,
        purpose: Option<&str>,
    ) -> Result<EtlReport, SystemError> {
        let policy = self.policy();
        let violations = check_pipeline(pipeline, &policy, purpose);
        if !violations.is_empty() {
            return Err(SystemError::PipelineViolations(violations));
        }
        let report = run_pipeline_with(
            pipeline,
            &self.sources,
            Some(&*policy),
            self.today,
            &self.engine.exec,
        )?;
        // Validate referential integrity over a staging copy FIRST: a
        // failure must leave the warehouse exactly as it was, not half
        // loaded.
        let mut staged = self.warehouse.catalog().clone();
        for (table, _) in &report.loaded {
            staged.put_table(table.clone());
        }
        let ri = bi_etl::quality::validate_ref_integrity(self.warehouse.refs(), &staged)?;
        if !ri.is_empty() {
            return Err(SystemError::BrokenIntegrity(ri));
        }
        let mut evicted: u64 = 0;
        let mut logged = Vec::with_capacity(report.loaded.len());
        for (table, srcs) in &report.loaded {
            // Primary attribution for the per-table map, full attribution
            // for join-permission checks across combined tables.
            if let Some(first) = srcs.first() {
                self.table_source
                    .insert(table.name().to_string(), first.clone());
            }
            self.table_sources_all
                .insert(table.name().to_string(), srcs.clone());
            evicted += self.warehouse.load_table(table.clone()) as u64;
            // Each load logs the version it made: a table loaded twice in
            // one run replays through both versions, not the last twice.
            logged.push(EtlTable {
                table: table.clone(),
                version: self.warehouse.data_version(table.name()).unwrap_or(0),
                sources: srcs.clone(),
            });
        }
        self.revision += 1;
        if evicted > 0 {
            self.engine
                .exec
                .obs
                .add(Counter::MvccVersionsEvicted, evicted);
        }
        self.wal_append(WalRecord::EtlCommit { tables: logged });
        Ok(report)
    }

    /// Registers an approved meta-report.
    pub fn add_meta_report(&mut self, meta: MetaReport) {
        let logged = WalRecord::AddMeta {
            id: meta.id.clone(),
            title: meta.title.clone(),
            plan: meta.plan.clone(),
            annotations: meta.annotations.iter().map(|d| d.to_string()).collect(),
            approved_by: meta.approved_by.clone(),
        };
        self.policies.add_meta(meta);
        self.revision += 1;
        self.wal_append(logged);
    }

    /// Approved meta-reports.
    pub fn meta_reports(&self) -> &[MetaReport] {
        self.policies.metas()
    }

    /// Defines (or replaces) a report. Stored behind an [`Arc`] so
    /// delivery can hold the spec while mutating the audit log, without
    /// deep-copying the plan.
    pub fn define_report(&mut self, report: ReportSpec) {
        self.wal_append(WalRecord::DefineReport {
            id: report.id.clone(),
            title: report.title.clone(),
            plan: report.plan.clone(),
            consumers: report.consumers.iter().cloned().collect(),
            purpose: report.purpose.clone(),
        });
        let defined = DefinedReport {
            spec: Arc::new(report),
            programs: Mutex::default(),
        };
        self.reports.insert(defined.spec.id.clone(), defined);
        self.revision += 1;
    }

    /// Removes a report definition.
    pub fn remove_report(&mut self, id: &ReportId) -> bool {
        let removed = self.reports.remove(id).is_some();
        if removed {
            self.revision += 1;
            self.wal_append(WalRecord::RemoveReport { id: id.clone() });
        }
        removed
    }

    /// Grants `role` to `consumer` — the WAL-logged path; recovery
    /// replays these. [`BiSystem::subjects_mut`] still hands out the raw
    /// registry, but mutations through it (like those through
    /// `warehouse_mut` / `engine_mut`) bypass the log and will not
    /// survive [`BiSystem::recover`].
    pub fn grant(&mut self, consumer: impl Into<ConsumerId>, role: impl Into<RoleId>) {
        let consumer = consumer.into();
        let role = role.into();
        self.subjects.grant(consumer.clone(), role.clone());
        self.wal_append(WalRecord::Grant { consumer, role });
    }

    /// Compiled check program for `report` under `policy`: one compile
    /// per revision serves every consumer and delivery of the report.
    /// `gate` picks the program of the gate policy (approved
    /// meta-reports only) over that of the full delivery policy —
    /// callers must pass the flavor matching the policy they hand in.
    fn check_program(
        &self,
        report: &ReportSpec,
        policy: &CombinedPolicy,
        gate: bool,
        cat: &Catalog,
    ) -> Result<CheckProgram, bi_query::QueryError> {
        let obs = &self.engine.exec.obs;
        let slot = usize::from(gate);
        // Every caller resolved `report` from `self.reports` at this
        // revision, so its entry holds the programs.
        let defined = self.reports.get(&report.id);
        if let Some(d) = defined {
            if let Some((revision, program)) = &d.programs()[slot] {
                if *revision == self.revision {
                    obs.count(Counter::CheckProgramCacheHit);
                    return Ok(program.clone());
                }
            }
        }
        // Compile outside the lock: a batch render's first concurrent
        // misses may compile redundantly, but never block each other.
        obs.count(Counter::CheckProgramCacheMiss);
        let program = CheckProgram::compile(&report.plan, cat, policy, &self.table_source)?;
        if let Some(d) = defined {
            d.programs()[slot] = Some((self.revision, program.clone()));
        }
        Ok(program)
    }

    /// All defined reports.
    pub fn reports(&self) -> impl Iterator<Item = &ReportSpec> {
        self.reports.values().map(|r| r.spec.as_ref())
    }

    /// Join-permission violations across the FULL source attribution of
    /// every base table in `tables`. `bi_pla::check_plan` sees one
    /// source per table; warehouse tables built from several sources
    /// need every pair checked.
    fn multi_source_violations(
        &self,
        tables: &BTreeSet<String>,
        policy: &CombinedPolicy,
    ) -> Vec<Violation> {
        let mut sources: BTreeSet<&SourceId> = BTreeSet::new();
        for t in tables {
            if let Some(all) = self.table_sources_all.get(t) {
                sources.extend(all.iter());
            }
        }
        let srcs: Vec<&SourceId> = sources.into_iter().collect();
        let mut out = Vec::new();
        for i in 0..srcs.len() {
            for j in i + 1..srcs.len() {
                if !policy.may_join(srcs[i], srcs[j]) {
                    out.push(Violation {
                        kind: "join-permission".into(),
                        description: "report combines data of sources whose join is prohibited"
                            .into(),
                        subject: format!("{} ⋈ {}", srcs[i], srcs[j]),
                    });
                }
            }
        }
        out
    }

    /// Runs the compliance gate for a report (coverage + rule check).
    pub fn check(&self, id: &ReportId) -> Result<ComplianceResult, SystemError> {
        let report = &self
            .reports
            .get(id)
            .ok_or_else(|| SystemError::UnknownReport(id.clone()))?
            .spec;
        let cat = self.warehouse.catalog();
        // 1. Coverage: find an approved meta-report the plan derives from.
        let index = MetaIndex::build(self.policies.metas(), cat).map_err(SystemError::from)?;
        let coverage = index.cover(&report.plan, cat, self.warehouse.refs())?;
        // 2. Rule check: the compiled program is kept for the revision,
        //    so repeated checks and deliveries of the same report share
        //    one compile.
        let outcome = self
            .check_program(report, self.policies.gate(), true, cat)?
            .run(&report.consumers, report.purpose.as_deref(), self.today)?;
        let mut result = ComplianceResult {
            coverage,
            violations: outcome.violations,
            obligations: outcome.obligations,
        };
        let tables = bi_query::origins::origins(&report.plan, cat)?.tables;
        for v in self.multi_source_violations(&tables, self.policies.full()) {
            if !result.violations.contains(&v) {
                result.violations.push(v);
            }
        }
        Ok(result)
    }

    /// Everything [`BiSystem::deliver`] does short of the journal append:
    /// gate, enforce, render. Takes `&self`, an explicit policy snapshot
    /// and a pre-computed effective role set — never the consumer's
    /// identity — so a batch can render one representative per
    /// equivalence group concurrently and share the outcome.
    ///
    /// `Err` holds errors that are not deliveries (bad plans, unknown
    /// tables) and bypass the journal; a compliance refusal is a
    /// *success* here ([`RenderOutcome::Refused`]), which the journal
    /// records per consumer.
    fn render_one(
        &self,
        report: &Arc<ReportSpec>,
        effective: &Arc<BTreeSet<RoleId>>,
        policy: &CombinedPolicy,
        snap: &WarehouseSnapshot,
    ) -> Result<RenderedDelivery, SystemError> {
        let cat = snap.catalog();
        // A consumer holding NONE of the report's declared roles is
        // refused outright — the role list is the distribution list,
        // regardless of whether any attribute is role-restricted. The
        // same applies to prohibited cross-source combinations.
        let mut upfront: Vec<Violation> = Vec::new();
        if effective.is_empty() && !report.consumers.is_empty() {
            upfront.push(Violation {
                kind: "distribution".into(),
                description: "consumer holds none of the report's declared roles".into(),
                subject: report.id.to_string(),
            });
        }
        // One origins analysis serves the join check here and the
        // journaled provenance below.
        let tables = bi_query::origins::origins(&report.plan, cat)?.tables;
        upfront.extend(self.multi_source_violations(&tables, policy));

        // Compliance + enforcement: fetch the plan's compiled check
        // program (cached across consumers and deliveries of this
        // report), run it for the effective roles, render under the
        // resulting obligations.
        let result: Result<EnforcedReport, bi_report::ReportError> = if !upfront.is_empty() {
            Err(bi_report::ReportError::NonCompliant {
                violations: upfront,
            })
        } else {
            self.check_program(report, policy, false, cat)
                .and_then(|program| program.run(effective, report.purpose.as_deref(), self.today))
                .map_err(bi_report::ReportError::from)
                .and_then(|outcome| render_checked(report, cat, outcome, &self.engine))
        };
        // Compliance refusals fold into the shareable outcome; other
        // errors (unknown tables, bad plans) are not deliveries and
        // bypass the journal, exactly as before.
        let outcome = RenderOutcome::from_result(result).map_err(SystemError::Report)?;
        // The data half of the provenance: the pinned *data* versions of
        // every base table this render (or refusal) read, sorted by
        // table. Data versions replay identically across processes and
        // after WAL recovery. Version 0 marks a table the warehouse
        // never loaded (a view or a raw catalog write); a recheck of
        // such an entry falls back, flagged, to current data.
        let source_versions = tables
            .into_iter()
            .map(|name| {
                let version = snap.data_version(&name);
                (name, version)
            })
            .collect();
        Ok(RenderedDelivery::new(
            Arc::clone(report),
            Arc::clone(effective),
            outcome,
            source_versions,
        ))
    }

    /// Appends one rendered delivery (or refusal) to the audit journal,
    /// handing the per-consumer result back to the caller. Borrows the
    /// render: a shared outcome is journaled once per group member, each
    /// under its own consumer and trace id, and every member's entry
    /// shares the render's roles, plan, actions and source versions.
    fn journal_delivery(
        &mut self,
        consumer: &ConsumerId,
        trace: TraceId,
        rendered: &RenderedDelivery,
    ) -> Result<EnforcedReport, bi_report::ReportError> {
        let obs = &self.engine.exec.obs;
        let outcome = match &rendered.outcome {
            RenderOutcome::Delivered(enforced) => {
                obs.count(Counter::DeliverDelivered);
                Outcome::Delivered {
                    rows: enforced.table.len(),
                    suppressed_groups: enforced.suppressed_groups,
                }
            }
            RenderOutcome::Refused(violations) => {
                obs.count(Counter::DeliverRefused);
                Outcome::Refused {
                    violations: violations.clone(),
                }
            }
        };
        self.log.record(
            self.today,
            consumer.clone(),
            Arc::clone(&rendered.effective),
            rendered.report.id.clone(),
            Arc::clone(&rendered.plan),
            rendered.report.purpose.clone(),
            Arc::clone(&rendered.actions),
            outcome,
            Provenance {
                policy_epoch: self.policies.epoch(),
                trace,
                source_versions: Arc::clone(&rendered.source_versions),
            },
        );
        obs.count(Counter::AuditAppends);
        obs.trace(trace);
        if self.wal.is_some() {
            if let Some(entry) = self.log.entries().last() {
                let logged = WalRecord::Delivery {
                    entry: entry.clone(),
                };
                self.wal_append(logged);
            }
        }
        rendered.outcome.to_result()
    }

    /// Delivers a report to a consumer: compliance gate + enforcement +
    /// audit logging. Refusals are logged too.
    pub fn deliver(
        &mut self,
        id: &ReportId,
        consumer: &ConsumerId,
    ) -> Result<EnforcedReport, SystemError> {
        let report = self.resolve_request(id)?;
        self.deliver_resolved(&report, consumer)
    }

    /// Resolves the report of a single delivery request. An unknown id
    /// is still a request, as in a batch: it uses up a trace id and
    /// counts as a request and an error.
    fn resolve_request(&mut self, id: &ReportId) -> Result<Arc<ReportSpec>, SystemError> {
        if let Some(report) = self.reports.get(id) {
            return Ok(Arc::clone(&report.spec));
        }
        let _ = self.next_trace();
        let obs = &self.engine.exec.obs;
        obs.count(Counter::DeliverRequests);
        obs.count(Counter::DeliverErrors);
        Err(SystemError::UnknownReport(id.clone()))
    }

    /// The serial delivery path for an already-resolved report: one
    /// trace, one render, one journal append.
    fn deliver_resolved(
        &mut self,
        report: &Arc<ReportSpec>,
        consumer: &ConsumerId,
    ) -> Result<EnforcedReport, SystemError> {
        let trace = self.next_trace();
        let obs = self.engine.exec.obs.clone();
        obs.count(Counter::DeliverRequests);
        let policy = self.policy();
        // Pin the data snapshot the whole request is served from.
        let snapshot = self.warehouse.snapshot();
        let rendered = {
            let _span = obs.span(SpanKind::DeliverRender);
            let held = self.subjects.roles_of(consumer);
            let effective = Arc::new(scheduler::effective_roles(held, report));
            self.render_one(report, &effective, &policy, &snapshot)
        };
        match rendered {
            Ok(r) => self
                .journal_delivery(consumer, trace, &r)
                .map_err(SystemError::Report),
            Err(e) => {
                obs.count(Counter::DeliverErrors);
                Err(e)
            }
        }
    }

    /// Delivers many `(report, consumer)` pairs under ONE policy
    /// snapshot, rendering them concurrently on the engine's
    /// [`ExecConfig`](bi_exec::ExecConfig) (`engine_mut().exec`).
    ///
    /// Requests are first folded into *enforcement-equivalence groups*
    /// (same report, same effective role set — see
    /// [`bi_pla::EnforcementKey`]): the gate and the engine never look
    /// at the consumer's identity, so one representative render serves
    /// every member of a group, and a bounded cross-batch cache serves
    /// repeat groups of the same revision without rendering at all.
    /// Unique renders still fan out in parallel over `&self`; the audit
    /// journal append stays serialized in request order, so journal
    /// sequence numbers, trace ids and the returned results line up
    /// with `requests` regardless of thread count or sharing, and a
    /// mid-batch PLA mutation is impossible by construction.
    pub fn deliver_batch(
        &mut self,
        requests: &[(ReportId, ConsumerId)],
    ) -> Vec<Result<EnforcedReport, SystemError>> {
        let obs = self.engine.exec.obs.clone();
        let _batch_span = obs.span(SpanKind::DeliverBatch);
        // Trace ids are assigned up front, in request order, so the
        // id ↔ request pairing is independent of render scheduling.
        let traces: Vec<TraceId> = requests.iter().map(|_| self.next_trace()).collect();
        obs.add(Counter::DeliverRequests, requests.len() as u64);
        let policy = self.policy();
        let cfg = self.engine.exec.clone();
        // Pin ONE data snapshot for the whole batch: every group's render
        // and journaled provenance read the same table versions,
        // whatever happens to the live warehouse meanwhile.
        let snapshot = self.warehouse.snapshot();

        // Phase 1 (serial): resolve + group by enforcement key, on
        // borrowed role sets. Keys are computed once per distinct
        // (report, held roles) pair, not per request.
        let grouped = scheduler::group_requests(
            requests,
            |id| self.reports.get(id).map(|r| Arc::clone(&r.spec)),
            |consumer| self.subjects.roles_of(consumer),
        );

        // Phase 2 (serial): probe the cross-batch render cache, which
        // keeps only renders of the current revision. A hit serves the
        // whole group without rendering.
        self.render_cache.start_at(self.revision);
        let mut outcomes: Vec<Option<Arc<RenderedDelivery>>> = Vec::new();
        let mut from_cache: Vec<bool> = Vec::new();
        for g in &grouped.groups {
            let hit = self.render_cache.get(&g.key, &obs);
            from_cache.push(hit.is_some());
            outcomes.push(hit);
        }

        // Phase 3 (parallel): render one representative per unserved
        // group, fanning out over `&self`.
        let need: Vec<usize> = (0..grouped.groups.len())
            .filter(|&gi| outcomes[gi].is_none())
            .collect();
        let fresh: Vec<Result<RenderedDelivery, SystemError>> =
            bi_exec::par_map(&cfg, &need, |&gi| {
                let g = &grouped.groups[gi];
                let _span = cfg.obs.span(SpanKind::DeliverRender);
                self.render_one(&g.report, &g.effective, &policy, &snapshot)
            });

        // Phase 4 (serial): commit fresh renders — share them with the
        // cache and count unique/shared work.
        let mut failures: Vec<Option<SystemError>> = Vec::new();
        failures.resize_with(grouped.groups.len(), || None);
        for (&gi, rendered) in need.iter().zip(fresh) {
            match rendered {
                Ok(r) => {
                    obs.count(Counter::DeliverRenderUnique);
                    let shared = Arc::new(r);
                    let key = grouped.groups[gi].key.clone();
                    self.render_cache.insert(key, Arc::clone(&shared), &obs);
                    outcomes[gi] = Some(shared);
                }
                Err(e) => failures[gi] = Some(e),
            }
        }
        let shared_total: u64 = grouped
            .groups
            .iter()
            .enumerate()
            .filter(|&(gi, _)| outcomes[gi].is_some())
            .map(|(gi, g)| (g.members.len() - usize::from(!from_cache[gi])) as u64)
            .sum();
        if shared_total > 0 {
            obs.add(Counter::DeliverRenderShared, shared_total);
        }

        // Phase 5 (serial): journal per consumer, in request order.
        // Errors are not shareable (not `Clone`): the first member of a
        // failed group takes the stored error, later members re-render
        // individually — exactly the work a serial loop would have done.
        requests
            .iter()
            .zip(grouped.slots.iter().zip(traces))
            .map(|((id, consumer), (slot, trace))| match *slot {
                Slot::Unknown => {
                    obs.count(Counter::DeliverErrors);
                    Err(SystemError::UnknownReport(id.clone()))
                }
                Slot::Group(gi) => {
                    if let Some(shared) = &outcomes[gi] {
                        return self
                            .journal_delivery(consumer, trace, shared)
                            .map_err(SystemError::Report);
                    }
                    if let Some(e) = failures[gi].take() {
                        obs.count(Counter::DeliverErrors);
                        return Err(e);
                    }
                    let g = &grouped.groups[gi];
                    let rendered = {
                        let _span = obs.span(SpanKind::DeliverRender);
                        self.render_one(&g.report, &g.effective, &policy, &snapshot)
                    };
                    match rendered {
                        Ok(r) => {
                            obs.count(Counter::DeliverRenderUnique);
                            self.journal_delivery(consumer, trace, &r)
                                .map_err(SystemError::Report)
                        }
                        Err(e) => {
                            obs.count(Counter::DeliverErrors);
                            Err(e)
                        }
                    }
                }
            })
            .collect()
    }

    /// Lints every registered PLA document (including meta-report
    /// annotations) against the warehouse catalog: typo'd tables or
    /// columns in an agreement protect nothing, so surface them.
    pub fn lint_plas(&self) -> Vec<(bi_types::PlaId, bi_pla::LintWarning)> {
        let mut out = Vec::new();
        let metas_docs = self
            .policies
            .metas()
            .iter()
            .flat_map(|m| m.annotations.iter());
        for doc in self.policies.documents().iter().chain(metas_docs) {
            for w in bi_pla::lint_document(doc, self.warehouse.catalog()) {
                out.push((doc.id.clone(), w));
            }
        }
        out
    }

    /// Delivers a report and renders the consumer-facing delivery
    /// document (table + audit context) in one step. The report is
    /// resolved once; the PLA binding is built once per PLA mutation.
    pub fn deliver_document(
        &mut self,
        id: &ReportId,
        consumer: &ConsumerId,
    ) -> Result<String, SystemError> {
        let spec = self.resolve_request(id)?;
        let enforced = self.deliver_resolved(&spec, consumer)?;
        Ok(bi_report::render::delivery_document(
            &spec,
            &enforced,
            consumer,
            self.today,
            self.policies.binding(),
        ))
    }

    /// Third-party audit: replay all deliveries against today's policy.
    /// Findings here mean *drift* — entries that no longer pass because
    /// the policy tightened since delivery (or an enforcement bug; use
    /// [`BiSystem::recheck_at_delivery`] to tell the two apart).
    pub fn recheck(&self) -> Result<Vec<bi_audit::AuditFinding>, SystemError> {
        let _span = self.engine.exec.obs.span(SpanKind::AuditRecheck);
        bi_audit::recheck_log(
            &self.log,
            self.warehouse.catalog(),
            self.policies.full(),
            &self.table_source,
        )
        .map_err(SystemError::from)
    }

    /// Third-party audit: replay each delivery against the policy
    /// snapshot whose epoch it was journaled under AND the table storage
    /// versions its plan read — the conditions that actually served the
    /// request. A finding here is an enforcement bug at delivery time,
    /// not post-hoc policy drift, and not an artifact of ETL having
    /// reloaded the warehouse since. Entries whose policy epoch or data
    /// versions aged out of the bounded histories fall back to current
    /// state, flagged on the finding
    /// ([`bi_audit::SnapshotFidelity::FellBackToCurrent`]).
    pub fn recheck_at_delivery(&self) -> Result<Vec<bi_audit::AuditFinding>, SystemError> {
        let _span = self.engine.exec.obs.span(SpanKind::AuditRecheck);
        bi_audit::recheck_log_at_versions(
            &self.log,
            self.warehouse.catalog(),
            self.policies.full(),
            self.policies.history(),
            &self.table_source,
            &|name, version| self.table_at(name, version),
        )
        .map_err(SystemError::from)
    }

    /// The rows `name` held at data `version`, from the warehouse's
    /// MVCC history: the time-travel resolver of both audit replays,
    /// counted on `mvcc.resolve.{exact,fallback}`.
    fn table_at(&self, name: &str, version: u64) -> Option<bi_relation::Table> {
        let hit = self.warehouse.table_at(name, version).cloned();
        self.engine.exec.obs.count(if hit.is_some() {
            Counter::MvccResolveExact
        } else {
            Counter::MvccResolveFallback
        });
        hit
    }

    /// Full audit replay: re-runs the gate AND the render of every
    /// *delivered* journal entry at its journaled policy epoch and data
    /// versions, and compares the re-rendered outcome with what the
    /// journal says was handed out. `matches_journal == false` on an
    /// exact-snapshot replay means the journal and the engine disagree —
    /// the strongest enforcement-bug signal the audit layer offers;
    /// on a flagged fallback it may just mean the snapshots aged out.
    ///
    /// The serving conditions come from the same grouped pass as
    /// [`BiSystem::recheck_at_delivery`]'s
    /// ([`bi_audit::conditions_at_delivery`]): one overlay catalog per
    /// (policy epoch, data versions) group, one check compile per
    /// distinct plan in it. The runs and renders are independent, so
    /// they fan out on the engine's [`ExecConfig`](bi_exec::ExecConfig);
    /// results, and the first error, come back in journal order
    /// regardless of thread count.
    pub fn replay_at_delivery(&self) -> Result<Vec<ReplayedDelivery>, SystemError> {
        let _span = self.engine.exec.obs.span(SpanKind::AuditReplay);
        let conditions = bi_audit::conditions_at_delivery(
            &self.log,
            self.warehouse.catalog(),
            self.policies.full(),
            self.policies.history(),
            &self.table_source,
            &|name, version| self.table_at(name, version),
        );
        let entries: Vec<bi_audit::AtDelivery<'_>> = conditions.iter().collect();
        let replayed: Vec<Result<ReplayedDelivery, SystemError>> =
            bi_exec::par_map(&self.engine.exec, &entries, |at| {
                let e = at.entry;
                // Rebuild the serving conditions from the journal alone:
                // the exact plan, the journaled effective roles as the
                // distribution list, the journaled purpose and date.
                let program = at.program.map_err(bi_query::QueryError::clone)?;
                let outcome = program.run(&e.roles, e.purpose.as_deref(), e.when)?;
                let mut spec = ReportSpec::new(
                    e.report.clone(),
                    "",
                    (*e.plan).clone(),
                    e.roles.iter().cloned().collect::<Vec<_>>(),
                );
                if let Some(p) = &e.purpose {
                    spec = spec.for_purpose(p.clone());
                }
                let rendered = RenderOutcome::from_result(render_checked(
                    &spec,
                    at.catalog,
                    outcome,
                    &self.engine,
                ))
                .map_err(SystemError::Report)?;
                let matches_journal = match (&rendered, &e.outcome) {
                    (
                        RenderOutcome::Delivered(r),
                        Outcome::Delivered {
                            rows,
                            suppressed_groups,
                        },
                    ) => r.table.len() == *rows && r.suppressed_groups == *suppressed_groups,
                    (RenderOutcome::Refused(_), Outcome::Refused { .. }) => true,
                    _ => false,
                };
                Ok(ReplayedDelivery {
                    seq: e.seq,
                    trace: e.provenance.trace,
                    report: e.report.clone(),
                    outcome: rendered,
                    matches_journal,
                    policy_snapshot: at.policy_snapshot,
                    data_snapshot: at.data_snapshot,
                })
            });
        replayed.into_iter().collect()
    }

    /// Dispute resolution: which deliveries exposed `table.column`?
    pub fn dispute(
        &self,
        table: &str,
        column: &str,
    ) -> Result<Vec<bi_audit::Exposure>, SystemError> {
        let obs = &self.engine.exec.obs;
        let _span = obs.span(SpanKind::AuditDispute);
        obs.count(Counter::AuditDisputes);
        bi_audit::responsible_deliveries(&self.log, self.warehouse.catalog(), table, column)
            .map_err(SystemError::from)
    }

    /// Table → owning source attribution.
    pub fn table_source(&self) -> &BTreeMap<String, SourceId> {
        &self.table_source
    }

    /// The business date the system operates at.
    pub fn today(&self) -> Date {
        self.today
    }

    /// Appends `rec` to the WAL, if one is attached. An append failure
    /// stops logging (the writer is dropped) but never the system: the
    /// in-memory deployment keeps serving, and the failure is visible on
    /// the `wal.append.errors` counter.
    fn wal_append(&mut self, rec: WalRecord) {
        let Some(w) = self.wal.as_mut() else { return };
        let obs = &self.engine.exec.obs;
        match w.append(&rec) {
            Ok(bytes) => {
                obs.count(Counter::WalAppends);
                obs.add(Counter::WalBytes, bytes);
            }
            Err(_) => {
                obs.count(Counter::WalAppendErrors);
                self.wal = None;
            }
        }
    }

    /// Attaches a write-ahead log at `path` (truncating any existing
    /// file). From here on, every state mutation — source registration,
    /// PLA additions, ETL commits, report definitions, grants via
    /// [`BiSystem::grant`], and every journal append — is logged, and
    /// [`BiSystem::recover`] rebuilds an equivalent system from the file
    /// alone.
    ///
    /// Call this on a *fresh* system: state accumulated before the call
    /// is not retro-logged. Mutations through the raw handles
    /// (`subjects_mut`, `warehouse_mut`, `engine_mut`) bypass the log;
    /// a recovered system will not have them, and rechecks of entries
    /// depending on them fall back, flagged.
    pub fn enable_wal(&mut self, path: &Path) -> Result<(), WalError> {
        let mut writer = WalWriter::create(path)?;
        writer.append(&WalRecord::Init { today: self.today })?;
        self.wal = Some(writer);
        Ok(())
    }

    /// Whether a WAL is currently attached and healthy.
    pub fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// Rebuilds a system from its write-ahead log: replays every logged
    /// mutation in order through the same code paths the live system
    /// used, so policy epochs, the revision, the audit journal, the
    /// policy-snapshot history and the MVCC data-version history all
    /// come back — [`BiSystem::recheck_at_delivery`] after recovery
    /// resolves the same snapshots it would have before the restart.
    ///
    /// ETL commits are replayed from the logged rows (pipelines are not
    /// re-run). Data versions are warehouse-assigned and deterministic,
    /// so replaying the loads in order reassigns exactly the versions
    /// the log's delivery provenance references — verified per commit,
    /// with a [`WalError::Replay`] on any divergence.
    ///
    /// A torn trailing record (crash mid-append) is truncated, not
    /// fatal; the recovered system resumes logging at the valid prefix.
    pub fn recover(path: &Path) -> Result<BiSystem, WalError> {
        let readout = wal::read_wal(path)?;
        let mut records = readout.records.into_iter();
        let today = match records.next() {
            Some(WalRecord::Init { today }) => today,
            _ => {
                return Err(WalError::Replay {
                    message: "log does not start with an Init record".into(),
                })
            }
        };
        let mut sys = BiSystem::new(today);
        let obs = sys.engine.exec.obs.clone();
        let _span = obs.span(SpanKind::WalRecover);
        let mut max_trace = 0u64;
        for rec in records {
            match rec {
                WalRecord::Init { .. } => {
                    return Err(WalError::Replay {
                        message: "unexpected second Init record".into(),
                    })
                }
                WalRecord::RegisterSource { source, tables } => {
                    let mut cat = Catalog::new();
                    for t in tables {
                        cat.put_table(t);
                    }
                    sys.register_source(source, cat);
                }
                WalRecord::AddPla { dsl } => {
                    sys.add_pla_text(&dsl).map_err(|e| WalError::Replay {
                        message: format!("journaled PLA no longer parses: {e}"),
                    })?;
                }
                WalRecord::AddMeta {
                    id,
                    title,
                    plan,
                    annotations,
                    approved_by,
                } => {
                    let mut meta = MetaReport::new(id, title, plan);
                    for text in annotations {
                        let docs =
                            bi_pla::dsl::parse_documents(&text).map_err(|e| WalError::Replay {
                                message: format!("journaled annotation no longer parses: {e}"),
                            })?;
                        for d in docs {
                            meta = meta.with_annotation(d);
                        }
                    }
                    for s in approved_by {
                        meta = meta.approved(s);
                    }
                    sys.add_meta_report(meta);
                }
                WalRecord::DefineReport {
                    id,
                    title,
                    plan,
                    consumers,
                    purpose,
                } => {
                    let mut spec = ReportSpec::new(id, title, plan, consumers);
                    if let Some(p) = purpose {
                        spec = spec.for_purpose(p);
                    }
                    sys.define_report(spec);
                }
                WalRecord::RemoveReport { id } => {
                    sys.remove_report(&id);
                }
                WalRecord::Grant { consumer, role } => {
                    sys.grant(consumer, role);
                }
                WalRecord::EtlCommit { tables } => {
                    for t in tables {
                        let name = t.table.name().to_string();
                        if let Some(first) = t.sources.first() {
                            sys.table_source.insert(name.clone(), first.clone());
                        }
                        sys.table_sources_all.insert(name.clone(), t.sources);
                        // An identity reload Arc-shares the live storage,
                        // so the live warehouse kept its data version; the
                        // logged copy decodes into fresh storage, which
                        // would bump it. Same version and same rows as the
                        // replayed live table: reload that table instead.
                        let live = sys.warehouse.catalog().table(&name).filter(|live| {
                            sys.warehouse.data_version(&name) == Some(t.version)
                                && live.schema() == t.table.schema()
                                && live.rows() == t.table.rows()
                        });
                        let table = live.cloned().unwrap_or(t.table);
                        sys.warehouse.load_table(table);
                        // Replayed loads must reassign the journaled
                        // data versions, or every provenance reference
                        // into this table is off.
                        let replayed = sys.warehouse.data_version(&name).unwrap_or(0);
                        if replayed != t.version {
                            return Err(WalError::Replay {
                                message: format!(
                                    "data version mismatch for {name}: logged {} replayed as {replayed}",
                                    t.version
                                ),
                            });
                        }
                    }
                    sys.revision += 1;
                }
                WalRecord::Delivery { entry } => {
                    max_trace = max_trace.max(entry.provenance.trace.value());
                    let seq = sys.log.record(
                        entry.when,
                        entry.consumer,
                        entry.roles,
                        entry.report,
                        entry.plan,
                        entry.purpose,
                        entry.actions,
                        entry.outcome,
                        entry.provenance,
                    );
                    if seq != entry.seq {
                        return Err(WalError::Replay {
                            message: format!(
                                "journal sequence mismatch: logged seq {} replayed as {seq}",
                                entry.seq
                            ),
                        });
                    }
                }
            }
        }
        // The next trace id must be fresh; a journaled id of `u64::MAX`
        // leaves none to issue.
        let after_max = max_trace.checked_add(1).ok_or_else(|| WalError::Replay {
            message: format!("journaled trace id {max_trace} leaves no fresh trace id"),
        })?;
        sys.next_trace = sys.next_trace.max(after_max);
        // Resume logging where the valid prefix ends, truncating any
        // torn tail the reader skipped.
        sys.wal = Some(WalWriter::append_at(path, readout.valid_len)?);
        Ok(sys)
    }
}

/// One journal entry re-executed by [`BiSystem::replay_at_delivery`]:
/// the re-rendered outcome at the journaled policy epoch and data
/// versions, whether it matches what the journal recorded, and how
/// faithful each snapshot half was.
#[derive(Debug)]
pub struct ReplayedDelivery {
    /// Journal sequence number of the replayed entry.
    pub seq: u64,
    /// Delivery trace of the replayed entry.
    pub trace: TraceId,
    pub report: ReportId,
    /// The re-rendered outcome (full table for deliveries).
    pub outcome: RenderOutcome,
    /// True when the replay reproduces the journaled outcome: same
    /// delivered row and suppressed-group counts, or refused again.
    pub matches_journal: bool,
    /// Whether the journaled policy epoch's snapshot was available.
    pub policy_snapshot: SnapshotFidelity,
    /// Whether every journaled source version resolved.
    pub data_snapshot: SnapshotFidelity,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_etl::EtlOp;
    use bi_pla::{PlaLevel, PlaRule};
    use bi_query::plan::{scan, AggItem};
    use bi_types::RoleId;

    fn today() -> Date {
        Date::new(2008, 7, 1).unwrap()
    }

    /// Minimal end-to-end: scenario → ETL → warehouse → meta → report.
    fn build_system() -> BiSystem {
        let scenario = bi_synth::Scenario::generate(bi_synth::ScenarioConfig {
            patients: 40,
            prescriptions: 200,
            lab_tests: 60,
            ..Default::default()
        });
        let mut sys = BiSystem::new(today());
        for (sid, cat) in scenario.sources {
            sys.register_source(sid, cat);
        }
        sys.add_pla_text(
            r#"pla "hospital-1" source hospital version 1 level meta-report {
  require aggregation FactPrescriptions min 2;
  allow integration by hospital;
  allow integration by laboratory;
}"#,
        )
        .unwrap();

        let pipeline = Pipeline::new("nightly")
            .step(
                "e1",
                EtlOp::Extract {
                    source: "hospital".into(),
                    table: "Prescriptions".into(),
                    as_name: "stg".into(),
                },
            )
            .step(
                "l1",
                EtlOp::Load {
                    table: "stg".into(),
                    warehouse_table: "FactPrescriptions".into(),
                },
            );
        sys.run_etl(&pipeline, Some("quality")).unwrap();

        sys.add_meta_report(
            MetaReport::new(
                "m1",
                "Prescription universe",
                scan("FactPrescriptions").project_cols(&["Patient", "Drug", "Disease", "Date"]),
            )
            .approved("hospital"),
        );
        sys.subjects_mut().grant("alice@agency", "analyst");
        sys
    }

    #[test]
    fn end_to_end_delivery_and_audit() {
        let mut sys = build_system();
        sys.define_report(ReportSpec::new(
            "r-consumption",
            "Drug consumption",
            scan("FactPrescriptions").aggregate(
                vec!["Drug".into()],
                vec![AggItem::count_star("Consumption")],
            ),
            [RoleId::new("analyst")],
        ));
        let check = sys.check(&ReportId::new("r-consumption")).unwrap();
        assert!(check.is_compliant(), "violations: {:?}", check.violations);

        let delivered = sys
            .deliver(
                &ReportId::new("r-consumption"),
                &ConsumerId::new("alice@agency"),
            )
            .unwrap();
        assert!(!delivered.table.is_empty());
        assert_eq!(sys.audit_log().deliveries().count(), 1);
        assert!(sys.recheck().unwrap().is_empty());
        // The delivered cube exposes Drug but not Doctor.
        assert_eq!(sys.dispute("Prescriptions", "Doctor").unwrap().len(), 0);
    }

    #[test]
    fn new_systems_ship_the_fused_engine_at_one_thread() {
        let sys = BiSystem::new(today());
        assert_eq!(sys.engine.exec, bi_exec::ExecConfig::columnar());
    }

    #[test]
    fn raw_reports_are_refused_and_logged() {
        let mut sys = build_system();
        sys.define_report(ReportSpec::new(
            "r-raw",
            "Raw rows",
            scan("FactPrescriptions").project_cols(&["Patient", "Disease"]),
            [RoleId::new("analyst")],
        ));
        let err = sys.deliver(&ReportId::new("r-raw"), &ConsumerId::new("alice@agency"));
        assert!(matches!(
            err,
            Err(SystemError::Report(
                bi_report::ReportError::NonCompliant { .. }
            ))
        ));
        assert_eq!(sys.audit_log().refusal_count(), 1);
    }

    /// `deliver_batch` must behave exactly like a serial loop of
    /// `deliver` calls — same results in request order, same journal —
    /// for any thread count.
    #[test]
    fn deliver_batch_matches_serial_deliveries() {
        let define = |sys: &mut BiSystem| {
            sys.define_report(ReportSpec::new(
                "r-consumption",
                "Drug consumption",
                scan("FactPrescriptions").aggregate(
                    vec!["Drug".into()],
                    vec![AggItem::count_star("Consumption")],
                ),
                [RoleId::new("analyst")],
            ));
            sys.define_report(ReportSpec::new(
                "r-raw",
                "Raw rows",
                scan("FactPrescriptions").project_cols(&["Patient", "Disease"]),
                [RoleId::new("analyst")],
            ));
        };
        let requests: Vec<(ReportId, ConsumerId)> = vec![
            (
                ReportId::new("r-consumption"),
                ConsumerId::new("alice@agency"),
            ),
            (ReportId::new("r-raw"), ConsumerId::new("alice@agency")),
            (ReportId::new("r-ghost"), ConsumerId::new("alice@agency")),
            (
                ReportId::new("r-consumption"),
                ConsumerId::new("nobody@nowhere"),
            ),
            (
                ReportId::new("r-consumption"),
                ConsumerId::new("alice@agency"),
            ),
        ];

        let mut serial_sys = build_system();
        serial_sys.engine_mut().exec = bi_exec::ExecConfig::serial();
        define(&mut serial_sys);
        let serial: Vec<_> = requests
            .iter()
            .map(|(id, c)| serial_sys.deliver(id, c))
            .collect();

        for threads in [1, 4] {
            let mut sys = build_system();
            define(&mut sys);
            sys.engine_mut().exec = bi_exec::ExecConfig::with_threads(threads);
            let batch = sys.deliver_batch(&requests);
            assert_eq!(batch.len(), serial.len());
            for (i, (b, s)) in batch.iter().zip(&serial).enumerate() {
                match (b, s) {
                    (Ok(be), Ok(se)) => {
                        assert_eq!(be.table.rows(), se.table.rows(), "request {i}");
                        assert_eq!(be.applied, se.applied);
                    }
                    (Err(be), Err(se)) => {
                        assert_eq!(be.to_string(), se.to_string(), "request {i}")
                    }
                    other => panic!("request {i}: batch/serial disagree: {other:?}"),
                }
            }
            // Journal: same deliveries, refusals, and entry order (the
            // unknown report bypasses the journal in both modes).
            assert_eq!(
                sys.audit_log().deliveries().count(),
                serial_sys.audit_log().deliveries().count(),
                "threads={threads}"
            );
            assert_eq!(
                sys.audit_log().refusal_count(),
                serial_sys.audit_log().refusal_count()
            );
            let order: Vec<_> = sys
                .audit_log()
                .deliveries()
                .map(|e| e.report.to_string())
                .collect();
            let serial_order: Vec<_> = serial_sys
                .audit_log()
                .deliveries()
                .map(|e| e.report.to_string())
                .collect();
            assert_eq!(order, serial_order, "threads={threads}");
        }
    }

    #[test]
    fn pipeline_violations_block_etl() {
        let mut sys = build_system();
        sys.add_pla(
            PlaDocument::new("lab-1", "laboratory", PlaLevel::Source).with_rule(
                PlaRule::JoinPermission {
                    left_source: "hospital".into(),
                    right_source: "laboratory".into(),
                    allowed: false,
                },
            ),
        );
        let pipeline = Pipeline::new("linking")
            .step(
                "e1",
                EtlOp::Extract {
                    source: "hospital".into(),
                    table: "Prescriptions".into(),
                    as_name: "a".into(),
                },
            )
            .step(
                "e2",
                EtlOp::Extract {
                    source: "laboratory".into(),
                    table: "LabTests".into(),
                    as_name: "b".into(),
                },
            )
            .step(
                "er",
                EtlOp::EntityResolution {
                    left: "a".into(),
                    right: "b".into(),
                    on: vec![("Patient".into(), "Person".into())],
                    threshold: 0.9,
                    out: "linked".into(),
                },
            );
        assert!(matches!(
            sys.run_etl(&pipeline, None),
            Err(SystemError::PipelineViolations(_))
        ));
    }

    /// The combined policy is computed once per PLA mutation: repeated
    /// `policy()` calls share one combination, and every mutation path
    /// (`add_pla`, `add_pla_text`, `add_meta_report`) recombines it.
    #[test]
    fn policy_is_invalidated_by_pla_mutations() {
        let mut sys = BiSystem::new(today());
        let p1 = sys.policy();
        let p2 = sys.policy();
        assert!(
            std::sync::Arc::ptr_eq(&p1, &p2),
            "no mutation: cache hit shares the policy"
        );
        assert!(p1.may_join(&"hospital".into(), &"laboratory".into()));

        sys.add_pla(
            PlaDocument::new("ban", "municipality", PlaLevel::Source).with_rule(
                PlaRule::JoinPermission {
                    left_source: "hospital".into(),
                    right_source: "laboratory".into(),
                    allowed: false,
                },
            ),
        );
        let p3 = sys.policy();
        assert!(
            !std::sync::Arc::ptr_eq(&p1, &p3),
            "add_pla invalidates the cache"
        );
        assert!(!p3.may_join(&"hospital".into(), &"laboratory".into()));
        assert!(
            p1.may_join(&"hospital".into(), &"laboratory".into()),
            "handles taken before the mutation keep the old combination"
        );

        sys.add_pla_text(
            r#"pla "txt" source hospital version 1 level source {
  forbid join hospital with municipality;
}"#,
        )
        .unwrap();
        let p4 = sys.policy();
        assert!(
            !std::sync::Arc::ptr_eq(&p3, &p4),
            "add_pla_text invalidates the cache"
        );
        assert!(!p4.may_join(&"hospital".into(), &"municipality".into()));

        sys.add_meta_report(
            MetaReport::new(
                "m-cache",
                "u",
                scan("FactPrescriptions").project_cols(&["Drug"]),
            )
            .approved("hospital"),
        );
        let p5 = sys.policy();
        assert!(
            !std::sync::Arc::ptr_eq(&p4, &p5),
            "add_meta_report invalidates the cache"
        );
    }

    /// Compiled check programs are kept per revision: repeated
    /// deliveries of one report compile once, and every path that can
    /// change the compile inputs — PLA mutations, ETL loads, report
    /// redefinition — forces a recompile.
    #[test]
    fn check_program_cache_hits_and_invalidates() {
        let mut sys = build_system();
        let obs = bi_exec::Obs::enabled();
        sys.engine_mut().exec = bi_exec::ExecConfig::serial().with_obs(obs.clone());
        sys.define_report(ReportSpec::new(
            "r-consumption",
            "Drug consumption",
            scan("FactPrescriptions").aggregate(
                vec!["Drug".into()],
                vec![AggItem::count_star("Consumption")],
            ),
            [RoleId::new("analyst")],
        ));
        let id = ReportId::new("r-consumption");
        let alice = ConsumerId::new("alice@agency");
        let misses = |obs: &bi_exec::Obs| {
            obs.snapshot()
                .counters
                .get("check.program.cache.miss")
                .copied()
                .unwrap_or(0)
        };

        sys.deliver(&id, &alice).unwrap();
        let after_first = misses(&obs);
        assert!(after_first >= 1, "first delivery compiles");
        sys.deliver(&id, &alice).unwrap();
        sys.deliver(&id, &alice).unwrap();
        assert_eq!(
            misses(&obs),
            after_first,
            "repeat deliveries reuse the compile"
        );
        assert!(
            obs.snapshot()
                .counters
                .get("check.program.cache.hit")
                .copied()
                .unwrap_or(0)
                >= 2,
            "repeat deliveries hit the cache"
        );

        // A PLA mutation starts a new revision → recompile.
        sys.add_pla(PlaDocument::new("noop", "hospital", PlaLevel::Source));
        sys.deliver(&id, &alice).unwrap();
        let after_pla = misses(&obs);
        assert!(
            after_pla > after_first,
            "PLA mutation invalidates the program cache"
        );

        // Redefining the report replaces its entry → recompile.
        sys.define_report(ReportSpec::new(
            "r-consumption",
            "Drug consumption v2",
            scan("FactPrescriptions").aggregate(
                vec!["Drug".into()],
                vec![AggItem::count_star("Consumption")],
            ),
            [RoleId::new("analyst")],
        ));
        sys.deliver(&id, &alice).unwrap();
        assert!(
            misses(&obs) > after_pla,
            "report redefinition invalidates the program cache"
        );
    }

    #[test]
    fn unknown_reports_and_consumers() {
        let mut sys = build_system();
        assert!(matches!(
            sys.deliver(&ReportId::new("ghost"), &ConsumerId::new("alice@agency")),
            Err(SystemError::UnknownReport(_))
        ));
        // A consumer holding none of the report's declared roles is
        // refused outright — the role list is the distribution list —
        // and the refusal is journaled for the auditor.
        sys.define_report(ReportSpec::new(
            "r-c",
            "Counts",
            scan("FactPrescriptions")
                .aggregate(vec!["Drug".into()], vec![AggItem::count_star("n")]),
            [RoleId::new("analyst")],
        ));
        let refusals_before = sys.audit_log().refusal_count();
        let out = sys.deliver(&ReportId::new("r-c"), &ConsumerId::new("stranger"));
        assert!(matches!(
            out,
            Err(SystemError::Report(
                bi_report::ReportError::NonCompliant { .. }
            ))
        ));
        assert_eq!(sys.audit_log().refusal_count(), refusals_before + 1);
        // A consumer holding the role is served.
        sys.subjects_mut().grant("member", "analyst");
        assert!(sys
            .deliver(&ReportId::new("r-c"), &ConsumerId::new("member"))
            .is_ok());
    }
}

#[cfg(test)]
mod lint_and_document_tests {
    use super::*;
    use bi_etl::EtlOp;
    use bi_query::plan::{scan, AggItem};
    use bi_types::RoleId;

    #[test]
    fn lint_catches_agreement_typos_against_the_warehouse() {
        let scenario = bi_synth::Scenario::generate(bi_synth::ScenarioConfig {
            patients: 20,
            prescriptions: 60,
            lab_tests: 0,
            ..Default::default()
        });
        let mut sys = BiSystem::new(Date::new(2008, 7, 1).unwrap());
        for (sid, cat) in scenario.sources {
            sys.register_source(sid, cat);
        }
        sys.add_pla_text(
            r#"pla "typo" source hospital version 1 level meta-report {
  require aggregation FactPerscriptions min 5;
}"#,
        )
        .unwrap();
        let pipeline = Pipeline::new("p")
            .step(
                "e",
                EtlOp::Extract {
                    source: "hospital".into(),
                    table: "Prescriptions".into(),
                    as_name: "s".into(),
                },
            )
            .step(
                "l",
                EtlOp::Load {
                    table: "s".into(),
                    warehouse_table: "FactPrescriptions".into(),
                },
            );
        sys.run_etl(&pipeline, None).unwrap();
        let warnings = sys.lint_plas();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].0.as_str(), "typo");
        assert!(warnings[0].1.message.contains("FactPerscriptions"));
    }

    #[test]
    fn deliver_document_renders_audit_context() {
        let scenario = bi_synth::Scenario::generate(bi_synth::ScenarioConfig {
            patients: 20,
            prescriptions: 100,
            lab_tests: 0,
            ..Default::default()
        });
        let mut sys = BiSystem::new(Date::new(2008, 7, 1).unwrap());
        for (sid, cat) in scenario.sources {
            sys.register_source(sid, cat);
        }
        sys.add_pla_text(
            r#"pla "hospital-1" source hospital version 1 level meta-report {
  require aggregation Fact min 2;
}"#,
        )
        .unwrap();
        let pipeline = Pipeline::new("p")
            .step(
                "e",
                EtlOp::Extract {
                    source: "hospital".into(),
                    table: "Prescriptions".into(),
                    as_name: "s".into(),
                },
            )
            .step(
                "l",
                EtlOp::Load {
                    table: "s".into(),
                    warehouse_table: "Fact".into(),
                },
            );
        sys.run_etl(&pipeline, None).unwrap();
        sys.add_meta_report(
            MetaReport::new("m", "u", scan("Fact").project_cols(&["Drug"])).approved("hospital"),
        );
        sys.subjects_mut().grant("ada", "analyst");
        sys.define_report(
            ReportSpec::new(
                "r",
                "Drug counts",
                scan("Fact").aggregate(vec!["Drug".into()], vec![AggItem::count_star("n")]),
                [RoleId::new("analyst")],
            )
            .for_purpose("quality"),
        );
        let doc = sys.deliver_document(&"r".into(), &"ada".into()).unwrap();
        assert!(doc.contains("REPORT  r — Drug counts"));
        assert!(doc.contains("FOR     ada on 2008-07-01"));
        assert!(doc.contains("UNDER   hospital-1"));
        assert!(doc.contains("Drug | n"));
        assert_eq!(
            sys.audit_log().deliveries().count(),
            1,
            "delivery is journaled"
        );
    }
}

#[cfg(test)]
mod multi_source_tests {
    use super::*;
    use bi_etl::EtlOp;
    use bi_pla::{PlaLevel, PlaRule};
    use bi_query::plan::{scan, AggItem};
    use bi_types::RoleId;

    /// A warehouse table built by LINKING two sources must be gated by
    /// join permissions against BOTH sources, not just the first.
    #[test]
    fn combined_tables_carry_every_source_into_join_checks() {
        let scenario = bi_synth::Scenario::generate(bi_synth::ScenarioConfig {
            patients: 30,
            prescriptions: 150,
            lab_tests: 80,
            ..Default::default()
        });
        let mut sys = BiSystem::new(Date::new(2008, 7, 1).unwrap());
        for (sid, cat) in scenario.sources {
            sys.register_source(sid, cat);
        }
        // Integration granted (the link itself is allowed)…
        sys.add_pla_text(
            r#"pla "grants" source hospital version 1 level source {
  allow integration by hospital;
  allow integration by laboratory;
}"#,
        )
        .unwrap();
        let pipeline = Pipeline::new("link")
            .step(
                "e1",
                EtlOp::Extract {
                    source: "hospital".into(),
                    table: "Prescriptions".into(),
                    as_name: "p".into(),
                },
            )
            .step(
                "e2",
                EtlOp::Extract {
                    source: "laboratory".into(),
                    table: "LabTests".into(),
                    as_name: "l".into(),
                },
            )
            .step(
                "er",
                EtlOp::EntityResolution {
                    left: "p".into(),
                    right: "l".into(),
                    on: vec![("Patient".into(), "Person".into())],
                    threshold: 0.95,
                    out: "linked".into(),
                },
            )
            .step(
                "load",
                EtlOp::Load {
                    table: "linked".into(),
                    warehouse_table: "FactLinked".into(),
                },
            );
        sys.run_etl(&pipeline, None).unwrap();

        sys.add_meta_report(
            MetaReport::new("m", "u", scan("FactLinked").project_cols(&["Drug", "Test"]))
                .approved("hospital"),
        );
        sys.subjects_mut().grant("ada", "analyst");
        sys.define_report(ReportSpec::new(
            "r",
            "linked counts",
            scan("FactLinked").aggregate(vec!["Test".into()], vec![AggItem::count_star("n")]),
            [RoleId::new("analyst")],
        ));
        // Initially deliverable.
        assert!(sys.deliver(&"r".into(), &"ada".into()).is_ok());

        // …but the municipality-style prohibition arrives LATER, between
        // the two linked sources. The combined table must now be blocked
        // even though its primary attribution is just "hospital".
        sys.add_pla(
            PlaDocument::new("ban", "laboratory", PlaLevel::Source).with_rule(
                PlaRule::JoinPermission {
                    left_source: "hospital".into(),
                    right_source: "laboratory".into(),
                    allowed: false,
                },
            ),
        );
        let gate = sys.check(&"r".into()).unwrap();
        assert!(gate.violations.iter().any(|v| v.kind == "join-permission"));
        assert!(sys.deliver(&"r".into(), &"ada".into()).is_err());
    }

    /// A failed referential-integrity validation must leave the
    /// warehouse untouched (no partially loaded tables).
    #[test]
    fn broken_integrity_loads_nothing() {
        let scenario = bi_synth::Scenario::generate(bi_synth::ScenarioConfig {
            patients: 20,
            prescriptions: 80,
            lab_tests: 0,
            ..Default::default()
        });
        let mut sys = BiSystem::new(Date::new(2008, 7, 1).unwrap());
        for (sid, cat) in scenario.sources {
            sys.register_source(sid, cat);
        }
        // Declare an FK the loaded data will violate: facts reference a
        // registry we deliberately empty before loading.
        use bi_warehouse::{DimLevel, Dimension, FactTable};
        sys.warehouse_mut().add_dimension(Dimension {
            name: "Drug".into(),
            table: "DimDrug".into(),
            key: "Drug".into(),
            levels: vec![DimLevel {
                name: "Drug".into(),
                column: "DrugName".into(),
            }],
        });
        sys.warehouse_mut()
            .add_fact(FactTable {
                name: "Prescriptions".into(),
                table: "Fact".into(),
                dims: vec![("Drug".into(), "Drug".into())],
                measures: vec![],
            })
            .unwrap();
        // Load an EMPTY DimDrug alongside the fact: every fact drug dangles.
        let pipeline = Pipeline::new("bad")
            .step(
                "e",
                EtlOp::Extract {
                    source: "hospital".into(),
                    table: "Prescriptions".into(),
                    as_name: "s".into(),
                },
            )
            .step(
                "f",
                EtlOp::FilterRows {
                    table: "s".into(),
                    pred: bi_relation::expr::lit(true),
                },
            )
            .step(
                "l",
                EtlOp::Load {
                    table: "s".into(),
                    warehouse_table: "Fact".into(),
                },
            )
            .step(
                "e2",
                EtlOp::Extract {
                    source: "health-agency".into(),
                    table: "DrugRegistry".into(),
                    as_name: "r".into(),
                },
            )
            .step(
                "f2",
                EtlOp::FilterRows {
                    table: "r".into(),
                    pred: bi_relation::expr::lit(false), // empties the dimension
                },
            )
            .step(
                "l2",
                EtlOp::Load {
                    table: "r".into(),
                    warehouse_table: "DimDrug".into(),
                },
            );
        let err = sys.run_etl(&pipeline, None);
        assert!(matches!(err, Err(SystemError::BrokenIntegrity(_))));
        // Nothing was committed — not even the fact table.
        assert!(sys.warehouse().catalog().table("Fact").is_none());
        assert!(sys.warehouse().catalog().table("DimDrug").is_none());
    }
}
