//! What a warm batch request costs: heap allocations and retained heap,
//! counted by a global allocator that wraps `System`.
//!
//! A warm `deliver_batch` request is served from the render cache, so
//! what is left belongs to its consumer: a slot in the grouping, a trace
//! id, a consumer id and one journal entry. The entry shares its
//! render's role set, plan, action list and source versions by `Arc`.
//! These budgets pin that: a deep copy creeping back into the grouping
//! or the journal path shows up here as allocations per request.
//!
//! The file holds a single `#[test]` so no other test in this binary
//! allocates while the counters are read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use plabi::exec::ExecConfig;
use plabi::prelude::*;

/// Counts allocation calls and the bytes currently allocated.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

const PLAS: &str = r#"
pla "hospital-2008" source hospital version 2 level meta-report {
  require aggregation FactPrescriptions min 5;
  allow attribute FactPrescriptions.Doctor to auditor when Disease <> 'HIV';
  anonymize FactPrescriptions.Patient with pseudonym;
  restrict rows FactPrescriptions when Disease <> 'HIV';
  purpose quality;
}
"#;

const ROLES: [&str; 3] = ["analyst", "auditor", "manager"];
const REPORTS: usize = 24;
const CONSUMERS: usize = 300;
const PROFILES: usize = REPORTS * ROLES.len();
const GROUP_COLUMNS: [&str; 5] = ["Drug", "Disease", "Date", "Patient", "Doctor"];

/// The deployment of the end-to-end benchmark, small: 24 reports in
/// four plan shapes (the Doctor reports are refused to everyone but
/// auditors), 3 roles and 300 consumers holding one role each, on the
/// serial engine.
fn deployment() -> BiSystem {
    let scenario = Scenario::generate(ScenarioConfig {
        seed: 7,
        patients: 20,
        prescriptions: 200,
        lab_tests: 0,
    });
    let mut sys = BiSystem::new(Date::new(2008, 7, 1).unwrap());
    sys.engine_mut().exec = ExecConfig::serial();
    for (sid, cat) in scenario.sources {
        sys.register_source(sid, cat);
    }
    sys.add_pla_text(PLAS).unwrap();
    let extract = |source: &str, table: &str, as_name: &str| EtlOp::Extract {
        source: source.into(),
        table: table.into(),
        as_name: as_name.into(),
    };
    let load = |table: &str, warehouse_table: &str| EtlOp::Load {
        table: table.into(),
        warehouse_table: warehouse_table.into(),
    };
    let initial = Pipeline::new("load")
        .step("e-presc", extract("hospital", "Prescriptions", "s"))
        .step("l-presc", load("s", "FactPrescriptions"))
        .step("e-reg", extract("health-agency", "DrugRegistry", "r"))
        .step("l-reg", load("r", "DimDrug"));
    sys.run_etl(&initial, Some("quality")).unwrap();
    sys.add_meta_report(
        MetaReport::new(
            "m-universe",
            "Prescription universe",
            scan("FactPrescriptions")
                .project_cols(&["Patient", "Doctor", "Drug", "Disease", "Date"]),
        )
        .approved("hospital"),
    );
    for i in 0..REPORTS {
        let counted =
            |p: Plan, group: &str| p.aggregate(vec![group.into()], vec![AggItem::count_star("N")]);
        let group = GROUP_COLUMNS[i % GROUP_COLUMNS.len()];
        let facts = || scan("FactPrescriptions");
        let plan = match i % 4 {
            0 => counted(facts(), group),
            1 => counted(
                facts().filter(col("Date").ge(lit(Date::new(2007, 1, 1).unwrap()))),
                group,
            ),
            2 => counted(facts(), group)
                .sort(vec![SortKey::desc("N")])
                .limit(10),
            _ => counted(
                facts().join(scan("DimDrug"), vec![("Drug".into(), "Drug".into())], "dim"),
                "Family",
            ),
        };
        sys.define_report(
            ReportSpec::new(format!("rep-{i:02}"), group, plan, ROLES.map(RoleId::new))
                .for_purpose("quality"),
        );
    }
    for c in 0..CONSUMERS {
        sys.grant(format!("consumer-{c}"), ROLES[c % ROLES.len()]);
    }
    sys
}

/// `n` requests cycling over every (report, role) profile; `turn`
/// rotates which consumer of the role asks.
fn batch(n: usize, turn: usize) -> Vec<(ReportId, ConsumerId)> {
    let per_role = CONSUMERS / ROLES.len();
    (0..n)
        .map(|j| {
            let p = j % PROFILES;
            let (report, role) = (p / ROLES.len(), p % ROLES.len());
            let c = role + ROLES.len() * ((turn + j / PROFILES) % per_role);
            (
                ReportId::new(format!("rep-{report:02}")),
                ConsumerId::new(format!("consumer-{c}")),
            )
        })
        .collect()
}

/// Allocations made by one `deliver_batch` call; the results are
/// dropped after counting.
fn allocations_of(sys: &mut BiSystem, requests: &[(ReportId, ConsumerId)]) -> u64 {
    let before = allocations();
    let results = sys.deliver_batch(requests);
    let made = allocations() - before;
    drop(results);
    made
}

#[test]
fn warm_batch_requests_cost_only_their_consumer() {
    let mut sys = deployment();
    let (small, large) = (batch(500, 0), batch(1000, 1));
    for _ in 0..2 {
        let warm = sys.deliver_batch(&small);
        assert!(warm.iter().all(|r| r.is_ok()
            || matches!(
                r,
                Err(SystemError::Report(
                    plabi::report::ReportError::NonCompliant { .. }
                ))
            )));
    }

    // Allocations per extra warm request: the difference between a
    // 1000- and a 500-request batch cancels the per-batch and per-group
    // work.
    let a500 = allocations_of(&mut sys, &small);
    let a1000 = allocations_of(&mut sys, &large);
    let per_request = (a1000 as f64 - a500 as f64) / 500.0;
    eprintln!("allocations: {a500} per 500-request batch, {a1000} per 1000; {per_request:.2} per extra request");
    assert!(
        per_request <= 3.0,
        "a warm batch request made {per_request:.2} allocations (budget 3)"
    );

    // Heap retained per journaled request, over 8 warm batches whose
    // results are dropped: what stays is the journal.
    let journaled_before = sys.audit_log().entries().len();
    let live_before = live_bytes();
    for turn in 0..8 {
        drop(sys.deliver_batch(&batch(500, turn)));
    }
    let journaled = sys.audit_log().entries().len() - journaled_before;
    let retained = (live_bytes() - live_before) as f64 / journaled as f64;
    eprintln!("retained: {retained:.0} B per journaled request over {journaled} requests");
    assert_eq!(journaled, 8 * 500);
    assert!(
        retained <= 512.0,
        "a journaled request retained {retained:.0} B (budget 512)"
    );

    // Two entries of one group point at the same render facts, and a
    // returned report's actions are its entry's actions.
    let start = sys.audit_log().entries().len();
    let requests = batch(2 * PROFILES, 9);
    let results = sys.deliver_batch(&requests);
    let entries = &sys.audit_log().entries()[start..];
    let (first, second) = (&entries[0], &entries[PROFILES]);
    assert_eq!(first.report, second.report);
    assert_ne!(first.consumer, second.consumer);
    assert!(Arc::ptr_eq(&first.plan, &second.plan));
    assert!(Arc::ptr_eq(&first.roles, &second.roles));
    assert!(Arc::ptr_eq(&first.actions, &second.actions));
    assert!(Arc::ptr_eq(
        &first.provenance.source_versions,
        &second.provenance.source_versions
    ));
    let delivered = results
        .iter()
        .position(Result::is_ok)
        .expect("some profile delivers");
    let report = results[delivered].as_ref().unwrap();
    assert!(!report.applied.is_empty());
    assert!(Arc::ptr_eq(&report.applied, &entries[delivered].actions));
}
