//! What a cold grouped render costs in heap allocations, per delivered
//! row, counted by a global allocator that wraps `System`.
//!
//! A k-thresholded group-by pays per group, not per row and per copy:
//! the aggregate sink clones each group's key cells once, into a row
//! with room for its aggregates, and the k-guard copies each surviving
//! row once while it drops the guard column. A per-group key staging
//! vector, a row that grows when its aggregates are pushed, or a second
//! copy through the guard shows up here as allocations per row.
//!
//! The file holds a single `#[test]` so no other test in this binary
//! allocates while the counter is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use plabi::prelude::*;

/// Counts allocation calls.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PLAS: &str = r#"
pla "hospital-2008" source hospital version 2 level meta-report {
  require aggregation FactPrescriptions min 5;
  allow attribute FactPrescriptions.Doctor to auditor when Disease <> 'HIV';
  anonymize FactPrescriptions.Patient with pseudonym;
  restrict rows FactPrescriptions when Disease <> 'HIV';
  purpose quality;
}
"#;

/// The hospital deployment at the end-to-end benchmark's size (20k
/// prescriptions, 2k patients, seed 42) on the engine `BiSystem::new`
/// ships, with one report: prescriptions counted by Date, for auditors.
fn deployment() -> BiSystem {
    let scenario = Scenario::generate(ScenarioConfig {
        seed: 42,
        patients: 2_000,
        prescriptions: 20_000,
        lab_tests: 0,
    });
    let mut sys = BiSystem::new(Date::new(2008, 7, 1).unwrap());
    for (sid, cat) in scenario.sources {
        sys.register_source(sid, cat);
    }
    sys.add_pla_text(PLAS).unwrap();
    let load = Pipeline::new("load")
        .step(
            "e-presc",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "s".into(),
            },
        )
        .step(
            "l-presc",
            EtlOp::Load {
                table: "s".into(),
                warehouse_table: "FactPrescriptions".into(),
            },
        );
    sys.run_etl(&load, Some("quality")).unwrap();
    sys.add_meta_report(
        MetaReport::new(
            "m-universe",
            "Prescription universe",
            scan("FactPrescriptions")
                .project_cols(&["Patient", "Doctor", "Drug", "Disease", "Date"]),
        )
        .approved("hospital"),
    );
    let by_date =
        scan("FactPrescriptions").aggregate(vec!["Date".into()], vec![AggItem::count_star("N")]);
    sys.define_report(
        ReportSpec::new(
            "by-date",
            "Prescriptions by date",
            by_date,
            [RoleId::new("auditor")],
        )
        .for_purpose("quality"),
    );
    sys.grant("consumer-1", "auditor");
    sys
}

#[test]
fn cold_grouped_render_allocates_per_group_not_per_copy() {
    let mut sys = deployment();
    let (report, consumer) = (ReportId::new("by-date"), ConsumerId::new("consumer-1"));
    // The first delivery converts the fact columns into the chunk cache
    // and compiles the report's check program; `deliver` renders every
    // time, so the second delivery is a cold render over warm caches.
    let warm = sys.deliver(&report, &consumer).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let delivered = sys.deliver(&report, &consumer).unwrap();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(delivered.table.rows(), warm.table.rows());
    assert!(
        delivered.suppressed_groups > 0,
        "the k-guard suppressed groups"
    );
    let rows = delivered.table.len();
    let per_row = made as f64 / rows as f64;
    eprintln!("allocations: {made} for {rows} delivered rows; {per_row:.2} per row");
    assert!(
        per_row <= 3.0,
        "a cold grouped render made {per_row:.2} allocations per delivered row (budget 3)"
    );
}
