//! What an ETL fact commit costs in heap allocations, per loaded row,
//! counted by a global allocator that wraps `System`.
//!
//! Extract shares the source's rows, so a commit allocates each loaded
//! row once: Deduplicate copies each survivor once, with room for the
//! cell the `Derive` after it appends, and a `Derive` over storage it
//! shares copies each row once, with its new cell. A survivor copied at
//! its old width and grown again by the `Derive`, or a shared row
//! copied and then reallocated, shows up here as two allocations per
//! row.
//!
//! The file holds a single `#[test]` so no other test in this binary
//! allocates while the counter is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use plabi::etl::run_pipeline_with;
use plabi::exec::ExecConfig;
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

/// The end-to-end benchmark's fact commit — Extract Prescriptions,
/// Deduplicate when `dedup`, Derive `Batch`, Load — with its batch
/// number.
fn fact_commit(dedup: bool, batch: i64) -> Pipeline {
    let mut p = Pipeline::new("facts").step(
        "e-presc",
        EtlOp::Extract {
            source: "hospital".into(),
            table: "Prescriptions".into(),
            as_name: "stg_presc".into(),
        },
    );
    if dedup {
        p = p.step(
            "dedup",
            EtlOp::Deduplicate {
                table: "stg_presc".into(),
            },
        );
    }
    p.step(
        "batch",
        EtlOp::Derive {
            table: "stg_presc".into(),
            column: "Batch".into(),
            expr: lit(batch),
        },
    )
    .step(
        "l-presc",
        EtlOp::Load {
            table: "stg_presc".into(),
            warehouse_table: "FactPrescriptions".into(),
        },
    )
}

#[test]
fn fact_commits_allocate_each_loaded_row_once() {
    let scenario = Scenario::generate(ScenarioConfig {
        seed: 42,
        patients: 500,
        prescriptions: 5_000,
        lab_tests: 0,
    });
    let today = Date::new(2008, 7, 1).unwrap();
    // The engine `BiSystem::new` ships, with its chunk cache.
    let cfg = ExecConfig::default();
    for dedup in [true, false] {
        // The first run converts the source's columns into the chunk
        // cache; the second is a nightly commit over unchanged sources.
        let warm = run_pipeline_with(&fact_commit(dedup, 1), &scenario.sources, None, today, &cfg)
            .unwrap();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let run = run_pipeline_with(&fact_commit(dedup, 2), &scenario.sources, None, today, &cfg)
            .unwrap();
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let (loaded, warm) = (&run.loaded[0].0, &warm.loaded[0].0);
        assert_eq!(loaded.len(), warm.len());
        assert!(loaded.rows().iter().all(|r| r.capacity() == r.len()));
        if dedup {
            assert!(
                run.steps[1].touched > 0,
                "the source holds duplicates, so survivors are copied"
            );
        }
        let per_row = made as f64 / loaded.len() as f64;
        eprintln!(
            "dedup={dedup}: {made} allocations for {} loaded rows; {per_row:.2} per row",
            loaded.len()
        );
        assert!(
            per_row <= 1.2,
            "a fact commit (dedup={dedup}) made {per_row:.2} allocations per loaded row (budget 1.2)"
        );
    }
}
