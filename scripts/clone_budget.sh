#!/usr/bin/env bash
# Clone-budget guard for the shared-ownership data layer.
#
# The Arc/CoW refactor cut deep copies out of the facade, the ETL
# pipeline, and the report engine (seed baseline: system.rs had 41
# `.clone()` sites). This script fails when the number of `.clone()`
# call sites in those hot paths creeps back up, so accidental deep
# copies show up in CI instead of in profiles.
#
# Budgets are the current counts; lower them when you remove clones.
# Ids (`ReportId`, `ConsumerId`, `RoleId`, …) wrap an `Arc<str>`, so an
# id `.clone()` is a reference-count bump, not a copy of its text; the
# count still includes those sites.
#
# Usage: scripts/clone_budget.sh [--clippy]
#   --clippy  also run `cargo clippy --workspace -- -D warnings`

set -euo pipefail
cd "$(dirname "$0")/.."

declare -A BUDGET=(
  # Re-baselined after the WAL + MVCC snapshots landed (39 -> 63): every
  # mutator now mirrors itself into a WalRecord, and encoding a durable
  # record needs owned ids/plans/tables (Table clones share row storage
  # by Arc — the bytes are encoded once, never deep-copied in memory).
  # The rest is the batch-scheduler growth already accounted for:
  # id/role-set clones in grouping closures and per-consumer journal
  # appends of Arc-shared renders. Table storage is never cloned.
  # 63 -> 56 when journal entries began sharing their render's facts:
  # an append bumps the reference counts of the render's roles, plan,
  # actions and source versions instead of copying them, and the
  # grouping closure no longer clones a held role set per request.
  # 56 -> 54 when the audit replay moved onto bi-audit's grouped
  # time-travel pass: it no longer clones the recorder handle and the
  # exec config to fan out, and one MVCC-counting resolver serves both
  # the recheck and the replay.
  # 54 -> 53 when the render-cache capacity setter went: it cloned the
  # recorder handle to hand the cache for its eviction counter, and the
  # cache's bound is now the fixed default.
  # 53 -> 44 when everything the facade derives moved onto one revision
  # counter: the hand evictions of check programs (two id clones), the
  # program cache's (report, gate) key, the per-batch source-version
  # map and the storage versions copied into each key, the history
  # copied per audit replay, and the binding's id clones (now one, in
  # policy.rs) went.
  [crates/core/src/system.rs]=44
  # Policy state: the binding copies each PLA id (an `Arc<str>`) once
  # per PLA mutation.
  [crates/core/src/policy.rs]=1
  # Scheduler: the report id into each group's EnforcementKey (an
  # `Arc<str>` bump), one key clone into the dedup map, and the report's
  # plan copied into the render's `Arc<Plan>` once per render (it used
  # to be copied per journal entry in system.rs). Rendered outcomes
  # move by Arc, members by index.
  [crates/core/src/scheduler.rs]=3
  # Render cache: hit/insert share by Arc::clone only — a deep copy of
  # an EnforcedReport here would defeat the whole layer.
  [crates/core/src/render_cache.rs]=0
  # Enforcement key: built from owned parts, compared structurally.
  [crates/pla/src/fingerprint.rs]=0
  # ETL runner. 24 -> 22 when Derive stopped building one `col(c)`
  # projection item per existing column: it now hands the owned staged
  # table to `derive_scalar`, which appends the new cells in place.
  # Still 22 after Deduplicate moved onto column codes: the step reads
  # the steps after it by reference to size its survivors.
  [crates/etl/src/pipeline.rs]=22
  # Staging: the table name is cloned once to key both maps; tables
  # move in and out by value (`take` then `put`), never by copy.
  [crates/etl/src/staging.rs]=1
  # +2 for RenderOutcome::to_result: a shared render hands each group
  # member an owned EnforcedReport/violation list — that copy is the
  # per-consumer API contract; the cross-consumer sharing is the Arc
  # around the RenderOutcome itself. (32 after rustfmt re-wrapped
  # multi-call lines; the call sites are unchanged.) Still 32 after the
  # generalization re-merge moved onto the query engine: its one-table
  # catalog takes a handle to the delivered table (rows shared by Arc)
  # and its aggregate plan a copy of the group-by names, while the
  # hand-written loop's deep copy of the schema went, and so did the
  # per-render copy of the report's plan when no k-guard rewrites it.
  # Still 32 after the k-guard went to one copy: the render asks
  # bi-warehouse which groups survive and copies each survivor once,
  # without its guard cell (slice copies, not clones); the guarded
  # table's rows and the later `project` copy are gone.
  [crates/report/src/engine.rs]=32
  # Cube authorization, on every k-guarded render: the keep decision
  # borrows each sibling-family key instead of cloning its cells, and a
  # guarded cube shares the cube's schema by Arc. What is left is one
  # copy per surviving row when `guard_cube*` builds its table (the
  # render path does not call it) and one test fixture.
  [crates/warehouse/src/authz.rs]=2
  # bi-exec call sites: parallel operators must share via Arc/borrows,
  # not clone per worker. bi-exec itself moves morsel outputs, never
  # clones. 21 -> 20 when the columnar aggregate left (the pipeline is
  # the one columnar executor for filters and group-bys): non-test
  # exec.rs is at 12 (the row engine, the row join and the columnar
  # sort clone *surviving* rows and first key cells, which is the
  # byte-identity contract, not an accident); the other 8 sites are in
  # #[cfg(test)] oracle fixtures.
  [crates/query/src/exec.rs]=20
  # Fused pipeline: clones only survivors (late materialization — the
  # emit paths, including the streamed join's build cells) and each
  # group's first key cells when it opens; aggregates read member cells
  # by reference. 21 -> 16 when the aggregate sink became
  # slot-then-evaluate (no partial states, no per-group key codes).
  # The rest: the join's build index (one offsets copy, one key per
  # distinct build key), the output name and schema handles (Arc), a
  # chain's op list when a computed probe side fuses on its own, the
  # kernel column list the chunk conversion starts from, and two test
  # fixtures. Selection vectors, not rows, cross stages;
  # no per-row `Value` clone was added outside the emitted output.
  # Still 16 after mask projections became slots: two compile-time
  # copies of a mask condition came in (composing a masked column into
  # an expression above it, and AND-ing the conditions of a column
  # masked twice), and two per-cell sites in the emit paths went out —
  # every sink now reads a cell, masked, padded or plain, through one
  # accessor. Masked cells are never materialized between stages.
  # Still 16 after the sink began slotting one key column per pass:
  # a group's key cells are still cloned once, now straight into a row
  # with room for its aggregates, and `count(*)` reads group sizes.
  [crates/query/src/pipeline.rs]=16
  [crates/anonymize/src/kanon.rs]=7
  [crates/anonymize/src/mondrian.rs]=6
  [crates/exec/src/lib.rs]=0
  # Columnar layer: conversion clones cell values once into typed
  # vectors; kernels must operate on codes/primitives, never on Values.
  # kernel.rs 6 -> 4 when its filter driver left (the fused pipeline
  # drives the kernels): three literal copies at compile time and one
  # test fixture. mod.rs stays 1 with `distinct_by_codes`: it hashes
  # borrowed code tuples and leaves the survivor copy to table.rs.
  [crates/relation/src/column/mod.rs]=1
  [crates/relation/src/column/kernel.rs]=4
  # Table: a derived table clones only the cells it keeps — each
  # survivor of a distinct once (and only when a row was dropped;
  # otherwise the storage is shared), projected, sorted and unioned
  # cells, first-seen group keys — plus its owned name. Non-test code is
  # at 10; the other 4 sites are test fixtures. `distinct` used to clone
  # every row into its hash set and every survivor again. `filter` and
  # `map_rows` are one-thread calls of the scalar entry points, whose
  # survivor and name clones live in scalar.rs. Still 14 after ETL's
  # deduplication by column codes: it ends in the same survivor tail
  # as `distinct` (`keep_rows`, one slice copy per survivor), and a
  # `Derive` over shared rows copies each row once by slice, with its
  # new cell.
  [crates/relation/src/table.rs]=14
  # Chunk cache: one Arc clone on hit, one on insert — cache paths must
  # never deep-copy column data.
  [crates/relation/src/column/cache.rs]=2
  [crates/relation/src/column/sort.rs]=1
  # Audit replay: rebuilding the as-delivered catalog clones the Catalog
  # map (tables inside share rows by Arc) and re-journals one report
  # handle per finding; policy snapshots arrive by Arc, never deep-
  # copied. The grouped pass behind both the recheck and the full replay
  # builds that catalog once per (policy epoch, data versions) group and
  # hands each entry borrowed views of it and of its compiled check
  # program — neither is cloned per entry. The other 4 sites are test
  # fixtures. (Still 6 after the replay moved onto this pass.)
  [crates/audit/src/recheck.rs]=6
  # WAL: records are encoded from borrowed data; the only clones are a
  # plan handed to two round-trip test fixtures. The table decoder
  # shares each dictionary string into its text cells with
  # `Arc::clone` (a reference count, no bytes), which this count does
  # not match.
  [crates/core/src/wal.rs]=2
  # MVCC history: retains Tables by Arc-backed clone; all 4 grep hits
  # are test fixtures sharing one fixture table across versions.
  [crates/warehouse/src/mvcc.rs]=4
)

fail=0
for file in "${!BUDGET[@]}"; do
  count=$(grep -c '\.clone()' "$file" || true)
  budget=${BUDGET[$file]}
  if [ "$count" -gt "$budget" ]; then
    echo "FAIL  $file: $count clone() sites (budget $budget)" >&2
    fail=1
  else
    echo "ok    $file: $count clone() sites (budget $budget)"
  fi
done

if [ "${1:-}" = "--clippy" ]; then
  echo "running clippy gate..."
  cargo clippy --workspace --all-targets -- -D warnings
fi

if [ "$fail" -ne 0 ]; then
  echo "clone budget exceeded — use Arc sharing (Table/Schema/Value are cheap to share) instead of deep copies" >&2
  exit 1
fi
echo "clone budget OK"
