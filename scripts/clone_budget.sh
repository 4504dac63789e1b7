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
  [crates/core/src/system.rs]=63
  # Scheduler: one EnforcementKey clone into the dedup map, one in a
  # test fixture. Rendered outcomes move by Arc, members by index.
  [crates/core/src/scheduler.rs]=2
  # Render cache: hit/insert share by Arc::clone only — a deep copy of
  # an EnforcedReport here would defeat the whole layer.
  [crates/core/src/render_cache.rs]=0
  # Enforcement key: built from owned parts, compared structurally.
  [crates/pla/src/fingerprint.rs]=0
  [crates/etl/src/pipeline.rs]=24
  # +2 for RenderOutcome::to_result: a shared render hands each group
  # member an owned EnforcedReport/violation list — that copy is the
  # per-consumer API contract; the cross-consumer sharing is the Arc
  # around the RenderOutcome itself. (32 after rustfmt re-wrapped
  # multi-call lines; the call sites are unchanged.)
  [crates/report/src/engine.rs]=32
  # bi-exec call sites: parallel operators must share via Arc/borrows,
  # not clone per worker. bi-exec itself moves morsel outputs, never
  # clones. Re-baselined 23 -> 21 when the columnar join moved into the
  # pipeline: non-test exec.rs is at 13 (the row join and the columnar
  # aggregate/sort clone *surviving* rows and first key cells, which is
  # the byte-identity contract, not an accident); the other 8 sites are
  # in #[cfg(test)] oracle fixtures.
  [crates/query/src/exec.rs]=21
  # Fused pipeline: clones only survivors (late materialization — the
  # emit paths, now also the streamed join's build cells) and
  # first-encountered group keys/values in the partial-aggregate
  # states. Re-baselined 11 -> 21 when joins began streaming through
  # it: the join's build index (one offsets copy, one key per distinct
  # build key), a group's key codes when it opens, the output name and
  # schema handles (Arc), a chain's op list when a computed probe side
  # is fused on its own, and one test fixture. Selection vectors, not
  # rows, cross stages; no per-row `Value` clone was added outside the
  # emitted output.
  [crates/query/src/pipeline.rs]=21
  [crates/anonymize/src/kanon.rs]=7
  [crates/anonymize/src/mondrian.rs]=6
  [crates/exec/src/lib.rs]=0
  # Columnar layer: conversion clones cell values once into typed
  # vectors; kernels must operate on codes/primitives, never on Values.
  [crates/relation/src/column/mod.rs]=2
  [crates/relation/src/column/kernel.rs]=6
  # Chunk cache: one Arc clone on hit, one on insert — cache paths must
  # never deep-copy column data.
  [crates/relation/src/column/cache.rs]=2
  [crates/relation/src/column/sort.rs]=1
  # Audit replay: rebuilding the as-delivered catalog clones the Catalog
  # map (tables inside share rows by Arc) and re-journals one report
  # handle per finding; policy snapshots arrive by Arc, never deep-
  # copied. The other 4 sites are test fixtures.
  [crates/audit/src/recheck.rs]=6
  # WAL: records are encoded from borrowed data; the only clones are a
  # plan handed to two round-trip test fixtures.
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
