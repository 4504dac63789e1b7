#!/usr/bin/env bash
# Smoke test for the parallel, columnar and expression-VM benchmarks.
#
# Runs `bench_parallel --quick` (thread sweep over the row-engine
# filter), `bench_columnar` (row vs vectorized at one thread) and
# `bench_vm` (recursive walker vs bytecode VM vs columnar), validates
# their JSON output, and enforces the gates. Every gate is evaluated;
# the script then exits non-zero listing each one that failed. The
# fresh JSON goes to a temporary directory, so a run never rewrites the
# committed `BENCH_*.json` artifacts it gates against; refresh those,
# when wanted, with a bench binary's `--out`. The gates:
#
#   * per op at the largest size, the 1-thread run must stay within a
#     noise tolerance of serial (it IS the serial path plus config
#     plumbing); ops too fast to time reliably (< 1 ms serial) are
#     exempt;
#   * every swept point must report the engine that served it — never
#     "none";
#   * the fused morsel pipeline must beat the same columnar engine run
#     operator-at-a-time (the plan's three operators as lone plans over
#     materialized intermediates) by >= 1.3x on the obligation-shaped
#     deep plan (Filter -> Project -> GroupBy) at 100k rows and one
#     thread, and the planner must report "pipeline" for it;
#   * the repeated-render section must show the version-keyed chunk
#     cache working: warm hits > 0, no warm misses, and a warm render
#     >= 1.3x faster than a cold one;
#   * the vectorized filter must beat the row-at-a-time engine at the
#     largest columnar size (>= 1.2x), and the join (the fused
#     pipeline's dictionary-code probe into a materialize sink) and the
#     code-slotted group-by must not lose to the row path;
#   * the bytecode VM must beat the recursive AST walker by >= 1.5x on
#     the 100k-row (or larger) filter and project workloads, and must
#     never lose to it on any workload at the largest size;
#   * obs-disabled overhead: the engine carries the observability layer
#     (bi-obs) on every hot path, but a disabled recorder must be a true
#     no-op — each fresh columnar timing, divided by the host-speed
#     control `bench_columnar` times right after it, must stay within a
#     1.5x noise envelope of the same ratio in the committed
#     BENCH_columnar.json baseline (sizes present in both). Dividing by
#     the control keeps host speed out of the comparison;
#   * shared-render batch delivery (`bench_batch`): grouping equivalent
#     requests must beat the unshared per-request fan-out by >= 3x on a
#     20-profile batch with shared renders actually recorded
#     (deliver.render.shared > 0), the identical warm batch must hit the
#     cross-batch render cache, and after a storage-rebuilding ETL
#     commit the cache must go quiet (zero hits) with the re-rendered
#     batch matching the serial oracle (no stale serves);
#   * WAL durability (`bench_wal`): journaling every delivery to the
#     write-ahead log must cost <= 1.15x the WAL-off delivery loop, and
#     `BiSystem::recover` must replay the full journal (entry counts
#     equal) in under 5000 ms.
#
# Usage: scripts/bench_smoke.sh [--full]
#   --full  benchmark the 1M-row size too (slower)

set -euo pipefail
cd "$(dirname "$0")/.."

MODE_FLAG="--quick"
COL_FLAG=""
if [ "${1:-}" = "--full" ]; then
  MODE_FLAG=""
  COL_FLAG="--full"
fi

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
PAR_OUT="$OUT_DIR/BENCH_parallel.json"
COL_OUT="$OUT_DIR/BENCH_columnar.json"
VM_OUT="$OUT_DIR/BENCH_vm.json"
BATCH_OUT="$OUT_DIR/BENCH_batch.json"
WAL_OUT="$OUT_DIR/BENCH_wal.json"

# The obs-overhead gate's baseline: the committed columnar timings.
COL_BASELINE=""
if [ -f BENCH_columnar.json ]; then
  COL_BASELINE="BENCH_columnar.json"
fi

# shellcheck disable=SC2086
cargo run --release -q -p bi-bench --bin bench_parallel -- $MODE_FLAG --out "$PAR_OUT"
# shellcheck disable=SC2086
cargo run --release -q -p bi-bench --bin bench_columnar -- $COL_FLAG --out "$COL_OUT"
# shellcheck disable=SC2086
cargo run --release -q -p bi-bench --bin bench_vm -- $COL_FLAG --out "$VM_OUT"
# shellcheck disable=SC2086
cargo run --release -q -p bi-bench --bin bench_batch -- $MODE_FLAG --out "$BATCH_OUT"
# shellcheck disable=SC2086
cargo run --release -q -p bi-bench --bin bench_wal -- $MODE_FLAG --out "$WAL_OUT"

python3 - "$PAR_OUT" "$COL_OUT" "$COL_BASELINE" "$VM_OUT" "$BATCH_OUT" "$WAL_OUT" <<'PY'
import json
import sys

# Every gate is evaluated; failures are collected and listed at the end.
failures = []


def fail(msg):
    failures.append(msg)
    print(f"FAIL: {msg}")


OPS = ("filter",)

with open(sys.argv[1]) as f:
    par = json.load(f)

cores = par["cores"]
assert cores >= 1, "cores must be positive"
assert par["thread_counts"] == [1, 2, 4, 8], f"bad sweep: {par['thread_counts']}"
assert par["sizes"], "at least one size measured"
CHOICES = ("serial", "columnar", "pipeline", "none")
for s in par["sizes"]:
    assert s["ops"], f"no ops at {s['rows']} rows"
    for op in s["ops"]:
        assert op["op"] in OPS, f"unknown op: {op}"
        # Batched timing: a real positive per-op time, never 0.000 ms.
        assert op["serial_ms"] > 0, f"untimed serial op: {op}"
        assert op["serial_rows_per_s"] > 0, f"missing throughput: {op}"
        swept = [e["threads"] for e in op["by_threads"]]
        assert swept == [1, 2, 4, 8], f"{op['op']}: swept {swept}"
        for e in op["by_threads"]:
            assert e["ms"] > 0, f"untimed point: {op['op']} {e}"
            assert e["rows_per_s"] > 0, f"missing throughput: {op['op']} {e}"
            assert e["choice"] in CHOICES, f"bad planner choice: {op['op']} {e}"
            # Every swept op does per-row work some engine must own.
            if e["choice"] == "none":
                fail(
                    f"{op['op']} at {s['rows']} rows x {e['threads']} "
                    f"threads reported no engine choice — every op must "
                    f"record the engine that ran it"
                )

mark = len(failures)
largest = max(par["sizes"], key=lambda s: s["rows"])
for op in largest["ops"]:
    if op["serial_ms"] < 1.0:
        continue  # too fast to time reliably
    one = next(e for e in op["by_threads"] if e["threads"] == 1)
    if one["ms"] > op["serial_ms"] * 1.35:
        fail(
            f"{op['op']} with 1 thread {one['ms']:.2f} ms > serial "
            f"{op['serial_ms']:.2f} ms x1.35 at {largest['rows']} rows"
        )
if len(failures) == mark:
    print(
        f"parallel smoke OK: {len(par['sizes'])} size(s), cores={cores}, "
        f"largest {largest['rows']} rows"
    )

# Fused-pipeline gate: the obligation-shaped deep plan (Filter ->
# Project -> GroupBy) at one thread, fused vs the same columnar engine
# operator-at-a-time (three lone plans over materialized
# intermediates). One thread isolates fusion from parallelism.
deep = par["deep_plan"]
assert deep, "deep-plan section missing"
for d in deep:
    assert d["columnar_ms"] > 0 and d["pipeline_ms"] > 0, f"untimed deep plan: {d}"
    assert d["choice"] in CHOICES, f"bad deep-plan choice: {d}"
gated = next((d for d in deep if d["rows"] == 100_000), None)
assert gated is not None, "deep plan must measure 100k rows"
mark = len(failures)
if gated["choice"] != "pipeline":
    fail(
        f"deep plan at 100k rows ran as '{gated['choice']}', "
        f"not through the fused pipeline"
    )
if gated["speedup"] < 1.3:
    fail(
        f"fused deep plan x{gated['speedup']:.2f} < 1.3 over "
        f"operator-at-a-time columnar at 100k rows / 1 thread "
        f"(columnar {gated['columnar_ms']:.2f} ms, "
        f"pipeline {gated['pipeline_ms']:.2f} ms)"
    )
if len(failures) == mark:
    deep_str = ", ".join(f"{d['rows']} rows x{d['speedup']:.2f}" for d in deep)
    print(f"pipeline smoke OK: deep plan {deep_str}")

# Version-keyed chunk-cache gate: a warm render of an unchanged
# warehouse must actually hit the cache and be measurably faster.
render = par["repeated_render"]
assert render["cold_ms"] > 0 and render["warm_ms"] > 0, f"untimed render: {render}"
mark = len(failures)
if render["warm_hits"] <= 0:
    fail(f"warm render recorded no chunk-cache hits: {render}")
if render["warm_misses"] > 0:
    fail(
        f"warm render of an unchanged warehouse missed the cache "
        f"{render['warm_misses']} time(s): {render}"
    )
if render["speedup"] < 1.3:
    fail(
        f"repeated render speedup {render['speedup']:.2f} < 1.3 at "
        f"{render['rows']} rows (cold {render['cold_ms']:.2f} ms, warm "
        f"{render['warm_ms']:.2f} ms) — the chunk cache is not earning its keep"
    )
if len(failures) == mark:
    print(
        f"chunk-cache smoke OK: warm render x{render['speedup']:.2f} "
        f"({render['warm_hits']} hits / {render['warm_misses']} misses)"
    )

with open(sys.argv[2]) as f:
    col = json.load(f)

assert col["threads"] == 1, "columnar bench must be single-threaded"
assert col["sizes"], "at least one columnar size measured"
for s in col["sizes"]:
    for op in s["ops"]:
        assert op["op"] in ("filter", "join", "aggregate"), f"unknown op: {op}"
        assert op["row_ms"] > 0 and op["columnar_ms"] > 0, f"bad timing: {op}"
        assert op["control_ms"] > 0, f"untimed host-speed control: {op}"

mark = len(failures)
largest = max(col["sizes"], key=lambda s: s["rows"])
gates = {"filter": 1.2, "join": 1.0, "aggregate": 1.0}
for op in largest["ops"]:
    need = gates[op["op"]]
    if op["speedup"] < need:
        fail(
            f"columnar {op['op']} speedup {op['speedup']:.2f} < {need} "
            f"at {largest['rows']} rows (row {op['row_ms']:.2f} ms, "
            f"columnar {op['columnar_ms']:.2f} ms)"
        )
if len(failures) == mark:
    speedups = ", ".join(f"{o['op']} x{o['speedup']:.2f}" for o in largest["ops"])
    print(f"columnar smoke OK: largest {largest['rows']} rows: {speedups}")

# Obs-disabled overhead gate: fresh timings vs the committed baseline,
# each in units of the host-speed control timed right after it. A
# disabled recorder is Option::None all the way down — no atomics, no
# clock reads — so the fresh ratios must sit within measurement noise
# of the committed baseline's at every size both runs measured.
if len(sys.argv) > 3 and sys.argv[3]:
    with open(sys.argv[3]) as f:
        base = json.load(f)
    base_sizes = {s["rows"]: {o["op"]: o for o in s["ops"]} for s in base["sizes"]}
    TOLERANCE = 1.5
    compared = 0
    mark = len(failures)
    for s in col["sizes"]:
        if s["rows"] not in base_sizes:
            continue
        for op in s["ops"]:
            ref = base_sizes[s["rows"]].get(op["op"])
            if ref is None or ref["columnar_ms"] < 1.0:
                continue  # too fast to time reliably
            assert ref.get("control_ms", 0) > 0, f"baseline lacks the control: {ref}"
            compared += 1
            fresh = op["columnar_ms"] / op["control_ms"]
            was = ref["columnar_ms"] / ref["control_ms"]
            if fresh > was * TOLERANCE:
                fail(
                    f"obs-disabled {op['op']} at {s['rows']} rows took "
                    f"{fresh:.1f} controls ({op['columnar_ms']:.2f} ms / "
                    f"{op['control_ms']:.3f} ms) vs baseline {was:.1f} "
                    f"({ref['columnar_ms']:.2f} ms / {ref['control_ms']:.3f} ms, "
                    f"x{TOLERANCE} noise budget) — the observability layer is "
                    f"not free when disabled"
                )
    if not compared:
        print("obs-disabled overhead: no comparable baseline sizes (skipped)")
    elif len(failures) == mark:
        print(
            f"obs-disabled overhead OK: {compared} op timing(s) within "
            f"x{TOLERANCE} of baseline, in host-speed controls"
        )

with open(sys.argv[4]) as f:
    vm = json.load(f)

assert vm["threads"] == 1, "VM bench must be single-threaded"
assert vm["sizes"], "at least one VM size measured"
VM_OPS = ("filter", "obligation", "project")
for s in vm["sizes"]:
    ops = {o["op"] for o in s["ops"]}
    assert ops == set(VM_OPS), f"VM bench ops {ops} at {s['rows']} rows"
    for op in s["ops"]:
        assert op["ast_ms"] > 0 and op["vm_ms"] > 0, f"bad VM timing: {op}"
        if op["columnar_ms"] is not None:
            assert op["columnar_ms"] > 0, f"bad columnar timing: {op}"

largest = max(vm["sizes"], key=lambda s: s["rows"])
assert largest["rows"] >= 100_000, "VM bench must measure >= 100k rows"
# The ISSUE gate: the VM beats the recursive walker by >= 1.5x on the
# filter and project workloads at the largest size, and never loses on
# any workload.
vm_gates = {"filter": 1.5, "obligation": 1.0, "project": 1.5}
mark = len(failures)
for op in largest["ops"]:
    need = vm_gates[op["op"]]
    if op["speedup"] < need:
        fail(
            f"VM {op['op']} speedup {op['speedup']:.2f} < {need} at "
            f"{largest['rows']} rows (ast {op['ast_ms']:.2f} ms, "
            f"vm {op['vm_ms']:.2f} ms)"
        )
if len(failures) == mark:
    speedups = ", ".join(f"{o['op']} x{o['speedup']:.2f}" for o in largest["ops"])
    print(f"vm smoke OK: largest {largest['rows']} rows: {speedups}")

with open(sys.argv[5]) as f:
    batch = json.load(f)

assert batch["requests"] > 0 and batch["profiles"] > 0, f"empty batch bench: {batch}"
assert batch["unshared_ms"] > 0 and batch["shared_cold_ms"] > 0, f"untimed batch: {batch}"
# One render per profile, the rest shared — the scheduler must actually
# collapse the batch, not just not-crash.
mark = len(failures)
if batch["render_shared"] <= 0:
    fail(f"batch delivery recorded no shared renders: {batch}")
if batch["render_unique"] > batch["profiles"]:
    fail(
        f"{batch['render_unique']} unique renders for "
        f"{batch['profiles']} profiles — equivalent requests did not collapse"
    )
if batch["speedup"] < 3.0:
    fail(
        f"shared batch delivery x{batch['speedup']:.2f} < 3.0 over the "
        f"unshared fan-out ({batch['requests']} requests, "
        f"unshared {batch['unshared_ms']:.1f} ms, "
        f"shared {batch['shared_cold_ms']:.1f} ms)"
    )
# Cross-batch render cache: the identical warm batch hits; a
# storage-rebuilding ETL commit re-keys everything (zero hits) and the
# re-render matches the serial oracle.
if batch["warm_cache_hits"] <= 0:
    fail(f"warm batch recorded no render-cache hits: {batch}")
if batch["post_etl_cache_hits"] != 0:
    fail(
        f"{batch['post_etl_cache_hits']} render-cache hit(s) after a "
        f"storage-rebuilding ETL commit — the enforcement key missed an input"
    )
if batch["post_etl_stale"]:
    fail("post-ETL batch diverged from the serial oracle (stale render served)")
if len(failures) == mark:
    print(
        f"batch smoke OK: {batch['requests']} requests / {batch['profiles']} profiles "
        f"x{batch['speedup']:.2f} cold, x{batch['warm_speedup']:.2f} warm "
        f"({batch['warm_cache_hits']} warm hits, 0 post-ETL hits)"
    )

with open(sys.argv[6]) as f:
    wal = json.load(f)

assert wal["deliveries"] > 0, f"empty WAL bench: {wal}"
assert wal["wal_off_ms"] > 0 and wal["wal_on_ms"] > 0, f"untimed WAL bench: {wal}"
assert wal["wal_bytes"] > 0, f"WAL run wrote no bytes: {wal}"
# Durability must be near-free at delivery time: one buffered append +
# flush per journal entry against a full enforce-render-journal cycle.
mark = len(failures)
if wal["overhead"] > 1.15:
    fail(
        f"WAL-on delivery overhead x{wal['overhead']:.3f} > 1.15 "
        f"({wal['deliveries']} deliveries, off {wal['wal_off_ms']:.1f} ms, "
        f"on {wal['wal_on_ms']:.1f} ms)"
    )
# Recovery must replay the complete journal, and fast enough that a
# restart is an operational non-event.
if wal["recover_entries"] != wal["recover_expected"]:
    fail(
        f"recovery replayed {wal['recover_entries']} of "
        f"{wal['recover_expected']} journal entries"
    )
if wal["recover_ms"] > 5000:
    fail(
        f"recovering {wal['recover_entries']} journal entries took "
        f"{wal['recover_ms']:.0f} ms > 5000 ms"
    )
if len(failures) == mark:
    print(
        f"wal smoke OK: {wal['deliveries']} deliveries x{wal['overhead']:.3f} "
        f"overhead, {wal['recover_entries']} entries recovered in "
        f"{wal['recover_ms']:.1f} ms"
    )

if failures:
    sys.exit(
        f"bench smoke FAILED: {len(failures)} gate(s)\n"
        + "\n".join(f"  FAIL: {m}" for m in failures)
    )
print("bench smoke OK: every gate passed")
PY
