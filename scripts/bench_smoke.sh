#!/usr/bin/env bash
# Benchmark smoke: runs `bench_gates`, which times production paths
# only (the fused engine, the VM operators ETL runs, fusion, the chunk
# cache, batch delivery and the WAL), and evaluates every gate on its
# fresh JSON. Every gate is evaluated; the script then exits non-zero
# listing each one that failed. The fresh JSON goes to a temporary
# directory, so a run never rewrites the committed BENCH_gates.json
# baseline; refresh that, when wanted, with
# `cargo run --release -p bi-bench --bin bench_gates -- --out BENCH_gates.json`.
# The gates:
#
#   * speed: every timing, in host-speed controls (its `ratio`: the
#     median over rounds of the round's time divided by the control
#     timed right after it), must stay within TOLERANCE of the same
#     timing's ratio in the baseline. A timing missing from the fresh
#     run or from the baseline fails. TOLERANCE covers the spread of
#     consecutive runs on one host plus drift between sessions;
#   * planner: every timing that executes plans recorded
#     plan.choice.pipeline and no plan.choice.serial;
#   * fusion: the fused deep plan (Filter -> Project -> Aggregate) is
#     >= 1.3x faster than its three operators run as lone plans;
#   * chunk cache: a warm render hits the cache (hits > 0, no misses)
#     and is >= 1.3x faster than the cold render over fresh storage;
#   * batch: a cold deliver_batch is >= 3x faster than the same
#     requests through a deliver loop, with renders actually shared
#     (shared > 0, unique <= profiles); the warm batch hits the render
#     cache; after a storage-rebuilding ETL commit the cache serves
#     nothing and the batch matches serial deliver calls;
#   * WAL: deliveries with the WAL on cost <= 1.15x the same loop with
#     it off, and recover rebuilds exactly the journal that was written,
#     in < 5000 ms.
#
# Usage: scripts/bench_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
FRESH="$OUT_DIR/BENCH_gates.json"

cargo run --release -q -p bi-bench --bin bench_gates -- --out "$FRESH"

python3 - "$FRESH" BENCH_gates.json <<'PY'
import json
import sys

# The largest factor by which a timing's ratio may exceed the
# baseline's. On the 2-vCPU VM the baseline was refreshed on, ten
# consecutive runs read at most x1.33 against it, and 36 earlier runs
# at most x1.44 against one another: the host switches between two
# speeds, which move the control (a sort) by x1.6 but memory-bound
# paths by x1.3 and compute-bound ones by x2.0, so no single control
# cancels them. 1.5, the obs-disabled gate's old budget, covers that
# with little room for drift between sessions.
TOLERANCE = 1.5

failures = []


def fail(msg):
    failures.append(msg)
    print(f"FAIL: {msg}")


with open(sys.argv[1]) as f:
    fresh = json.load(f)
with open(sys.argv[2]) as f:
    base = json.load(f)

timings = {t["name"]: t for t in fresh["timings"]}
baseline = {t["name"]: t for t in base["timings"]}
facts = fresh["facts"]

mark = len(failures)
for name in sorted(set(timings) | set(baseline)):
    if name not in timings:
        fail(f"speed: {name} is in the baseline but was not timed")
        continue
    if name not in baseline:
        fail(f"speed: {name} was timed but has no baseline")
        continue
    now, was = timings[name]["ratio"], baseline[name]["ratio"]
    if not now > 0:
        fail(f"speed: {name} has no positive ratio ({now})")
    elif now > was * TOLERANCE:
        fail(
            f"speed: {name} took {now:.2f} controls "
            f"({timings[name]['ms'][1]:.3f} ms) against the baseline's "
            f"{was:.2f} (x{now / was:.3f} > x{TOLERANCE})"
        )
if len(failures) == mark:
    worst = max(timings, key=lambda n: timings[n]["ratio"] / baseline[n]["ratio"])
    print(
        f"speed OK: {len(timings)} timings within x{TOLERANCE} of the "
        f"baseline, worst {worst} "
        f"x{timings[worst]['ratio'] / baseline[worst]['ratio']:.3f}"
    )

mark = len(failures)
planned = [t for t in fresh["timings"] if "pipeline" in t]
for t in planned:
    if t["pipeline"] <= 0 or t["serial"] != 0:
        fail(
            f"planner: {t['name']} recorded plan.choice.pipeline "
            f"{t['pipeline']} and plan.choice.serial {t['serial']}; the "
            f"fused engine must run it"
        )
if len(failures) == mark:
    print(f"planner OK: {len(planned)} plan timings ran fused")

mark = len(failures)
if facts["fusion.speedup"] < 1.3:
    fail(f"fusion: fused deep plan x{facts['fusion.speedup']:.2f} < 1.3 over lone plans")
if len(failures) == mark:
    print(f"fusion OK: x{facts['fusion.speedup']:.2f} over lone plans")

mark = len(failures)
if facts["cache.warm_hits"] <= 0:
    fail("chunk cache: a warm render recorded no hits")
if facts["cache.warm_misses"] > 0:
    fail(f"chunk cache: a warm render missed {facts['cache.warm_misses']} time(s)")
if facts["cache.speedup"] < 1.3:
    fail(f"chunk cache: warm render x{facts['cache.speedup']:.2f} < 1.3 over cold")
if len(failures) == mark:
    print(
        f"chunk cache OK: warm x{facts['cache.speedup']:.2f} over cold "
        f"({facts['cache.warm_hits']} hits, 0 misses)"
    )

mark = len(failures)
if facts["batch.render_shared"] <= 0:
    fail("batch: no shared renders recorded")
if facts["batch.render_unique"] > facts["batch.profiles"]:
    fail(
        f"batch: {facts['batch.render_unique']} unique renders for "
        f"{facts['batch.profiles']} profiles"
    )
if facts["batch.speedup"] < 3.0:
    fail(f"batch: cold batch x{facts['batch.speedup']:.2f} < 3.0 over the deliver loop")
if facts["batch.warm_cache_hits"] <= 0:
    fail("batch: the warm batch recorded no render-cache hits")
if facts["batch.post_etl_cache_hits"] != 0:
    fail(
        f"batch: {facts['batch.post_etl_cache_hits']} render-cache hit(s) after "
        f"a storage-rebuilding ETL commit; the enforcement key missed an input"
    )
if facts["batch.post_etl_stale"]:
    fail("batch: the post-ETL batch differs from serial deliver calls (stale render)")
if len(failures) == mark:
    print(
        f"batch OK: cold x{facts['batch.speedup']:.2f} over the deliver loop, "
        f"{facts['batch.warm_cache_hits']} warm hits, 0 post-ETL hits"
    )

mark = len(failures)
if facts["wal.overhead"] > 1.15:
    fail(f"WAL: deliveries with the WAL on cost x{facts['wal.overhead']:.3f} > 1.15")
if not facts["wal.recover_exact"]:
    fail(
        f"WAL: recovery rebuilt {facts['wal.recover_entries']} entries that "
        f"differ from the {facts['wal.recover_expected']} journaled"
    )
if facts["wal.recover_ms"] > 5000:
    fail(f"WAL: recovery took {facts['wal.recover_ms']:.0f} ms > 5000 ms")
if len(failures) == mark:
    print(
        f"WAL OK: x{facts['wal.overhead']:.3f} overhead, "
        f"{facts['wal.recover_entries']} entries recovered in "
        f"{facts['wal.recover_ms']:.1f} ms"
    )

if failures:
    sys.exit(
        f"bench smoke FAILED: {len(failures)} gate(s)\n"
        + "\n".join(f"  FAIL: {m}" for m in failures)
    )
print("bench smoke OK: every gate passed")
PY
