#!/usr/bin/env python3
"""Validate BENCH_*.json perf-baseline files before CI archives them.

Four accepted formats:

* tdam kernel-bench format (bench/bench_kernels.cpp): a top-level object
  with ``bench``, ``active_path``, ``host`` and a ``results`` array whose
  entries each carry ``kernel``, ``path``, ``shape`` (bits/levels/digits/
  rows/queries) and ``ns_per_op``.
* tdam runtime-throughput format (bench/bench_runtime_throughput.cpp
  ``--open-loop --ol-out=...``): ``bench`` == ``runtime_throughput`` with
  ``mode``, ``backend``, a ``config`` object, and a ``results`` array of
  per-target rows (``target_qps``, ``achieved_qps``, ``p50_ms``,
  ``p99_ms``, ``shed_rate``, and ok/rejected/shed/expired counts).
* tdam net-loadgen format (bench/loadgen.cpp): ``bench`` == ``net_loadgen``
  with a ``config`` object (connections/vectors/shards/threads/queries/k/
  deadline_us) and a ``results`` array of per-target over-the-wire rows
  (``target_qps``, ``achieved_qps``, ``p50_ms``, ``p99_ms``, per-wire-code
  client quantiles, server-side stage quantiles from a v3 STATS probe, and
  ok/rejected/shed/expired/protocol_error counts summing to the offered
  query count).
* tdam runtime-ingest format (bench/loadgen.cpp ``--store-qps=N``):
  ``bench`` == ``runtime_ingest`` with the net-loadgen config plus
  ``store_qps``/``store_batch`` and per-target rows carrying mixed-mode
  read latencies, the read-only baseline, write latencies, the achieved
  ingest rate, and segment/compaction counters.
* google-benchmark ``--benchmark_out`` format: an object with a
  ``benchmarks`` array whose entries carry ``name`` and a time field.

Exit code is non-zero on a malformed file, so the bench-smoke job fails
when a harness silently stops emitting valid numbers.

``--min-avx2-speedup X`` additionally enforces the repo's vectorization
gate on kernel-bench files: at the pinned 2-bit / 8192-digit shape the
best vectorized path must be at least ``X`` times faster than scalar —
but only when the producing host reported AVX2 support; elsewhere the
ratio is printed report-only.  The same flag arms the AVX-512 gate: on a
host reporting ``avx512`` the 512-bit path must not lose to AVX2 at the
pinned shape, and the shape must carry avx512 rows at all (a supporting
host whose avx512 rows vanished is a silent dispatch regression).

``--require-kernel NAME`` (repeatable) demands that at least one
kernel-bench result row carries that kernel, and ``--require-backend
NAME`` (repeatable) demands that at least one runtime-throughput file was
produced by that backend — so the bench-smoke job fails when the dot
shape or the cosine serving slice silently drops out of the run.
"""

import argparse
import json
import sys

SHAPE_KEYS = {"bits", "levels", "digits", "rows", "queries"}

# The Layer-0.5 batch kernels bench_kernels knows how to time.  A row with
# any other name means the bench and this validator have drifted apart.
KNOWN_KERNELS = {"mismatch", "l1", "dot"}


def fail(msg: str) -> None:
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_kernel_result(i: int, r: object) -> None:
    if not isinstance(r, dict):
        fail(f"results[{i}] is not an object")
    for key in ("kernel", "path", "shape", "ns_per_op"):
        if key not in r:
            fail(f"results[{i}] missing key '{key}'")
    if not isinstance(r["kernel"], str) or not r["kernel"]:
        fail(f"results[{i}].kernel is not a non-empty string")
    if r["kernel"] not in KNOWN_KERNELS:
        fail(f"results[{i}].kernel '{r['kernel']}' is not one of "
             f"{sorted(KNOWN_KERNELS)}")
    if not isinstance(r["path"], str) or not r["path"]:
        fail(f"results[{i}].path is not a non-empty string")
    shape = r["shape"]
    if not isinstance(shape, dict) or not SHAPE_KEYS.issubset(shape):
        fail(f"results[{i}].shape missing keys {sorted(SHAPE_KEYS - set(shape))}"
             if isinstance(shape, dict) else f"results[{i}].shape not an object")
    for key in SHAPE_KEYS:
        if not isinstance(shape[key], int) or shape[key] < 1:
            fail(f"results[{i}].shape.{key} is not a positive integer")
    ns = r["ns_per_op"]
    if not isinstance(ns, (int, float)) or ns <= 0:
        fail(f"results[{i}].ns_per_op is not a positive number")


def check_kernel_bench(doc: dict, min_avx2_speedup: float | None) -> int:
    for key in ("bench", "active_path", "host", "results"):
        if key not in doc:
            fail(f"kernel-bench file missing key '{key}'")
    host = doc["host"]
    host_keys = {"sse42", "avx2", "avx512", "avx512_vpopcntdq"}
    if not isinstance(host, dict) or not host_keys.issubset(host):
        fail(f"host must be an object with booleans {sorted(host_keys)}")
    for key in host_keys:
        if not isinstance(host[key], bool):
            fail(f"host.{key} is not a boolean")
    if host["avx512_vpopcntdq"] and not host["avx512"]:
        fail("host reports avx512_vpopcntdq without avx512")
    results = doc["results"]
    if not isinstance(results, list) or not results:
        fail("results must be a non-empty array")
    for i, r in enumerate(results):
        check_kernel_result(i, r)

    # The vectorization gate reads the pinned acceptance shape.
    gate = [r for r in results
            if r["kernel"] == "mismatch" and r["shape"]["bits"] == 2
            and r["shape"]["digits"] == 8192]
    scalar = [r for r in gate if r["path"] == "scalar"]
    vector = [r for r in gate if r["path"] != "scalar"]
    if scalar and vector:
        scalar_ns = min(r["ns_per_op"] for r in scalar)
        best = min(vector, key=lambda r: r["ns_per_op"])
        speedup = scalar_ns / best["ns_per_op"]
        enforced = min_avx2_speedup is not None and host["avx2"]
        print(f"check_bench_json: mismatch @ 2-bit/8192-digit: best vectorized "
              f"path '{best['path']}' is {speedup:.2f}x scalar"
              + ("" if enforced else " (report-only)"))
        if enforced and speedup < min_avx2_speedup:
            fail(f"vectorized speedup {speedup:.2f}x is below the required "
                 f"{min_avx2_speedup:.2f}x on an AVX2 host")
    elif min_avx2_speedup is not None:
        print("check_bench_json: pinned gate shape not present (quick/partial "
              "run without scalar+vector rows) — speedup gate skipped")

    # On an AVX-512 host the 512-bit path must not lose to AVX2 at the same
    # pinned shape (report-only off the gate, same as the scalar ratio).
    avx2 = [r for r in gate if r["path"] == "avx2"]
    avx512 = [r for r in gate if r["path"] == "avx512"]
    if avx2 and avx512:
        ratio = (min(r["ns_per_op"] for r in avx2)
                 / min(r["ns_per_op"] for r in avx512))
        enforced = min_avx2_speedup is not None and host["avx512"]
        print(f"check_bench_json: mismatch @ 2-bit/8192-digit: avx512 is "
              f"{ratio:.2f}x avx2" + ("" if enforced else " (report-only)"))
        if enforced and ratio < 1.0:
            fail(f"avx512 path is {ratio:.2f}x avx2 at the pinned shape — "
                 f"the 512-bit path must not regress below AVX2")
    elif host.get("avx512"):
        fail("host reports avx512 support but the gate shape has no avx512 "
             "rows — the path silently dropped out of the run")
    return len(results)


RUNTIME_COUNT_KEYS = ("ok", "rejected", "shed", "expired")
RUNTIME_RATE_KEYS = ("target_qps", "achieved_qps", "p50_ms", "p99_ms",
                     "shed_rate")
RUNTIME_CONFIG_KEYS = {"vectors", "shards", "threads", "queries", "batch",
                       "deadline_us", "queue_capacity", "policy"}


def check_runtime_throughput(doc: dict) -> int:
    for key in ("mode", "backend", "config", "results"):
        if key not in doc:
            fail(f"runtime-throughput file missing key '{key}'")
    if not isinstance(doc["backend"], str) or not doc["backend"]:
        fail("backend is not a non-empty string")
    config = doc["config"]
    if not isinstance(config, dict) or not RUNTIME_CONFIG_KEYS.issubset(config):
        fail(f"config missing keys {sorted(RUNTIME_CONFIG_KEYS - set(config))}"
             if isinstance(config, dict) else "config is not an object")
    results = doc["results"]
    if not isinstance(results, list) or not results:
        fail("results must be a non-empty array")
    for i, r in enumerate(results):
        if not isinstance(r, dict):
            fail(f"results[{i}] is not an object")
        for key in RUNTIME_RATE_KEYS:
            if not isinstance(r.get(key), (int, float)):
                fail(f"results[{i}].{key} is not a number")
        if not 0.0 <= r["shed_rate"] <= 1.0:
            fail(f"results[{i}].shed_rate {r['shed_rate']} outside [0, 1]")
        for key in RUNTIME_COUNT_KEYS:
            if not isinstance(r.get(key), int) or r[key] < 0:
                fail(f"results[{i}].{key} is not a non-negative integer")
        answered = sum(r[k] for k in RUNTIME_COUNT_KEYS)
        if answered != config["queries"]:
            fail(f"results[{i}] status counts sum to {answered}, "
                 f"config says {config['queries']} queries were offered")
    return len(results)


NET_COUNT_KEYS = ("ok", "rejected", "shed", "expired", "protocol_error")
# Per-code client-side quantiles (zero when no reply of that class arrived)
# and cumulative server-side stage quantiles sampled via a v3 STATS probe
# after the sweep point — loadgen emits all of them on every row.
NET_RATE_KEYS = ("target_qps", "achieved_qps", "p50_ms", "p99_ms",
                 "ok_p50_ms", "ok_p99_ms", "rejected_p50_ms", "rejected_p99_ms",
                 "shed_p50_ms", "shed_p99_ms", "expired_p50_ms",
                 "expired_p99_ms", "server_queue_wait_p50_ms",
                 "server_queue_wait_p99_ms", "server_batch_wait_p50_ms",
                 "server_batch_wait_p99_ms", "server_scan_p50_ms",
                 "server_scan_p99_ms", "server_merge_p50_ms",
                 "server_merge_p99_ms")
NET_CONFIG_KEYS = {"connections", "vectors", "shards", "threads", "queries",
                   "k", "deadline_us"}


def check_net_loadgen(doc: dict) -> int:
    if "config" not in doc or "results" not in doc:
        fail("net-loadgen file missing 'config' or 'results'")
    config = doc["config"]
    if not isinstance(config, dict) or not NET_CONFIG_KEYS.issubset(config):
        fail(f"config missing keys {sorted(NET_CONFIG_KEYS - set(config))}"
             if isinstance(config, dict) else "config is not an object")
    for key in NET_CONFIG_KEYS:
        if not isinstance(config[key], int) or config[key] < 0:
            fail(f"config.{key} is not a non-negative integer")
    results = doc["results"]
    if not isinstance(results, list) or not results:
        fail("results must be a non-empty array")
    for i, r in enumerate(results):
        if not isinstance(r, dict):
            fail(f"results[{i}] is not an object")
        for key in NET_RATE_KEYS:
            if not isinstance(r.get(key), (int, float)) or r[key] < 0:
                fail(f"results[{i}].{key} is not a non-negative number")
        for key in NET_COUNT_KEYS:
            if not isinstance(r.get(key), int) or r[key] < 0:
                fail(f"results[{i}].{key} is not a non-negative integer")
        replied = sum(r[k] for k in NET_COUNT_KEYS)
        if replied != config["queries"]:
            fail(f"results[{i}] reply counts sum to {replied}, "
                 f"config says {config['queries']} queries were offered")
    return len(results)


INGEST_RATE_KEYS = ("target_qps", "achieved_qps", "read_p50_ms", "read_p99_ms",
                    "baseline_p50_ms", "baseline_p99_ms", "write_p50_ms",
                    "write_p99_ms", "rows_per_s")
INGEST_COUNT_KEYS = ("rows_written", "segments", "delta_rows", "compactions",
                     "ok", "rejected", "shed", "expired", "protocol_error")


def check_runtime_ingest(doc: dict) -> int:
    if "config" not in doc or "results" not in doc:
        fail("runtime-ingest file missing 'config' or 'results'")
    config = doc["config"]
    wanted = NET_CONFIG_KEYS | {"store_batch"}
    if not isinstance(config, dict) or not wanted.issubset(config):
        fail(f"config missing keys {sorted(wanted - set(config))}"
             if isinstance(config, dict) else "config is not an object")
    for key in wanted:
        if not isinstance(config[key], int) or config[key] < 0:
            fail(f"config.{key} is not a non-negative integer")
    if not isinstance(config.get("store_qps"), (int, float)) \
            or config["store_qps"] <= 0:
        fail("config.store_qps is not a positive number")
    results = doc["results"]
    if not isinstance(results, list) or not results:
        fail("results must be a non-empty array")
    for i, r in enumerate(results):
        if not isinstance(r, dict):
            fail(f"results[{i}] is not an object")
        for key in INGEST_RATE_KEYS:
            if not isinstance(r.get(key), (int, float)) or r[key] < 0:
                fail(f"results[{i}].{key} is not a non-negative number")
        for key in INGEST_COUNT_KEYS:
            if not isinstance(r.get(key), int) or r[key] < 0:
                fail(f"results[{i}].{key} is not a non-negative integer")
        replied = sum(r[k] for k in NET_COUNT_KEYS)
        if replied != config["queries"]:
            fail(f"results[{i}] reply counts sum to {replied}, "
                 f"config says {config['queries']} queries were offered")
        if r["rows_written"] == 0:
            fail(f"results[{i}] wrote no rows — the STORE_BATCH writer "
                 f"never landed a frame")
    return len(results)


def check_google_benchmark(doc: dict) -> int:
    benchmarks = doc["benchmarks"]
    if not isinstance(benchmarks, list) or not benchmarks:
        fail("'benchmarks' must be a non-empty array")
    for i, b in enumerate(benchmarks):
        if not isinstance(b, dict) or "name" not in b:
            fail(f"benchmarks[{i}] missing 'name'")
        if not any(k in b for k in ("real_time", "cpu_time")):
            fail(f"benchmarks[{i}] ('{b['name']}') has no time field")
    return len(benchmarks)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="+", help="BENCH_*.json files to validate")
    ap.add_argument("--min-avx2-speedup", type=float, default=None,
                    help="required vectorized/scalar ratio at the pinned "
                         "2-bit/8192-digit mismatch shape (AVX2 hosts only)")
    ap.add_argument("--require-kernel", action="append", default=[],
                    metavar="NAME",
                    help="fail unless a kernel-bench result row carries this "
                         "kernel (repeatable)")
    ap.add_argument("--require-backend", action="append", default=[],
                    metavar="NAME",
                    help="fail unless a runtime-throughput file was produced "
                         "by this backend (repeatable)")
    args = ap.parse_args()

    seen_kernels: set[str] = set()
    seen_backends: set[str] = set()
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"{path}: {e}")
        if not isinstance(doc, dict):
            fail(f"{path}: top level is not an object")
        if "benchmarks" in doc:
            n = check_google_benchmark(doc)
            kind = "google-benchmark"
        elif doc.get("bench") == "runtime_throughput":
            n = check_runtime_throughput(doc)
            kind = "runtime-throughput"
            seen_backends.add(doc["backend"])
        elif doc.get("bench") == "net_loadgen":
            n = check_net_loadgen(doc)
            kind = "net-loadgen"
        elif doc.get("bench") == "runtime_ingest":
            n = check_runtime_ingest(doc)
            kind = "runtime-ingest"
        else:
            n = check_kernel_bench(doc, args.min_avx2_speedup)
            kind = "kernel-bench"
            seen_kernels.update(r["kernel"] for r in doc["results"])
        print(f"check_bench_json: OK: {path} ({kind}, {n} entries)")

    for kernel in args.require_kernel:
        if kernel not in seen_kernels:
            fail(f"required kernel '{kernel}' has no result rows "
                 f"(saw {sorted(seen_kernels)})")
    for backend in args.require_backend:
        if backend not in seen_backends:
            fail(f"required backend '{backend}' produced no runtime file "
                 f"(saw {sorted(seen_backends)})")


if __name__ == "__main__":
    main()
