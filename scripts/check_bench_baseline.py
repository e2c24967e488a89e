#!/usr/bin/env python3
"""Validate a BENCH_*.json baseline emitted by bench/ drivers.

Usage: check_bench_baseline.py BENCH_baseline.json [more.json ...]

Checks (stdlib only, no third-party deps):
  * the file is well-formed JSON with the EmitBenchJson shape
    ({"bench", "scale", "headline", "metrics"}, plus the optional "machine"
    capability stamp — see bench/bench_common.h and docs/OBSERVABILITY.md);
  * the embedded registry snapshot has the "counters"/"gauges"/"histograms"
    sections;
  * every histogram satisfies count == sum(bucket counts) — the exporter's
    consistency guarantee;
  * for the canonical baseline (bench == "baseline", from fig9), the AOSI
    health metrics the paper's analysis depends on are present;
  * for the morsel-parallel sweep (bench == "fig9_parallel"), the 4-thread
    speedup clears its floor — asserted only when the machine stamp shows
    an uninstrumented build on a box with >= 4 cores (a 1-core container
    reports ~1.0x by construction, and sanitizers distort the ratio);
  * for the online-checker sweep (bench == "fig9_online_check"), the
    checker-on overhead stays <= 5% and the checker actually sampled;
  * for the purge-pause sweep (bench == "fig9_purge_pause"), purge actually
    ran and was timed, and the headline carries the concurrent pause
    p50/p99 and the live scans' p99;
  * for the SIMD kernel sweep (bench == "fig9_simd"), the SIMD fold is
    >= 1.3x faster than the scalar backend — asserted only when the stamp
    shows >= 2 cores, no sanitizer, AND a non-scalar simd_backend (a runner
    without AVX2/NEON resolves to scalar and reports ~1.0x by construction;
    it skips with a printed reason, never silently passes);
  * for the ingest pipeline sweep (bench == "fig5_ingest", from fig5), the
    morsel-parallel parse instruments (ingest.parse_us, dictionary
    snapshot hit/miss counters, group-append coalescing counter) are
    present, dictionary snapshot lookups actually hit, and the 4-way parse
    speedup clears its floor — asserted under the same machine-capability
    gate as fig9_parallel (>= 4 cores, uninstrumented build).

Exit codes: 0 ok, 1 validation failure, 2 usage/IO error.
"""

import json
import sys

REQUIRED_BASELINE_METRICS = [
    ("gauges", "aosi.ec_lce_lag"),
    ("gauges", "aosi.lce_lse_lag"),
    ("gauges", "aosi.pending_txs"),
    ("counters", "aosi.purge.records_reclaimed"),
]

# The cache sweep (bench == "fig9_cache") must prove the cache actually ran:
# hit/miss counters and the word-wise kernel instruments have to be present.
REQUIRED_CACHE_METRICS = [
    ("counters", "query.vis_cache_hits"),
    ("counters", "query.vis_cache_misses"),
    ("counters", "query.kernel_words_scanned"),
    ("histograms", "query.kernel_dense_words_permille"),
]

# The online-checker sweep (bench == "fig9_online_check") must prove the
# checker was live during the checker-on half: sampled transactions,
# observations and validated records all have to be present and non-zero
# (asserted below, not just listed here).
REQUIRED_ONLINE_METRICS = [
    ("counters", "check.online.sampled_txns"),
    ("counters", "check.online.observations"),
    ("counters", "check.online.validated"),
    ("counters", "check.online.violations"),
]

# Multi-thread scaling floor for fig9_parallel, asserted only on capable
# machines (see skip logic below).
MIN_SPEEDUP_4T = 1.1
MIN_SCALING_CORES = 4

# The purge-pause sweep (bench == "fig9_purge_pause") must prove purge
# actually ran and was timed.
REQUIRED_PURGE_METRICS = [
    ("histograms", "aosi.purge.pause_us"),
    ("histograms", "aosi.purge.round_us"),
    ("counters", "aosi.purge.rounds_total"),
]

# Ceiling for the online checker's query-latency overhead (ISSUE: the
# checker must ride the epoch metadata "near-free").
MAX_ONLINE_OVERHEAD_PCT = 5.0

# The SIMD sweep (bench == "fig9_simd") must prove the vector kernels
# actually ran: the dispatch counters have to be present, and
# query.kernel_simd_words must be non-zero whenever the stamp says a
# non-scalar backend was active.
REQUIRED_SIMD_METRICS = [
    ("counters", "query.kernel_simd_words"),
    ("counters", "query.kernel_simd_fallback"),
    ("counters", "query.kernel_words_dense"),
]

# SIMD speedup floor for fig9_simd, asserted only on capable machines
# (>= MIN_SIMD_CORES cores, uninstrumented, non-scalar backend resolved).
MIN_SIMD_SPEEDUP = 1.3
MIN_SIMD_CORES = 2

# The ingest pipeline sweep (bench == "fig5_ingest") must prove the
# morsel-parallel path actually ran end to end: the parse/flush timers, the
# two-phase dictionary counters and the shard group-append coalescing
# counter all have to be present (the sweep's string-heavy workload makes
# every one of them fire).
REQUIRED_INGEST_METRICS = [
    ("histograms", "ingest.parse_us"),
    ("histograms", "ingest.flush_us"),
    ("counters", "ingest.records_accepted"),
    ("counters", "ingest.dict_snapshot_hits"),
    ("counters", "ingest.dict_batch_misses"),
    ("counters", "ingest.group_appends"),
]

# 4-way parse speedup floor for fig5_ingest, asserted only on capable
# machines (same gate as fig9_parallel: cores to fan out onto and no
# sanitizer slowing one arm more than the other).
MIN_INGEST_SPEEDUP = 1.8
MIN_INGEST_CORES = 4


def fail(path, msg):
    print(f"check_bench_baseline: {path}: {msg}", file=sys.stderr)
    return 1


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_baseline: {path}: {e}", file=sys.stderr)
        return 2

    for key in ("bench", "scale", "headline", "metrics"):
        if key not in doc:
            return fail(path, f'missing top-level key "{key}"')
    if not isinstance(doc["headline"], dict) or not doc["headline"]:
        return fail(path, "headline must be a non-empty object")
    for k, v in doc["headline"].items():
        if not isinstance(v, (int, float)):
            return fail(path, f'headline "{k}" is not a number')

    metrics = doc["metrics"]
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            return fail(path, f'metrics missing "{section}" section')

    # Machine-capability stamp (bench_common.h): optional for backward
    # compatibility with pre-stamp baselines, validated when present.
    machine = doc.get("machine")
    if machine is not None:
        if not isinstance(machine, dict):
            return fail(path, '"machine" must be an object')
        if not isinstance(machine.get("cores"), int) or machine["cores"] < 0:
            return fail(path, 'machine "cores" must be a non-negative integer')
        if machine.get("sanitizer") not in ("none", "thread", "address"):
            return fail(
                path, 'machine "sanitizer" must be "none", "thread" or "address"'
            )
        # simd_backend is optional (pre-SIMD baselines predate it) but must
        # name a real backend when present.
        if "simd_backend" in machine and machine["simd_backend"] not in (
            "scalar",
            "avx2",
            "neon",
        ):
            return fail(
                path, 'machine "simd_backend" must be "scalar", "avx2" or "neon"'
            )

    for name, hist in metrics["histograms"].items():
        bucket_sum = sum(count for _, count in hist.get("buckets", []))
        if hist.get("count") != bucket_sum:
            return fail(
                path,
                f'histogram "{name}": count {hist.get("count")} != '
                f"sum(buckets) {bucket_sum}",
            )

    if doc["bench"] == "baseline":
        for section, name in REQUIRED_BASELINE_METRICS:
            if name not in metrics[section]:
                return fail(path, f'required metric "{name}" missing from {section}')

    if doc["bench"] == "fig9_cache":
        for section, name in REQUIRED_CACHE_METRICS:
            if name not in metrics[section]:
                return fail(path, f'required metric "{name}" missing from {section}')
        hits = metrics["counters"].get("query.vis_cache_hits", 0)
        if hits <= 0:
            return fail(path, "cache sweep recorded zero query.vis_cache_hits")

    if doc["bench"] == "fig9_parallel":
        speedup = doc["headline"].get("speedup_4t")
        if speedup is None:
            return fail(path, 'fig9_parallel headline missing "speedup_4t"')
        # Scaling assertions need the cores to scale onto and an
        # uninstrumented build; otherwise the number is measured and
        # recorded but not judged. Without a machine stamp we cannot tell,
        # so we also skip (old baselines predate the stamp).
        capable = (
            machine is not None
            and machine["cores"] >= MIN_SCALING_CORES
            and machine["sanitizer"] == "none"
        )
        if capable:
            if speedup < MIN_SPEEDUP_4T:
                return fail(
                    path,
                    f"4-thread speedup {speedup:.2f}x below the "
                    f"{MIN_SPEEDUP_4T}x floor on a "
                    f'{machine["cores"]}-core machine',
                )
        else:
            why = (
                "no machine stamp"
                if machine is None
                else f'{machine["cores"]} cores, sanitizer "{machine["sanitizer"]}"'
            )
            print(f"{path}: scaling assertion skipped ({why})")

    if doc["bench"] == "fig9_online_check":
        for section, name in REQUIRED_ONLINE_METRICS:
            if name not in metrics[section]:
                return fail(path, f'required metric "{name}" missing from {section}')
        for name in (
            "check.online.sampled_txns",
            "check.online.observations",
            "check.online.validated",
        ):
            if metrics["counters"].get(name, 0) <= 0:
                return fail(path, f'online sweep recorded zero "{name}"')
        if metrics["counters"].get("check.online.violations", 0) > 0:
            return fail(path, "online checker reported violations during the sweep")
        overhead = doc["headline"].get("overhead_pct")
        if overhead is None:
            return fail(path, 'fig9_online_check headline missing "overhead_pct"')
        if overhead > MAX_ONLINE_OVERHEAD_PCT:
            return fail(
                path,
                f"online-checker overhead {overhead:.2f}% exceeds the "
                f"{MAX_ONLINE_OVERHEAD_PCT}% ceiling",
            )

    if doc["bench"] == "fig9_purge_pause":
        for section, name in REQUIRED_PURGE_METRICS:
            if name not in metrics[section]:
                return fail(path, f'required metric "{name}" missing from {section}')
        if metrics["counters"].get("aosi.purge.rounds_total", 0) <= 0:
            return fail(path, "purge sweep recorded zero aosi.purge.rounds_total")
        for key in (
            "concurrent_pause_p50_us",
            "concurrent_pause_p99_us",
            "concurrent_scan_p99_us",
        ):
            if key not in doc["headline"]:
                return fail(path, f'fig9_purge_pause headline missing "{key}"')

    if doc["bench"] == "fig9_simd":
        for section, name in REQUIRED_SIMD_METRICS:
            if name not in metrics[section]:
                return fail(path, f'required metric "{name}" missing from {section}')
        for key in ("scalar_p50_us", "simd_p50_us", "simd_speedup"):
            if key not in doc["headline"]:
                return fail(path, f'fig9_simd headline missing "{key}"')
        backend = machine.get("simd_backend") if machine is not None else None
        if backend is not None and backend != "scalar":
            if metrics["counters"].get("query.kernel_simd_words", 0) <= 0:
                return fail(
                    path,
                    f'simd_backend "{backend}" active but '
                    "query.kernel_simd_words is zero — the vector kernels "
                    "never ran",
                )
        capable = (
            machine is not None
            and machine["cores"] >= MIN_SIMD_CORES
            and machine["sanitizer"] == "none"
            and backend is not None
            and backend != "scalar"
        )
        if capable:
            speedup = doc["headline"]["simd_speedup"]
            if speedup < MIN_SIMD_SPEEDUP:
                return fail(
                    path,
                    f"SIMD fold speedup {speedup:.2f}x below the "
                    f"{MIN_SIMD_SPEEDUP}x floor with backend "
                    f'"{backend}" on a {machine["cores"]}-core machine',
                )
        else:
            if machine is None:
                why = "no machine stamp"
            elif backend is None:
                why = "no simd_backend stamp"
            elif backend == "scalar":
                why = "backend resolved to scalar (no AVX2/NEON on this CPU)"
            else:
                why = (
                    f'{machine["cores"]} cores, sanitizer '
                    f'"{machine["sanitizer"]}"'
                )
            print(f"{path}: SIMD speedup assertion skipped ({why})")

    if doc["bench"] == "fig5_ingest":
        for section, name in REQUIRED_INGEST_METRICS:
            if name not in metrics[section]:
                return fail(path, f'required metric "{name}" missing from {section}')
        if metrics["counters"].get("ingest.dict_snapshot_hits", 0) <= 0:
            return fail(
                path,
                "ingest sweep recorded zero ingest.dict_snapshot_hits — the "
                "lock-free dictionary fast path never ran",
            )
        for key in (
            "serial_parse_p50_us",
            "parallel_parse_p50_us",
            "parse_speedup_4t",
            "sequential_flush_us",
            "pipelined_flush_us",
        ):
            if key not in doc["headline"]:
                return fail(path, f'fig5_ingest headline missing "{key}"')
        capable = (
            machine is not None
            and machine["cores"] >= MIN_INGEST_CORES
            and machine["sanitizer"] == "none"
        )
        if capable:
            speedup = doc["headline"]["parse_speedup_4t"]
            if speedup < MIN_INGEST_SPEEDUP:
                return fail(
                    path,
                    f"4-way parse speedup {speedup:.2f}x below the "
                    f"{MIN_INGEST_SPEEDUP}x floor on a "
                    f'{machine["cores"]}-core machine',
                )
        else:
            why = (
                "no machine stamp"
                if machine is None
                else f'{machine["cores"]} cores, sanitizer "{machine["sanitizer"]}"'
            )
            print(f"{path}: ingest parse-speedup assertion skipped ({why})")

    n_metrics = sum(len(metrics[s]) for s in ("counters", "gauges", "histograms"))
    print(
        f'{path}: ok (bench "{doc["bench"]}", scale {doc["scale"]}, '
        f"{len(doc['headline'])} headline values, {n_metrics} metrics)"
    )
    return 0


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    rc = 0
    for path in argv[1:]:
        rc = max(rc, check_file(path))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
