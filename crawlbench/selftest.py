#!/usr/bin/env python3
"""Self-tests of the crawl benchmark.

Usage (from the repository root)::

    python3 crawlbench/selftest.py [--seed 1]

Checks, in order:

1. Determinism: two traced runs of one seed, in separate processes,
   report exactly the same per-layer counts.
2. Isolation: a fixed delay injected through the tracer's wrappers into
   ``fetch.politeness``, then ``storage.checkpoint``, raises that layer's
   self time and ``fetch_us`` beyond the benchmark's bound on the
   workload that uses the layer (``polite``, then ``resume``), and leaves
   ``plain``'s ``fetch_us`` within it.

Exits with status 1 when any check fails.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import report
import run

#: Injected delay per call into the layer (calls per crawl differ by two
#: orders of magnitude: ~5k politeness calls, ~25 checkpoint calls).
DELAYS = {"fetch.politeness": 200e-6, "storage.checkpoint": 0.2}
ISOLATION = (("fetch.politeness", "polite"), ("storage.checkpoint", "resume"))
PLAIN_REPEATS = 3


def check(ok: bool, message: str, failures: list) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def check_determinism(seed: int, failures: list) -> None:
    from tracing import DETERMINISTIC_SUFFIXES

    for workload in run.load_manifest()["workloads"]:
        name = workload["name"]
        first, second = (report.run_one(name, seed, 0, 1)["metrics"] for _ in range(2))
        keys = [key for key in first if key.endswith(DETERMINISTIC_SUFFIXES)]
        differing = [
            f"{key}: {first[key]['value']} vs {second[key]['value']}"
            for key in keys if first[key]["value"] != second[key]["value"]
        ]
        check(not differing, f"{name}: {len(keys)} per-layer counts repeat exactly "
              f"across two traced runs {differing}", failures)


def traced_crawl(workload, calibration, delays=None):
    """``(fetch_us, per-layer metrics)`` of one traced crawl."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer(delays)
    with tracer:
        sample = workload.crawl()
    metrics = layer_metrics(tracer, calibration, sample.intervals, sample.fetches,
                            sample.summary.get("failures"))
    return sample.fetch_us, metrics


def check_isolation(seed: int, failures: list) -> None:
    from tracing import calibrate
    from workloads import Workload

    calibration = calibrate()
    bounds = {entry["name"]: entry["bound"] for entry in run.load_manifest()["end_to_end"]}
    bound = bounds["fetch_us"]
    with Workload("plain", seed, run.OUT_DIR) as plain:
        plain.setup_only()
        plain_us = {layer: [] for layer in [None, *DELAYS]}
        for _ in range(PLAIN_REPEATS):
            for layer in plain_us:
                delays = None if layer is None else {layer: DELAYS[layer]}
                plain_us[layer].append(traced_crawl(plain, calibration, delays)[0])
    baseline = statistics.median(plain_us[None])
    for layer, workload_name in ISOLATION:
        with Workload(workload_name, seed, run.OUT_DIR) as workload:
            workload.setup_only()
            base_us, base = traced_crawl(workload, calibration)
            slow_us, slow = traced_crawl(workload, calibration, {layer: DELAYS[layer]})
        key = f"{layer}.self_s"
        check(slow[key] > base[key] * (1 + bound),
              f"{layer} delay raises {key} on {workload_name}: "
              f"{base[key]:.4g} s -> {slow[key]:.4g} s", failures)
        check(slow_us > base_us * (1 + bound),
              f"{layer} delay raises fetch_us on {workload_name} beyond the "
              f"{bound:.0%} bound: {base_us:.4g} -> {slow_us:.4g} us", failures)
        delayed = statistics.median(plain_us[layer])
        check(abs(delayed / baseline - 1) <= bound,
              f"{layer} delay leaves plain fetch_us within the {bound:.0%} bound: "
              f"{baseline:.4g} -> {delayed:.4g} us", failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run.import_program()
    failures: list = []
    check_determinism(args.seed, failures)
    check_isolation(args.seed, failures)
    print(f"{len(failures)} self-test check(s) failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
