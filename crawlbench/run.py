#!/usr/bin/env python3
"""Crawl benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 crawlbench/run.py --workload plain --seed 1 --seconds 24 --trace 0

The run generates the workload's web from ``--seed``, times crawls of it
one after another (a closed loop in this one process, no workers) for
``--seconds`` seconds, checks every crawl's result digest against the
reference engine's, and prints each metric as ``name = value unit``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``, as
BENCHMARK.json names them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Where runs leave their spans and temporary stores (git-ignored).
OUT_DIR = ".crawlbench"

#: The benchmark's definition: workloads, run length, metric names, units
#: and bounds. The run reports exactly the metrics it names.
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: Crawls per set-up in an untraced run; the crawls in between reuse the
#: last web, which crawling does not change (every digest is checked).
SETUP_EVERY = 4


def load_manifest() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Exits with a non-zero status, printing no result, when the sources are
    missing or ``repro`` would come from anywhere else.
    """
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        import repro
    except ImportError as error:
        sys.exit(f"crawlbench: cannot import repro from {src}: {error}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"crawlbench: repro was imported from {repro.__file__}, not {src}")


def _median(values):
    return float(statistics.median(values))


def _crawl_or_none(workload, failures):
    try:
        return workload.crawl()
    except Exception:
        traceback.print_exc()
        failures.append("exception")
        return None


def _check(samples, workload, failures):
    """Count each crawl whose digest differs from the reference engine's."""
    try:
        expected = workload.reference_digest()
    except Exception:
        traceback.print_exc()
        failures.extend("reference exception" for _ in samples)
        return
    for sample in samples:
        if sample.digest != expected:
            failures.append("digest mismatch")


def _timed_loop(seconds: float, step) -> int:
    """Call ``step()`` until the next call would end after ``seconds``.

    Runs at least twice; returns the number of calls.
    """
    started = time.perf_counter()
    calls = 0
    last = 0.0
    while calls < 2 or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        step()
        last = time.perf_counter() - begun
        calls += 1
    return calls


def measure(name: str, seed: int, seconds: float):
    """End-to-end metrics of ``seconds`` of crawls (tracing off).

    A set-up (a fresh web of the same seed) comes before every
    :data:`SETUP_EVERY`-th crawl, so set-up samples spread over the whole
    run while most of its time goes to crawls; one extra set-up first
    warms the process. A speed reading (:mod:`speed`) comes before the
    first phase and after every phase, and each timing is scaled to the
    reference speed by the two readings around its phase.
    """
    import speed
    from workloads import Workload

    failures = []
    readings = [speed.sample()]

    def timed(phase):
        """``(phase(), scale)``, the scale from the readings around it."""
        value = phase()
        readings.append(speed.sample())
        return value, speed.scale(readings[-2], readings[-1])

    samples = []
    with Workload(name, seed, OUT_DIR) as workload:
        setups = [timed(workload.setup_only)]

        peak_rss_kb = []

        steps = []

        def step():
            if len(steps) % SETUP_EVERY == 0:
                setups.append(timed(workload.setup_only))
            steps.append(None)
            sample, factor = timed(lambda: _crawl_or_none(workload, failures))
            if sample is not None:
                samples.append((sample, factor))
            if not peak_rss_kb:
                # Read after a fixed amount of work, so the number does not
                # depend on how many crawls fit the run's time.
                peak_rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

        attempted = _timed_loop(seconds, step)
        _check([sample for sample, _ in samples], workload, failures)
    if not samples:
        sys.exit("crawlbench: every crawl raised")
    fetches = sum(s.fetches for s, _ in samples)
    # The median crawl's windows: every crawl of a run does the same work
    # window by window, so each window's median over the crawls is steadier
    # than any one crawl's, or than a median pooled over windows as unlike
    # as a ranking day and a quiet one.
    typical = [_median(same) for same in zip(*([w * f for w in s.windows_ms] for s, f in samples))]
    metrics = {
        # All crawl time over all fetches: a ratio of totals weighs every
        # second of the run alike.
        "fetch_us": sum(s.crawl_s * f for s, f in samples) / fetches * 1e6,
        "setup_s": _median([t * f for t, f in setups]),
        "peak_rss_mb": peak_rss_kb[0] / 1024.0,
        "window_ms_p50": _median(typical),
        "window_ms_max": max(typical),
    }
    extras = {
        "failed_frac": (len(failures) / attempted, "fraction"),
        "wall_fetch_us": (sum(s.crawl_s for s, _ in samples) / fetches * 1e6, "us"),
        "wall_setup_s": (_median([t for t, _ in setups]), "s"),
        "speed_factor": (_median([speed.REFERENCE_S / r for r in readings]), "x"),
    }
    if name == "resume":
        extras["resume_s"] = (_median([s.resume_s * f for s, f in samples]), "s")
    print(f"# {name} seed={seed}: {len(samples)} crawls, {len(setups)} set-ups, "
          f"{samples[0][0].fetches} fetches per crawl")
    return metrics, extras, attempted, len(failures)


def measure_traced(name: str, seed: int, seconds: float):
    """Per-layer metrics: traced crawls alternating with untraced ones."""
    from tracing import DETERMINISTIC_SUFFIXES, Tracer, calibrate, layer_metrics
    from workloads import Workload

    calibration = calibrate()
    failures = []
    plain, traced = [], []
    per_crawl = []
    tracers = []
    overheads = []
    os.makedirs(OUT_DIR, exist_ok=True)
    with Workload(name, seed, OUT_DIR) as workload:
        workload.setup_only()

        def step():
            # Set-up runs inside the traced pair too, so that the simweb
            # layer's web generation is recorded.
            workload.setup_only()
            untraced = _crawl_or_none(workload, failures)
            if untraced is not None:
                plain.append(untraced)
            tracer = Tracer()
            with tracer:
                workload.setup_only()
                sample = _crawl_or_none(workload, failures)
            if sample is not None:
                traced.append(sample)
                tracers.append(tracer)
                per_crawl.append(layer_metrics(
                    tracer, calibration, sample.intervals, sample.fetches,
                    sample.summary.get("failures"),
                ))
                if untraced is not None:
                    # Adjacent crawls share the machine's momentary speed,
                    # which their ratio cancels.
                    overheads.append(sample.fetch_us / untraced.fetch_us - 1.0)

        attempted = 2 * _timed_loop(seconds, step)
        _check(plain + traced, workload, failures)
    if not traced or not plain:
        sys.exit("crawlbench: every traced or untraced crawl raised")
    first = per_crawl[0]
    counted = [key for key in first if key.endswith(DETERMINISTIC_SUFFIXES)]
    for other in per_crawl[1:]:
        if any(other[key] != first[key] for key in counted):
            failures.append("per-layer counts differ between traced crawls")
    metrics = {}
    for key in first:
        metrics[key] = first[key] if key in counted else _median([m[key] for m in per_crawl])
    traced_us = _median([s.fetch_us for s in traced])
    plain_us = _median([s.fetch_us for s in plain])
    metrics["trace.overhead_frac"] = _median(overheads) if overheads else 0.0
    metrics["trace.wrapper_ns"] = calibration.total * 1e9
    # One file per workload, replaced by each traced run, so that runs over
    # many seeds do not pile up spans on disk; each line names its run.
    path = os.path.join(OUT_DIR, f"spans-{name}.jsonl")
    for index, tracer in enumerate(tracers):
        tracer.write(path, run_id=f"{name}/{seed}/{index}", mode="w" if index == 0 else "a")
    print(f"# {name} seed={seed}: {len(traced)} traced and {len(plain)} untraced crawls; "
          f"traced {traced_us:.2f} us/fetch vs untraced {plain_us:.2f} us/fetch; "
          f"spans in {path}")
    return metrics, {}, attempted, len(failures)


def main(argv=None) -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[entry["name"] for entry in manifest["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.trace:
        metrics, extras, attempted, failed = measure_traced(
            args.workload, args.seed, args.seconds
        )
        entries = manifest["per_layer"]
    else:
        metrics, extras, attempted, failed = measure(args.workload, args.seed, args.seconds)
        entries = manifest["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in entries}
    if set(units) != set(metrics):
        sys.exit(f"crawlbench: the run measured {sorted(metrics)}, "
                 f"but BENCHMARK.json names {sorted(units)}")
    report = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, entry in report.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in extras.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
