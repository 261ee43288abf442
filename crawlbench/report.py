#!/usr/bin/env python3
"""Run every crawl workload and print all its metrics.

Usage (from the repository root)::

    python3 crawlbench/report.py [--seed 1] [--trace]

Each workload of BENCHMARK.json runs in its own child process for the
benchmark's ``run_seconds``, one after another, so peak memory is per
workload. ``--trace`` also runs each workload's traced run and prints its
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child process; relay its metric lines."""
    child = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=False,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"crawlbench: {workload} exited with {child.returncode}")
    for line in lines[:-1]:
        print(f"[{workload}] {line.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    manifest = run.load_manifest()
    ok = True
    for workload in (entry["name"] for entry in manifest["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            result = run_one(workload, args.seed, manifest["run_seconds"], trace)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
