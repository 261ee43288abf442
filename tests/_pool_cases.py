"""Coordinator-side scenarios for the worker-pool tests, one per process.

The tests run this file as a script under a subprocess timeout, so a pool
that hangs fails its test instead of hanging the suite:

    PYTHONPATH=src python tests/_pool_cases.py SCENARIO TMPDIR

It prints one JSON line on stdout. Pool workers re-import this module (as
the spawn main module), so the handlers below and the ``pool-test-cell``
scenario exist in them too.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import time
from types import SimpleNamespace

from repro.api.registry import register_scenario
from repro.core import sharded_crawler
from repro.workers import run_pool

#: Upper bound on any wait for another process inside a scenario.
DEADLINE_SECONDS = 60.0


def _kill_self() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _wait_for(path: str) -> None:
    deadline = time.monotonic() + DEADLINE_SECONDS
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)


def _stream_or_die(job, send):
    """``("victim", attempt, marker)``: die mid-job on the first attempt.

    ``("chatty", _, marker)``: stream messages until the victim is dead,
    then a few hundred more, and return how many were sent.
    """
    role, attempt, marker = job
    if role == "victim":
        if attempt == 0:
            send("victim started")
            open(marker, "w").close()
            _kill_self()
        return "recovered"
    sent = 0
    deadline = time.monotonic() + DEADLINE_SECONDS
    while (sent < 500 or not os.path.exists(marker)) and time.monotonic() < deadline:
        send("x" * 1024)
        sent += 1
    for _ in range(500):
        send("x" * 1024)
        sent += 1
    return sent


def _exit_zero(job, send):
    os._exit(0)


def _double(job, send):
    send(job)
    return job * 2


@register_scenario("pool-test-cell")
def pool_test_cell(role: str = "chatty", marker: str = "") -> dict:
    """A matrix cell that SIGKILLs its worker (``victim``) or outlives it."""
    if role == "victim":
        open(marker, "w").close()
        _kill_self()
    _wait_for(marker)
    return {"summary": {"role": role}}


_original_run_shard = sharded_crawler._run_shard


def _run_shard_killing_first_attempt(job, web, on_measure=None):
    """Shard 1 of a ``victim`` store dies at its seventh window, first try only."""
    if job.view.index != 1 or job.attempt > 0 or "victim" not in str(job.store_path):
        return _original_run_shard(job, web, on_measure=on_measure)
    windows = []

    def measure(*window):
        windows.append(window)
        on_measure(*window)
        if len(windows) == 7:
            _kill_self()

    return _original_run_shard(job, web, on_measure=measure)


if __name__ != "__main__":  # a pool worker of this script
    sharded_crawler._run_shard = _run_shard_killing_first_attempt


def kill_and_stream(tmp: str) -> dict:
    """One worker SIGKILLs itself while the other streams; requeue it."""
    marker = os.path.join(tmp, "victim-died")
    messages = {"victim": 0, "chatty": 0}
    results = {}
    lost = []

    def on_lost(job, detail):
        lost.append(detail)
        return (job[0], job[1] + 1, job[2])

    run_pool(
        [("victim", 0, marker), ("chatty", 0, marker)],
        _stream_or_die,
        workers=2,
        on_result=lambda job, result: results.update({job[0]: result}),
        on_lost=on_lost,
        on_message=lambda job, _: messages.update({job[0]: messages[job[0]] + 1}),
    )
    return {
        "results": results,
        "messages": messages,
        "lost": lost,
        "children": len(multiprocessing.active_children()),
    }


def _fake_shard_job(index: int):
    return sharded_crawler.ShardRunSpec(
        payload=None,
        view=SimpleNamespace(index=index),
        config=None,
        duration_days=1.0,
        start_time=0.0,
        storage=None,
        store_path=None,
        checkpoint_every=None,
        spec_hash=None,
        resume=False,
    )


def exit_zero(tmp: str) -> dict:
    """A worker exits with code 0 without replying, under the shard policy."""
    from repro.simweb.generator import WebGeneratorConfig, generate_web

    web = generate_web(
        WebGeneratorConfig(site_counts={"com": 2}, pages_per_site=3, seed=1)
    )
    coordinator = sharded_crawler.ShardedCrawler(web, shards=2)
    try:
        run_pool(
            [_fake_shard_job(1)],
            _exit_zero,
            workers=1,
            on_result=lambda job, result: None,
            on_lost=coordinator._requeue,
        )
    except RuntimeError as error:
        return {"error": str(error), "children": len(multiprocessing.active_children())}
    return {"error": None}


def clean(tmp: str) -> dict:
    """Jobs that all reply: no job is lost, no worker outlives the pool."""
    results = {}
    messages = []

    def on_lost(job, detail):
        raise RuntimeError(f"job {job} reported lost:\n{detail}")

    run_pool(
        range(5),
        _double,
        workers=2,
        on_result=lambda job, result: results.update({job: result}),
        on_lost=on_lost,
        on_message=lambda job, message: messages.append(message),
    )
    return {
        "results": {str(k): v for k, v in sorted(results.items())},
        "messages": sorted(messages),
        "children": len(multiprocessing.active_children()),
    }


def matrix_kill(tmp: str) -> dict:
    """A matrix cell SIGKILLs its worker: the sweep raises, naming the cell."""
    from repro.api.runner import ScenarioMatrix, run_matrix
    from repro.api.specs import ExperimentSpec

    marker = os.path.join(tmp, "victim-died")
    matrix = ScenarioMatrix(
        base=ExperimentSpec(
            name="pool-kill",
            kind="scenario",
            scenario="pool-test-cell",
            params={"role": "chatty", "marker": marker},
        ),
        axes={"params.role": ["chatty", "victim"]},
    )
    delivered = []
    try:
        run_matrix(matrix, workers=2, on_cell=lambda i, r: delivered.append(i))
    except RuntimeError as error:
        return {
            "error": str(error),
            "delivered": delivered,
            "children": len(multiprocessing.active_children()),
        }
    return {"error": None}


def shard_kill(tmp: str) -> dict:
    """A shard worker dies mid-crawl; the retry must merge bit-identically."""
    from repro.core.incremental_crawler import IncrementalCrawlerConfig
    from repro.simweb.generator import WebGeneratorConfig, generate_web

    web = generate_web(
        WebGeneratorConfig(
            site_counts={"com": 6, "edu": 3, "gov": 2},
            pages_per_site=10,
            horizon_days=20.0,
            seed=7,
        )
    )
    config = IncrementalCrawlerConfig(
        collection_capacity=80,
        crawl_budget_per_day=300.0,
        measurement_interval_days=0.25,
        track_quality=True,
    )

    def crawl(store: str):
        crawler = sharded_crawler.ShardedCrawler(
            web,
            config,
            shards=2,
            workers=2,
            storage="sqlite",
            store_path=os.path.join(tmp, store),
            checkpoint_every=1.0,
        )
        windows = {0: 0, 1: 0}
        crawler.on_window = lambda shard, *_: windows.update(
            {shard: windows[shard] + 1}
        )
        result = crawler.run(6.0)
        fingerprint = {
            "freshness": list(result.freshness.freshness),
            "quality": list(result.quality),
            "records": result.records,
            "estimator_state": result.estimator_state,
            "per_shard": result.per_shard,
        }
        return fingerprint, windows

    clean_run, _ = crawl("clean.sqlite")
    killed_run, windows = crawl("victim.sqlite")
    return {
        "identical": clean_run == killed_run,
        "windows": windows,
        "children": len(multiprocessing.active_children()),
    }


def nested(tmp: str) -> dict:
    """A parallel sweep over sharded crawls: pools inside pool workers."""
    from repro.api.runner import ScenarioMatrix, run_matrix
    from repro.api.specs import CrawlerSpec, ExperimentSpec, WebSpec

    matrix = ScenarioMatrix(
        base=ExperimentSpec(
            name="nested",
            kind="crawl",
            web=WebSpec(
                site_counts={"com": 4, "edu": 2},
                pages_per_site=5,
                horizon_days=10.0,
                seed=3,
            ),
            crawler=CrawlerSpec(
                kind="incremental",
                engine="sharded",
                shards=2,
                workers=2,
                collection_capacity=20,
                crawl_budget_per_day=50.0,
                duration_days=2.0,
            ),
        ),
        axes={"crawler.crawl_budget_per_day": [40.0, 60.0]},
    )
    serial = run_matrix(matrix)
    parallel = run_matrix(matrix, workers=2)
    return {
        "identical": [
            (ours.series, ours.summary, ours.tables)
            == (theirs.series, theirs.summary, theirs.tables)
            for ours, theirs in zip(serial.cells, parallel.cells)
        ],
        "shards": [cell.summary["shards"] for cell in parallel.cells],
        "children": len(multiprocessing.active_children()),
    }


SCENARIOS = {
    "kill-and-stream": kill_and_stream,
    "exit-zero": exit_zero,
    "clean": clean,
    "matrix-kill": matrix_kill,
    "shard-kill": shard_kill,
    "nested": nested,
}


if __name__ == "__main__":
    print(json.dumps(SCENARIOS[sys.argv[1]](sys.argv[2])), flush=True)
