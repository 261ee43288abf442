"""The four crawl workloads and the end-to-end measurement of one crawl.

Every workload crawls the same synthetic web — the paper-calibrated
Table 1 site mix at ``site_scale=1.0`` (270 sites) with 40 pages per site,
about 13.5k pages — with the optimal revisit policy and the EP estimator,
through the public API only (``repro.api.build_web`` and
``repro.api.run``). The program is not modified: the few instants the
end-to-end metrics need are taken by :class:`Probe`, which wraps three
public methods from outside.

The benchmark's seed sets the web seed and, for ``chaos``, the fault seed
(which also seeds retry jitter).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import build_web, run
from repro.api.specs import (
    CrawlerSpec,
    ExperimentSpec,
    FaultModelSpec,
    FaultsSpec,
    PolicySpec,
    RetrySpec,
    WebSpec,
)
from repro.core.update_module import UpdateModule
from repro.simulation.freshness_tracker import FreshnessTracker
from repro.storage.checkpoint import CrawlCheckpointer

WORKLOADS = ("plain", "polite", "chaos", "resume")

# The incremental_crawl.json shape (capacity = a third of the pages,
# three fetches per collected page per day) scaled to the 13.5k-page web.
CAPACITY = 4500
BUDGET_PER_DAY = 13500.0
DURATION_DAYS = 6.0
#: Checkpoint spacing of ``resume`` and the save after which it is cut.
CHECKPOINT_EVERY_DAYS = 3.0
INTERRUPT_AFTER_SAVE = 1
#: ``chaos`` divides capacity and budget by this: its scalar
#: failure-aware loop costs about twenty times more per fetch.
CHAOS_SCALE = 10
#: The fault stack and retry settings of examples/specs/chaos_crawl.json.
CHAOS_MODELS = (
    ("transient", {"rate": 0.05}),
    ("site_outage", {"rate": 0.2, "period_days": 7.0, "duration_days": 0.5}),
    ("rate_limit", {"rate": 0.03, "retry_after_days": 0.25}),
    ("soft_404", {"rate": 0.03}),
    ("latency", {"factor": 3.0, "rate": 0.25}),
)
CHAOS_RETRY = RetrySpec(
    max_attempts=3,
    base_delay_days=0.25,
    multiplier=2.0,
    jitter=0.25,
    breaker_threshold=4,
    breaker_probe_days=1.0,
)


def crawl_spec(workload: str, seed: int, engine: str = "batched") -> ExperimentSpec:
    """The experiment spec of ``workload`` for ``seed``.

    Sized so that one crawl of each workload (and its reference-engine
    replay) fits a benchmark run. ``polite`` runs half as many virtual days
    as ``plain`` at twice the budget, on ``plain``'s collection. ``chaos``
    runs ``plain``'s days with a tenth of its capacity and a tenth of its
    budget, so each collected page is still fetched three times a day.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    web = WebSpec(site_scale=1.0, pages_per_site=40, horizon_days=40.0, seed=seed)
    crawler: Dict[str, Any] = dict(
        collection_capacity=CAPACITY,
        crawl_budget_per_day=BUDGET_PER_DAY,
        duration_days=DURATION_DAYS,
        engine=engine,
    )
    if workload == "polite":
        crawler.update(
            crawl_budget_per_day=2 * BUDGET_PER_DAY,
            duration_days=DURATION_DAYS / 2,
            use_politeness=True,
            politeness_min_delay_seconds=10.0,
            politeness_night_window=True,
        )
    elif workload == "chaos":
        crawler.update(
            collection_capacity=CAPACITY // CHAOS_SCALE,
            crawl_budget_per_day=BUDGET_PER_DAY / CHAOS_SCALE,
            faults=FaultsSpec(
                models=tuple(FaultModelSpec(kind, params) for kind, params in CHAOS_MODELS),
                seed=seed,
            ),
            retry=CHAOS_RETRY,
        )
    elif workload == "resume" and engine == "batched":
        # The reference engine cannot checkpoint; its replay of ``resume``
        # is the uninterrupted crawl without a store.
        crawler.update(storage="sqlite", checkpoint_every=CHECKPOINT_EVERY_DAYS)
    return ExperimentSpec(
        name=f"crawlbench/{workload}",
        kind="crawl",
        web=web,
        crawler=CrawlerSpec(**crawler),
        policy=PolicySpec(revisit_policy="optimal", estimator="ep"),
    )


class SetupDone(Exception):
    """Raised at the first crawl window to end a set-up-only probe."""


class Interrupted(Exception):
    """Raised right after a checkpoint save to cut the ``resume`` crawl."""


class Probe:
    """The instants the end-to-end metrics need, taken from outside.

    Wraps ``UpdateModule.process_slots`` (the first call is the first crawl
    window), ``FreshnessTracker.sample`` (one call per measurement
    interval) and ``CrawlCheckpointer.save`` (to cut ``resume`` right after
    a fixed save). Each wrapper runs once per virtual-day window or less,
    so it costs nothing measurable.
    """

    def __init__(self) -> None:
        self.first_window: Optional[float] = None
        self.samples: List[float] = []
        self.saves = 0
        self.stop_at_first_window = False
        self.interrupt_after: Optional[int] = None
        self._undo: List[Callable[[], None]] = []

    def reset(self) -> None:
        self.first_window = None
        self.samples = []
        self.saves = 0

    def install(self) -> None:
        probe = self
        slots = UpdateModule.process_slots
        sample = FreshnessTracker.sample
        save = CrawlCheckpointer.save

        def process_slots(self, slot_times):
            if probe.first_window is None:
                probe.first_window = time.perf_counter()
                if probe.stop_at_first_window:
                    raise SetupDone
            return slots(self, slot_times)

        def tracker_sample(self, at):
            result = sample(self, at)
            probe.samples.append(time.perf_counter())
            return result

        def checkpoint_save(self, state, at):
            save(self, state, at)
            probe.saves += 1
            if probe.saves == probe.interrupt_after:
                raise Interrupted

        UpdateModule.process_slots = process_slots
        FreshnessTracker.sample = tracker_sample
        CrawlCheckpointer.save = checkpoint_save
        self._undo = [
            lambda: setattr(UpdateModule, "process_slots", slots),
            lambda: setattr(FreshnessTracker, "sample", sample),
            lambda: setattr(CrawlCheckpointer, "save", save),
        ]

    def uninstall(self) -> None:
        for undo in self._undo:
            undo()
        self._undo = []


@dataclass
class CrawlSample:
    """End-to-end measurements of one crawl (both phases for ``resume``)."""

    crawl_s: float
    fetches: int
    windows_ms: List[float]
    digest: str
    summary: Dict[str, Any]
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    resume_s: Optional[float] = None

    @property
    def fetch_us(self) -> float:
        return self.crawl_s / self.fetches * 1e6


def result_digest(result) -> str:
    """sha256 over everything a crawl decides.

    Covers the freshness/quality series, the counters, the failure
    counters and every stored record's ``(fetched_at, visit_count,
    change_count)``. Floats enter through ``repr``, which round-trips, so
    two digests agree only when the runs are bit-identical.
    """
    summary = result.summary
    counters = {
        key: summary.get(key)
        for key in ("pages_crawled", "pages_failed", "changes_detected",
                    "pages_replaced", "collection_size")
    }
    records = sorted(
        (record.url, record.fetched_at, record.visit_count, record.change_count)
        for record in result.artifacts["crawler"].collection.current_records()
    )
    payload = {
        "series": result.series,
        "counters": counters,
        "failures": summary.get("failures"),
        "records": records,
    }
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


class Workload:
    """Runs crawls of one workload and seed through the public API.

    Args:
        name: One of :data:`WORKLOADS`.
        seed: Web (and fault) seed.
        work_dir: Directory for the ``resume`` store; created on demand.
    """

    def __init__(self, name: str, seed: int, work_dir: str) -> None:
        self.name = name
        self.seed = seed
        self.spec = crawl_spec(name, seed)
        self.work_dir = work_dir
        self.store = os.path.join(work_dir, f"store-{name}-{seed}-{os.getpid()}.sqlite")
        self.probe = Probe()
        self.web = None

    def __enter__(self) -> "Workload":
        self.probe.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.probe.uninstall()
        _remove_store(self.store)

    def _store_arg(self) -> Optional[str]:
        if self.spec.crawler.storage is None:
            return None
        os.makedirs(self.work_dir, exist_ok=True)
        _remove_store(self.store)
        return self.store

    def setup_only(self) -> float:
        """Generate a web and start a crawl of it, stopping at the first window.

        The web is kept for the next :meth:`crawl`. The previous web and
        crawl are freed first, so that peak memory is that of one web and
        one crawl, whenever the interpreter's own collector happens to run.
        """
        self.web = None
        gc.collect()
        probe = self.probe
        probe.reset()
        probe.stop_at_first_window = True
        started = time.perf_counter()
        try:
            self.web = build_web(self.spec.web)
            run(self.spec, web=self.web, store=self._store_arg())
        except SetupDone:
            pass
        finally:
            probe.stop_at_first_window = False
        if probe.first_window is None:
            raise RuntimeError("the crawl never reached its first window")
        return probe.first_window - started

    def crawl(self) -> CrawlSample:
        """One full crawl of the web the last :meth:`setup_only` generated."""
        if self.web is None:
            raise RuntimeError("call setup_only() before crawl()")
        probe = self.probe
        probe.reset()
        web = self.web
        store = self._store_arg()
        if self.name != "resume":
            result = run(self.spec, web=web, store=store)
            ended = time.perf_counter()
            intervals = [(probe.first_window, ended)]
            windows = _windows_ms(probe.samples)
            resume_s = None
        else:
            probe.interrupt_after = INTERRUPT_AFTER_SAVE
            try:
                run(self.spec, web=web, store=store)
                raise RuntimeError("resume: the crawl was not interrupted")
            except Interrupted:
                cut = time.perf_counter()
            finally:
                probe.interrupt_after = None
            intervals = [(probe.first_window, cut)]
            windows = _windows_ms(probe.samples)
            probe.reset()
            resumed = time.perf_counter()
            result = run(self.spec, web=web, store=store, resume=True)
            ended = time.perf_counter()
            resume_s = probe.first_window - resumed
            intervals.append((probe.first_window, ended))
            windows += _windows_ms(probe.samples)
        summary = result.summary
        return CrawlSample(
            crawl_s=sum(end - start for start, end in intervals),
            fetches=summary["pages_crawled"] + summary.get("pages_failed", 0),
            windows_ms=windows,
            digest=result_digest(result),
            summary=summary,
            intervals=intervals,
            resume_s=resume_s,
        )

    def reference_digest(self) -> str:
        """Digest of the same crawl on the per-URL reference engine.

        For ``resume`` this is the uninterrupted crawl without a store, so
        a match proves both the resume and the batched engine exact.
        """
        reference = crawl_spec(self.name, self.seed, engine="reference")
        return result_digest(run(reference, web=self.web))


def _windows_ms(samples: List[float]) -> List[float]:
    return [(b - a) * 1e3 for a, b in zip(samples, samples[1:])]
