"""Multi-process sharded crawls: site-affine workers, deterministic merge.

Section 5.2's architecture is explicitly designed so that "multiple
CrawlModules may run in parallel". This module scales the *whole* crawler
that way: the URL space is partitioned site-affinely into
:class:`~repro.core.sharding.ShardView` slices, each slice runs the exact
batched engine (:class:`~repro.core.sharding.ShardEngine`) in a
:mod:`repro.workers` pool process against a shared-memory copy of the web
(:mod:`repro.simweb.shared`), and the coordinator merges the per-shard
results deterministically.

Determinism contract:

* ``shards=1`` never spawns a process — it degenerates to the plain
  :class:`~repro.core.incremental_crawler.IncrementalCrawler`, so the
  result is bit-identical to the batched engine (series, counters,
  estimator state, per-record fetch timestamps).
* For ``shards=N`` the run is a pure function of ``(web, config, shards)``:
  each shard's sub-crawl is sequential and self-contained (politeness
  state, link discovery and quality denominators never cross the
  site-affine boundary), and the merge folds shard results in shard-index
  order regardless of which worker finished first. Re-running with any
  ``workers`` count reproduces the same result bit for bit.

Per-shard persistence lives in sibling stores (``{path}.shard00``, ...)
with namespaced state keys, so a SIGKILLed sharded run resumes cleanly:
completed shards short-circuit from their stored result, interrupted ones
resume from their checkpoints.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.api.registry import STORAGE_BACKENDS
from repro.core.incremental_crawler import (
    CrawlRunResult,
    IncrementalCrawler,
    IncrementalCrawlerConfig,
)
from repro.core.sharding import ShardView
from repro.core.update_module import UpdateModule
from repro.simulation.freshness_tracker import FreshnessTimeSeries
from repro.simweb.shared import SharedWeb, SharedWebPayload, attach_web
from repro.simweb.web import SimulatedWeb
from repro.storage.checkpoint import (
    RESULT_STATE_KEY,
    CollectionJournal,
    CrawlCheckpointer,
    namespaced_state_key,
)
from repro.storage.records import record_to_dict
from repro.workers import run_pool


def shard_namespace(index: int) -> str:
    """State-key namespace of shard ``index`` (also its store suffix)."""
    return f"shard{index:02d}"


def shard_store_path(base: Optional[str], index: int) -> Optional[str]:
    """Sibling store path of shard ``index`` (``None`` stays volatile)."""
    if base is None:
        return None
    return f"{base}.{shard_namespace(index)}"


@dataclass(frozen=True)
class ShardRunSpec:
    """Everything one worker needs to run its shard, picklable.

    The web itself is *not* here — only the :class:`SharedWebPayload`
    naming the shared-memory blocks all workers attach to.
    """

    payload: Optional[SharedWebPayload]
    view: ShardView
    config: IncrementalCrawlerConfig
    duration_days: float
    start_time: float
    storage: Optional[str]
    store_path: Optional[str]
    checkpoint_every: Optional[float]
    spec_hash: Optional[str]
    resume: bool
    #: How many times this shard's worker has failed before this run.
    attempt: int = 0


@dataclass
class ShardedCrawlResult(CrawlRunResult):
    """A merged sharded run: the usual series/counters plus shard extras.

    Attributes:
        records: Final collection records of every shard (as dicts, in
            shard-index order, each shard's records in its collection
            order) — the merged collection image.
        estimator_state: Merged :meth:`UpdateModule.snapshot` document
            (see :meth:`UpdateModule.merge_snapshots`); for a single-shard
            run this is the crawler's snapshot verbatim.
        shards: Number of non-empty shards that ran.
        workers: Worker-process cap the run was launched with.
        per_shard: One summary dict per shard, in shard-index order.
    """

    records: List[dict] = field(default_factory=list)
    estimator_state: Optional[dict] = None
    shards: int = 1
    workers: int = 1
    per_shard: List[dict] = field(default_factory=list)
    #: Failure counters by class summed across shards (``None`` when the
    #: run had no failure tracker, i.e. neither faults nor retry).
    failures: Optional[Dict[str, int]] = None


def _run_shard(
    job: ShardRunSpec,
    web: SimulatedWeb,
    on_measure: Optional[Callable[[float, float, Optional[float]], None]] = None,
) -> dict:
    """Run one shard's sub-crawl to completion and package the outcome.

    Shared by the worker processes and (with ``shards=1``) the inline
    path; everything shard-specific — store path, namespace, resume —
    comes from the job.
    """
    namespace = shard_namespace(job.view.index)
    backend = None
    journal = None
    checkpointer = None
    resume_state = None
    result_key = namespaced_state_key(namespace, RESULT_STATE_KEY)
    try:
        if job.storage is not None:
            backend = STORAGE_BACKENDS.create(job.storage, path=job.store_path)
            journal = CollectionJournal(backend)
            if job.checkpoint_every is not None:
                checkpointer = CrawlCheckpointer(
                    backend,
                    job.checkpoint_every,
                    spec_hash=job.spec_hash,
                    namespace=namespace,
                )
        if job.resume:
            # ShardedCrawler.run only resumes with storage and checkpoints.
            saved = backend.load_state(result_key)
            if saved is not None:
                if job.spec_hash is not None and saved.get("spec_hash") != job.spec_hash:
                    raise ValueError(
                        f"shard {job.view.index} store holds a result for a "
                        "different spec"
                    )
                if saved.get("n_shards") != job.view.n_shards:
                    raise ValueError(
                        f"shard {job.view.index} store was written by a "
                        f"{saved.get('n_shards')}-shard run, resuming a "
                        f"{job.view.n_shards}-shard one"
                    )
                return saved
            resume_state = checkpointer.load()
            # A shard killed before its first checkpoint starts over —
            # exactly what the unsharded resume path would require too.

        if job.view.is_total:
            # Total view: the plain crawler, seeds carried through the view
            # (they are exactly what an unsharded run would use).
            crawler = IncrementalCrawler(
                web, job.config, seed_urls=list(job.view.seed_urls)
            )
        else:
            crawler = IncrementalCrawler(web, job.config, shard_view=job.view)
        crawler.on_measure = on_measure
        outcome = crawler.run(
            job.duration_days,
            start_time=job.start_time,
            journal=journal,
            checkpointer=checkpointer,
            resume_state=resume_state,
        )
        payload = {
            "shard_index": job.view.index,
            "n_shards": job.view.n_shards,
            "spec_hash": job.spec_hash,
            "capacity": job.view.capacity,
            "budget_per_day": job.view.budget_per_day,
            "freshness": {
                "times": [float(t) for t in outcome.freshness.times],
                "freshness": [float(f) for f in outcome.freshness.freshness],
                "age": [float(a) for a in outcome.freshness.age],
            },
            "quality": {
                "times": [float(t) for t in outcome.quality_times],
                "values": [float(q) for q in outcome.quality],
            },
            "counters": {
                "pages_crawled": outcome.pages_crawled,
                "pages_failed": outcome.pages_failed,
                "changes_detected": outcome.changes_detected,
                "pages_replaced": outcome.pages_replaced,
            },
            "update": crawler.update_module.snapshot(),
            "records": [
                record_to_dict(record)
                for record in crawler.collection.working_records()
            ],
            "attainable": crawler.quality_attainable(),
            "fetch_count": crawler._fetcher.fetch_count,
            "failures": crawler.failure_counters(),
        }
        if backend is not None:
            backend.save_state(result_key, payload)
            backend.flush()
        return payload
    finally:
        if backend is not None:
            backend.close()


def _shard_job(job: ShardRunSpec, send: Callable) -> dict:
    """Pool handler: run one shard on the shared web, streaming each window."""
    return _run_shard(
        job, attach_web(job.payload), on_measure=lambda *window: send(window)
    )


class ShardedCrawler:
    """Coordinator: split, fan out to worker processes, merge deterministically.

    Args:
        web: The synthetic web to crawl.
        config: Crawler configuration for the *whole* crawl (its capacity
            and budget are split across shards; its ``engine`` must be
            ``"batched"`` — every shard runs the batched tick-window
            engine).
        seed_urls: Starting URLs; defaults to every site's root page.
        shards: Number of site-affine shards to partition into. ``1``
            degenerates to the plain in-process crawler, bit-identically.
        workers: Maximum worker processes alive at once. The result is
            independent of this knob — it only controls parallelism.
        storage: Optional registered backend name for per-shard journals,
            checkpoints and results.
        store_path: Optional base store path; shard ``k`` persists to
            ``{store_path}.shardNN``. ``None`` keeps shard stores volatile.
        checkpoint_every: Optional per-shard checkpoint cadence (days).
        spec_hash: Optional spec hash stamped into shard checkpoints and
            results, so a resume refuses foreign state.
        worker_retries: How many times a shard whose worker crashed or was
            killed is re-run before the coordinator raises (with the
            worker's traceback or exit code). Recovery requires per-shard
            persistence (``storage``, ``store_path`` and
            ``checkpoint_every``): the retry resumes from the shard's last
            checkpoint, or its stored result, so the merged result stays
            bit-identical to an uninterrupted run. Without persistence a
            worker failure is immediately fatal.
    """

    def __init__(
        self,
        web: SimulatedWeb,
        config: Optional[IncrementalCrawlerConfig] = None,
        seed_urls: Optional[Sequence[str]] = None,
        *,
        shards: int = 1,
        workers: int = 1,
        storage: Optional[str] = None,
        store_path: Optional[str] = None,
        checkpoint_every: Optional[float] = None,
        spec_hash: Optional[str] = None,
        worker_retries: int = 2,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if worker_retries < 0:
            raise ValueError("worker_retries must be non-negative")
        self._web = web
        self._config = config if config is not None else IncrementalCrawlerConfig()
        if self._config.engine != "batched":
            raise ValueError(
                "sharded crawls drive the batched engine in every worker; "
                f"got engine={self._config.engine!r}"
            )
        self._seeds = seed_urls
        self.shards = shards
        self.workers = workers
        self._storage = storage
        self._store_path = store_path
        self._checkpoint_every = checkpoint_every
        self._spec_hash = spec_hash
        self.worker_retries = worker_retries
        #: Optional live-progress hook ``(shard_index, at, freshness,
        #: quality)`` invoked as per-window messages arrive. Arrival order
        #: across shards depends on worker scheduling — consumers must not
        #: derive results from it (the merge never does).
        self.on_window: Optional[Callable[[int, float, float, Optional[float]], None]] = None

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(
        self,
        duration_days: float,
        start_time: float = 0.0,
        *,
        resume: bool = False,
    ) -> ShardedCrawlResult:
        """Run every shard to completion and merge the results.

        Args:
            duration_days: How long to run (virtual days).
            start_time: Virtual time at which the run starts.
            resume: Continue a killed sharded run from the per-shard
                stores (requires ``storage``, ``store_path`` and
                ``checkpoint_every``). Completed shards short-circuit from
                their stored results; interrupted ones resume from their
                checkpoints. The merged result is bit-identical to an
                uninterrupted run.

        Returns:
            The merged :class:`ShardedCrawlResult`.
        """
        if resume and (
            self._storage is None
            or self._store_path is None
            or self._checkpoint_every is None
        ):
            raise ValueError(
                "resume requires storage, store_path and checkpoint_every"
            )
        views = ShardView.split(
            self._web,
            self.shards,
            capacity=self._config.collection_capacity,
            budget_per_day=self._config.crawl_budget_per_day,
            seed_urls=self._seeds,
        )
        jobs = [
            ShardRunSpec(
                payload=None,  # installed per execution mode below
                view=view,
                config=dataclasses.replace(
                    self._config,
                    collection_capacity=view.capacity,
                    crawl_budget_per_day=view.budget_per_day,
                ),
                duration_days=duration_days,
                start_time=start_time,
                storage=self._storage,
                store_path=shard_store_path(self._store_path, view.index),
                checkpoint_every=self._checkpoint_every,
                spec_hash=self._spec_hash,
                resume=resume,
            )
            for view in views
        ]

        if len(jobs) == 1:
            # Single shard: no processes, no shared memory — the plain
            # batched crawler, run inline. This is the bit-identity anchor.
            payloads = [
                _run_shard(
                    jobs[0],
                    self._web,
                    on_measure=lambda *window: self._relay_window(jobs[0], window),
                )
            ]
        else:
            # Completion order varies; _merge folds in shard-index order.
            payloads: List[dict] = []
            with SharedWeb(self._web) as shared:
                run_pool(
                    [dataclasses.replace(job, payload=shared.payload) for job in jobs],
                    _shard_job,
                    workers=self.workers,
                    on_result=lambda job, payload: payloads.append(payload),
                    on_lost=self._requeue,
                    on_message=self._relay_window,
                )
        return self._merge(payloads, duration_days)

    def _relay_window(self, job: ShardRunSpec, window: tuple) -> None:
        if self.on_window is not None:
            self.on_window(job.view.index, *window)

    def _requeue(self, job: ShardRunSpec, detail: str) -> ShardRunSpec:
        """The pool's ``on_lost``: a failed shard's retry, or raise.

        The retry resumes from the shard's last checkpoint (or its stored
        result, when the worker died after finishing), so the merged result
        stays bit-identical. Raises once ``worker_retries`` is spent, or at
        once without per-shard persistence.
        """
        attempt = job.attempt + 1
        persistent = (
            self._storage is not None
            and self._store_path is not None
            and self._checkpoint_every is not None
        )
        if persistent and attempt <= self.worker_retries:
            return dataclasses.replace(job, resume=True, attempt=attempt)
        raise RuntimeError(
            f"shard {job.view.index} worker failed "
            f"(attempt {attempt}, retries exhausted):\n{detail}"
        )

    # ------------------------------------------------------------------ #
    # Merge
    # ------------------------------------------------------------------ #
    def _merge(
        self, payloads: List[dict], duration_days: float
    ) -> ShardedCrawlResult:
        """Fold per-shard payloads into one result, in shard-index order.

        The fold is a pure function of the payload list (which is ordered
        by shard index, not by completion): every float reduction iterates
        shards in the same order on every run, so N-shard results are
        reproducible for fixed ``(web, config, shards)`` regardless of
        worker scheduling.
        """
        payloads = sorted(payloads, key=lambda p: p["shard_index"])
        total_capacity = sum(p["capacity"] for p in payloads)

        series = FreshnessTimeSeries()
        base_times = payloads[0]["freshness"]["times"]
        for p in payloads[1:]:
            if p["freshness"]["times"] != base_times:
                raise RuntimeError(
                    "shards sampled freshness at different instants; "
                    "measurement cadences must match across shards"
                )
        for i, at in enumerate(base_times):
            fresh = 0.0
            age = 0.0
            for p in payloads:
                weight = p["capacity"]
                fresh += p["freshness"]["freshness"][i] * weight
                age += p["freshness"]["age"][i] * weight
            series.add(
                float(at),
                min(1.0, fresh / total_capacity),
                age / total_capacity,
            )

        quality: List[float] = []
        quality_times: List[float] = []
        if all(p["quality"]["values"] for p in payloads):
            base_q_times = payloads[0]["quality"]["times"]
            for p in payloads[1:]:
                if p["quality"]["times"] != base_q_times:
                    raise RuntimeError(
                        "shards sampled quality at different instants"
                    )
            # Each shard's quality is achieved/attainable *within its
            # sites*; the global collection achieves the sum of achieved
            # masses against the sum of attainable masses, so the
            # attainable masses are the exact merge weights.
            weights = [
                p["attainable"] if p["attainable"] is not None else 0.0
                for p in payloads
            ]
            total_weight = sum(weights)
            for i, at in enumerate(base_q_times):
                achieved = 0.0
                for p, weight in zip(payloads, weights):
                    achieved += p["quality"]["values"][i] * weight
                quality_times.append(float(at))
                quality.append(
                    min(1.0, achieved / total_weight) if total_weight > 0 else 0.0
                )

        result = ShardedCrawlResult(
            freshness=series,
            quality=quality,
            quality_times=quality_times,
            duration_days=duration_days,
            shards=len(payloads),
            workers=self.workers,
        )
        for p in payloads:
            counters = p["counters"]
            result.pages_crawled += int(counters["pages_crawled"])
            result.pages_failed += int(counters["pages_failed"])
            result.changes_detected += int(counters["changes_detected"])
            result.pages_replaced += int(counters["pages_replaced"])
            result.records.extend(p["records"])
            per_shard = {
                "shard": p["shard_index"],
                "capacity": p["capacity"],
                "budget_per_day": p["budget_per_day"],
                "attainable": p["attainable"],
                "fetch_count": p["fetch_count"],
                **{key: int(value) for key, value in counters.items()},
            }
            failures = p.get("failures")
            if failures is not None:
                per_shard["failures"] = dict(failures)
                if result.failures is None:
                    result.failures = {}
                for key, value in failures.items():
                    result.failures[key] = result.failures.get(key, 0) + int(value)
            result.per_shard.append(per_shard)
        result.estimator_state = UpdateModule.merge_snapshots(
            [p["update"] for p in payloads]
        )
        return result
