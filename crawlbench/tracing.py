"""Outside-in per-layer tracing of the ``repro`` modules.

:class:`Tracer` replaces the public entry points listed in :data:`LAYERS`
with wrappers that record one span per call: the entry point's name, its
start and end (``time.perf_counter``), and the span that was open when it
was called. Nothing under ``src/`` changes: the wrappers are installed on
the classes and modules for the duration of one traced crawl and removed
afterwards. Spans stay in memory and are written out when the benchmark
ends.

A layer's self time is the time its spans cover minus the time their
direct child spans cover, corrected by the wrapper's own calibrated
per-call cost (:func:`calibrate`).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Layer name -> the public entry points whose calls it owns. A
#: ``module:Class.method`` target is wrapped on the class and on every
#: subclass that overrides the method.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "simweb": (
        "repro.api.runner:generate_web",
        "repro.simweb.web:SimulatedWeb.oracle_arrays",
    ),
    "core.sharding": ("repro.core.sharding:ShardEngine.run",),
    "core.update_module": (
        "repro.core.update_module:UpdateModule.process_slots",
        "repro.core.update_module:UpdateModule.process_batch",
    ),
    "core.collurls": (
        "repro.core.collurls:CollUrls.pop_due",
        "repro.core.collurls:CollUrls.pop",
        "repro.core.collurls:CollUrls.restore",
        "repro.core.collurls:CollUrls.schedule",
        "repro.core.collurls:CollUrls.schedule_many",
    ),
    "core.crawl_module": ("repro.core.crawl_module:CrawlModule.crawl_many",),
    "fetch.fetcher": ("repro.fetch.fetcher:SimulatedFetcher.fetch_many",),
    "fetch.politeness": (
        "repro.fetch.politeness:PolitenessPolicy.earliest_allowed_many",
        "repro.fetch.politeness:PolitenessPolicy.earliest_allowed_many_indexed",
        "repro.fetch.politeness:PolitenessPolicy.earliest_allowed",
        "repro.fetch.politeness:PolitenessPolicy.record_request",
        "repro.fetch.politeness:PolitenessPolicy.record_requests",
        "repro.fetch.politeness:PolitenessPolicy.record_requests_indexed",
    ),
    "faults": (
        "repro.faults:FaultLayer.resolve",
        "repro.faults:FaultLayer.resolve_one",
        "repro.faults:FaultLayer.latency_factor_one",
        "repro.faults:FailureTracker.on_failure",
        "repro.faults:FailureTracker.on_success",
        "repro.faults:FailureTracker.quarantined",
        "repro.faults:FailureTracker.defer",
    ),
    "estimation": (
        "repro.estimation.rate_estimators:ChangeRateEstimator.update_batch",
        "repro.estimation.change_history:ChangeHistory.record_visit",
    ),
    "freshness.policies": ("repro.freshness.policies:RevisitPolicy.intervals",),
    "core.ranking_module": ("repro.core.ranking_module:RankingModule.refine",),
    "simulation.freshness_tracker": (
        "repro.simulation.freshness_tracker:FreshnessTracker.sample",
    ),
    "core.quality": (
        "repro.core.quality:CollectionQualityCache.__init__",
        "repro.core.quality:CollectionQualityCache.quality",
    ),
    "storage.checkpoint": (
        "repro.core.incremental_crawler:IncrementalCrawler._snapshot_state",
        "repro.core.incremental_crawler:IncrementalCrawler._restore_state",
        "repro.storage.checkpoint:CollectionJournal.on_batch",
        "repro.storage.checkpoint:CollectionJournal.refresh_records",
        "repro.storage.checkpoint:CrawlCheckpointer.save",
        "repro.storage.checkpoint:CrawlCheckpointer.load",
    ),
    "storage.backends": tuple(
        f"repro.storage.backends:StorageBackend.{method}"
        for method in ("append_events", "save_state", "flush", "put_records",
                       "replace_records", "delete_record")
    ),
}

#: Counts that must repeat exactly between two traced crawls of one seed.
DETERMINISTIC_SUFFIXES = (
    ".calls", ".batch_mean", ".restore_frac", ".calls_per_fetch", ".retries",
    ".breaker_trips", ".failed", ".pages_mean", ".replaced", ".bytes",
)

_SAVE = "repro.storage.checkpoint:CrawlCheckpointer.save"
#: The crawl loop's layer. Its self time is the loop's own work plus any
#: untraced call it makes, so coverage counts only the spans below it.
_LOOP = "core.sharding"

# Counts taken where the work happens: target -> (count key, f(args, result)).
_COUNTS: Dict[str, Tuple[str, Callable]] = {
    "repro.core.update_module:UpdateModule.process_batch":
        ("batched", lambda args, result: len(result.urls)),
    "repro.core.collurls:CollUrls.pop_due":
        ("popped", lambda args, result: len(result)),
    "repro.core.collurls:CollUrls.pop":
        ("popped", lambda args, result: result is not None),
    "repro.core.collurls:CollUrls.restore":
        ("restored", lambda args, result: len(args[1])),
    "repro.fetch.fetcher:SimulatedFetcher.fetch_many":
        ("failed", lambda args, result: len(result.ok) - int(np.count_nonzero(result.ok))),
    "repro.freshness.policies:RevisitPolicy.intervals":
        ("pages", lambda args, result: len(args[1])),
    "repro.core.ranking_module:RankingModule.refine":
        ("replaced", lambda args, result: len(result.replacements)),
}


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class Tracer:
    """Span recorder over the entry points of :data:`LAYERS`.

    Args:
        delays: Optional layer name -> seconds of busy wait injected at the
            start of every call into that layer (the isolation self-test's
            deliberate slowdown). Delays run inside the span.
    """

    def __init__(self, delays: Optional[Dict[str, float]] = None) -> None:
        self.delays = dict(delays or {})
        unknown = sorted(set(self.delays) - set(LAYERS))
        if unknown:
            raise ValueError(f"unknown layer(s) {unknown}; layers: {list(LAYERS)}")
        self.targets: List[str] = [t for targets in LAYERS.values() for t in targets]
        self.layer_of: List[str] = [
            layer for layer, targets in LAYERS.items() for _ in targets
        ]
        #: Spans as ``(target index, start, end, parent span index or -1)``.
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.saving = 0
        self._undo: List[Callable[[], None]] = []

    def wrap(
        self,
        function: Callable,
        target_index: int,
        count: Optional[Tuple[str, Callable]] = None,
        delay: float = 0.0,
        scoped: bool = False,
    ) -> Callable:
        """``function`` wrapped to record a span under ``target_index``.

        Args:
            count: Optional ``(key, f(args, result))`` added to
                :attr:`counts` after each call.
            delay: Seconds of busy wait at the start of each call.
            scoped: Track that a checkpoint save is in progress.
        """
        spans = self.spans
        stack = self.stack
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if scoped:
                tracer.saving += 1
            start = clock()
            try:
                if delay:
                    _spin(delay)
                result = function(*args, **kwargs)
            finally:
                spans[index] = (target_index, start, clock(), parent)
                stack.pop()
                if scoped:
                    tracer.saving -= 1
            if count is not None:
                counts[count[0]] += count[1](args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for index, target in enumerate(self.targets):
            options = dict(
                count=_COUNTS.get(target),
                delay=self.delays.get(self.layer_of[index], 0.0),
                scoped=target == _SAVE,
            )
            module_name, path = target.split(":")
            module = importlib.import_module(module_name)
            if "." not in path:
                original = getattr(module, path)
                setattr(module, path, self.wrap(original, index, **options))
                self._undo.append(functools.partial(setattr, module, path, original))
                continue
            class_name, method = path.split(".")
            for cls in _class_and_subclasses(getattr(module, class_name)):
                if method in cls.__dict__:
                    original = cls.__dict__[method]
                    setattr(cls, method, self.wrap(original, index, **options))
                    self._undo.append(functools.partial(setattr, cls, method, original))
        # Checkpoint size: count the JSON text the storage backends write
        # while a checkpoint save is in progress.
        backends = importlib.import_module("repro.storage.backends")
        real_json = backends.json
        tracer = self

        def dumps(*args, **kwargs):
            text = real_json.dumps(*args, **kwargs)
            if tracer.saving:
                tracer.counts["checkpoint_bytes"] += len(text)
            return text

        backends.json = types.SimpleNamespace(dumps=dumps, loads=real_json.loads)
        self._undo.append(functools.partial(setattr, backends, "json", real_json))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def write(self, path: str, run_id: str, mode: str = "a") -> None:
        """Append the recorded spans to ``path`` as JSON lines.

        Each line is ``[run_id, span, parent, name, start_s, end_s]``.
        """
        with open(path, mode, encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                target, start, end, parent = span
                out.write(json.dumps(
                    [run_id, index, parent, self.targets[target], start, end]
                ))
                out.write("\n")


def _class_and_subclasses(cls: type) -> List[type]:
    seen = [cls]
    for sub in cls.__subclasses__():
        for found in _class_and_subclasses(sub):
            if found not in seen:
                seen.append(found)
    return seen


@dataclass(frozen=True)
class Calibration:
    """The wrapper's own cost per call, in seconds.

    ``inside`` is the part that falls within the span (charged to the
    layer's own self time); ``outside`` the part before and after it
    (charged to the calling span).
    """

    total: float
    inside: float

    @property
    def outside(self) -> float:
        return self.total - self.inside


def calibrate(calls: int = 100_000, repeats: int = 5) -> Calibration:
    """Measure the wrapper's per-call cost on a no-op method."""

    class _Noop:
        def call(self):
            return None

    plain_call = _Noop.call
    totals, insides = [], []
    for _ in range(repeats):
        tracer = Tracer()
        obj = _Noop()
        _Noop.call = plain_call
        started = time.perf_counter()
        for _ in range(calls):
            obj.call()
        plain = time.perf_counter() - started
        _Noop.call = tracer.wrap(plain_call, 0)
        started = time.perf_counter()
        for _ in range(calls):
            obj.call()
        wrapped = time.perf_counter() - started
        _Noop.call = plain_call
        span_time = sum(end - start for _, start, end, _ in tracer.spans)
        totals.append((wrapped - plain) / calls)
        insides.append((span_time - plain) / calls)
    return Calibration(total=float(np.median(totals)), inside=float(np.median(insides)))


def layer_metrics(
    tracer: Tracer,
    calibration: Calibration,
    intervals: Sequence[Tuple[float, float]],
    fetches: int,
    failures: Optional[Dict[str, int]],
) -> Dict[str, float]:
    """Per-layer metrics of one traced crawl.

    Args:
        tracer: The tracer that recorded the crawl.
        calibration: The wrapper's per-call cost.
        intervals: The crawl phases (first window to return) in
            ``perf_counter`` seconds; coverage is measured over them.
        fetches: Fetches the crawl performed.
        failures: The crawl's failure counters (``None`` without faults).
    """
    layer_of = tracer.layer_of
    spans = tracer.spans
    calls: Counter = Counter()
    target_calls: Counter = Counter()
    child_calls: Counter = Counter()
    self_time: Counter = Counter()
    covered = 0.0
    for target, start, end, parent in spans:
        layer = layer_of[target]
        duration = end - start
        calls[layer] += 1
        target_calls[tracer.targets[target]] += 1
        self_time[layer] += duration
        parent_layer = layer_of[spans[parent][0]] if parent >= 0 else None
        if parent_layer is not None:
            self_time[parent_layer] -= duration
            child_calls[parent_layer] += 1
        if layer != _LOOP and parent_layer in (None, _LOOP):
            # The outermost span below the loop: time some layer owns.
            for low, high in intervals:
                covered += max(0.0, min(end, high) - max(start, low))
    counts = tracer.counts
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = (
            self_time[layer]
            - calls[layer] * calibration.inside
            - child_calls[layer] * calibration.outside
        )
    batches = target_calls["repro.core.update_module:UpdateModule.process_batch"]
    metrics["core.update_module.batch_mean"] = counts["batched"] / batches if batches else 0.0
    popped = counts["popped"]
    metrics["core.collurls.restore_frac"] = counts["restored"] / popped if popped else 0.0
    metrics["fetch.fetcher.failed"] = counts["failed"]
    metrics["fetch.politeness.calls_per_fetch"] = calls["fetch.politeness"] / fetches
    metrics["faults.calls_per_fetch"] = calls["faults"] / fetches
    metrics["faults.retries"] = (failures or {}).get("retries", 0)
    metrics["faults.breaker_trips"] = (failures or {}).get("breaker_trips", 0)
    reallocations = target_calls["repro.freshness.policies:RevisitPolicy.intervals"]
    metrics["freshness.policies.pages_mean"] = (
        counts["pages"] / reallocations if reallocations else 0.0
    )
    metrics["core.ranking_module.replaced"] = counts["replaced"]
    saves = target_calls[_SAVE]
    metrics["storage.checkpoint.bytes"] = counts["checkpoint_bytes"] / saves if saves else 0.0
    wall = sum(high - low for low, high in intervals)
    metrics["trace.coverage"] = covered / wall
    return metrics
