"""The incremental crawler: steady, in-place, variable-frequency.

This class wires the Figure 12 architecture together on a virtual clock and
event queue:

* a recurring *crawl* event pops the next URL from CollUrls and processes it
  through the UpdateModule (which calls the CrawlModule); the event period
  is the reciprocal of the crawl budget, which makes the crawler *steady* —
  pages are fetched at a constant, low peak rate;
* a recurring *refinement* event runs the RankingModule scan, which
  recomputes importance and replaces less important pages with more
  important discoveries — deliberately far less often than the crawl event,
  reflecting the paper's point that separating the update decision from the
  (expensive) refinement decision is crucial for performance;
* a recurring *measurement* event samples freshness (and optionally
  quality) of the collection against the simulated-web oracle.

The collection is updated in place, so newly fetched copies are visible to
users immediately — the left-hand column of Figure 10.

Two execution engines drive the same architecture:

* the **batched** engine (default) advances the run in *tick windows*
  bounded by the next ranking/measurement event and drains all crawl slots
  of a window through :meth:`UpdateModule.process_slots` — batched oracle
  fetches, vectorized change detection, one bulk reschedule — while
  replicating the event queue's ``(time, sequence)`` ordering exactly;
* the **reference** engine processes one event per fetched page, exactly
  as Figure 12 describes the per-URL control flow. It is pinned by the
  parity suites (``tests/test_crawler_batched_parity.py``,
  ``tests/test_faults.py``): both engines produce bit-identical counters
  and freshness/quality series.

The batched engine has one loop driver for every configuration.
:meth:`UpdateModule.process_slots` runs each candidate run of queue
entries through one prediction pipeline — politeness (the paper's
10-second per-site delay and 9PM-6AM crawl window, Section 2.3) and
fault statuses resolve in bulk, each stage only when its layer is
configured — and cuts the run at an overtaking reschedule, a
reallocation trigger, or an entry that needs retry or circuit-breaker
state, which it handles alone exactly as the reference engine would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.api.registry import REVISIT_POLICIES
from repro.core.allurls import AllUrls
from repro.core.collurls import CollUrls
from repro.core.crawl_module import CrawlModule
from repro.core.quality import CollectionQualityCache
from repro.core.ranking_module import RankingModule, RankingModuleConfig
from repro.core.sharding import ShardEngine, ShardView
from repro.core.update_module import UpdateModule, UpdateModuleConfig
from repro.faults import (
    FailureTracker,
    FaultLayer,
    RetryPolicy,
    build_fault_layer,
)
from repro.fetch.fetcher import SimulatedFetcher
from repro.fetch.politeness import NightWindow, PolitenessPolicy
from repro.freshness.policies import RevisitPolicy, build_revisit_policy
from repro.simulation.clock import VirtualClock
from repro.simulation.events import EventQueue, StreamScheduler
from repro.simulation.freshness_tracker import FreshnessTimeSeries, FreshnessTracker
from repro.simweb.web import SimulatedWeb
from repro.storage.checkpoint import (
    CHECKPOINT_FORMAT,
    CollectionJournal,
    CrawlCheckpointer,
)
from repro.storage.collection import InPlaceCollection
from repro.storage.records import record_from_dict, record_to_dict

#: Engines :meth:`IncrementalCrawler.run` can execute with.
CRAWL_ENGINES: Tuple[str, ...] = ("batched", "reference")


@dataclass(frozen=True)
class IncrementalCrawlerConfig:
    """Configuration of the incremental crawler.

    Attributes:
        collection_capacity: Target number of pages in the collection.
        crawl_budget_per_day: Pages fetched per virtual day.
        revisit_policy: Name of a registered revisit policy (``"uniform"``,
            ``"proportional"`` or ``"optimal"`` out of the box); resolved
            through :data:`repro.api.registry.REVISIT_POLICIES`.
        estimator: Name of a registered change-frequency estimator (``"ep"``
            or ``"eb"`` out of the box); resolved through
            :data:`repro.api.registry.ESTIMATORS`.
        importance_metric: ``"pagerank"`` or ``"hits"``.
        ranking_interval_days: How often the RankingModule scan runs.
        reallocation_interval_days: How often revisit intervals are
            recomputed from the latest rate estimates.
        use_importance_in_scheduling: Let the revisit policy weight pages by
            importance.
        measurement_interval_days: How often freshness is sampled.
        default_revisit_interval_days: Revisit interval for pages without a
            change history yet.
        track_quality: Also sample collection quality (needs a ground-truth
            PageRank over the whole web, computed once at start-up).
        use_politeness: Apply the per-site politeness delay to fetches.
            Both engines honour it with bit-identical results; the batched
            engine resolves the delays in bulk.
        politeness_min_delay_seconds: Minimum (virtual) seconds between two
            requests to one site when politeness is on; the paper used 10.
        politeness_night_window: Also restrict fetching to a recurring
            nightly window (the paper's monitoring crawler ran 9PM-6AM).
        politeness_night_start: Start of the nightly window as a fraction
            of a day (0.875 = 9PM).
        politeness_night_duration: Length of the nightly window as a
            fraction of a day (0.375 = nine hours).
        engine: ``"batched"`` (tick-window engine, the default) or
            ``"reference"`` (one event per fetch, the pinned per-URL path).
            Both produce bit-identical results.
        fault_models: Optional fault-model stack as ``(kind, params)``
            pairs, resolved through
            :data:`repro.api.registry.FAULT_MODELS`. ``None`` (the
            default) runs the pre-fault fetch path byte for byte.
        fault_seed: Seed of the fault layer and retry jitter.
        retry: Optional :class:`repro.faults.RetryPolicy` for failed
            fetches (retry backoff and circuit breakers). Defaults apply
            when ``fault_models`` is set without an explicit policy;
            setting ``retry`` alone arms the failure tracker without
            injecting faults.
    """

    collection_capacity: int = 500
    crawl_budget_per_day: float = 2000.0
    revisit_policy: str = "optimal"
    estimator: str = "ep"
    importance_metric: str = "pagerank"
    ranking_interval_days: float = 5.0
    reallocation_interval_days: float = 1.0
    use_importance_in_scheduling: bool = False
    measurement_interval_days: float = 0.5
    default_revisit_interval_days: float = 7.0
    track_quality: bool = True
    use_politeness: bool = False
    politeness_min_delay_seconds: float = 10.0
    politeness_night_window: bool = False
    politeness_night_start: float = 0.875
    politeness_night_duration: float = 0.375
    engine: str = "batched"
    fault_models: Optional[Tuple[Tuple[str, dict], ...]] = None
    fault_seed: int = 0
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.collection_capacity < 1:
            raise ValueError("collection_capacity must be at least 1")
        if self.crawl_budget_per_day <= 0:
            raise ValueError("crawl_budget_per_day must be positive")
        REVISIT_POLICIES.validate(self.revisit_policy)
        if self.ranking_interval_days <= 0:
            raise ValueError("ranking_interval_days must be positive")
        if self.measurement_interval_days <= 0:
            raise ValueError("measurement_interval_days must be positive")
        if self.engine not in CRAWL_ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choices: {', '.join(CRAWL_ENGINES)}"
            )
        if self.politeness_min_delay_seconds < 0:
            raise ValueError("politeness_min_delay_seconds must be non-negative")
        # Build the fault layer once so bad model names/params fail here,
        # not deep inside a run.
        self.build_fault_layer()

    def build_fault_layer(self) -> Optional[FaultLayer]:
        """Instantiate the configured fault layer (``None`` when off)."""
        if not self.fault_models:
            return None
        return build_fault_layer(self.fault_models, seed=self.fault_seed)

    def build_failure_tracker(self) -> Optional[FailureTracker]:
        """Instantiate the failure tracker (``None`` when faults/retry off).

        The tracker is armed whenever faults are injected *or* an explicit
        retry policy is configured; faults without a policy take the
        default :class:`~repro.faults.RetryPolicy`.
        """
        if not self.fault_models and self.retry is None:
            return None
        policy = self.retry if self.retry is not None else RetryPolicy()
        return FailureTracker(policy, seed=self.fault_seed)

    def build_revisit_policy(self) -> RevisitPolicy:
        """Instantiate the configured revisit policy through the registry."""
        return build_revisit_policy(
            self.revisit_policy, use_importance=self.use_importance_in_scheduling
        )

    def build_politeness(self) -> Optional[PolitenessPolicy]:
        """Instantiate the configured politeness policy (``None`` when off)."""
        if not self.use_politeness:
            return None
        window = None
        if self.politeness_night_window:
            window = NightWindow(
                start_fraction=self.politeness_night_start,
                duration_fraction=self.politeness_night_duration,
            )
        return PolitenessPolicy(
            min_delay_seconds=self.politeness_min_delay_seconds,
            night_window=window,
        )


@dataclass
class CrawlRunResult:
    """Outcome of a crawler run.

    Attributes:
        freshness: Sampled freshness time series of the current collection.
        quality: Sampled collection-quality time series (empty when quality
            tracking is disabled).
        pages_crawled: Total successful fetches.
        pages_failed: Fetches of pages that had disappeared (or were
            excluded).
        changes_detected: Re-fetches whose checksum differed.
        pages_replaced: Collection pages displaced by the refinement
            decision.
        duration_days: Length of the run.
    """

    freshness: FreshnessTimeSeries
    quality: List[float] = field(default_factory=list)
    quality_times: List[float] = field(default_factory=list)
    pages_crawled: int = 0
    pages_failed: int = 0
    changes_detected: int = 0
    pages_replaced: int = 0
    duration_days: float = 0.0

    def mean_freshness(self) -> float:
        """Time-averaged freshness over the run."""
        return self.freshness.mean_freshness()

    def final_quality(self) -> float:
        """Last sampled collection quality (0 when not tracked)."""
        return self.quality[-1] if self.quality else 0.0


class IncrementalCrawler:
    """The incremental crawler of Section 5, runnable against a synthetic web.

    Args:
        web: The synthetic web to crawl.
        config: Crawler configuration.
        seed_urls: Starting URLs; defaults to every site's root page (or,
            with a shard view, the view's seed list).
        shard_view: Optional :class:`~repro.core.sharding.ShardView`
            restricting this crawler to one site-affine shard of the URL
            space. The view supplies the default seeds, filters discovered
            links to owned sites (so the shard's AllUrls universe stays
            local), arms the politeness site-affinity guard and restricts
            the quality denominator to attainable-within-shard mass. The
            config's capacity and budget should already be the shard's
            slice (``ShardedCrawler`` passes a per-shard config). ``None``
            — the default — is the unsharded crawler, byte-for-byte the
            pre-shard behaviour.

    Politeness, fault injection and the retry policy are layers of the one
    fetcher and update module the crawler builds; both engines honour any
    combination of them with bit-identical results (see
    :meth:`UpdateModule.process_slots` for how the batched engine does).
    """

    def __init__(
        self,
        web: SimulatedWeb,
        config: Optional[IncrementalCrawlerConfig] = None,
        seed_urls: Optional[Sequence[str]] = None,
        shard_view: Optional[ShardView] = None,
    ) -> None:
        self._web = web
        self._config = config if config is not None else IncrementalCrawlerConfig()
        self._shard_view = shard_view
        if seed_urls is not None:
            self._seeds = list(seed_urls)
        elif shard_view is not None:
            self._seeds = list(shard_view.seed_urls)
        else:
            self._seeds = web.seed_urls()
        if not self._seeds:
            raise ValueError("the crawler needs at least one seed URL")

        allowed_sites = None
        link_filter = None
        if shard_view is not None and not shard_view.is_total:
            allowed_sites = frozenset(shard_view.site_ids)
            link_filter = self._owns_url
        politeness = self._config.build_politeness()
        if politeness is not None and allowed_sites is not None:
            # Site-affinity contract: per-site politeness state must never
            # cross a shard boundary, so a foreign-site request raises.
            politeness.allowed_sites = allowed_sites
        self._fetcher = SimulatedFetcher(
            web, politeness=politeness, faults=self._config.build_fault_layer()
        )
        self._collection = InPlaceCollection(capacity=self._config.collection_capacity)
        self._allurls = AllUrls()
        self._collurls = CollUrls()
        self._crawl_module = CrawlModule(
            self._fetcher, self._collection, self._allurls, link_filter=link_filter
        )
        self._failure_tracker = self._config.build_failure_tracker()
        self._update_module = UpdateModule(
            self._collurls,
            self._crawl_module,
            UpdateModuleConfig(
                crawl_budget_per_day=self._config.crawl_budget_per_day,
                estimator=self._config.estimator,
                default_interval_days=self._config.default_revisit_interval_days,
                reallocation_interval_days=self._config.reallocation_interval_days,
                use_importance=self._config.use_importance_in_scheduling,
            ),
            revisit_policy=self._config.build_revisit_policy(),
            failure_tracker=self._failure_tracker,
        )
        self._ranking_module = RankingModule(
            self._allurls,
            self._collurls,
            self._collection,
            self._crawl_module,
            RankingModuleConfig(importance_metric=self._config.importance_metric),
            capacity=self._config.collection_capacity,
        )
        self._quality_cache: Optional[CollectionQualityCache] = None
        #: Optional hook invoked after every measurement event with
        #: ``(at, freshness, quality-or-None)``; the sharded coordinator
        #: uses it to stream per-window results over its queue.
        self.on_measure = None

    def _owns_url(self, url: str) -> bool:
        """Shard link filter: keep only URLs of sites this shard owns.

        URLs the web does not know cannot be routed to a site (and could
        never be fetched successfully), so they are dropped too — each
        shard's discovered universe stays site-affine by construction.
        """
        if url not in self._web:
            return False
        return self._shard_view.owns_site(self._web.page(url).site_id)

    # ------------------------------------------------------------------ #
    # Accessors (useful for tests and examples)
    # ------------------------------------------------------------------ #
    @property
    def collection(self) -> InPlaceCollection:
        """The crawler's collection."""
        return self._collection

    @property
    def allurls(self) -> AllUrls:
        """The discovered-URL registry."""
        return self._allurls

    @property
    def collurls(self) -> CollUrls:
        """The collection URL priority queue."""
        return self._collurls

    @property
    def update_module(self) -> UpdateModule:
        """The UpdateModule (exposes per-page rate estimates)."""
        return self._update_module

    @property
    def failure_tracker(self) -> Optional[FailureTracker]:
        """The failure tracker (``None`` when faults and retry are off)."""
        return self._failure_tracker

    def failure_counters(self) -> Optional[dict]:
        """Failure counters by class (``None`` without a failure tracker)."""
        if self._failure_tracker is None:
            return None
        return dict(self._failure_tracker.counters)

    @property
    def ranking_module(self) -> RankingModule:
        """The RankingModule (exposes refinement statistics)."""
        return self._ranking_module

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(
        self,
        duration_days: float,
        start_time: float = 0.0,
        *,
        journal: Optional[CollectionJournal] = None,
        checkpointer: Optional[CrawlCheckpointer] = None,
        resume_state: Optional[dict] = None,
    ) -> CrawlRunResult:
        """Run the crawler for ``duration_days`` of virtual time.

        Dispatches to the engine named by the configuration: the batched
        tick-window engine by default, or the per-URL reference loop. Both
        engines yield bit-identical results, with or without politeness.

        Args:
            duration_days: How long to run.
            start_time: Virtual time at which the run starts.
            journal: Optional :class:`CollectionJournal` mirroring records
                and change events into a storage backend as the crawl
                proceeds (works on both engines).
            checkpointer: Optional :class:`CrawlCheckpointer` persisting
                resumable state snapshots at event boundaries (batched
                engine only — the reference engine's event queue holds
                closures, which cannot be serialized).
            resume_state: A checkpoint previously written by this
                configuration, loaded via ``CrawlCheckpointer.load()``. The
                crawler must be freshly constructed; the run continues from
                the checkpoint and produces results bit-identical to an
                uninterrupted run.

        Returns:
            A :class:`CrawlRunResult` with freshness/quality series and
            counters.
        """
        if duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if (checkpointer is not None or resume_state is not None) and (
            self._config.engine != "batched"
        ):
            raise ValueError(
                "checkpoint/resume requires the batched engine; the reference "
                "engine's event queue holds closures and cannot be snapshotted"
            )
        end_time = min(start_time + duration_days, self._web.horizon_days)

        tracker = FreshnessTracker(
            self._web,
            self._collection,
            denominator=self._config.collection_capacity,
        )
        result = CrawlRunResult(freshness=tracker.series, duration_days=duration_days)
        self._crawl_module.journal = journal

        scheduler: Optional[StreamScheduler] = None
        if resume_state is not None:
            scheduler = self._restore_state(
                resume_state, start_time, duration_days, tracker, result, journal
            )
            if checkpointer is not None:
                checkpointer.start(float(resume_state["checkpoint_at"]))
        else:
            self._bootstrap(start_time)
            if checkpointer is not None:
                checkpointer.start(start_time)

        if self._config.engine == "batched":
            self._run_batched(
                start_time,
                end_time,
                tracker,
                result,
                checkpointer=checkpointer,
                scheduler=scheduler,
            )
        else:
            self._run_reference(start_time, end_time, tracker, result)

        result.pages_crawled = self._crawl_module.pages_fetched
        result.pages_failed = self._crawl_module.pages_failed
        result.changes_detected = self._update_module.changes_detected
        result.pages_replaced = self._ranking_module.pages_replaced
        return result

    # ------------------------------------------------------------------ #
    # Engines
    # ------------------------------------------------------------------ #
    def _run_reference(
        self,
        start_time: float,
        end_time: float,
        tracker: FreshnessTracker,
        result: CrawlRunResult,
    ) -> None:
        """The pinned per-URL engine: one event queue callback per fetch."""
        clock = VirtualClock(start_time)
        queue = EventQueue(clock)
        crawl_period = 1.0 / self._config.crawl_budget_per_day

        def crawl_step(at: float) -> None:
            self._update_module.process_next(at)
            queue.schedule(at + crawl_period, crawl_step, label="crawl")

        def ranking_step(at: float) -> None:
            refinement = self._ranking_module.refine(at)
            self._update_module.set_importance(refinement.importance)
            self._refresh_journal_records()
            queue.schedule(
                at + self._config.ranking_interval_days, ranking_step, label="ranking"
            )

        def measure_step(at: float) -> None:
            tracker.sample(at)
            if self._config.track_quality:
                self._sample_quality(result, at)
            queue.schedule(
                at + self._config.measurement_interval_days, measure_step, label="measure"
            )

        queue.schedule(start_time, crawl_step, label="crawl")
        queue.schedule(start_time, ranking_step, label="ranking")
        queue.schedule(start_time, measure_step, label="measure")
        queue.run_until(end_time)

    def _run_batched(
        self,
        start_time: float,
        end_time: float,
        tracker: FreshnessTracker,
        result: CrawlRunResult,
        checkpointer: Optional[CrawlCheckpointer] = None,
        scheduler: Optional[StreamScheduler] = None,
    ) -> None:
        """The batched engine: crawl slots drained one tick window at a time.

        The loop itself lives in :class:`~repro.core.sharding.ShardEngine`
        (extracted so sharded workers drive the identical code); this
        method builds the engine around this crawler's modules and
        delegates. See the engine's docstring for the tick-window and
        checkpoint semantics.
        """
        engine = ShardEngine(
            update_module=self._update_module,
            ranking_module=self._ranking_module,
            crawl_budget_per_day=self._config.crawl_budget_per_day,
            ranking_interval_days=self._config.ranking_interval_days,
            measurement_interval_days=self._config.measurement_interval_days,
            track_quality=self._config.track_quality,
            sample_quality=lambda at: self._sample_quality(result, at),
            refresh_journal=self._refresh_journal_records,
            on_measure=self.on_measure,
        )
        engine.run(
            start_time,
            end_time,
            tracker,
            checkpointer=checkpointer,
            scheduler=scheduler,
            snapshot=lambda at, sched: self._snapshot_state(
                at, start_time, end_time, sched, tracker, result
            ),
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _bootstrap(self, start_time: float) -> None:
        """Seed AllUrls and CollUrls with the configured seed URLs.

        All seeds are scheduled at exactly ``start_time``; the queue's
        sequence tie-break serves them in seed order, so bulk scheduling is
        collision-safe without spreading artificial epsilon offsets.
        """
        fresh = []
        for url in self._seeds:
            self._allurls.add(url, discovered_at=start_time)
            if url not in self._collurls:
                fresh.append(url)
        self._collurls.schedule_many(fresh, [start_time] * len(fresh))

    def _sample_quality(self, result: CrawlRunResult, at: float) -> float:
        if self._quality_cache is None:
            subset = None
            if self._shard_view is not None and not self._shard_view.is_total:
                # A shard can only ever collect pages of the sites it owns,
                # so its attainable mass is the best `capacity` pages *within
                # the shard*. The per-shard attainable masses are the weights
                # the coordinator merges shard quality series with.
                subset = [
                    page.url
                    for site_id in self._shard_view.site_ids
                    for page in self._web.site(site_id).all_pages
                ]
            self._quality_cache = CollectionQualityCache(
                self._web,
                capacity=self._config.collection_capacity,
                subset=subset,
            )
        quality = self._quality_cache.quality(self._collection.current_urls())
        result.quality.append(quality)
        result.quality_times.append(at)
        return quality

    def quality_attainable(self) -> Optional[float]:
        """Attainable importance mass of this crawler's quality denominator.

        ``None`` until the first quality sample built the cache (or when
        quality tracking is off). The sharded coordinator uses these masses
        as the deterministic weights of its merged quality series.
        """
        if self._quality_cache is None:
            return None
        return self._quality_cache.attainable_mass

    def _refresh_journal_records(self) -> None:
        """Mirror the full collection after a ranking scan rewrote importance."""
        journal = self._crawl_module.journal
        if journal is not None:
            journal.refresh_records(self._collection.working_records())

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def _snapshot_state(
        self,
        at: float,
        start_time: float,
        end_time: float,
        scheduler: StreamScheduler,
        tracker: FreshnessTracker,
        result: CrawlRunResult,
    ) -> dict:
        """Assemble a JSON-serializable snapshot of the full crawler state.

        Taken with the head event still pending on the scheduler: restoring
        this state into a freshly constructed crawler replays the run from
        here bit-identically. Every float travels verbatim (JSON round-trips
        doubles exactly) and dict insertion order — which feeds ordered
        float reductions in the UpdateModule — survives serialization.
        """
        journal = self._crawl_module.journal
        politeness = self._fetcher.politeness
        return {
            "format": CHECKPOINT_FORMAT,
            "engine": "batched",
            "start_time": start_time,
            "end_time": end_time,
            "duration_days": result.duration_days,
            "checkpoint_at": at,
            "scheduler": scheduler.snapshot(),
            "collurls": self._collurls.snapshot(),
            "collection": [
                record_to_dict(record)
                for record in self._collection.working_records()
            ],
            "allurls": self._allurls.snapshot(),
            "update": self._update_module.snapshot(),
            "crawl": self._crawl_module.snapshot(),
            "ranking": self._ranking_module.snapshot(),
            "fetch_count": self._fetcher.fetch_count,
            "politeness": politeness.snapshot() if politeness is not None else None,
            "freshness": {
                "times": list(tracker.series.times),
                "freshness": list(tracker.series.freshness),
                "age": list(tracker.series.age),
            },
            "quality": {
                "times": list(result.quality_times),
                "values": list(result.quality),
            },
            "journal": journal.snapshot() if journal is not None else None,
        }

    def _restore_state(
        self,
        state: dict,
        start_time: float,
        duration_days: float,
        tracker: FreshnessTracker,
        result: CrawlRunResult,
        journal: Optional[CollectionJournal],
    ) -> StreamScheduler:
        """Rebuild crawler state from a checkpoint and return the scheduler.

        The crawler must be freshly constructed (as after a process kill):
        restoration *replays* collection stores in checkpoint order so the
        repository's insertion order — and with it every scan order
        downstream — matches the uninterrupted run.
        """
        fmt = state.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(
                f"unsupported checkpoint format {fmt!r} "
                f"(this build reads format {CHECKPOINT_FORMAT})"
            )
        if float(state["start_time"]) != start_time:
            raise ValueError(
                f"checkpoint was taken for start_time={state['start_time']}, "
                f"got {start_time}"
            )
        if float(state["duration_days"]) != duration_days:
            raise ValueError(
                f"checkpoint was taken for duration_days={state['duration_days']}, "
                f"got {duration_days}"
            )

        scheduler = StreamScheduler()
        scheduler.restore_snapshot(state["scheduler"])
        self._collurls.restore_snapshot(state["collurls"])
        for payload in state["collection"]:
            self._collection.store(record_from_dict(payload))
        self._allurls.restore_snapshot(state["allurls"])
        self._update_module.restore_snapshot(state["update"])
        self._crawl_module.restore_snapshot(state["crawl"])
        self._ranking_module.restore_snapshot(state["ranking"])
        self._fetcher.fetch_count = int(state["fetch_count"])

        politeness = self._fetcher.politeness
        saved_politeness = state.get("politeness")
        if politeness is not None:
            if saved_politeness is None:
                raise ValueError(
                    "checkpoint was taken without politeness but this "
                    "configuration enables it"
                )
            politeness.restore_snapshot(saved_politeness)
        elif saved_politeness is not None:
            raise ValueError(
                "checkpoint was taken with politeness but this "
                "configuration disables it"
            )

        # ``result.freshness`` *is* ``tracker.series`` (same object), so
        # restoring the tracker restores the result series too.
        freshness = state["freshness"]
        tracker.series.times[:] = [float(t) for t in freshness["times"]]
        tracker.series.freshness[:] = [float(f) for f in freshness["freshness"]]
        tracker.series.age[:] = [float(a) for a in freshness["age"]]
        quality = state["quality"]
        result.quality[:] = [float(v) for v in quality["values"]]
        result.quality_times[:] = [float(t) for t in quality["times"]]

        if journal is not None and state.get("journal") is not None:
            journal.restore_snapshot(state["journal"])
        return scheduler
