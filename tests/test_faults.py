"""Fault injection and the failure-aware crawl engine.

Covers the whole robustness stack: the seeded fault models (determinism,
scalar/vector agreement, precedence), the retry policy and failure tracker
(backoff, budgets, circuit breaker, snapshot/merge), the spec-layer knobs
(round trips, hash stability of fault-free specs), cross-engine
bit-identity under faults, checkpoint integrity checksums with
previous-snapshot fallback, and the sharded coordinator's worker-failure
handling. Hypothesis properties pin the determinism and non-starvation
guarantees the engine relies on.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.specs import CrawlerSpec, FaultModelSpec, FaultsSpec, RetrySpec
from repro.core.incremental_crawler import IncrementalCrawler, IncrementalCrawlerConfig
from repro.core.sharded_crawler import ShardedCrawler, ShardRunSpec
from repro.faults import (
    HARD_FAULT_CODES,
    STATUS_OK,
    STATUS_RATE_LIMITED,
    STATUS_SERVER_ERROR,
    STATUS_SOFT_404,
    STATUS_TIMEOUT,
    TRANSIENT_CODES,
    FailureTracker,
    FaultLayer,
    RetryPolicy,
    _retry_jitter,
    build_fault_layer,
)
from repro.simweb.generator import WebGeneratorConfig, generate_web
from repro.storage.backends import MemoryBackend
from repro.storage.checkpoint import (
    CHECKPOINT_PREV_STATE_KEY,
    CHECKPOINT_STATE_KEY,
    CrawlCheckpointer,
    checkpoint_integrity,
)
from repro.workers import reap

WEB_CONFIG = WebGeneratorConfig(
    site_scale=0.03,
    pages_per_site=10,
    horizon_days=30.0,
    new_page_fraction=0.25,
    seed=19,
)

FAULT_MODELS = (
    ("transient", {"rate": 0.08}),
    ("site_outage", {"rate": 0.3, "period_days": 5.0, "duration_days": 1.0}),
    ("rate_limit", {"rate": 0.05, "retry_after_days": 0.5}),
    ("soft_404", {"rate": 0.05, "flap_period_days": 3.0}),
    ("latency", {"factor": 3.0, "rate": 0.25}),
)


def _batch(n=200, seed=0):
    rng = np.random.default_rng(seed)
    urls = [f"http://site{i % 17}.test/page{i}" for i in range(n)]
    sites = [f"site{i % 17}" for i in range(n)]
    times = np.sort(rng.uniform(0.0, 30.0, size=n)).tolist()
    return urls, sites, times


# --------------------------------------------------------------------------- #
# Fault models
# --------------------------------------------------------------------------- #


class TestFaultModels:
    def test_deterministic_for_fixed_seed(self):
        urls, sites, times = _batch()
        a = build_fault_layer(FAULT_MODELS, seed=7).resolve(urls, sites, times)
        b = build_fault_layer(FAULT_MODELS, seed=7).resolve(urls, sites, times)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_seed_changes_the_weather(self):
        urls, sites, times = _batch()
        a = build_fault_layer(FAULT_MODELS, seed=7).resolve(urls, sites, times)[0]
        b = build_fault_layer(FAULT_MODELS, seed=8).resolve(urls, sites, times)[0]
        assert not np.array_equal(a, b)

    def test_scalar_resolve_matches_vector(self):
        urls, sites, times = _batch(n=64)
        layer = build_fault_layer(FAULT_MODELS, seed=3)
        codes, retry_after = layer.resolve(urls, sites, times)
        for i, (url, site, at) in enumerate(zip(urls, sites, times)):
            code, hint = layer.resolve_one(url, site, at)
            assert code == codes[i]
            assert hint == retry_after[i]

    def test_first_model_wins(self):
        urls, sites, times = _batch(n=50)
        outage_first = build_fault_layer(
            (
                ("site_outage", {"rate": 1.0, "period_days": 1.0, "duration_days": 1.0}),
                ("transient", {"rate": 1.0, "timeout_fraction": 1.0}),
            ),
            seed=1,
        )
        codes, _ = outage_first.resolve(urls, sites, times)
        assert np.all(codes == STATUS_SERVER_ERROR)
        transient_first = build_fault_layer(
            (
                ("transient", {"rate": 1.0, "timeout_fraction": 1.0}),
                ("site_outage", {"rate": 1.0, "period_days": 1.0, "duration_days": 1.0}),
            ),
            seed=1,
        )
        codes, _ = transient_first.resolve(urls, sites, times)
        assert np.all(codes == STATUS_TIMEOUT)

    def test_zero_rate_layer_is_silent(self):
        urls, sites, times = _batch()
        layer = build_fault_layer(
            tuple((kind, {**params, "rate": 0.0}) for kind, params in FAULT_MODELS),
            seed=5,
        )
        codes, retry_after = layer.resolve(urls, sites, times)
        assert np.all(codes == STATUS_OK)
        assert np.all(retry_after == 0.0)
        assert np.all(layer.latency_factors(times) == 1.0)

    def test_rate_limit_carries_retry_after(self):
        urls, sites, times = _batch()
        layer = build_fault_layer(
            (("rate_limit", {"rate": 1.0, "retry_after_days": 0.75}),), seed=2
        )
        codes, retry_after = layer.resolve(urls, sites, times)
        assert np.all(codes == STATUS_RATE_LIMITED)
        assert np.all(retry_after == 0.75)

    def test_hit_rate_tracks_configured_rate(self):
        urls, sites, times = _batch(n=4000)
        layer = build_fault_layer((("transient", {"rate": 0.3}),), seed=11)
        codes, _ = layer.resolve(urls, sites, times)
        hit_rate = float(np.mean(codes != STATUS_OK))
        assert 0.25 < hit_rate < 0.35

    def test_site_outage_is_correlated_within_a_site(self):
        # Every page of a dark site fails together: group codes by site at
        # one instant and check each site is all-dark or all-clear.
        layer = build_fault_layer(
            (("site_outage", {"rate": 0.5, "period_days": 5.0, "duration_days": 5.0}),),
            seed=4,
        )
        urls = [f"http://s{i // 10}.test/p{i % 10}" for i in range(200)]
        sites = [f"s{i // 10}" for i in range(200)]
        codes, _ = layer.resolve(urls, sites, [2.0] * 200)
        by_site = {}
        for site, code in zip(sites, codes):
            by_site.setdefault(site, set()).add(int(code))
        assert all(len(states) == 1 for states in by_site.values())
        assert any(states == {STATUS_SERVER_ERROR} for states in by_site.values())
        assert any(states == {STATUS_OK} for states in by_site.values())

    def test_latency_is_a_pure_function_of_time(self):
        layer = build_fault_layer(
            (("latency", {"factor": 4.0, "rate": 0.5, "period_days": 1.0}),), seed=6
        )
        times = np.linspace(0.0, 20.0, 200)
        factors = layer.latency_factors(times)
        assert set(np.unique(factors)) <= {1.0, 4.0}
        assert 1.0 in factors and 4.0 in factors
        for i in (0, 57, 133):
            assert layer.latency_factor_one(float(times[i])) == factors[i]
        assert not layer.has_status_models
        assert layer.has_latency_models

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="rate"):
            build_fault_layer((("transient", {"rate": 1.5}),))
        with pytest.raises(ValueError, match="duration_days"):
            build_fault_layer(
                (("site_outage", {"period_days": 1.0, "duration_days": 2.0}),)
            )
        with pytest.raises(ValueError, match="retry_after_days"):
            build_fault_layer((("rate_limit", {"retry_after_days": 0.0}),))
        with pytest.raises(ValueError, match="unknown fault model"):
            build_fault_layer((("cosmic_rays", {}),))

    def test_code_taxonomy(self):
        assert set(HARD_FAULT_CODES) < set(TRANSIENT_CODES)
        assert STATUS_SOFT_404 in TRANSIENT_CODES
        assert STATUS_SOFT_404 not in HARD_FAULT_CODES


# --------------------------------------------------------------------------- #
# Retry policy and failure tracker
# --------------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_days=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(site_budget=-1)
        with pytest.raises(ValueError):
            RetryPolicy(breaker_threshold=0)
        with pytest.raises(ValueError):
            RetryPolicy(breaker_backoff=0.9)

    def test_to_dict_is_json_plain(self):
        doc = RetryPolicy(site_budget=10).to_dict()
        assert doc["site_budget"] == 10
        assert doc["max_attempts"] == 3
        assert RetryPolicy(**doc) == RetryPolicy(site_budget=10)


class TestFailureTracker:
    def test_exponential_backoff_without_jitter(self):
        policy = RetryPolicy(max_attempts=4, base_delay_days=0.5, multiplier=2.0, jitter=0.0)
        tracker = FailureTracker(policy, seed=0)
        at1 = tracker.on_failure("u", "s", STATUS_TIMEOUT, completed=10.0)
        at2 = tracker.on_failure("u", "s", STATUS_TIMEOUT, completed=11.0)
        at3 = tracker.on_failure("u", "s", STATUS_TIMEOUT, completed=12.0)
        assert at1 == 10.0 + 0.5
        assert at2 == 11.0 + 1.0
        assert at3 == 12.0 + 2.0
        # Fourth attempt exhausts the policy: terminal.
        assert tracker.on_failure("u", "s", STATUS_TIMEOUT, completed=13.0) is None
        assert tracker.counters["retries"] == 3
        assert tracker.counters["retry_drops"] == 1
        assert tracker.counters["timeouts"] == 4

    def test_rate_limited_honours_retry_after(self):
        policy = RetryPolicy(base_delay_days=0.25, jitter=0.0)
        tracker = FailureTracker(policy, seed=0)
        at = tracker.on_failure(
            "u", "s", STATUS_RATE_LIMITED, completed=5.0, retry_after=2.0
        )
        assert at == 5.0 + 2.0  # hint dominates the 0.25 backoff
        assert tracker.counters["rate_limited"] == 1

    def test_success_resets_the_attempt_counter(self):
        policy = RetryPolicy(max_attempts=2, base_delay_days=1.0, jitter=0.0)
        tracker = FailureTracker(policy, seed=0)
        assert tracker.on_failure("u", "s", STATUS_TIMEOUT, 0.0) == 1.0
        tracker.on_success("u", "s")
        # Back to attempt 1 — not terminal despite max_attempts=2.
        assert tracker.on_failure("u", "s", STATUS_TIMEOUT, 2.0) == 3.0

    def test_breaker_trips_after_threshold_and_decays(self):
        policy = RetryPolicy(
            max_attempts=10,
            jitter=0.0,
            breaker_threshold=3,
            breaker_probe_days=1.0,
            breaker_backoff=2.0,
        )
        tracker = FailureTracker(policy, seed=0)
        for i, url in enumerate(["a", "b"]):
            tracker.on_failure(url, "site", STATUS_SERVER_ERROR, float(i))
            assert not tracker.quarantined("site", float(i) + 0.01)
        tracker.on_failure("c", "site", STATUS_SERVER_ERROR, 2.0)
        assert tracker.counters["breaker_trips"] == 1
        assert tracker.quarantined("site", 2.5)
        assert not tracker.quarantined("site", 3.5)  # probe at 2.0 + 1.0
        # One failed probe re-trips with a doubled quarantine.
        tracker.on_failure("d", "site", STATUS_SERVER_ERROR, 3.5)
        assert tracker.counters["breaker_trips"] == 2
        assert tracker.quarantined("site", 5.0)  # until 3.5 + 2.0
        assert not tracker.quarantined("site", 5.6)
        # A success fully resets: next streak needs the whole threshold.
        tracker.on_success("d", "site")
        assert not tracker.quarantined("site", 0.0)
        tracker.on_failure("e", "site", STATUS_SERVER_ERROR, 6.0)
        assert tracker.counters["breaker_trips"] == 2

    def test_site_budget_exhaustion_is_terminal(self):
        policy = RetryPolicy(max_attempts=5, jitter=0.0, site_budget=1)
        tracker = FailureTracker(policy, seed=0)
        assert tracker.on_failure("u1", "s", STATUS_TIMEOUT, 0.0) is not None
        assert tracker.on_failure("u2", "s", STATUS_TIMEOUT, 0.0) is None
        assert tracker.counters["retry_drops"] == 1

    def test_snapshot_round_trip(self):
        tracker = FailureTracker(RetryPolicy(breaker_threshold=2), seed=9)
        tracker.on_failure("u1", "s1", STATUS_TIMEOUT, 1.0)
        tracker.on_failure("u2", "s1", STATUS_SOFT_404, 2.0)
        tracker.on_failure("u3", "s2", STATUS_RATE_LIMITED, 3.0, retry_after=1.0)
        state = tracker.snapshot()
        other = FailureTracker(RetryPolicy(breaker_threshold=2), seed=9)
        other.restore_snapshot(state)
        assert other.snapshot() == state
        # Restored trackers continue identically.
        assert other.on_failure("u4", "s1", STATUS_TIMEOUT, 4.0) == tracker.on_failure(
            "u4", "s1", STATUS_TIMEOUT, 4.0
        )

    def test_merge_snapshots_sums_counters_and_rejects_collisions(self):
        a = FailureTracker(RetryPolicy(), seed=0)
        a.on_failure("u1", "s1", STATUS_TIMEOUT, 1.0)
        b = FailureTracker(RetryPolicy(), seed=0)
        b.on_failure("u2", "s2", STATUS_SERVER_ERROR, 1.0)
        merged = FailureTracker.merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["timeouts"] == 1
        assert merged["counters"]["server_errors"] == 1
        assert merged["counters"]["retries"] == 2
        assert set(merged["attempts"]) == {"u1", "u2"}
        with pytest.raises(ValueError, match="collision"):
            FailureTracker.merge_snapshots([a.snapshot(), a.snapshot()])


# --------------------------------------------------------------------------- #
# Hypothesis properties
# --------------------------------------------------------------------------- #


class TestFailureProperties:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32), attempt=st.integers(1, 12))
    def test_retry_jitter_is_deterministic_and_bounded(self, seed, attempt):
        a = _retry_jitter("http://x.test/p", attempt, seed, 0.25)
        b = _retry_jitter("http://x.test/p", attempt, seed, 0.25)
        assert a == b
        assert 0.75 <= a < 1.25

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        statuses=st.lists(
            st.sampled_from(sorted(TRANSIENT_CODES)), min_size=1, max_size=8
        ),
    )
    def test_tracker_replays_identically_for_fixed_seed(self, seed, statuses):
        policy = RetryPolicy(max_attempts=20)
        runs = []
        for _ in range(2):
            tracker = FailureTracker(policy, seed=seed)
            runs.append(
                [
                    tracker.on_failure(f"u{i}", "s", status, float(i))
                    for i, status in enumerate(statuses)
                ]
            )
        assert runs[0] == runs[1]

    @settings(max_examples=25, deadline=None)
    @given(
        threshold=st.integers(1, 5),
        probe_days=st.floats(0.1, 5.0),
        backoff=st.floats(1.0, 4.0),
        trips=st.integers(1, 6),
    )
    def test_breaker_never_starves_a_recovered_site(
        self, threshold, probe_days, backoff, trips
    ):
        """Quarantines always end, and one success clears the breaker."""
        policy = RetryPolicy(
            max_attempts=100,
            jitter=0.0,
            breaker_threshold=threshold,
            breaker_probe_days=probe_days,
            breaker_backoff=backoff,
        )
        tracker = FailureTracker(policy, seed=0)
        at = 0.0
        for trip in range(trips):
            needed = threshold if trip == 0 else 1  # probation re-trips on one
            for i in range(needed):
                tracker.on_failure(f"u{trip}-{i}", "site", STATUS_TIMEOUT, at)
                at += 0.001
            quarantine = probe_days * backoff ** trip
            assert tracker.quarantined("site", at)
            # The quarantine is finite: the probe slot is always reachable.
            assert not tracker.quarantined("site", at + quarantine + 1e-6)
            at += quarantine + 1e-3
        tracker.on_success("probe", "site")
        assert not tracker.quarantined("site", at)
        assert tracker.counters["breaker_trips"] == trips

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 64))
    def test_zero_rate_models_never_claim_a_fetch(self, seed, n):
        urls, sites, times = _batch(n=n, seed=seed % 1000)
        layer = build_fault_layer(
            (
                ("transient", {"rate": 0.0}),
                ("site_outage", {"rate": 0.0}),
                ("rate_limit", {"rate": 0.0}),
                ("soft_404", {"rate": 0.0}),
            ),
            seed=seed,
        )
        codes, retry_after = layer.resolve(urls, sites, times)
        assert np.all(codes == STATUS_OK)
        assert np.all(retry_after == 0.0)


# --------------------------------------------------------------------------- #
# Spec layer
# --------------------------------------------------------------------------- #


class TestFaultSpecs:
    def test_fault_model_spec_validates_kind_and_params(self):
        with pytest.raises(ValueError):
            FaultModelSpec(kind="cosmic_rays")
        with pytest.raises(ValueError):
            FaultModelSpec(kind="transient", params={"rating": 0.1})
        with pytest.raises(ValueError):
            FaultModelSpec(kind="transient", params={"rate": 2.0})
        spec = FaultModelSpec(kind="transient", params={"rate": 0.1})
        assert spec.to_model_tuple() == ("transient", {"rate": 0.1})

    def test_faults_spec_round_trip(self):
        spec = FaultsSpec(
            models=(
                FaultModelSpec(kind="transient", params={"rate": 0.05}),
                FaultModelSpec(kind="latency", params={"factor": 2.0}),
            ),
            seed=9,
        )
        doc = spec.to_dict()
        assert doc["seed"] == 9
        assert [m["kind"] for m in doc["models"]] == ["transient", "latency"]
        assert FaultsSpec.from_dict(doc) == spec
        with pytest.raises(ValueError):
            FaultsSpec(models=())
        with pytest.raises(ValueError):
            FaultsSpec.from_dict({"models": [], "seed": 0, "bogus": 1})

    def test_retry_spec_round_trip(self):
        spec = RetrySpec(max_attempts=5, site_budget=20)
        assert spec.to_retry_policy() == RetryPolicy(max_attempts=5, site_budget=20)
        assert RetrySpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            RetrySpec(max_attempts=0)

    def test_crawler_spec_omits_faults_when_none(self):
        """Fault-free specs serialize byte-identically to the pre-fault era."""
        doc = CrawlerSpec().to_dict()
        assert "faults" not in doc
        assert "retry" not in doc

    def test_crawler_spec_round_trips_faults(self):
        spec = CrawlerSpec(
            faults=FaultsSpec(
                models=(FaultModelSpec(kind="transient", params={"rate": 0.1}),),
                seed=3,
            ),
            retry=RetrySpec(max_attempts=4),
        )
        restored = CrawlerSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.faults.to_model_tuples() == (("transient", {"rate": 0.1}),)
        assert restored.retry.to_retry_policy().max_attempts == 4

    def test_faults_require_the_incremental_crawler(self):
        with pytest.raises(ValueError, match="incremental"):
            CrawlerSpec(
                kind="periodic",
                faults=FaultsSpec(models=(FaultModelSpec(kind="transient"),)),
            )
        with pytest.raises(ValueError, match="incremental"):
            CrawlerSpec(kind="periodic", retry=RetrySpec())


# --------------------------------------------------------------------------- #
# Engine parity under faults
# --------------------------------------------------------------------------- #


def _run_faulty(engine, fault_models, retry=None, fault_seed=5, **politeness):
    web = generate_web(WEB_CONFIG)
    crawler = IncrementalCrawler(
        web,
        IncrementalCrawlerConfig(
            collection_capacity=60,
            crawl_budget_per_day=250.0,
            engine=engine,
            measurement_interval_days=1.0,
            track_quality=False,
            fault_models=fault_models,
            fault_seed=fault_seed,
            retry=retry,
            **politeness,
        ),
    )
    result = crawler.run(12.0)
    return result, crawler


#: Politeness settings the full-weather parity runs are crossed with: none,
#: and the paper's 10 s per-site delay plus the 9 pm-6 am night window.
POLITENESS_CASES = {
    "no-politeness": {},
    "polite": {
        "use_politeness": True,
        "politeness_min_delay_seconds": 10.0,
        "politeness_night_window": True,
    },
}


class TestEngineParityUnderFaults:
    @pytest.mark.parametrize(
        "politeness", list(POLITENESS_CASES.values()), ids=list(POLITENESS_CASES)
    )
    def test_batched_matches_reference_under_full_weather(self, politeness):
        retry = RetryPolicy(max_attempts=3, breaker_threshold=4)
        batched, crawler_b = _run_faulty("batched", FAULT_MODELS, retry, **politeness)
        reference, crawler_r = _run_faulty(
            "reference", FAULT_MODELS, retry, **politeness
        )
        assert batched.pages_crawled == reference.pages_crawled
        assert batched.pages_failed == reference.pages_failed
        assert batched.changes_detected == reference.changes_detected
        assert batched.freshness.times == reference.freshness.times
        assert batched.freshness.freshness == reference.freshness.freshness
        counters = crawler_b.failure_counters()
        assert counters == crawler_r.failure_counters()
        assert sum(counters.values()) > 0  # the weather actually blew
        assert (
            crawler_b.update_module.estimated_rates()
            == crawler_r.update_module.estimated_rates()
        )
        records_b = {
            r.url: (r.fetched_at, r.visit_count, r.change_count)
            for r in crawler_b.collection.current_records()
        }
        records_r = {
            r.url: (r.fetched_at, r.visit_count, r.change_count)
            for r in crawler_r.collection.current_records()
        }
        assert records_b == records_r

    def test_zero_rate_faults_are_bit_identical_to_no_faults(self):
        zero = tuple((kind, {**params, "rate": 0.0}) for kind, params in FAULT_MODELS)
        plain, _ = _run_faulty("batched", None)
        armed, crawler = _run_faulty("batched", zero)
        assert armed.pages_crawled == plain.pages_crawled
        assert armed.pages_failed == plain.pages_failed
        assert armed.changes_detected == plain.changes_detected
        assert armed.freshness.times == plain.freshness.times
        assert armed.freshness.freshness == plain.freshness.freshness
        assert all(v == 0 for v in crawler.failure_counters().values())

    def test_single_shard_sharded_matches_plain_under_faults(self):
        retry = RetryPolicy(max_attempts=3)
        plain, crawler = _run_faulty("batched", FAULT_MODELS, retry)
        web = generate_web(WEB_CONFIG)
        sharded = ShardedCrawler(
            web,
            IncrementalCrawlerConfig(
                collection_capacity=60,
                crawl_budget_per_day=250.0,
                measurement_interval_days=1.0,
                track_quality=False,
                fault_models=FAULT_MODELS,
                fault_seed=5,
                retry=retry,
            ),
            shards=1,
        ).run(12.0)
        assert sharded.pages_crawled == plain.pages_crawled
        assert sharded.freshness.times == plain.freshness.times
        assert sharded.freshness.freshness == plain.freshness.freshness
        assert sharded.failures == crawler.failure_counters()

    def test_soft_404_accounting_is_consistent(self):
        """Every soft-404 is a no-observation handled by the retry path."""
        faulty, crawler = _run_faulty(
            "batched", (("soft_404", {"rate": 0.3}),), RetryPolicy(max_attempts=2)
        )
        counters = crawler.failure_counters()
        assert counters["soft_404s"] > 0
        # Each soft-404 goes through on_failure exactly once: rescheduled or
        # dropped, never anything else — the accounting must close.
        assert counters["retries"] + counters["retry_drops"] == counters["soft_404s"]
        assert counters["timeouts"] == 0  # only the soft-404 model is armed
        assert faulty.pages_crawled > 0
        assert faulty.changes_detected > 0


# --------------------------------------------------------------------------- #
# Checkpoint integrity
# --------------------------------------------------------------------------- #


def _checkpointer(backend, **kwargs):
    return CrawlCheckpointer(backend, every_days=1.0, **kwargs)


class TestCheckpointIntegrity:
    def test_checksum_excludes_itself(self):
        state = {"a": 1, "b": [1.5, 2.5]}
        digest = checkpoint_integrity(state)
        state["integrity"] = digest
        assert checkpoint_integrity(state) == digest

    def test_save_stamps_and_load_verifies(self):
        backend = MemoryBackend()
        saver = _checkpointer(backend)
        saver.save({"tick": 1}, at=1.0)
        state = _checkpointer(backend).load()
        assert state["tick"] == 1
        assert state["integrity"] == checkpoint_integrity(state)

    def test_corrupt_current_slot_falls_back_to_previous(self):
        backend = MemoryBackend()
        saver = _checkpointer(backend)
        saver.save({"tick": 1}, at=1.0)
        saver.save({"tick": 2}, at=2.0)
        # Damage the current slot the way a torn write would.
        damaged = dict(backend.load_state(CHECKPOINT_STATE_KEY))
        damaged["tick"] = 999
        backend.save_state(CHECKPOINT_STATE_KEY, damaged)
        state = _checkpointer(backend).load()
        assert state["tick"] == 1  # the demoted previous snapshot

    def test_both_slots_corrupt_raises(self):
        backend = MemoryBackend()
        saver = _checkpointer(backend)
        saver.save({"tick": 1}, at=1.0)
        saver.save({"tick": 2}, at=2.0)
        for key in (CHECKPOINT_STATE_KEY, CHECKPOINT_PREV_STATE_KEY):
            damaged = dict(backend.load_state(key))
            damaged["tick"] = 999
            backend.save_state(key, damaged)
        with pytest.raises(ValueError, match="corrupt"):
            _checkpointer(backend).load()

    def test_corrupt_current_without_previous_raises(self):
        backend = MemoryBackend()
        saver = _checkpointer(backend)
        saver.save({"tick": 1}, at=1.0)
        damaged = dict(backend.load_state(CHECKPOINT_STATE_KEY))
        damaged["tick"] = 999
        backend.save_state(CHECKPOINT_STATE_KEY, damaged)
        with pytest.raises(ValueError, match="no previous snapshot"):
            _checkpointer(backend).load()

    def test_checksum_less_legacy_checkpoint_is_accepted(self):
        backend = MemoryBackend()
        backend.save_state(CHECKPOINT_STATE_KEY, {"tick": 7})
        assert _checkpointer(backend).load() == {"tick": 7}

    def test_spec_hash_guard_still_applies_after_fallback(self):
        backend = MemoryBackend()
        saver = _checkpointer(backend, spec_hash="a" * 64)
        saver.save({"tick": 1}, at=1.0)
        with pytest.raises(ValueError, match="different spec"):
            _checkpointer(backend, spec_hash="b" * 64).load()


# --------------------------------------------------------------------------- #
# Sharded worker-failure handling
# --------------------------------------------------------------------------- #


class FakeProcess:
    """Stand-in for multiprocessing.Process in reap tests."""

    def __init__(self, alive=False, stuck_joins=0):
        self._alive = alive
        self._stuck_joins = stuck_joins
        self.joins = 0
        self.terminated = False
        self.killed = False

    def is_alive(self):
        return self._alive

    def join(self, timeout=None):
        self.joins += 1
        if self.joins > self._stuck_joins:
            self._alive = False

    def terminate(self):
        self.terminated = True

    def kill(self):
        self.killed = True


def _coordinator(web, **kwargs):
    config = IncrementalCrawlerConfig(
        collection_capacity=20, crawl_budget_per_day=100.0, track_quality=False
    )
    return ShardedCrawler(web, config, shards=2, **kwargs)


def _job(index=0):
    return ShardRunSpec(
        payload=None,
        view=SimpleNamespace(index=index),
        config=None,
        duration_days=1.0,
        start_time=0.0,
        storage="sqlite",
        store_path="unused",
        checkpoint_every=1.0,
        spec_hash=None,
        resume=False,
    )


def _persistent_coordinator(web, tmp_path, worker_retries):
    return _coordinator(
        web,
        storage="sqlite",
        store_path=str(tmp_path / "store.db"),
        checkpoint_every=1.0,
        worker_retries=worker_retries,
    )


class TestShardedWorkerFailure:
    """The shard coordinator's ``on_lost`` policy on the worker pool."""

    def test_reap_escalates_from_join_to_terminate(self):
        process = FakeProcess(alive=True, stuck_joins=1)
        reap(process, timeout=0.01)
        assert process.terminated
        assert not process.killed
        assert not process.is_alive()

    def test_failure_without_persistence_is_fatal(self, tiny_web):
        coordinator = _coordinator(tiny_web)
        with pytest.raises(RuntimeError, match=r"(?s)shard 1 worker failed.*boom"):
            coordinator._requeue(_job(1), "boom")

    def test_failure_with_persistence_requeues_with_resume(self, tiny_web, tmp_path):
        coordinator = _persistent_coordinator(tiny_web, tmp_path, worker_retries=2)
        first = coordinator._requeue(_job(), "killed")
        assert (first.attempt, first.resume) == (1, True)
        second = coordinator._requeue(first, "killed")
        assert (second.attempt, second.resume) == (2, True)
        with pytest.raises(RuntimeError, match="retries exhausted"):
            coordinator._requeue(second, "killed")

    def test_zero_worker_retries_disables_recovery(self, tiny_web, tmp_path):
        coordinator = _persistent_coordinator(tiny_web, tmp_path, worker_retries=0)
        with pytest.raises(RuntimeError, match="retries exhausted"):
            coordinator._requeue(_job(), "killed")

    def test_silent_worker_death_is_detected(self, drive_pool):
        """A worker that exits (even with code 0) without a result must not
        hang the coordinator: the pool reports the job lost at once."""
        report = drive_pool("exit-zero")
        assert "shard 1 worker failed" in report["error"]
        assert "exited with code 0" in report["error"]
        assert report["children"] == 0

    def test_live_or_reported_workers_are_left_alone(self, drive_pool):
        """Workers that replied are reused or retired, never reported lost."""
        report = drive_pool("clean")
        assert report["results"] == {str(k): 2 * k for k in range(5)}
        assert report["messages"] == list(range(5))
        assert report["children"] == 0

    def test_negative_worker_retries_rejected(self, tiny_web):
        with pytest.raises(ValueError, match="worker_retries"):
            _coordinator(tiny_web, worker_retries=-1)
