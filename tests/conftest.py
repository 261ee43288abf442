"""Shared fixtures for the test suite.

Expensive artefacts (a generated synthetic web and a completed monitoring
run) are session-scoped so the many analysis tests that only read them do
not regenerate them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.experiment.monitor import ActiveMonitor, ObservationLog
from repro.simweb.generator import WebGeneratorConfig, generate_web
from repro.simweb.web import SimulatedWeb

TESTS = os.path.dirname(os.path.abspath(__file__))
#: Upper bound on a test's child process; past it the test fails.
SUBPROCESS_TIMEOUT_SECONDS = 180


@pytest.fixture(scope="session")
def small_web() -> SimulatedWeb:
    """A small but fully featured synthetic web (session scoped, read only)."""
    config = WebGeneratorConfig(
        site_scale=0.08,
        pages_per_site=30,
        horizon_days=127.0,
        new_page_fraction=0.25,
        seed=42,
    )
    return generate_web(config)


@pytest.fixture(scope="session")
def tiny_web() -> SimulatedWeb:
    """A very small synthetic web for crawler end-to-end tests."""
    config = WebGeneratorConfig(
        site_scale=0.04,
        pages_per_site=15,
        horizon_days=60.0,
        new_page_fraction=0.2,
        seed=7,
    )
    return generate_web(config)


@pytest.fixture(scope="session")
def observation_log(small_web: SimulatedWeb) -> ObservationLog:
    """A completed monitoring run over the small web (session scoped)."""
    monitor = ActiveMonitor(small_web)
    return monitor.run(start_day=0, end_day=int(small_web.horizon_days) - 1)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A seeded random generator for per-test sampling."""
    return np.random.default_rng(12345)


@pytest.fixture()
def subprocess_env() -> dict:
    """This environment with the repository's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(TESTS), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture()
def drive_pool(tmp_path, subprocess_env):
    """Run a ``tests/_pool_cases.py`` scenario; its JSON report.

    The scenario's coordinator runs in its own process under a timeout,
    so a pool that hangs fails the test instead of hanging the suite.
    """

    def drive(scenario: str) -> dict:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(TESTS, "_pool_cases.py"),
                 scenario, str(tmp_path)],
                env=subprocess_env,
                capture_output=True,
                text=True,
                timeout=SUBPROCESS_TIMEOUT_SECONDS,
            )
        except subprocess.TimeoutExpired:
            pytest.fail(
                f"pool scenario {scenario!r} hung past "
                f"{SUBPROCESS_TIMEOUT_SECONDS} s"
            )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    return drive
