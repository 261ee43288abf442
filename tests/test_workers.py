"""The worker pool shared by sharded crawls and parallel matrix sweeps.

Real-process tests: each runs its coordinator in ``tests/_pool_cases.py``
under a subprocess timeout (the ``drive_pool`` fixture), so a pool that
hangs fails the test instead of hanging the suite. The unit tests of the
sharded crawl's ``on_lost`` policy live in ``tests/test_faults.py``.
"""

import subprocess
import sys
import textwrap
import time

import pytest

#: Upper bound on each wait for a child process.
TIMEOUT_SECONDS = 180


class TestRealWorkers:
    def test_killed_worker_is_requeued_while_another_streams(self, drive_pool):
        report = drive_pool("kill-and-stream")
        assert report["results"]["victim"] == "recovered"
        # Every message the chatty worker sent arrived, before and after
        # the other worker died mid-job.
        assert report["messages"]["chatty"] == report["results"]["chatty"]
        assert report["messages"]["chatty"] >= 1000
        assert len(report["lost"]) == 1
        assert "exited with code -9" in report["lost"][0]
        assert report["children"] == 0

    def test_matrix_cell_whose_worker_dies_raises_naming_the_cell(self, drive_pool):
        report = drive_pool("matrix-kill")
        assert report["error"].startswith("matrix cell 1 failed")
        assert "exited with code -9" in report["error"]
        assert 1 not in report["delivered"]
        assert report["children"] == 0

    def test_shard_worker_killed_mid_crawl_is_resumed_bit_identically(
        self, drive_pool
    ):
        report = drive_pool("shard-kill")
        assert report["identical"] is True
        assert report["windows"]["0"] > 0 and report["windows"]["1"] > 0
        assert report["children"] == 0


    def test_parallel_sweep_over_sharded_crawls_equals_serial(self, drive_pool):
        report = drive_pool("nested")
        assert report["identical"] == [True, True]
        assert report["shards"] == [2, 2]
        assert report["children"] == 0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PDEATHSIG is Linux-only")
class TestParentDeathSignal:
    def test_worker_whose_parent_died_first_exits(self, tmp_path, subprocess_env):
        """The kernel only signals on a parent death *after* the request.

        A spawn child waits until its parent has exited, then installs the
        signal; it must exit there rather than live on as an orphan.
        """
        marker = tmp_path / "survived"
        child = textwrap.dedent(
            f"""
            import os, time
            from multiprocessing import parent_process
            from repro.simweb.shared import install_parent_death_signal
            parent = parent_process().pid
            deadline = time.monotonic() + 60
            while os.getppid() == parent and time.monotonic() < deadline:
                time.sleep(0.01)
            install_parent_death_signal()
            open({str(marker)!r}, "w").close()
            """
        )
        parent = textwrap.dedent(
            f"""
            import multiprocessing, os
            process = multiprocessing.get_context("spawn").Process(
                target=exec, args=({child!r}, {{}})
            )
            process.start()
            print(process.pid, flush=True)
            os._exit(0)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", parent],
            env=subprocess_env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_SECONDS,
        )
        assert proc.returncode == 0, proc.stderr
        pid = int(proc.stdout.split()[0])
        deadline = time.monotonic() + TIMEOUT_SECONDS
        while _running(pid) and not marker.exists():
            assert time.monotonic() < deadline, "orphan neither exited nor resumed"
            time.sleep(0.05)
        assert not marker.exists(), "the orphan outlived its parent"


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:].split()[0] != b"Z"
