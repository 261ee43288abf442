#!/usr/bin/env python
"""Kill-and-resume smoke test, exercised at the CLI level.

Three runs of the same spec:

1. an uninterrupted run with a SQLite store (the reference);
2. a run against a second store that is SIGKILLed as soon as its first
   checkpoint lands (before any result is written);
3. ``run-spec --resume`` against the killed store.

The resumed run must reproduce the uninterrupted run's result exactly —
summary, series, spec hash — and the two stores must hold identical
per-URL records (fetch timestamps included). This is the paper's
"incremental crawler you can stop and restart" property, end to end.

The same three-step dance then repeats for a *sharded* spec
(``engine="sharded"``, two shards in two worker processes): the SIGKILL
lands on the coordinator once any shard has checkpointed (workers die
with it via PDEATHSIG), and the resume must replay completed shards from
their stored results, resume interrupted ones from their namespaced
checkpoints, and merge to the uninterrupted run's exact result.

Two failure-injection phases then harden the story further:

* **corrupted checkpoint** — a run is killed after its *second*
  checkpoint, the latest checkpoint's stored bytes are flipped, and the
  resume must detect the damage via the integrity checksum, fall back to
  the demoted previous snapshot, and still reproduce the uninterrupted
  result exactly;
* **worker SIGKILL** — a sharded run loses one of its *worker
  processes* (not the coordinator) to SIGKILL mid-crawl; the coordinator
  must detect the silent death, re-run the shard from its store, and
  finish with the uninterrupted run's exact result — no resume
  invocation involved.

Every phase is bounded: each ``run-spec`` and each wait for a coordinator
has a timeout and fails naming its phase. Each coordinator-kill phase
records the coordinator's worker processes before the SIGKILL and fails
if any is alive 5 s later, and every phase ends by checking that no
process it started (found by an environment marker) is still running.

Run from the repository root:

    PYTHONPATH=src python scripts/kill_resume_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SPEC = {
    "name": "kill-resume-smoke",
    "kind": "crawl",
    "web": {
        "site_scale": 0.08,
        "pages_per_site": 30,
        "horizon_days": 127.0,
        "new_page_fraction": 0.25,
        "seed": 42,
    },
    "crawler": {
        "kind": "incremental",
        "collection_capacity": 200,
        "crawl_budget_per_day": 2000.0,
        "duration_days": 60.0,
        "measurement_interval_days": 0.5,
        "track_quality": True,
        "storage": "sqlite",
        "checkpoint_every": 1.0,
    },
}

SHARDED_SPEC = {
    "name": "kill-resume-smoke-sharded",
    "kind": "crawl",
    "web": {
        "site_scale": 0.08,
        "pages_per_site": 30,
        "horizon_days": 127.0,
        "new_page_fraction": 0.25,
        "seed": 42,
    },
    "crawler": {
        "kind": "incremental",
        "engine": "sharded",
        "shards": 2,
        "workers": 2,
        "collection_capacity": 200,
        "crawl_budget_per_day": 1500.0,
        "duration_days": 30.0,
        "measurement_interval_days": 0.5,
        "track_quality": True,
        "storage": "sqlite",
        "checkpoint_every": 1.0,
    },
}

POLL_SECONDS = 0.02
KILL_TIMEOUT_SECONDS = 120.0
#: Upper bound on one uninterrupted or resumed ``run-spec``.
RUN_TIMEOUT_SECONDS = 600.0
#: Upper bound on a coordinator exiting (after a SIGKILL, or on its own).
WAIT_TIMEOUT_SECONDS = 300.0
#: How long a process of a finished phase may take to disappear.
ORPHAN_GRACE_SECONDS = 5.0
#: Environment entry every process this script starts inherits.
MARKER = f"KILL_RESUME_SMOKE_RUN={os.getpid()}".encode()


def fail(phase: str, message: str) -> None:
    raise SystemExit(f"FAIL [{phase}]: {message}")


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    key, value = MARKER.decode().split("=")
    env[key] = value
    return env


def run_spec(phase: str, spec_path: str, *extra: str) -> None:
    try:
        subprocess.run(
            [sys.executable, "-m", "repro", "run-spec", spec_path, *extra],
            cwd=REPO,
            env=cli_env(),
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=RUN_TIMEOUT_SECONDS,
        )
    except subprocess.TimeoutExpired:
        fail(phase, f"run-spec did not finish within {RUN_TIMEOUT_SECONDS:.0f} s")
    check_no_leftovers(phase)


def wait_for_exit(proc: subprocess.Popen, phase: str) -> int:
    """``proc.wait()``, bounded; fails naming ``phase`` when it runs out."""
    try:
        return proc.wait(timeout=WAIT_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=WAIT_TIMEOUT_SECONDS)
        fail(phase, f"coordinator did not exit within {WAIT_TIMEOUT_SECONDS:.0f} s")


def running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:].split()[0] != b"Z"


def wait_gone(pids, phase: str, what: str) -> None:
    """Fail unless every pid has exited within the grace period."""
    deadline = time.monotonic() + ORPHAN_GRACE_SECONDS
    alive = [pid for pid in pids if running(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if running(pid)]
    if alive:
        fail(phase, f"{what} {alive} still alive {ORPHAN_GRACE_SECONDS:.0f} s later")


def marked_pids() -> list:
    """Live processes carrying this run's environment marker."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                environ = handle.read().split(b"\0")
        except OSError:
            continue
        if MARKER in environ:
            pids.append(int(entry))
    return pids


def check_no_leftovers(phase: str) -> None:
    """Fail if any process this script started outlives its phase."""
    wait_gone(marked_pids(), phase, "processes of the finished phase")


def kill_coordinator(proc: subprocess.Popen, phase: str) -> None:
    """SIGKILL a coordinator; its workers must die with it within 5 s."""
    workers = worker_pids(proc.pid)
    proc.send_signal(signal.SIGKILL)
    wait_for_exit(proc, phase)
    wait_gone(workers, phase, "workers of the killed coordinator")
    check_no_leftovers(phase)
    print(f"      {len(workers)} worker(s) of the killed coordinator gone")


def state_keys(store: str) -> set:
    """State-table keys currently in the store ('' set while unreadable)."""
    try:
        conn = sqlite3.connect(f"file:{store}?mode=ro", uri=True, timeout=0.1)
    except sqlite3.OperationalError:
        return set()
    try:
        rows = conn.execute("SELECT key FROM state").fetchall()
    except sqlite3.OperationalError:
        return set()
    finally:
        conn.close()
    return {key for (key,) in rows}


def records_table(store: str) -> list:
    conn = sqlite3.connect(f"file:{store}?mode=ro", uri=True)
    try:
        return conn.execute(
            "SELECT url, fetched_at, first_fetched_at, visit_count,"
            " change_count, checksum, importance FROM records ORDER BY url"
        ).fetchall()
    finally:
        conn.close()


def result_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="kill-resume-smoke-")
    spec_path = os.path.join(tmp, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(SPEC, handle)
    store_a = os.path.join(tmp, "uninterrupted.sqlite")
    store_b = os.path.join(tmp, "killed.sqlite")
    out_a = os.path.join(tmp, "a.json")
    out_b = os.path.join(tmp, "b.json")

    print("[1/3] uninterrupted run ...")
    run_spec("plain 1/3", spec_path, "--store", store_a, "--out", out_a, "--compact")

    print("[2/3] run to first checkpoint, then SIGKILL ...")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run-spec", spec_path,
         "--store", store_b, "--out", out_b, "--compact"],
        cwd=REPO,
        env=cli_env(),
        stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
    killed = False
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "FAIL: the run finished before its first checkpoint could be "
                "observed; enlarge the spec so the kill window exists"
            )
        keys = state_keys(store_b)
        if "result" in keys:
            raise SystemExit(
                "FAIL: result row appeared before the kill; the run was "
                "too fast for this machine"
            )
        if "checkpoint" in keys:
            kill_coordinator(proc, "plain 2/3")
            killed = True
            break
        time.sleep(POLL_SECONDS)
    if not killed:
        proc.kill()
        wait_for_exit(proc, "plain 2/3")
        raise SystemExit("FAIL: no checkpoint observed before the timeout")
    assert proc.returncode == -signal.SIGKILL, proc.returncode
    keys_after_kill = state_keys(store_b)
    assert "checkpoint" in keys_after_kill and "result" not in keys_after_kill
    assert not os.path.exists(out_b), "killed run must not have written a result"
    print(f"      killed mid-run (returncode {proc.returncode})")

    print("[3/3] resume from the checkpoint ...")
    run_spec(
        "plain 3/3", spec_path, "--store", store_b, "--resume", "--out", out_b,
        "--compact",
    )

    a = result_doc(out_a)
    b = result_doc(out_b)
    for key in ("name", "kind", "summary", "series"):
        if a[key] != b[key]:
            raise SystemExit(f"FAIL: resumed run differs from uninterrupted in {key!r}")
    if a["provenance"]["spec_hash"] != b["provenance"]["spec_hash"]:
        raise SystemExit("FAIL: spec hash mismatch between runs")

    rows_a = records_table(store_a)
    rows_b = records_table(store_b)
    if rows_a != rows_b:
        raise SystemExit(
            "FAIL: the two stores hold different records "
            f"({len(rows_a)} vs {len(rows_b)} rows)"
        )

    print(
        f"PASS: resumed run is bit-identical to the uninterrupted run "
        f"({len(rows_a)} records, mean freshness "
        f"{a['summary']['mean_freshness']:.4f})"
    )

    sharded_phase(tmp)
    corrupted_checkpoint_phase(tmp, out_a)
    worker_kill_phase(tmp)
    return 0


def shard_store_paths(base: str, n_shards: int) -> list:
    return [f"{base}.shard{k:02d}" for k in range(n_shards)]


def any_shard_checkpoint(base: str, n_shards: int) -> bool:
    for k, path in enumerate(shard_store_paths(base, n_shards)):
        if f"shard{k:02d}/checkpoint" in state_keys(path):
            return True
    return False


def shard_records(base: str, n_shards: int) -> list:
    rows = []
    for path in shard_store_paths(base, n_shards):
        rows.extend(records_table(path))
    return sorted(rows)


def sharded_phase(tmp: str) -> None:
    """SIGKILL a two-shard, two-worker run and resume it bit-identically."""
    n_shards = SHARDED_SPEC["crawler"]["shards"]
    spec_path = os.path.join(tmp, "sharded_spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(SHARDED_SPEC, handle)
    store_c = os.path.join(tmp, "sharded_uninterrupted.sqlite")
    store_d = os.path.join(tmp, "sharded_killed.sqlite")
    out_c = os.path.join(tmp, "c.json")
    out_d = os.path.join(tmp, "d.json")

    print("[1/3] uninterrupted sharded run ...")
    run_spec("sharded 1/3", spec_path, "--store", store_c, "--out", out_c, "--compact")

    print("[2/3] sharded run to a shard checkpoint, then SIGKILL the coordinator ...")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run-spec", spec_path,
         "--store", store_d, "--out", out_d, "--compact"],
        cwd=REPO,
        env=cli_env(),
        stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
    killed = False
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "FAIL: the sharded run finished before any shard checkpoint "
                "could be observed; enlarge the spec so the kill window exists"
            )
        if "result" in state_keys(store_d):
            raise SystemExit(
                "FAIL: merged result appeared before the kill; the run was "
                "too fast for this machine"
            )
        if any_shard_checkpoint(store_d, n_shards):
            # The workers carry PR_SET_PDEATHSIG: killing the coordinator
            # kills them, so the resumed run never races orphans for the
            # shard stores. kill_coordinator checks that they are gone.
            kill_coordinator(proc, "sharded 2/3")
            killed = True
            break
        time.sleep(POLL_SECONDS)
    if not killed:
        proc.kill()
        wait_for_exit(proc, "sharded 2/3")
        raise SystemExit("FAIL: no shard checkpoint observed before the timeout")
    assert proc.returncode == -signal.SIGKILL, proc.returncode
    assert "result" not in state_keys(store_d)
    assert not os.path.exists(out_d), "killed run must not have written a result"
    print(f"      killed mid-run (returncode {proc.returncode})")

    print("[3/3] resume the sharded run from the per-shard stores ...")
    run_spec(
        "sharded 3/3", spec_path, "--store", store_d, "--resume", "--out", out_d,
        "--compact",
    )

    c = result_doc(out_c)
    d = result_doc(out_d)
    for key in ("name", "kind", "summary", "series"):
        if c[key] != d[key]:
            raise SystemExit(
                f"FAIL: resumed sharded run differs from uninterrupted in {key!r}"
            )
    if c["provenance"]["spec_hash"] != d["provenance"]["spec_hash"]:
        raise SystemExit("FAIL: spec hash mismatch between sharded runs")

    rows_c = shard_records(store_c, n_shards)
    rows_d = shard_records(store_d, n_shards)
    if rows_c != rows_d:
        raise SystemExit(
            "FAIL: the sharded stores hold different records "
            f"({len(rows_c)} vs {len(rows_d)} rows)"
        )

    print(
        f"PASS: resumed sharded run is bit-identical to the uninterrupted "
        f"run ({len(rows_c)} records across {n_shards} shard stores, mean "
        f"freshness {c['summary']['mean_freshness']:.4f})"
    )


def corrupt_state_value(store: str, key: str) -> None:
    """Flip one byte in the middle of a stored state document."""
    conn = sqlite3.connect(store)
    try:
        row = conn.execute(
            "SELECT value FROM state WHERE key = ?", (key,)
        ).fetchone()
        assert row is not None, f"no state row {key!r} to corrupt"
        value = row[0]
        mid = len(value) // 2
        flipped = value[:mid] + ("0" if value[mid] != "0" else "1") + value[mid + 1:]
        assert flipped != value
        conn.execute("UPDATE state SET value = ? WHERE key = ?", (flipped, key))
        conn.commit()
    finally:
        conn.close()


def corrupted_checkpoint_phase(tmp: str, out_reference: str) -> None:
    """Corrupt the latest checkpoint; the resume must use the previous one.

    The run is killed only after ``checkpoint_prev`` exists (the second
    save demotes the first), then the *current* checkpoint's stored bytes
    are flipped. The integrity checksum must catch the damage and the
    resume fall back to the previous snapshot — bit-identical to having
    crashed one checkpoint earlier, hence to the uninterrupted run.
    """
    spec_path = os.path.join(tmp, "spec.json")  # written by main()
    store = os.path.join(tmp, "corrupted.sqlite")
    out = os.path.join(tmp, "corrupted.json")

    print("[corrupt 1/3] run to the second checkpoint, then SIGKILL ...")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run-spec", spec_path,
         "--store", store, "--out", out, "--compact"],
        cwd=REPO,
        env=cli_env(),
        stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
    killed = False
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "FAIL: the run finished before its second checkpoint could "
                "be observed; enlarge the spec so the kill window exists"
            )
        keys = state_keys(store)
        if "result" in keys:
            raise SystemExit("FAIL: result row appeared before the kill")
        if "checkpoint_prev" in keys:
            kill_coordinator(proc, "corrupt 1/3")
            killed = True
            break
        time.sleep(POLL_SECONDS)
    if not killed:
        proc.kill()
        wait_for_exit(proc, "corrupt 1/3")
        raise SystemExit("FAIL: no second checkpoint observed before the timeout")

    print("[corrupt 2/3] flip a byte inside the latest checkpoint ...")
    corrupt_state_value(store, "checkpoint")

    print("[corrupt 3/3] resume; must fall back to the previous snapshot ...")
    run_spec(
        "corrupt 3/3", spec_path, "--store", store, "--resume", "--out", out,
        "--compact",
    )

    a = result_doc(out_reference)
    b = result_doc(out)
    for key in ("name", "kind", "summary", "series"):
        if a[key] != b[key]:
            raise SystemExit(
                "FAIL: resume after checkpoint corruption differs from the "
                f"uninterrupted run in {key!r}"
            )
    print(
        "PASS: corrupted checkpoint detected, previous snapshot resumed "
        f"bit-identically (mean freshness {b['summary']['mean_freshness']:.4f})"
    )


def worker_pids(coordinator_pid: int) -> list:
    """PIDs of spawn worker children of ``coordinator_pid`` (no trackers)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        # stat: pid (comm) state ppid ... — comm may contain spaces.
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        if ppid == coordinator_pid and b"spawn_main" in cmdline:
            pids.append(int(entry))
    return pids


def worker_kill_phase(tmp: str) -> None:
    """SIGKILL one shard *worker*; the coordinator must recover in-flight.

    Unlike the coordinator-kill phase there is no resume invocation: the
    coordinator notices the silently dead worker, re-runs its shard from
    the shard store (checkpoint or start-over), and the merged result must
    still equal the uninterrupted sharded run bit for bit.
    """
    n_shards = SHARDED_SPEC["crawler"]["shards"]
    spec_path = os.path.join(tmp, "sharded_spec.json")  # written by sharded_phase
    out_reference = os.path.join(tmp, "c.json")
    store = os.path.join(tmp, "worker_killed.sqlite")
    out = os.path.join(tmp, "worker_killed.json")

    print("[worker-kill 1/2] sharded run; SIGKILL one worker mid-crawl ...")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run-spec", spec_path,
         "--store", store, "--out", out, "--compact"],
        cwd=REPO,
        env=cli_env(),
        stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
    victim = None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "FAIL: the sharded run finished before a worker could be "
                "killed; enlarge the spec so the kill window exists"
            )
        if any_shard_checkpoint(store, n_shards):
            for pid in worker_pids(proc.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                victim = pid
                break
            if victim is not None:
                break
        time.sleep(POLL_SECONDS)
    if victim is None:
        proc.kill()
        wait_for_exit(proc, "worker-kill 1/2")
        raise SystemExit("FAIL: no worker process found to kill before the timeout")
    print(f"      killed worker pid {victim}; waiting for the coordinator ...")

    returncode = wait_for_exit(proc, "worker-kill 1/2")
    check_no_leftovers("worker-kill 1/2")
    if returncode != 0:
        raise SystemExit(
            f"FAIL: coordinator exited with {returncode} instead of "
            "recovering the killed worker"
        )

    print("[worker-kill 2/2] compare against the uninterrupted sharded run ...")
    c = result_doc(out_reference)
    d = result_doc(out)
    for key in ("name", "kind", "summary", "series"):
        if c[key] != d[key]:
            raise SystemExit(
                "FAIL: worker-kill recovery differs from the uninterrupted "
                f"sharded run in {key!r}"
            )
    rows_c = shard_records(os.path.join(tmp, "sharded_uninterrupted.sqlite"), n_shards)
    rows_d = shard_records(store, n_shards)
    if rows_c != rows_d:
        raise SystemExit(
            "FAIL: the sharded stores hold different records after worker-kill "
            f"recovery ({len(rows_c)} vs {len(rows_d)} rows)"
        )
    print(
        "PASS: coordinator recovered the SIGKILLed worker bit-identically "
        f"({len(rows_d)} records, mean freshness "
        f"{d['summary']['mean_freshness']:.4f})"
    )


if __name__ == "__main__":
    raise SystemExit(main())
