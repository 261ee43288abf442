"""One spawn worker pool, for sharded crawls and parallel matrix sweeps.

Section 5.2 lets "multiple CrawlModules ... run in parallel"; the shards of
a :class:`~repro.core.sharded_crawler.ShardedCrawler` and the cells of
``run_matrix(workers=N)`` both run through :func:`run_pool`. Each worker is
a long-lived spawn process with its own duplex pipe, and the coordinator
blocks in :func:`multiprocessing.connection.wait` on the pipes and the
process sentinels, so a reply or a death is seen the moment it happens:
no shared queue whose lock a killed writer could leave held, no polling
timeout, no scan for dead workers. A worker whose coordinator is gone dies
by PDEATHSIG (:func:`~repro.simweb.shared.install_parent_death_signal`)
or else fails its next send with ``BrokenPipeError`` and exits.
"""

from __future__ import annotations

import multiprocessing
import traceback
from collections import deque
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, List, Optional

from repro.simweb.shared import install_parent_death_signal

#: Upper bound on one join before escalating to terminate/kill; a worker
#: exits within milliseconds of its pipe closing.
JOIN_TIMEOUT_SECONDS: float = 30.0


def reap(process: Any, timeout: float = JOIN_TIMEOUT_SECONDS) -> None:
    """Join a process with a bounded wait, escalating to terminate, then kill."""
    process.join(timeout)
    if process.is_alive():
        process.terminate()
        process.join(timeout)
    if process.is_alive():  # pragma: no cover - needs an unkillable worker
        process.kill()
        process.join(timeout)


def _serve(conn: Any, handler: Callable) -> None:
    """Worker entry point: run jobs from the pipe until it closes."""
    install_parent_death_signal()
    try:
        while True:
            try:
                job = conn.recv()
            except EOFError:
                return  # retired, or the coordinator died
            try:
                reply = ("result", handler(job, lambda m: conn.send(("message", m))))
            except Exception:
                reply = ("error", traceback.format_exc())
            conn.send(reply)
    except OSError:
        return  # BrokenPipeError: the coordinator is gone


class _Worker:
    """One spawn process, the coordinator's end of its pipe, its current job."""

    def __init__(self, ctx: Any, handler: Callable) -> None:
        self.conn, child_end = ctx.Pipe()
        # Not a daemon: a matrix cell may run a sharded crawl's own pool.
        self.process = ctx.Process(target=_serve, args=(child_end, handler))
        self.process.start()
        child_end.close()  # so the worker's death reads as EOF here
        self.job: Any = None

    def receive(self) -> tuple:
        """``(kind, body)``: a ``message``, ``result`` or ``error`` it sent,
        or ``lost`` (body: its exit code) once it died without replying."""
        if self.conn.poll():
            try:
                return self.conn.recv()
            except (EOFError, OSError):
                pass
        reap(self.process)
        code = self.process.exitcode
        return "lost", f"worker process exited with code {code} without a result"


def run_pool(
    jobs: Iterable[Any],
    handler: Callable[[Any, Callable[[Any], None]], Any],
    *,
    workers: int,
    on_result: Callable[[Any, Any], None],
    on_lost: Callable[[Any, str], Any],
    on_message: Optional[Callable[[Any, Any], None]] = None,
) -> None:
    """Run every job on at most ``workers`` spawn processes.

    ``handler(job, send)`` runs in a worker and must be a module-level
    function. Its return value reaches ``on_result(job, result)`` and each
    ``send(message)`` reaches ``on_message(job, message)``. A job whose
    handler raised, or whose worker died without replying, goes to
    ``on_lost(job, detail)`` with the traceback or exit code; it returns
    the job to run instead, or raises to abort. Callbacks run here, in
    arrival order. When this returns or raises, every worker has exited.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    ctx = multiprocessing.get_context("spawn")
    pending = deque(jobs)
    busy: List[_Worker] = []
    free: List[_Worker] = []
    started: List[_Worker] = []
    try:
        while pending or busy:
            while pending and (free or len(busy) < workers):
                if free:
                    worker = free.pop()
                else:
                    worker = _Worker(ctx, handler)
                    started.append(worker)
                worker.job = pending.popleft()
                busy.append(worker)
                try:
                    worker.conn.send(worker.job)
                except OSError:
                    pass  # it died first; its EOF reports the job lost below
            for worker in free:
                worker.conn.close()  # nothing left for it: retire
            free.clear()
            ready = set(
                wait([w.conn for w in busy] + [w.process.sentinel for w in busy])
            )
            for worker in [w for w in busy if {w.conn, w.process.sentinel} & ready]:
                kind, body = worker.receive()
                if kind == "message":
                    if on_message is not None:
                        on_message(worker.job, body)
                    continue
                busy.remove(worker)
                if kind == "result":
                    on_result(worker.job, body)
                else:
                    pending.append(on_lost(worker.job, body))
                if kind != "lost":
                    free.append(worker)
    finally:
        for worker in started:
            worker.conn.close()
        for worker in busy:
            worker.process.terminate()
        for worker in started:
            reap(worker.process)
