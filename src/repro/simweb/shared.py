"""Shipping a materialized synthetic web across process boundaries, once.

A sharded crawl runs N worker processes against the *same* ground-truth
web. Pickling the web per worker would copy the dominant payload — every
page's materialised change times — N times; for a 10k-page web with
hundreds of events per page that is the bulk of worker start-up cost and
memory. Instead the parent packs the numeric ground truth into two
``multiprocessing.shared_memory`` blocks:

* the :class:`~repro.simweb.web.OracleArrays` columns (creation/deletion
  days, flat change-time events with per-page offsets, site indexing), via
  :meth:`OracleArrays.to_shared`;
* the page-construction extras (depths, lifespans, change rates, keyword
  codes, the out-link graph in CSR form).

What remains in the picklable :class:`SharedWebPayload` is small and
string-shaped: the URL table, the site table and the site-name table.
:meth:`SharedWebPayload.materialise` rebuilds a fully functional
:class:`~repro.simweb.web.SimulatedWeb` in the worker whose array state is
**zero-copy views** into the shared blocks — every page's change times are
slices of the one flat event array all workers share.

The rebuilt web is bit-identical to the original as far as any crawler can
observe: same page order, same oracle results, same content bytes (the
keyword vocabulary is code-addressed), same out-links in the same order.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simweb.change_models import ChangeProcess
from repro.simweb.page import _VOCABULARY, SimulatedPage
from repro.simweb.site import SimulatedSite
from repro.simweb.web import OracleArrays, SimulatedWeb, pack_arrays, unpack_arrays


class _SharedChangeProcess(ChangeProcess):
    """A change process attached to pre-materialised shared event times.

    Workers never sample: the parent already materialised every page, and
    the worker installs each page's slice of the shared flat event array
    via ``_set_materialised``. Only the mean rate (used by estimators'
    ground-truth comparisons and site statistics) travels as a scalar.
    """

    def __init__(self, mean_rate: float) -> None:
        super().__init__()
        self._mean_rate = float(mean_rate)

    def _sample_change_times(self, horizon, rng):  # pragma: no cover - guard
        raise RuntimeError(
            "shared-web change processes are pre-materialised; re-sampling "
            "inside a worker would diverge from the parent's ground truth"
        )

    @property
    def mean_rate(self) -> float:
        return self._mean_rate


def install_parent_death_signal() -> None:
    """Ask the kernel to SIGKILL this process when its parent dies.

    Pool workers (:mod:`repro.workers`) call this first. Without it, a
    SIGKILLed coordinator (the crash-resume smoke test does exactly that)
    leaves orphan workers running, and a resumed run would race them for
    the per-shard stores. The kernel only honours a parent death *after*
    the request, so a process already orphaned exits at once instead.
    Linux-only; a silent no-op elsewhere.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        PR_SET_PDEATHSIG = 1
        libc.prctl(PR_SET_PDEATHSIG, int(signal.SIGKILL))
    except Exception:  # pragma: no cover - best-effort hardening
        pass
    parent = multiprocessing.parent_process()
    if parent is not None and os.getppid() != parent.pid:
        os._exit(1)


def attach_shared_block(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing shared-memory block by name, as a non-owner.

    Python 3.x registers every attach with the resource tracker, so a
    worker exiting would unlink a block the parent still owns (bpo-39959).
    Deregistering right after the attach restores the intended ownership:
    the creating process is the only one that unlinks.
    """
    shm = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    return shm


@dataclass
class SharedWebPayload:
    """The picklable description of a web whose bulk lives in shared memory.

    Everything numeric sits in the two named blocks; the payload itself
    carries only layout manifests and the string tables, so pickling it per
    worker is cheap regardless of web size.
    """

    oracle_block: str
    oracle_manifest: dict
    extras_block: str
    extras_manifest: dict
    horizon_days: float
    urls: Tuple[str, ...]
    #: Per site: (site_id, domain, window_size, root_url or None),
    #: in the original site insertion order.
    sites: Tuple[Tuple[str, str, int, Optional[str]], ...]
    site_names: Tuple[str, ...]

    def materialise(self) -> SimulatedWeb:
        """Rebuild the web in this process, zero-copy over the blocks.

        The returned web keeps references to the attached blocks (as
        ``_shared_handles``) so the buffers outlive every array view.
        """
        oracle_shm = attach_shared_block(self.oracle_block)
        extras_shm = attach_shared_block(self.extras_block)
        oracle = OracleArrays.from_shared(
            oracle_shm, self.oracle_manifest, self.urls, self.site_names
        )
        extras = unpack_arrays(extras_shm, self.extras_manifest)
        urls = self.urls
        depths = extras["depths"].tolist()
        lifespans = extras["lifespans"]
        mean_rates = extras["mean_rates"].tolist()
        horizons = extras["horizons"].tolist()
        keyword_codes = extras["keyword_codes"]
        out_flat = extras["out_flat"]
        out_offsets = extras["out_offsets"].tolist()
        created = oracle.created.tolist()
        flat = oracle.flat
        offsets = oracle.offsets.tolist()
        site_ids = oracle.site_ids
        domain_of = {site_id: domain for site_id, domain, _, _ in self.sites}

        pages_by_site: Dict[str, List[SimulatedPage]] = {
            site_id: [] for site_id, _, _, _ in self.sites
        }
        for i, url in enumerate(urls):
            site_id = site_ids[i]
            lifespan = float(lifespans[i])
            page = SimulatedPage.__new__(SimulatedPage)
            page.url = url
            page.site_id = site_id
            page.domain = domain_of[site_id]
            page.depth = depths[i]
            page.created_at = created[i]
            page.lifespan = None if np.isnan(lifespan) else lifespan
            process = _SharedChangeProcess(mean_rates[i])
            process._set_materialised(
                horizons[i], flat[offsets[i] : offsets[i + 1]]
            )
            page.change_process = process
            page._outlinks = [urls[j] for j in out_flat[out_offsets[i] : out_offsets[i + 1]].tolist()]
            page._outlinks_tuple = None
            page._content_parts = None
            page._keywords = tuple(
                _VOCABULARY[code] for code in keyword_codes[i].tolist()
            )
            pages_by_site[site_id].append(page)

        web = SimulatedWeb(horizon_days=self.horizon_days)
        for site_id, domain, window_size, root_url in self.sites:
            site = SimulatedSite(site_id, domain, window_size)
            for page in pages_by_site[site_id]:
                site.add_page(page, is_root=(page.url == root_url))
            web.add_site(site)
        # add_site registers pages site by site; restore the exact global
        # page order (it is semantic: oracle ids, seed order, iteration).
        web._pages = {url: web._pages[url] for url in urls}
        web._oracle_arrays = oracle
        web._shared_handles = (oracle_shm, extras_shm)
        return web


_ATTACHED: Dict[str, SimulatedWeb] = {}


def attach_web(payload: SharedWebPayload) -> SimulatedWeb:
    """``payload.materialise()``, once per shared web in this process, so a
    pool worker serving several jobs over one web attaches it once."""
    if payload.oracle_block not in _ATTACHED:
        _ATTACHED[payload.oracle_block] = payload.materialise()
    return _ATTACHED[payload.oracle_block]


class SharedWeb:
    """Parent-side owner of the shared blocks backing a web.

    Create once, hand :attr:`payload` to every worker, and :meth:`close`
    (or use as a context manager) after the last worker has exited — the
    owner is the only process that unlinks the blocks.
    """

    def __init__(self, web: SimulatedWeb) -> None:
        oracle = web.oracle_arrays()
        self._oracle_shm, oracle_manifest = oracle.to_shared()
        extras_shm, extras_manifest = pack_arrays(_extras_columns(web, oracle))
        self._extras_shm = extras_shm
        sites = tuple(
            (site.site_id, site.domain, site.window_size, site._root_url)
            for site in web.sites
        )
        self.payload = SharedWebPayload(
            oracle_block=self._oracle_shm.name,
            oracle_manifest=oracle_manifest,
            extras_block=extras_shm.name,
            extras_manifest=extras_manifest,
            horizon_days=web.horizon_days,
            urls=tuple(web.urls()),
            sites=sites,
            site_names=tuple(oracle.site_names),
        )
        self._closed = False

    def close(self) -> None:
        """Release and unlink both blocks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shm in (self._oracle_shm, self._extras_shm):
            try:
                shm.close()
                # A same-process materialise() (serial fallbacks, tests)
                # deregisters the block on attach; rebalance the tracker's
                # books before unlink sends its own deregistration.
                resource_tracker.register(shm._name, "shared_memory")
                shm.unlink()
            except Exception:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedWeb":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _extras_columns(
    web: SimulatedWeb, oracle: OracleArrays
) -> List[Tuple[str, np.ndarray]]:
    """The page-construction columns that are not already oracle columns."""
    pages = list(web.pages())
    n = len(pages)
    url_index = oracle.index
    depths = np.array([page.depth for page in pages], dtype=np.int64)
    lifespans = np.array(
        [np.nan if page.lifespan is None else page.lifespan for page in pages],
        dtype=float,
    )
    mean_rates = np.array(
        [page.change_process.mean_rate for page in pages], dtype=float
    )
    horizons = np.array(
        [page.change_process.horizon for page in pages], dtype=float
    )
    vocab_code = {word: i for i, word in enumerate(_VOCABULARY)}
    if n:
        keyword_codes = np.array(
            [[vocab_code[word] for word in page._keywords] for page in pages],
            dtype=np.int16,
        )
    else:
        keyword_codes = np.zeros((0, 0), dtype=np.int16)
    out_counts = np.empty(n, dtype=np.int64)
    flat_links: List[int] = []
    for i, page in enumerate(pages):
        links = page.outlinks
        out_counts[i] = len(links)
        for link in links:
            j = url_index.get(link)
            if j is None:
                raise ValueError(
                    f"page {page.url} links to {link!r}, which is not in the "
                    "web; a shared web must be self-contained"
                )
            flat_links.append(j)
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_offsets[1:])
    out_flat = np.array(flat_links, dtype=np.int64)
    return [
        ("depths", depths),
        ("lifespans", lifespans),
        ("mean_rates", mean_rates),
        ("horizons", horizons),
        ("keyword_codes", keyword_codes),
        ("out_flat", out_flat),
        ("out_offsets", out_offsets),
    ]
