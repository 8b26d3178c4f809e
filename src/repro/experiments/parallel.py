"""Process-parallel figure sweeps.

The figure experiments iterate independent units of work — one ISP pair
(distance) or one pair's failure set (bandwidth) — and every unit is a pure
function of the experiment config, so the sweeps parallelize trivially.
This module provides the machinery the sweep runner shares:

* :func:`resolve_workers` — normalize a ``workers`` argument (see its
  contract table);
* :func:`fork_context` — the start method that lets workers inherit the
  parent's warm caches;
* :func:`dataset_for` / :func:`pairs_for` — the bounded, fingerprint-keyed
  per-process dataset cache, plus :func:`warm_dataset` to prime it in the
  parent *before* forking so workers inherit the built dataset instead of
  each rebuilding it (the shared-dataset warm start; see
  :class:`repro.experiments.runner.SweepRunner`).

**Determinism contract:** results are returned in submission order and
each unit's computation is independent and seeded by the config, so
``workers=N`` produces results identical to ``workers=1`` for any ``N``.
The equivalence tests assert this.
"""

from __future__ import annotations

import multiprocessing
import operator
import os
from collections import OrderedDict

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.topology.dataset import build_default_dataset
from repro.topology.serialization import config_fingerprint

__all__ = [
    "resolve_workers",
    "fork_context",
    "dataset_for",
    "pairs_for",
    "warm_dataset",
]

def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers`` argument to an explicit process count.

    ==========  ====================================================
    ``workers``  resolves to
    ==========  ====================================================
    ``None``     1 (serial — no executor, no pickling)
    ``0``        1 (serial)
    ``1``        1 (serial)
    ``-N``       ``os.cpu_count()`` (any negative: one per CPU)
    ``N >= 2``   exactly ``N`` worker processes
    ==========  ====================================================

    Anything else — ``True``/``False``, floats, strings — raises
    :class:`~repro.errors.ConfigurationError` instead of leaking into
    :class:`~concurrent.futures.ProcessPoolExecutor` (where ``True`` would
    silently mean one worker and a float would raise a confusing
    ``TypeError`` deep in the pool). Integer-like objects that implement
    ``__index__`` (e.g. ``numpy.int64``) are accepted.
    """
    if workers is None:
        return 1
    if isinstance(workers, bool):
        raise ConfigurationError(
            f"workers must be an int or None, got {workers!r} (bool)"
        )
    try:
        count = operator.index(workers)
    except TypeError as exc:
        raise ConfigurationError(
            f"workers must be an int or None, got {workers!r}"
        ) from exc
    if count < 0:
        return os.cpu_count() or 1
    return max(count, 1)


def fork_context() -> multiprocessing.context.BaseContext | None:
    """The ``fork`` multiprocessing context, or None where it's not safe.

    Fork is what makes the shared-dataset warm start free: the parent
    primes the module-level dataset cache (:func:`warm_dataset`) and every
    forked worker inherits the built dataset through copy-on-write memory.
    Fork is used only where it is already the platform's *default* start
    method (Linux) — on macOS fork is available but CPython defaults to
    spawn because forking after system frameworks initialize is
    crash-prone, and we respect that (and any user-set start method).
    Where this returns None, workers fall back to the per-process cache
    (each rebuilds once, as before).
    """
    if multiprocessing.get_start_method() == "fork":
        return multiprocessing.get_context("fork")
    return None


# ---------------------------------------------------------------------------
# Bounded per-process dataset cache (+ warm start priming)
# ---------------------------------------------------------------------------

#: How many distinct dataset configs each process keeps built at once.
#: Multi-config sweeps in one process (robustness grids, ablations over
#: dataset seeds) evict least-recently-used entries instead of growing
#: without bound.
DATASET_CACHE_SIZE = 4

#: Qualifying-pair lists are cheap relative to a dataset build but not
#: free; keep a few per process, keyed alongside the dataset entries.
PAIRS_CACHE_SIZE = 8

_dataset_cache: "OrderedDict[str, object]" = OrderedDict()
_pairs_cache: "OrderedDict[tuple, list]" = OrderedDict()


def _cache_put(cache: OrderedDict, key, value, maxsize: int) -> None:
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > maxsize:
        cache.popitem(last=False)


def dataset_for(config: ExperimentConfig):
    """The experiment's dataset, built at most once per process per config.

    Keyed on the dataset config's fingerprint — the same identity the
    checkpoint store uses (:func:`repro.topology.serialization.config_fingerprint`)
    — so configs that differ only in sweep caps share one built dataset.
    The cache is bounded (:data:`DATASET_CACHE_SIZE`, LRU eviction).
    """
    key = config_fingerprint(config.dataset)
    dataset = _dataset_cache.get(key)
    if dataset is None:
        dataset = build_default_dataset(config.dataset)
        _cache_put(_dataset_cache, key, dataset, DATASET_CACHE_SIZE)
    else:
        _dataset_cache.move_to_end(key)
    return dataset


def pairs_for(
    config: ExperimentConfig,
    min_interconnections: int,
    max_pairs: int | None,
):
    """The experiment's qualifying pair list, cached per process.

    ``ExperimentConfig`` is frozen and dataset generation is deterministic
    in its seeds, so every process derives the identical pair list from
    the same config.
    """
    dataset = dataset_for(config)
    key = (
        config_fingerprint(config.dataset),
        int(min_interconnections),
        None if max_pairs is None else int(max_pairs),
    )
    pairs = _pairs_cache.get(key)
    if pairs is None:
        pairs = dataset.pairs(
            min_interconnections=min_interconnections, max_pairs=max_pairs
        )
        _cache_put(_pairs_cache, key, pairs, PAIRS_CACHE_SIZE)
    else:
        _pairs_cache.move_to_end(key)
    return dataset, pairs


def warm_dataset(config: ExperimentConfig, dataset=None):
    """Prime the per-process dataset cache (the shared-dataset warm start).

    Called in the *parent* before a fork-context pool spins up: the built
    dataset lands in the module-level cache, forked workers inherit it via
    copy-on-write, and :func:`dataset_for` hits the cache instead of
    rebuilding — closing the "rebuild once per worker" startup cost for
    ``paper``-preset sweeps. Passing a prebuilt ``dataset`` skips the
    build (it must match the config). Returns the cached dataset.
    """
    key = config_fingerprint(config.dataset)
    if dataset is not None:
        _cache_put(_dataset_cache, key, dataset, DATASET_CACHE_SIZE)
        return dataset
    return dataset_for(config)
