"""Unified sweep runner: declarative scenarios, warm start, checkpoints.

Every result in the paper is a *sweep*: iterate independent units of work
(an ISP pair, a pair's failure set, a best-response trajectory), compute
each unit as a pure function of the experiment config, and reduce the
ordered results into figure data. Instead of each experiment driver
re-implementing that loop, a scenario is declared once as a
:class:`ScenarioSpec` — a unit enumerator, a pure per-unit worker and an
ordered reducer — and executed by a :class:`SweepRunner` that owns:

* **worker resolution** — the :func:`~repro.experiments.parallel.resolve_workers`
  contract, with the serial path calling the spec functions in-process
  (no executor, no pickling);
* **shared-dataset warm start** — before a parallel run the runner builds
  the dataset once in the parent and primes the per-process cache
  (:func:`~repro.experiments.parallel.warm_dataset`); on fork platforms
  the pool inherits it copy-on-write, so workers do not rebuild the
  dataset each. Spawn platforms fall back to the bounded per-process
  cache;
* **checkpointing** — with ``checkpoint_dir`` set, each unit's result is
  pickled to its own shard as soon as it completes, keyed by a fingerprint
  of (scenario, config, params) from
  :mod:`repro.topology.serialization`. ``resume=True`` loads completed
  shards and runs only the missing units; a checkpoint directory written
  under a *different* fingerprint refuses to resume
  (:class:`~repro.errors.ConfigurationError`) rather than silently mixing
  experiments.

**Determinism contract:** unit enumeration is deterministic in the config,
every unit is independent, and results are reduced in unit order — so any
``workers=N``, any interrupt/resume split, and the serial loop all produce
bit-identical aggregates. The equivalence tests assert this against plain
loops over the per-unit functions.

Scenarios register themselves by name (``distance``, ``bandwidth``,
``grouped``, ``availability``, ``oscillation``, ``destination``,
``multi_isp``, ``robust_negotiation``) so the CLI ``sweep`` subcommand
and pickled worker payloads can resolve them lazily.

A spec's ``default_params`` is the one statement of the params its
sweep takes and their defaults: :meth:`SweepRunner.run` refuses any
other name, the ``run_*_experiment`` wrappers forward their keyword
params unchanged, and the CLI flags read their defaults from it.
"""

from __future__ import annotations

import json
import logging
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.errors import (
    ConfigurationError,
    RoutingError,
    SweepUnitError,
    TopologyError,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    fork_context,
    resolve_workers,
    warm_dataset,
)
from repro.topology.serialization import stable_fingerprint
from repro.util.validation import check_int, check_non_negative

_log = logging.getLogger(__name__)

#: Errors a unit raises the same way on every attempt: bad parameters,
#: unrealizable topologies and unroutable ones. They are never retried and
#: abort the sweep at once instead of failing every unit in turn.
_DETERMINISTIC_ERRORS = (ConfigurationError, TopologyError, RoutingError)

__all__ = [
    "ScenarioSpec",
    "SweepRunner",
    "CheckpointStore",
    "sweep_fingerprint",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "run_scenario",
    "retry_kwargs",
]


def retry_kwargs(
    max_retries: int | None = None, retry_backoff: float | None = None
) -> dict:
    """SweepRunner retry kwargs from optional CLI/driver overrides.

    ``None`` means "keep the runner default" — the returned dict carries
    only the explicitly-set knobs, so drivers can thread optional
    ``max_retries`` / ``retry_backoff`` parameters without duplicating the
    defaults.
    """
    kwargs: dict = {}
    if max_retries is not None:
        kwargs["max_retries"] = max_retries
    if retry_backoff is not None:
        kwargs["retry_backoff_s"] = retry_backoff
    return kwargs


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative sweep scenario.

    Attributes:
        name: registry key (also the checkpoint subdirectory name).
        enumerate_units: ``(config, params) -> sequence of unit payloads``.
            Must be deterministic in its arguments; payloads must be
            picklable (pair *indices*, not pair objects, for the dataset
            sweeps).
        run_unit: ``(config, params, unit) -> result``. A pure function of
            its arguments — no shared mutable state — so units can run in
            any process and any order. Results must be picklable for
            parallel execution and checkpointing.
        reduce: ``(config, params, ordered_results) -> aggregate``.
        default_params: every param the scenario takes, with its
            default; merged under the caller's ``params``, which may name
            no other key.
        summarize: optional ``aggregate -> [(claim, value), ...]`` used by
            the CLI ``sweep`` subcommand's report.
        uses_dataset: whether workers read the experiment dataset
            (via :func:`~repro.experiments.parallel.dataset_for` /
            ``pairs_for``). ``False`` skips the warm start entirely — no
            point building a dataset the workers never touch (the grouped
            ablation carries its pair in ``params``).
    """

    name: str
    enumerate_units: Callable[
        [ExperimentConfig, Mapping[str, Any]], Sequence[Any]
    ]
    run_unit: Callable[[ExperimentConfig, Mapping[str, Any], Any], Any]
    reduce: Callable[[ExperimentConfig, Mapping[str, Any], list], Any]
    default_params: Mapping[str, Any] = field(default_factory=dict)
    summarize: Callable[[Any], list] | None = None
    uses_dataset: bool = True


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

_SCENARIOS: dict[str, ScenarioSpec] = {}

#: Modules whose import registers the stock scenarios. Imported lazily so
#: worker processes (which pickle only the scenario *name*) can resolve
#: specs without shipping callables across the process boundary.
_SCENARIO_MODULES = (
    "repro.experiments.distance",
    "repro.experiments.bandwidth",
    "repro.experiments.availability",
    "repro.experiments.oscillation",
    "repro.experiments.extensions",
    "repro.experiments.internetwork",
    "repro.experiments.robustness",
)


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Register ``spec`` under its name (idempotent re-registration)."""
    _SCENARIOS[spec.name] = spec
    return spec


def _ensure_registered() -> None:
    import importlib

    for module in _SCENARIO_MODULES:
        importlib.import_module(module)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario, importing the stock modules first."""
    _ensure_registered()
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sweep scenario {name!r}; "
            f"known: {', '.join(scenario_names())}"
        ) from None


def scenario_names() -> list[str]:
    """Sorted names of all registered scenarios."""
    _ensure_registered()
    return sorted(_SCENARIOS)


def sweep_fingerprint(
    name: str, config: ExperimentConfig, params: Mapping[str, Any]
) -> str:
    """The identity under which a sweep's checkpoints are stored.

    Covers the scenario name, the full experiment config and the sweep
    params (canonicalized by
    :func:`repro.topology.serialization.stable_fingerprint`; objects
    without a natural canonical form reduce to their class name). Unit
    enumeration is a pure function of (config, params), so the fingerprint
    pins the unit list too.
    """
    return stable_fingerprint(
        {"scenario": name, "config": config, "params": dict(params)}
    )


# ---------------------------------------------------------------------------
# Checkpoint store
# ---------------------------------------------------------------------------


#: Sentinel returned by :meth:`CheckpointStore.try_load` for a shard that
#: exists on disk but cannot be unpickled (truncated, zero-size, garbage).
CORRUPT_SHARD = object()


class CheckpointStore:
    """Per-unit result shards under ``root/<scenario>/``.

    Layout::

        root/<scenario>/manifest.json      {"fingerprint", "n_units", ...}
        root/<scenario>/unit-00000.pkl     pickled unit result
        root/<scenario>/unit-00001.pkl     ...

    One directory holds one sweep identity at a time: :meth:`prepare` with
    ``resume=False`` wipes stale shards and stamps a fresh manifest, while
    ``resume=True`` demands a matching fingerprint and returns the set of
    completed unit indices. Shard writes are atomic (tmp + rename), so an
    interrupt can tear at most nothing — a shard either holds a complete
    pickled result or does not exist.
    """

    MANIFEST = "manifest.json"

    def __init__(self, root: str | Path, scenario: str, fingerprint: str):
        self.dir = Path(root) / scenario
        self.fingerprint = fingerprint

    def _manifest_path(self) -> Path:
        return self.dir / self.MANIFEST

    def shard_path(self, index: int) -> Path:
        return self.dir / f"unit-{index:05d}.pkl"

    def prepare(self, n_units: int, resume: bool) -> set[int]:
        """Ready the directory; return the unit indices already completed."""
        manifest_path = self._manifest_path()
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text("utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigurationError(
                    f"unreadable checkpoint manifest {manifest_path}: {exc}"
                ) from exc
            if resume:
                stale = (
                    manifest.get("fingerprint") != self.fingerprint
                    or manifest.get("n_units") != n_units
                )
                if stale:
                    raise ConfigurationError(
                        f"checkpoint directory {self.dir} holds a different "
                        f"sweep (fingerprint "
                        f"{manifest.get('fingerprint')!r} != "
                        f"{self.fingerprint!r}); refusing to resume — "
                        "point --checkpoint-dir elsewhere or drop --resume "
                        "to start fresh"
                    )
                return self.completed(n_units)
            self._clear_shards()
        self.dir.mkdir(parents=True, exist_ok=True)
        manifest = {"fingerprint": self.fingerprint, "n_units": n_units}
        manifest_path.write_text(
            json.dumps(manifest, indent=1) + "\n", encoding="utf-8"
        )
        return set()

    def _clear_shards(self) -> None:
        for shard in self.dir.glob("unit-*.pkl"):
            shard.unlink()

    def completed(self, n_units: int) -> set[int]:
        return {
            i for i in range(n_units) if self.shard_path(i).exists()
        }

    def load(self, index: int) -> Any:
        with self.shard_path(index).open("rb") as fh:
            return pickle.load(fh)

    def try_load(self, index: int) -> Any:
        """Load a shard, or :data:`CORRUPT_SHARD` if it cannot be read.

        A shard that exists but is unreadable — zero bytes, truncated
        mid-pickle, or otherwise failing to unpickle — is *not* a fatal
        condition: an interrupt or disk hiccup may have left it behind.
        The shard is logged, deleted and reported corrupt so the runner
        re-runs just that unit; by the determinism contract the rerun is
        bit-identical to what the shard would have held.
        """
        path = self.shard_path(index)
        try:
            if path.stat().st_size == 0:
                raise EOFError("zero-size shard")
            return self.load(index)
        except Exception as exc:  # any unreadable/corrupt shard
            _log.warning(
                "corrupt checkpoint shard %s (%s: %s); re-running unit %d",
                path, exc.__class__.__name__, exc, index,
            )
            path.unlink(missing_ok=True)
            return CORRUPT_SHARD

    def save(self, index: int, result: Any) -> None:
        path = self.shard_path(index)
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def _sweep_unit_worker(payload):
    """Parallel unit execution (top-level, hence picklable).

    Payload: ``(scenario_name, config, params_items, unit)``. The spec is
    resolved by name inside the worker, so only data — never callables —
    crosses the process boundary.
    """
    name, config, params_items, unit = payload
    spec = get_scenario(name)
    return spec.run_unit(config, dict(params_items), unit)


@dataclass
class SweepRunner:
    """Executes :class:`ScenarioSpec` sweeps (see module docstring).

    Attributes:
        workers: process count per :func:`resolve_workers` (None = serial).
        checkpoint_dir: root directory for per-unit result shards
            (None = no checkpointing).
        resume: with ``checkpoint_dir``, load completed shards and run
            only the missing units. Requires a fingerprint match. A shard
            that turns out truncated or corrupt is logged, dropped and
            re-run instead of crashing the resume.
        warm_start: prime the parent's dataset cache before a parallel
            run so fork workers inherit the built dataset.
        max_retries: how many times a failing unit is retried (on any
            ``Exception``; interrupts always propagate) with bounded
            deterministic backoff before being recorded as failed. A unit
            that exhausts its budget does *not* kill the sweep: every
            other unit still completes (and checkpoints), then a
            :class:`~repro.errors.SweepUnitError` surfaces the exceptions
            with their unit payloads attached. A
            :class:`~repro.errors.ConfigurationError`,
            :class:`~repro.errors.TopologyError` or
            :class:`~repro.errors.RoutingError` is deterministic: it is
            raised as is on its first occurrence, without retries and
            without running the remaining units.
        retry_backoff_s: base backoff; attempt ``k`` sleeps
            ``retry_backoff_s * 2**(k-1)``, capped at 1 s — deterministic,
            no jitter, so reruns behave identically.
    """

    workers: int | None = None
    checkpoint_dir: str | Path | None = None
    resume: bool = False
    warm_start: bool = True
    max_retries: int = 2
    retry_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        check_int(self.max_retries, "max_retries", 0)
        check_non_negative(self.retry_backoff_s, "retry_backoff_s")

    def _backoff(self, attempt: int) -> None:
        delay = min(self.retry_backoff_s * 2 ** (attempt - 1), 1.0)
        if delay > 0:
            time.sleep(delay)

    def run(
        self,
        spec: ScenarioSpec | str,
        config: ExperimentConfig | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> Any:
        """Execute a sweep and return the reduced aggregate.

        Raises :class:`~repro.errors.ConfigurationError` before any unit
        runs if ``params`` names a key ``spec.default_params`` lacks.
        """
        if isinstance(spec, str):
            spec = get_scenario(spec)
        if self.resume and self.checkpoint_dir is None:
            raise ConfigurationError(
                "resume=True requires a checkpoint_dir — without one the "
                "sweep would silently recompute from scratch"
            )
        params = params or {}
        unknown = sorted(set(params) - set(spec.default_params))
        if unknown:
            raise ConfigurationError(
                f"unknown {spec.name} params: {', '.join(unknown)}"
            )
        config = config or ExperimentConfig()
        merged = {**spec.default_params, **params}
        n_workers = resolve_workers(self.workers)

        units = list(spec.enumerate_units(config, merged))
        results: list[Any] = [None] * len(units)

        store = None
        todo = list(range(len(units)))
        if self.checkpoint_dir is not None:
            store = CheckpointStore(
                self.checkpoint_dir,
                spec.name,
                sweep_fingerprint(spec.name, config, merged),
            )
            done = store.prepare(len(units), self.resume)
            for index in sorted(done):
                loaded = store.try_load(index)
                if loaded is CORRUPT_SHARD:
                    done.discard(index)
                else:
                    results[index] = loaded
            todo = [i for i in range(len(units)) if i not in done]

        failures: list[tuple[int, Any, Exception]] = []
        if todo:
            for index, result in self._execute(
                spec, config, merged, units, todo, n_workers, failures
            ):
                results[index] = result
                if store is not None:
                    store.save(index, result)
        if failures:
            # Every completed unit above is already reduced into `results`
            # and, with checkpointing, persisted — a resume re-runs only
            # the failed units.
            raise SweepUnitError(
                spec.name, sorted(failures, key=lambda f: f[0])
            )
        return spec.reduce(config, merged, results)

    def _execute(self, spec, config, params, units, todo, n_workers, failures):
        """Yield ``(unit_index, result)`` in unit order, serial or pooled.

        A unit whose execution raises is retried ``max_retries`` times
        with deterministic backoff; one that keeps failing is appended to
        ``failures`` as ``(index, unit_payload, exception)`` and skipped,
        leaving the remaining units to complete. A deterministic error
        propagates at once.
        """
        if n_workers <= 1 or len(todo) <= 1:
            for index in todo:
                for attempt in range(self.max_retries + 1):
                    try:
                        result = spec.run_unit(config, params, units[index])
                    except _DETERMINISTIC_ERRORS:
                        raise
                    except Exception as exc:
                        if attempt >= self.max_retries:
                            _log.warning(
                                "sweep %s unit %d failed after %d attempt(s)",
                                spec.name, index, attempt + 1,
                            )
                            failures.append((index, units[index], exc))
                            break
                        self._backoff(attempt + 1)
                    else:
                        yield index, result
                        break
            return
        _ensure_registered()
        if _SCENARIOS.get(spec.name) is not spec:
            # Workers resolve specs by name; an unregistered (or shadowed)
            # spec would fail deep inside the pool — or worse, silently run
            # a different scenario's functions. Refuse up front.
            raise ConfigurationError(
                f"scenario {spec.name!r} is not the registered spec of that "
                "name; parallel sweeps resolve specs by name in worker "
                "processes — call register_scenario(spec) first"
            )
        mp_context = fork_context()
        if self.warm_start and spec.uses_dataset:
            # Build the dataset once here in the parent; on fork platforms
            # every worker inherits it copy-on-write instead of rebuilding.
            warm_dataset(config)
        params_items = tuple(params.items())
        payloads = {
            index: (spec.name, config, params_items, units[index])
            for index in todo
        }
        with ProcessPoolExecutor(
            max_workers=min(n_workers, len(todo)), mp_context=mp_context
        ) as pool:
            # One future per unit, consumed in submission order, so shards
            # land on disk as units finish — an interrupt loses only the
            # in-flight units, and resume picks up from the completed set.
            # A failed future is resubmitted (the retry runs in a pool
            # worker; only the backoff sleeps here in the parent).
            futures = {
                index: pool.submit(_sweep_unit_worker, payloads[index])
                for index in todo
            }
            for index in todo:
                attempt = 0
                while True:
                    try:
                        result = futures[index].result()
                    except KeyboardInterrupt:
                        raise
                    except _DETERMINISTIC_ERRORS:
                        for future in futures.values():
                            future.cancel()
                        raise
                    except Exception as exc:
                        attempt += 1
                        if attempt > self.max_retries:
                            _log.warning(
                                "sweep %s unit %d failed after %d "
                                "attempt(s)", spec.name, index, attempt,
                            )
                            failures.append((index, units[index], exc))
                            break
                        self._backoff(attempt)
                        futures[index] = pool.submit(
                            _sweep_unit_worker, payloads[index]
                        )
                    else:
                        yield index, result
                        break


def run_scenario(
    name: str,
    config: ExperimentConfig | None = None,
    params: Mapping[str, Any] | None = None,
    workers: int | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    max_retries: int = 2,
) -> Any:
    """Convenience wrapper: resolve a scenario by name and run it."""
    return SweepRunner(
        workers=workers, checkpoint_dir=checkpoint_dir, resume=resume,
        max_retries=max_retries,
    ).run(name, config, params)
