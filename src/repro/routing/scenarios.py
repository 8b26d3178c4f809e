"""Probabilistic correlated-failure scenarios (TeaVAR-style enumeration).

The bandwidth experiment hypothesizes single interconnection failures one
at a time; real agreements must survive *correlated multi-link* failures.
This module turns "which failures do we evaluate?" into a first-class
probabilistic object:

* a :class:`FailureModel` assigns each interconnection an independent
  failure probability, optionally tying sets of interconnections into
  *shared-risk groups* (SRGs: conduits, exchanges, power domains) that
  fail as a unit;
* :func:`enumerate_failure_scenarios` ports the TeaVAR ``subscenarios``
  recursion: enumerate every combination of failed risk units whose
  scenario probability clears a cutoff, pruning branches whose extensions
  cannot (units are explored in descending ``p/(1-p)`` order, so once a
  branch falls below the cutoff no superset can climb back above it);
* each resulting :class:`FailureScenario` maps onto the structural derive
  contract — its failed columns are exactly a
  :meth:`~repro.routing.costs.PairCostTable.without_alternatives` drop
  set, and its affected-flow scope (:func:`affected_flow_indices`) feeds
  the existing :meth:`~repro.routing.costs.PairCostTable.subset` fast
  path — so a whole scenario set's tables derive from one parent in one
  batch (:func:`derive_scenario_tables`) with zero routing work.

**Determinism contract.** Scenario order is canonical — ascending by
(number of failed columns, failed column tuple) — and each scenario's
probability is computed as the product over risk units in unit-index
order (``p_u`` if failed else ``1 - p_u``), independent of the
enumeration's internal pruning order. Two calls with the same model
produce bit-identical floats in the same order.

**Degenerate scenarios.** A scenario that severs *every* interconnection
leaves no representable cost table — every flow is unroutable. Such
scenarios are still enumerated (their probability mass is real) and are
flagged by :meth:`FailureScenario.severs_all`; consumers must degrade
gracefully (report the flows unroutable with their demand attributed and
skip the negotiation for that scope) rather than derive a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from repro.errors import ConfigurationError
from repro.routing.costs import PairCostTable
from repro.util.validation import check_finite, check_int, check_sequence

__all__ = [
    "FailureModel",
    "FailureScenario",
    "FailureScenarioSet",
    "enumerate_failure_scenarios",
    "affected_flow_indices",
    "derive_scenario_tables",
]


@dataclass(frozen=True)
class FailureModel:
    """Per-interconnection failure probabilities and shared-risk groups.

    Attributes:
        link_probability: independent failure probability applied to every
            interconnection not covered by an explicit override or group.
        link_probabilities: optional per-column overrides, one per
            interconnection of the pair the model is applied to (length
            checked at enumeration time).
        shared_risk_groups: disjoint tuples of column indices that fail as
            one unit (all listed interconnections go down together).
        group_probabilities: optional per-group failure probabilities,
            parallel to ``shared_risk_groups`` (default: each group fails
            with ``link_probability``).
        cutoff: scenarios with probability below this are not enumerated;
            the uncovered mass is reported as ``1 - coverage``.
        max_failed: optional cap on simultaneously failed risk *units*
            (None = no cap beyond the cutoff).

    All probabilities must lie in ``(0, 0.5)`` — the TeaVAR pruning rule
    relies on ``p/(1-p) < 1`` so that failing an extra unit always shrinks
    a scenario's probability.
    """

    link_probability: float = 0.01
    link_probabilities: tuple[float, ...] | None = None
    shared_risk_groups: tuple[tuple[int, ...], ...] = ()
    group_probabilities: tuple[float, ...] | None = None
    cutoff: float = 1e-6
    max_failed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < check_finite(self.cutoff, "cutoff") <= 1.0:
            raise ConfigurationError(
                f"cutoff must be in (0, 1], got {self.cutoff}"
            )
        if self.max_failed is not None:
            check_int(self.max_failed, "max_failed", 0)
        # Sequence fields are stored as tuples (numpy arrays included), so
        # a scalar fails here with a typed error and the model hashes.
        groups = check_sequence(self.shared_risk_groups, "shared_risk_groups")
        object.__setattr__(self, "shared_risk_groups", tuple(
            tuple(check_sequence(group, f"shared-risk group {g}"))
            for g, group in enumerate(groups)
        ))
        for name in ("link_probabilities", "group_probabilities"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(check_sequence(value, name)))
        if self.group_probabilities is not None and len(
            self.group_probabilities
        ) != len(self.shared_risk_groups):
            raise ConfigurationError(
                "group_probabilities must parallel shared_risk_groups "
                f"({len(self.group_probabilities)} probabilities for "
                f"{len(self.shared_risk_groups)} groups)"
            )
        # Name every offending probability: which field, which unit, what
        # value (NaN/inf and non-numbers included — they fail the range
        # comparison), in the same offender-naming style as the
        # derive-path index checks.
        offenders = [
            f"{label}={p!r}"
            for label, p in self._labelled_probabilities()
            if not (isinstance(p, Real) and 0.0 < p < 0.5)
        ]
        if offenders:
            raise ConfigurationError(
                "failure probabilities must be real numbers in (0, 0.5) "
                "for the enumeration's pruning rule to hold; offending: "
                + ", ".join(offenders)
            )
        seen: dict[int, int] = {}
        for g, group in enumerate(self.shared_risk_groups):
            if not group:
                raise ConfigurationError(
                    f"shared-risk group {g} is empty; groups must be "
                    "non-empty"
                )
            for col in group:
                check_int(col, f"shared-risk group {g} member", 0)
                if seen.get(col) == g:
                    raise ConfigurationError(
                        f"shared-risk group {g} lists interconnection {col} "
                        "more than once"
                    )
                if col in seen:
                    raise ConfigurationError(
                        f"interconnection {col} appears in more than one "
                        f"shared-risk group (groups {seen[col]} and {g})"
                    )
                seen[col] = g

    def _labelled_probabilities(self) -> list[tuple[str, float]]:
        """Every configured probability with the name of its unit."""
        labelled = [("link_probability", self.link_probability)]
        for i, p in enumerate(self.link_probabilities or ()):
            labelled.append((f"link_probabilities[{i}]", p))
        for g, p in enumerate(self.group_probabilities or ()):
            labelled.append((f"group_probabilities[{g}]", p))
        return labelled

    def restrict(self, surviving: "tuple[int, ...] | list[int]") -> "FailureModel":
        """The model induced on a surviving-column subset, reindexed.

        After columns are physically severed (a coordinator link-failure
        fault), the remaining negotiation happens over a derived table
        whose columns are ``surviving`` (ascending original indices). The
        induced model keeps each surviving column's probability, maps
        shared-risk groups onto their surviving members (a group whose
        columns all died is dropped — it can no longer affect anything),
        and preserves cutoff/max_failed.
        """
        surviving = sorted(int(c) for c in surviving)
        if len(set(surviving)) != len(surviving):
            raise ConfigurationError(
                f"surviving columns contain duplicates: {surviving}"
            )
        if not surviving:
            raise ConfigurationError(
                "cannot restrict a failure model to zero surviving columns"
            )
        remap = {old: new for new, old in enumerate(surviving)}
        link_probs = None
        if self.link_probabilities is not None:
            bad = [c for c in surviving if c >= len(self.link_probabilities)]
            if bad:
                raise ConfigurationError(
                    f"surviving columns {bad} outside the model's "
                    f"{len(self.link_probabilities)} link_probabilities"
                )
            link_probs = tuple(self.link_probabilities[c] for c in surviving)
        groups: list[tuple[int, ...]] = []
        group_probs: list[float] = []
        for g, group in enumerate(self.shared_risk_groups):
            kept = tuple(remap[c] for c in group if c in remap)
            if not kept:
                continue
            groups.append(kept)
            group_probs.append(
                self.group_probabilities[g]
                if self.group_probabilities is not None
                else self.link_probability
            )
        return FailureModel(
            link_probability=self.link_probability,
            link_probabilities=link_probs,
            shared_risk_groups=tuple(groups),
            group_probabilities=tuple(group_probs) if groups else None,
            cutoff=self.cutoff,
            max_failed=self.max_failed,
        )

    def risk_units(
        self, n_alternatives: int
    ) -> list[tuple[tuple[int, ...], float]]:
        """The independent failure units for a pair with ``I`` columns.

        Each unit is ``(columns, probability)``: shared-risk groups fail
        as a whole, every ungrouped interconnection is its own singleton
        unit. Units are returned in ascending order of their smallest
        column, which is the canonical unit-index order the probability
        products follow.
        """
        if n_alternatives < 1:
            raise ConfigurationError("need at least one interconnection")
        if (
            self.link_probabilities is not None
            and len(self.link_probabilities) != n_alternatives
        ):
            raise ConfigurationError(
                f"link_probabilities has {len(self.link_probabilities)} "
                f"entries for {n_alternatives} interconnections"
            )
        grouped: set[int] = set()
        units: list[tuple[tuple[int, ...], float]] = []
        for g, group in enumerate(self.shared_risk_groups):
            bad = sorted(c for c in group if not 0 <= c < n_alternatives)
            if bad:
                raise ConfigurationError(
                    f"shared-risk group {g} names interconnections {bad} "
                    f"outside 0..{n_alternatives - 1}"
                )
            prob = (
                self.group_probabilities[g]
                if self.group_probabilities is not None
                else self.link_probability
            )
            units.append((tuple(sorted(group)), float(prob)))
            grouped.update(group)
        for col in range(n_alternatives):
            if col in grouped:
                continue
            prob = (
                self.link_probabilities[col]
                if self.link_probabilities is not None
                else self.link_probability
            )
            units.append(((col,), float(prob)))
        units.sort(key=lambda unit: unit[0][0])
        return units


@dataclass(frozen=True)
class FailureScenario:
    """One correlated failure: a set of downed interconnection columns.

    ``failed`` is sorted ascending and doubles as the
    :meth:`~repro.routing.costs.PairCostTable.without_alternatives` drop
    set. ``probability`` is the exact product over the model's risk units
    (failed units contribute ``p_u``, surviving units ``1 - p_u``) in
    unit-index order.
    """

    failed: tuple[int, ...]
    probability: float

    @property
    def n_failed(self) -> int:
        return len(self.failed)

    def severs_all(self, n_alternatives: int) -> bool:
        """True when no interconnection survives this scenario."""
        return len(self.failed) >= n_alternatives


@dataclass(frozen=True)
class FailureScenarioSet:
    """The enumerated scenarios of one (pair, failure model).

    ``scenarios`` is canonically ordered (ascending by failed-column
    count, then by the failed tuple); the no-failure scenario, when it
    clears the cutoff, is always first. ``coverage`` is the total
    probability mass enumerated — ``1 - coverage`` is the mass of
    scenarios below the cutoff, which availability metrics must account
    for conservatively.
    """

    n_alternatives: int
    scenarios: tuple[FailureScenario, ...]
    coverage: float
    model: FailureModel = field(repr=False)

    def __len__(self) -> int:
        return len(self.scenarios)

    def drop_sets(self) -> list[tuple[int, ...]]:
        return [s.failed for s in self.scenarios]


def _canonical_probability(
    units: list[tuple[tuple[int, ...], float]], failed_units: frozenset[int]
) -> float:
    """Product over units in unit-index order — pruning-order independent."""
    prob = 1.0
    for u, (_, p) in enumerate(units):
        prob *= p if u in failed_units else 1.0 - p
    return prob


def enumerate_failure_scenarios(
    n_alternatives: int, model: FailureModel
) -> FailureScenarioSet:
    """Enumerate every failure scenario clearing the model's cutoff.

    The TeaVAR ``subscenarios`` recursion: starting from the all-up
    scenario (probability ``prod(1 - p_u)``), branch on failing each
    remaining risk unit, which multiplies the branch probability by
    ``p_u / (1 - p_u) < 1``. Units are explored in descending
    ``p/(1-p)`` order, so as soon as a branch's probability (or its best
    possible extension) falls below the cutoff, the whole subtree is
    pruned — no superset of a sub-cutoff scenario can clear the cutoff.

    The returned set is canonically ordered and its probabilities are
    recomputed in unit-index order, so the result is bit-identical for a
    given (``n_alternatives``, ``model``) regardless of enumeration
    internals.
    """
    units = model.risk_units(n_alternatives)
    n_units = len(units)
    base = 1.0
    for _, p in units:
        base *= 1.0 - p
    # Explore in descending ratio order so pruning is sound: extensions
    # only ever multiply by ratios no larger than the current one.
    order = sorted(
        range(n_units), key=lambda u: (-(units[u][1] / (1.0 - units[u][1])), u)
    )
    ratios = [units[u][1] / (1.0 - units[u][1]) for u in order]

    found: list[frozenset[int]] = []

    def recurse(pos: int, failed: tuple[int, ...], prob: float) -> None:
        if prob >= model.cutoff:
            found.append(frozenset(failed))
        if model.max_failed is not None and len(failed) >= model.max_failed:
            return
        for nxt in range(pos, n_units):
            branch = prob * ratios[nxt]
            if branch < model.cutoff:
                # Ratios are sorted descending: every later unit (and any
                # deeper extension) yields an even smaller probability.
                return
            recurse(nxt + 1, failed + (order[nxt],), branch)

    recurse(0, (), base)

    scenarios = []
    coverage = 0.0
    for failed_units in found:
        columns: list[int] = []
        for u in failed_units:
            columns.extend(units[u][0])
        probability = _canonical_probability(units, failed_units)
        scenarios.append(
            FailureScenario(
                failed=tuple(sorted(columns)), probability=probability
            )
        )
    scenarios.sort(key=lambda s: (s.n_failed, s.failed))
    for s in scenarios:
        coverage += s.probability
    return FailureScenarioSet(
        n_alternatives=n_alternatives,
        scenarios=tuple(scenarios),
        coverage=coverage,
        model=model,
    )


def affected_flow_indices(
    scenario: FailureScenario, default_choices: np.ndarray
) -> np.ndarray:
    """Flows whose pre-failure default exit died with this scenario.

    The negotiation scope of the scenario: exactly the flows whose
    early-exit choice is one of the failed columns, as an index array fit
    for :meth:`~repro.routing.costs.PairCostTable.subset`.
    """
    choices = np.asarray(default_choices)
    if not scenario.failed:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(
        np.isin(choices, np.asarray(scenario.failed))
    ).astype(np.intp)


def derive_scenario_tables(
    table: PairCostTable, scenario_set: FailureScenarioSet
) -> list[PairCostTable | None]:
    """Post-failure tables for a whole scenario set, batch-derived.

    Returns one entry per scenario, in scenario order: the parent table
    itself for the no-failure scenario, a structurally derived table
    (:meth:`~repro.routing.costs.PairCostTable.batch_without_alternatives`,
    sharing the parent's buffers) for partial failures, and ``None`` for
    scenarios that sever every interconnection — those have no
    representable table and must be handled by the caller's
    graceful-degradation path.
    """
    if scenario_set.n_alternatives != table.n_alternatives:
        raise ConfigurationError(
            f"scenario set enumerates {scenario_set.n_alternatives} "
            f"columns but the table has {table.n_alternatives}"
        )
    todo: list[tuple[int, tuple[int, ...]]] = []
    tables: list[PairCostTable | None] = [None] * len(scenario_set.scenarios)
    for i, scenario in enumerate(scenario_set.scenarios):
        if not scenario.failed:
            tables[i] = table
        elif not scenario.severs_all(table.n_alternatives):
            todo.append((i, scenario.failed))
    derived = table.batch_without_alternatives([ks for _, ks in todo])
    for (i, _), post in zip(todo, derived):
        tables[i] = post
    return tables
