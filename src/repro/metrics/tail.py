"""Tail-risk metrics over discrete (probability, MEL) distributions.

The availability experiment (PR 6) introduced probability-weighted MEL
scoring: expected MEL, value-at-risk and conditional value-at-risk over an
enumerated failure-scenario distribution. PR 7 makes those same metrics an
*input to the negotiation itself* (the scenario-aware evaluator blends
nominal and CVaR scores into preference classes), so the pure metric
functions live here in :mod:`repro.metrics` where both the ``core`` and
``experiments`` layers can import them without a layering cycle.
:mod:`repro.experiments.availability` re-exports them unchanged.

**Conventions** (shared with the availability experiment; see ROADMAP
"Failure scenarios & availability"):

* Scenario enumeration stops at a probability cutoff, so a distribution
  carries only ``coverage`` of the total mass. VaR/CVaR assign the
  uncovered remainder the *worst enumerated* value — a documented lower
  bound (the true tail can only be worse).
* ``expected_mel`` conditions on the finite (routable) mass; unroutable
  scenarios carry ``inf`` and are reported separately rather than
  poisoning the mean.
* CVaR splits the atom straddling the quantile, so
  ``CVaR = (1/(1-q)) * E[value over the q..1 tail]`` exactly.

:func:`cvar_matrix` is the vectorized form used by the scenario-aware
evaluator: one CVaR per candidate over a shared scenario axis, computed
with a stable sort and a cumulative walk from the worst value down. It is
property-tested against the scalar :func:`conditional_value_at_risk` (the
accumulation orders differ, so agreement is to tolerance, not bit-exact —
both are exact on atom boundaries).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import check_quantile

__all__ = [
    "expected_mel",
    "value_at_risk",
    "conditional_value_at_risk",
    "cvar_matrix",
]


def _tail_distribution(
    probs: np.ndarray, mels: np.ndarray, coverage: float
) -> tuple[np.ndarray, np.ndarray]:
    """The (mel, mass) distribution used by VaR/CVaR, sorted ascending.

    The uncovered mass ``1 - coverage`` is assigned the worst enumerated
    MEL — the documented lower-bound convention: every non-enumerated
    scenario fails *more* risk units than some enumerated one, so its MEL
    is at least plausibly as bad; the true tail can only be worse.
    """
    if probs.size == 0:
        raise ConfigurationError("no enumerated scenarios to rank")
    order = np.argsort(mels, kind="stable")
    mels = mels[order]
    probs = probs[order].astype(float)
    uncovered = max(0.0, 1.0 - coverage)
    if uncovered > 0.0:
        mels = np.append(mels, mels[-1])
        probs = np.append(probs, uncovered)
    return mels, probs


def expected_mel(probs: np.ndarray, mels: np.ndarray) -> float:
    """Probability-weighted mean MEL over the routable enumerated mass."""
    finite = np.isfinite(mels)
    mass = float(probs[finite].sum())
    if mass <= 0.0:
        return math.inf
    return float((probs[finite] * mels[finite]).sum() / mass)


def value_at_risk(
    probs: np.ndarray, mels: np.ndarray, coverage: float, quantile: float
) -> float:
    """Smallest MEL ``m`` with ``P(MEL <= m) >= quantile``."""
    quantile = check_quantile(quantile, "quantile")
    mels, probs = _tail_distribution(probs, mels, coverage)
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, quantile - 1e-12))
    return float(mels[min(idx, mels.size - 1)])


def conditional_value_at_risk(
    probs: np.ndarray, mels: np.ndarray, coverage: float, quantile: float
) -> float:
    """Expected MEL of the worst ``1 - quantile`` probability tail.

    The atom straddling the quantile is split, so
    ``CVaR = (1/(1-q)) * E[(MEL) over the q..1 tail]`` exactly.
    """
    quantile = check_quantile(quantile, "quantile")
    mels, probs = _tail_distribution(probs, mels, coverage)
    cum = np.cumsum(probs)
    total = float(cum[-1])
    tail = total - quantile
    if tail <= 0.0:
        return float(mels[-1])
    # Walk the tail from the worst scenario down, consuming mass until the
    # quantile boundary, splitting the final atom.
    acc = 0.0
    remaining = tail
    for i in range(mels.size - 1, -1, -1):
        take = min(remaining, float(probs[i]))
        if take > 0.0:
            acc += take * float(mels[i])
            remaining -= take
        if remaining <= 0.0:
            break
    return acc / tail


def cvar_matrix(
    values: np.ndarray, probs: np.ndarray, quantile: float
) -> np.ndarray:
    """CVaR per candidate over a shared leading scenario axis.

    ``values`` is ``(S, ...)`` — one slab per scenario atom, any trailing
    candidate shape — and ``probs`` is the matching ``(S,)`` mass vector.
    Returns the ``(...)``-shaped CVaR at ``quantile``, splitting the
    straddling atom per candidate. The caller is responsible for the
    uncovered-mass convention (append a worst-value slab with the residual
    mass); values must be finite.

    Where a candidate's total mass does not exceed ``quantile`` the CVaR
    degenerates to its worst value, matching the scalar function.
    """
    quantile = check_quantile(quantile, "quantile")
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if values.ndim < 1 or values.shape[0] == 0:
        raise ConfigurationError("no scenario atoms to rank")
    if probs.shape != (values.shape[0],):
        raise ConfigurationError(
            f"probs must have shape ({values.shape[0]},), got {probs.shape}"
        )
    order = np.argsort(values, axis=0, kind="stable")
    ranked = np.take_along_axis(values, order, axis=0)
    mass = np.take_along_axis(
        np.broadcast_to(
            probs.reshape((-1,) + (1,) * (values.ndim - 1)), values.shape
        ),
        order,
        axis=0,
    )
    # Walk from the worst value down: reverse, then accumulate mass and
    # mass-weighted value sums exactly as the scalar loop does per atom.
    ranked = ranked[::-1]
    mass = mass[::-1]
    cum = np.cumsum(mass, axis=0)
    weighted = np.cumsum(mass * ranked, axis=0)
    tail = cum[-1] - quantile  # per candidate: total mass beyond q
    # First atom index at which the consumed tail mass reaches `tail`.
    idx = np.argmax(cum >= tail, axis=0)
    idx_slab = idx[np.newaxis]
    cum_before = np.take_along_axis(cum, idx_slab, axis=0)[0] - \
        np.take_along_axis(mass, idx_slab, axis=0)[0]
    acc_before = np.take_along_axis(weighted, idx_slab, axis=0)[0] - (
        np.take_along_axis(mass, idx_slab, axis=0)[0]
        * np.take_along_axis(ranked, idx_slab, axis=0)[0]
    )
    split = np.maximum(tail - cum_before, 0.0)
    boundary = np.take_along_axis(ranked, idx_slab, axis=0)[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        cvar = (acc_before + split * boundary) / tail
    # Degenerate candidates (total mass <= quantile): worst value.
    return np.where(tail <= 0.0, ranked[0], cvar)
