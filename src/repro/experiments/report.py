"""Paper-style text rendering of experiment results.

The ``distance`` and ``bandwidth`` CLI verbs print, for every figure, the
CDF series the figure plots (:func:`format_series_table`) and then the
claims the paper states in prose next to what was measured
(:func:`format_claims`). Nothing here computes — it only formats.
"""

from __future__ import annotations

from typing import Sequence

from repro.util.cdf import Cdf

__all__ = ["format_claims", "format_series_table"]


def format_series_table(title: str, cdfs: Sequence[Cdf],
                        points: int = 11) -> str:
    """Render several curves side by side, one row per cumulative %."""
    lines = [f"== {title} =="]
    header = "  cum%   " + "  ".join(f"{c.label:>14s}" for c in cdfs)
    lines.append(header)
    if cdfs:
        qs = [q for q, _ in cdfs[0].series(points)]
        for q in qs:
            row = f"  {q:5.1f}  " + "  ".join(
                f"{c.percentile(q):14.3f}" for c in cdfs
            )
            lines.append(row)
    return "\n".join(lines)


def format_claims(title: str, claims: Sequence[tuple[str, str]]) -> str:
    """Render (claim, measured) rows for the headline-claims check."""
    lines = [f"-- {title}: paper claim vs measured --"]
    for claim, measured in claims:
        lines.append(f"  * {claim}")
        lines.append(f"      measured: {measured}")
    return "\n".join(lines)
