"""Hand-built topologies: the paper's Figure 1 / Figure 2 scenarios.

These small, exactly-specified pairs reproduce the motivating examples of
Section 2 and the worked negotiation trace of Section 4.1 / Figure 3. They
are also convenient fixtures for unit tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import TopologyError
from repro.geo.coords import GeoPoint
from repro.topology.elements import Link, PoP
from repro.topology.interconnect import Interconnection, IspPair
from repro.topology.isp import ISPTopology

__all__ = [
    "build_custom_isp",
    "build_line_isp",
    "build_mesh_isp",
    "build_scale_pair",
    "Figure1Scenario",
    "build_figure1_pair",
    "Figure2Scenario",
    "build_figure2_pair",
]


def build_custom_isp(
    name: str,
    pop_specs: list[tuple[str, float, float]],
    link_specs: list[tuple[int, int, float]],
    lengths: list[float] | None = None,
) -> ISPTopology:
    """Build an ISP from explicit specs.

    ``pop_specs`` is ``[(city, lat, lon), ...]``; ``link_specs`` is
    ``[(u, v, weight), ...]``. ``lengths`` optionally overrides per-link
    geographic lengths (default: equal to the weight, the convention of all
    hand-built scenarios).
    """
    pops = [
        PoP(index=i, city=city, location=GeoPoint(lat=lat, lon=lon))
        for i, (city, lat, lon) in enumerate(pop_specs)
    ]
    if lengths is not None and len(lengths) != len(link_specs):
        raise TopologyError("lengths must match link_specs in length")
    links = [
        Link(
            index=i,
            u=u,
            v=v,
            weight=w,
            length_km=(lengths[i] if lengths is not None else w),
        )
        for i, (u, v, w) in enumerate(link_specs)
    ]
    return ISPTopology(name=name, pops=pops, links=links)


def build_line_isp(
    name: str,
    cities: list[str],
    spacing_km: float = 500.0,
    base_lat: float = 40.0,
    base_lon: float = -100.0,
) -> ISPTopology:
    """A chain topology with evenly spaced PoPs (test helper)."""
    if len(cities) < 2:
        raise TopologyError("line ISP needs at least 2 cities")
    lon_step = spacing_km / 85.0  # ~85 km per degree longitude at lat 40
    pop_specs = [
        (city, base_lat, base_lon + i * lon_step) for i, city in enumerate(cities)
    ]
    link_specs = [(i, i + 1, spacing_km) for i in range(len(cities) - 1)]
    return build_custom_isp(name, pop_specs, link_specs)


def build_mesh_isp(
    name: str,
    cities: list[str],
    base_lat: float = 40.0,
    base_lon: float = -100.0,
) -> ISPTopology:
    """A logical-mesh ISP: complete graph with unit weights (test helper)."""
    if len(cities) < 4:
        raise TopologyError("mesh ISP needs at least 4 cities for detection")
    pop_specs = [
        (city, base_lat + (i % 3), base_lon + 2.0 * i) for i, city in enumerate(cities)
    ]
    link_specs = [
        (u, v, 1.0) for u in range(len(cities)) for v in range(u + 1, len(cities))
    ]
    return build_custom_isp(name, pop_specs, link_specs)


def build_scale_pair(
    n_pops: int,
    n_interconnections: int = 8,
    seed: int = 0,
) -> IspPair:
    """A deterministic synthetic pair with ``n_pops`` PoPs per ISP.

    The measured city database tops out at ~136 cities, so
    production-scale tests and benches build their pairs here instead:
    both ISPs are near-square grid topologies over the same synthetic
    city set (interconnection cities therefore exist on both sides), with
    per-ISP jittered continuous link weights drawn deterministically from
    ``seed``. Continuous jitter makes every shortest path unique, so any
    Dijkstra routes the same paths here, networkx's included (equal-cost
    ties are the one case where two may legitimately differ).

    ``n_interconnections`` evenly spaced grid cities peer the two sides
    at the same PoP index on both.
    """
    if n_pops < 2:
        raise TopologyError(f"scale pair needs >= 2 PoPs, got {n_pops}")
    if not 1 <= n_interconnections <= n_pops:
        raise TopologyError(
            f"n_interconnections must be in 1..{n_pops}, "
            f"got {n_interconnections}"
        )
    side = math.ceil(math.sqrt(n_pops))
    pop_specs = []
    for i in range(n_pops):
        r, c = divmod(i, side)
        pop_specs.append(
            (f"Grid{r:03d}x{c:03d}", 25.0 + 0.4 * r, -120.0 + 0.4 * c)
        )
    edges = []
    for i in range(n_pops):
        r, c = divmod(i, side)
        if c + 1 < side and i + 1 < n_pops:
            edges.append((i, i + 1))
        if i + side < n_pops:
            edges.append((i, i + side))

    rng = np.random.default_rng(seed)

    def one_side(name: str) -> ISPTopology:
        jitter = rng.uniform(0.0, 25.0, size=len(edges))
        link_specs = [
            (u, v, 100.0 + float(jitter[k])) for k, (u, v) in enumerate(edges)
        ]
        return build_custom_isp(name, pop_specs, link_specs)

    isp_a = one_side(f"scale{n_pops}a")
    isp_b = one_side(f"scale{n_pops}b")
    ic_pops = sorted(
        set(
            int(round(x))
            for x in np.linspace(0, n_pops - 1, n_interconnections)
        )
    )
    ics = [
        Interconnection(
            index=k,
            city=pop_specs[p][0],
            pop_a=p,
            pop_b=p,
            length_km=0.0,
        )
        for k, p in enumerate(ic_pops)
    ]
    return IspPair(isp_a, isp_b, ics)


# ---------------------------------------------------------------------------
# Figure 1: performance tuning between two chain ISPs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure1Scenario:
    """The Figure 1 pair and the two flows exchanged across it.

    Geometry (weights = lengths, one unit = 1 km):

    * Both ISPs have PoPs in West / Center / East (the 3 interconnections).
    * ISP alpha's Center--East segment detours through NorthLoop (cost 8
      instead of the direct 5); its West--Center segment is direct (5).
    * ISP beta mirrors this: West--Center detours through SouthLoop (8),
      Center--East is direct (5).

    Consequences, for the flow alpha@West -> beta@East (and its mirror):

    * early-exit (West) costs alpha 0 and beta 13 = 8 + 5;
    * late-exit (East) costs alpha 13 and beta 0;
    * the Center interconnection costs each ISP 5, total 10 < 13 —
      the mutually beneficial solution of Figure 1c that BGP cannot find.
    """

    pair: IspPair
    #: (source PoP index in alpha, destination PoP index in beta)
    flow_a_to_b: tuple[int, int]
    #: (source PoP index in beta, destination PoP index in alpha)
    flow_b_to_a: tuple[int, int]


def build_figure1_pair() -> Figure1Scenario:
    """Build the Figure 1 scenario (see :class:`Figure1Scenario`)."""
    # PoPs: 0=West, 1=Center, 2=East, 3=detour city.
    alpha = build_custom_isp(
        "alpha",
        [
            ("West", 40.0, -100.0),
            ("Center", 40.0, -95.0),
            ("East", 40.0, -90.0),
            ("NorthLoop", 42.0, -92.5),
        ],
        [
            (0, 1, 5.0),  # West--Center direct
            (1, 3, 4.0),  # Center--NorthLoop
            (3, 2, 4.0),  # NorthLoop--East  => Center->East costs 8
        ],
    )
    beta = build_custom_isp(
        "beta",
        [
            ("West", 40.0, -100.0),
            ("Center", 40.0, -95.0),
            ("East", 40.0, -90.0),
            ("SouthLoop", 38.0, -97.5),
        ],
        [
            (0, 3, 4.0),  # West--SouthLoop
            (3, 1, 4.0),  # SouthLoop--Center => West->Center costs 8
            (1, 2, 5.0),  # Center--East direct
        ],
    )
    ics = [
        Interconnection(index=0, city="Center", pop_a=1, pop_b=1, length_km=0.0),
        Interconnection(index=1, city="East", pop_a=2, pop_b=2, length_km=0.0),
        Interconnection(index=2, city="West", pop_a=0, pop_b=0, length_km=0.0),
    ]
    pair = IspPair(alpha, beta, ics)
    return Figure1Scenario(pair=pair, flow_a_to_b=(0, 2), flow_b_to_a=(2, 0))


# ---------------------------------------------------------------------------
# Figure 2: overload management after an interconnection failure.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure2Scenario:
    """The Figure 2 failure-response scenario.

    Four unit-size flows run from ISP gamma to ISP delta through three
    interconnections (Top / Mid / Bot). Before the failure f1 uses Top,
    f2 and f3 use Mid, f4 uses Bot. When Mid fails, early-exit re-routes
    both f2 and f3 to Bot, overloading delta's Bot--Dst link (the paper's
    Figure 2b). The mutually acceptable solution routes f3 via Top and f2
    via Bot (Figure 2e).

    Capacity layout (flow size = 1):

    * delta: Top--Dst, Mid--Dst, Bot--Dst all capacity 2; f1 already loads
      Top--Dst with 1, f4 loads Bot--Dst with 1. Either one of f2/f3 can
      enter at Bot, but not both.
    * gamma: f2's source has a thin (capacity 0.5) uplink toward Top, so
      gamma is averse to routing f2 via Top — the asymmetry that makes
      "f3 on Top, f2 on Bot" the only win-win assignment.

    Attributes:
        pair: the pre-failure pair (3 interconnections: 0=Bot, 1=Mid, 2=Top,
            indices follow alphabetical city order: Bot, Mid, Top).
        failed_ic_index: index of the Mid interconnection within ``pair``.
        flows: negotiable flows as (name, src PoP in gamma, dst PoP in delta).
        background_flows: unaffected flows as (name, src, dst, ic_index).
        capacities_gamma / capacities_delta: link-index -> capacity maps.
    """

    pair: IspPair
    failed_ic_index: int
    flows: tuple[tuple[str, int, int], ...]
    background_flows: tuple[tuple[str, int, int, int], ...]
    capacities_gamma: dict[int, float]
    capacities_delta: dict[int, float]

    @property
    def post_failure_pair(self) -> IspPair:
        return self.pair.without_interconnection(self.failed_ic_index)


def build_figure2_pair() -> Figure2Scenario:
    """Build the Figure 2 scenario (see :class:`Figure2Scenario`)."""
    # gamma PoPs: 0=Top, 1=Mid, 2=Bot (interconnection cities),
    #             3=s1, 4=s2, 5=s3, 6=s4 (flow sources).
    gamma = build_custom_isp(
        "gamma",
        [
            ("TopCity", 45.0, -100.0),
            ("MidCity", 42.0, -100.0),
            ("BotCity", 39.0, -100.0),
            ("SrcOne", 45.0, -104.0),
            ("SrcTwo", 40.0, -104.0),
            ("SrcThree", 42.0, -104.0),
            ("SrcFour", 39.0, -104.0),
        ],
        [
            (3, 0, 10.0),  # 0: s1 -> Top (f1's uplink)
            (4, 1, 10.0),  # 1: s2 -> Mid (f2's pre-failure uplink)
            (4, 2, 12.0),  # 2: s2 -> Bot
            (4, 0, 20.0),  # 3: s2 -> Top (THIN: capacity 0.5)
            (5, 1, 10.0),  # 4: s3 -> Mid (f3's pre-failure uplink)
            (5, 2, 12.0),  # 5: s3 -> Bot
            (5, 0, 15.0),  # 6: s3 -> Top
            (6, 2, 10.0),  # 7: s4 -> Bot (f4's uplink)
            (0, 1, 30.0),  # 8: Top -- Mid backbone
            (1, 2, 30.0),  # 9: Mid -- Bot backbone
        ],
    )
    # delta PoPs: 0=Top, 1=Mid, 2=Bot, 3=Dst.
    delta = build_custom_isp(
        "delta",
        [
            ("TopCity", 45.0, -100.0),
            ("MidCity", 42.0, -100.0),
            ("BotCity", 39.0, -100.0),
            ("DstCity", 42.0, -96.0),
        ],
        [
            (0, 3, 10.0),  # 0: Top -> Dst
            (1, 3, 10.0),  # 1: Mid -> Dst
            (2, 3, 10.0),  # 2: Bot -> Dst
        ],
    )
    ics = [
        Interconnection(index=0, city="BotCity", pop_a=2, pop_b=2, length_km=0.0),
        Interconnection(index=1, city="MidCity", pop_a=1, pop_b=1, length_km=0.0),
        Interconnection(index=2, city="TopCity", pop_a=0, pop_b=0, length_km=0.0),
    ]
    pair = IspPair(gamma, delta, ics)
    capacities_gamma = {
        0: 2.0,
        1: 2.0,
        2: 1.0,
        3: 0.5,  # the thin s2 -> Top uplink
        4: 2.0,
        5: 1.0,
        6: 1.0,
        7: 2.0,
        8: 2.0,
        9: 2.0,
    }
    capacities_delta = {0: 2.0, 1: 2.0, 2: 2.0}
    return Figure2Scenario(
        pair=pair,
        failed_ic_index=1,
        flows=(("f2", 4, 3), ("f3", 5, 3)),
        background_flows=(("f1", 3, 3, 2), ("f4", 6, 3, 0)),
        capacities_gamma=capacities_gamma,
        capacities_delta=capacities_delta,
    )
