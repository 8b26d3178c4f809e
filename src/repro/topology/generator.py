"""Synthetic Rocketfuel-like ISP topology generator.

The paper's evaluation uses measured PoP-level topologies of 65 ISPs with
geographic coordinates and inferred link weights (Rocketfuel). That dataset
is not available offline, so this generator synthesizes topologies with the
same structural properties the experiments rely on:

* PoPs sit at real city locations (so independently generated ISPs share
  cities, which creates interconnection opportunities);
* footprints vary from regional to global (dataset diversity);
* intra-ISP graphs are sparse, distance-weighted backbones (a geographic
  minimum spanning tree plus redundancy shortcuts), so shortest paths follow
  geography — exactly the property the Rocketfuel weight inference targets.
  The tree is a union-find Kruskal over the PoP pairs in
  ``itertools.combinations`` order, sorted stably by distance, so ties go
  to the pair listed first;
* a small fraction of ISPs are *logical meshes* with uniform weights, which
  downstream processing excludes just as the paper excludes its eight mesh
  ISPs.

See DESIGN.md's substitutions table for the full rationale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.geo.cities import City, CityDatabase, default_city_database
from repro.geo.coords import great_circle_km
from repro.topology.elements import Link, PoP
from repro.topology.isp import ISPTopology, spanning_forest
from repro.util.rng import RngSource, derive_rng

__all__ = ["GeneratorConfig", "TopologyGenerator", "REGION_GROUPS"]

#: Continental groupings of the city-database region tags.
REGION_GROUPS: dict[str, tuple[str, ...]] = {
    "na": ("na-east", "na-central", "na-west"),
    "eu": ("eu-west", "eu-central", "eu-north", "eu-south", "eu-east"),
    "apac": ("apac",),
    "sa": ("sa",),
    "africa-me": ("africa", "me"),
}


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunables for synthetic ISP generation.

    Attributes:
        min_pops / max_pops: PoP-count range; sizes are drawn log-uniformly,
            matching the skew of the Rocketfuel dataset (many small ISPs,
            a few large ones).
        extra_edge_fraction: number of redundancy shortcuts added on top of
            the spanning backbone, as a fraction of the PoP count.
        weight_noise: multiplicative jitter applied to link weights relative
            to geographic length (0 = weight exactly equals length).
        mesh_probability: probability that a generated ISP is a logical
            mesh (complete graph, uniform weights). The paper's dataset had
            8 of 65 such ISPs (~0.12).
        footprint_weights: probabilities of (regional, continental, global)
            footprints.
    """

    min_pops: int = 8
    max_pops: int = 40
    extra_edge_fraction: float = 0.8
    weight_noise: float = 0.1
    mesh_probability: float = 0.12
    footprint_weights: tuple[float, float, float] = (0.30, 0.45, 0.25)

    def __post_init__(self) -> None:
        if self.min_pops < 2:
            raise ConfigurationError("min_pops must be >= 2")
        if self.max_pops < self.min_pops:
            raise ConfigurationError("max_pops must be >= min_pops")
        if self.extra_edge_fraction < 0:
            raise ConfigurationError("extra_edge_fraction must be >= 0")
        if not 0 <= self.weight_noise < 1:
            raise ConfigurationError("weight_noise must be in [0, 1)")
        if not 0 <= self.mesh_probability <= 1:
            raise ConfigurationError("mesh_probability must be in [0, 1]")
        if len(self.footprint_weights) != 3 or any(
            w < 0 for w in self.footprint_weights
        ):
            raise ConfigurationError("footprint_weights must be 3 non-negative values")
        if sum(self.footprint_weights) <= 0:
            raise ConfigurationError("footprint_weights must not all be zero")


class TopologyGenerator:
    """Generates deterministic synthetic ISP topologies."""

    def __init__(
        self,
        config: GeneratorConfig | None = None,
        city_db: CityDatabase | None = None,
    ):
        self.config = config or GeneratorConfig()
        self.city_db = city_db or default_city_database()
        self._group_dbs = {
            group: self.city_db.in_regions(regions)
            for group, regions in REGION_GROUPS.items()
            if all(r in self.city_db.regions() for r in regions)
        }

    # -- public API ---------------------------------------------------------

    def generate(self, name: str, seed: RngSource) -> ISPTopology:
        """Generate one ISP topology, deterministic in ``(name, seed)``."""
        rng = derive_rng(seed, "topology", name)
        if rng.random() < self.config.mesh_probability:
            return self._generate_mesh(name, rng)
        return self._generate_backbone(name, rng)

    # -- internals ----------------------------------------------------------

    def _pick_footprint_db(self, rng) -> CityDatabase:
        """Pick the city pool according to the footprint distribution."""
        weights = self.config.footprint_weights
        total = sum(weights)
        roll = rng.random() * total
        if roll < weights[0]:
            # Regional: a single region tag.
            region = str(rng.choice(self.city_db.regions()))
            return self.city_db.in_regions([region])
        if roll < weights[0] + weights[1] and self._group_dbs:
            # Continental: one region group.
            group = sorted(self._group_dbs)[int(rng.integers(len(self._group_dbs)))]
            return self._group_dbs[group]
        return self.city_db

    def _draw_pop_count(self, rng, available: int) -> int:
        cfg = self.config
        high = min(cfg.max_pops, available)
        low = min(cfg.min_pops, high)
        if high <= low:
            return low
        # Log-uniform: many small ISPs, few giants.
        log_n = rng.uniform(math.log(low), math.log(high + 1))
        return max(low, min(high, int(math.exp(log_n))))

    def _generate_backbone(self, name: str, rng) -> ISPTopology:
        pool = self._pick_footprint_db(rng)
        if len(pool) < self.config.min_pops:
            pool = self.city_db
        n = self._draw_pop_count(rng, len(pool))
        cities = pool.sample(rng, n, population_weighted=True)
        pops = [
            PoP(index=i, city=c.name, location=c.location)
            for i, c in enumerate(cities)
        ]
        edges = self._backbone_edges(cities, rng)
        links = []
        for idx, (u, v) in enumerate(edges):
            length = great_circle_km(cities[u].location, cities[v].location)
            weight = self._jitter_weight(length, rng)
            links.append(Link(index=idx, u=u, v=v, weight=weight, length_km=length))
        return ISPTopology(name=name, pops=pops, links=links)

    def _generate_mesh(self, name: str, rng) -> ISPTopology:
        """A logical-mesh ISP: complete graph with uniform unit weights."""
        pool = self._pick_footprint_db(rng)
        if len(pool) < self.config.min_pops:
            pool = self.city_db
        n = self._draw_pop_count(rng, min(len(pool), 12))
        n = max(4, n)  # a mesh of fewer than 4 PoPs is indistinguishable
        cities = pool.sample(rng, n, population_weighted=True)
        pops = [
            PoP(index=i, city=c.name, location=c.location)
            for i, c in enumerate(cities)
        ]
        links = []
        idx = 0
        for u, v in itertools.combinations(range(n), 2):
            length = great_circle_km(cities[u].location, cities[v].location)
            links.append(
                Link(index=idx, u=u, v=v, weight=1.0, length_km=length)
            )
            idx += 1
        return ISPTopology(name=name, pops=pops, links=links)

    def _backbone_edges(self, cities: list[City], rng) -> list[tuple[int, int]]:
        """Spanning tree on geographic distance plus redundancy shortcuts."""
        n = len(cities)
        dist = {
            (u, v): max(great_circle_km(cities[u].location, cities[v].location), 1.0)
            for u, v in itertools.combinations(range(n), 2)
        }
        edges = set(spanning_forest(n, sorted(dist, key=dist.__getitem__)))

        candidates = [pair for pair in dist if pair not in edges]
        n_extra = min(len(candidates), round(self.config.extra_edge_fraction * n))
        if n_extra > 0 and candidates:
            # Prefer short shortcuts: weight candidates by inverse squared
            # distance, the empirical bias of real backbone build-out.
            inv_sq = [1.0 / dist[pair] ** 2 for pair in candidates]
            total = sum(inv_sq)
            probs = [w / total for w in inv_sq]
            chosen = rng.choice(len(candidates), size=n_extra, replace=False, p=probs)
            for i in chosen:
                edges.add(candidates[int(i)])
        return sorted(edges)

    def _jitter_weight(self, length_km: float, rng) -> float:
        noise = self.config.weight_noise
        base = max(length_km, 1.0)
        if noise <= 0:
            return base
        factor = 1.0 + noise * (rng.random() - 0.5)
        return max(base * factor, 0.1)
