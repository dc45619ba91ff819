"""Byte-exact snapshot of a registry's realization, for replay checks."""

from hardspheres.geometry import Intersection
from hardspheres.poisson import region_key


def _key(region) -> tuple:
    if isinstance(region, Intersection):
        return ("intersection",) + tuple(_key(p) for p in region.parts)
    return region_key(region)


def registry_snapshot(registry) -> tuple:
    """One (rid, mode, region key, candidates, fresh) tuple per record, the
    realized point ids, and the raw bytes of their coordinates.  Two runs of
    one configuration with equal snapshots have equal dump() text; comparing
    bytes also tells -0.0 from 0.0, and it skips formatting every
    coordinate."""
    records = tuple(
        (r.rid, r.mode, _key(r.region), r.n_candidates, r.n_fresh)
        for r in registry.records
    )
    points = registry.realized_points()
    return records, points.ids, points.coords.tobytes()
