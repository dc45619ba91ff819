"""Byte-exact snapshot and text dump of a registry's realization, for
replay checks and golden digests."""

import pickle

import numpy as np

from hardspheres.geometry import Annulus, Ball, Cell, StepShell
from hardspheres.poisson import PointSet


def realized_points(registry) -> PointSet:
    """Every point the registry holds coordinates for, in id order: stored
    fresh points and saturated picks.  Streamed candidates are replay-derived
    and left out."""
    held = [r for r in registry.records if r.coords is not None]
    ids = tuple((r.rid, i) for r in held for i in range(len(r.coords)))
    coords = np.concatenate([r.coords for r in held]) if held else np.empty((0, registry.dim))
    return PointSet(ids, coords)


def registry_snapshot(registry) -> tuple:
    """One (rid, mode, pickled region, candidates, fresh) tuple per record,
    the realized point ids and the raw bytes of their coordinates.  Two
    runs of one configuration with equal snapshots have equal
    registry_dump() text; comparing bytes also tells -0.0 from 0.0, and it
    skips formatting every coordinate."""
    records = tuple(
        (r.rid, r.mode, pickle.dumps(r.region), r.n_candidates, r.n_fresh)
        for r in registry.records
    )
    points = realized_points(registry)
    return records, points.ids, points.coords.tobytes()


def registry_dump(registry) -> str:
    """Line-oriented description of every record and stored point."""
    lines = [
        f"# poisson registry dim={registry.dim} lam={registry.lam!r} seed={registry.seed}"
    ]
    for rec in registry.records:
        reg = rec.region
        desc = f"{type(reg).__name__.lower()} key={region_label(reg)}"
        lines.append(
            f"r {rec.rid} {rec.mode} {desc} candidates={rec.n_candidates} "
            f"fresh={rec.n_fresh}"
        )
        for i, p in enumerate(() if rec.coords is None else rec.coords):
            xs = " ".join(f"{x:.17g}" for x in p)
            lines.append(f"p {rec.rid} {i} {xs}")
    return "\n".join(lines) + "\n"


def region_label(region) -> str:
    """Short printable region description for dumps."""
    if isinstance(region, Ball):
        c = ",".join(f"{x:.6g}" for x in region.center)
        return f"ball[{c};{region.radius:.6g}]"
    if isinstance(region, Cell):
        c = ",".join(f"{x:.6g}" for x in region.planar_center)
        z = ",".join(f"{x:.6g}" for x in region.layer_center)
        return f"cell[{c};{region.eps:.6g};{z};{region.layer_radius:.6g}]"
    if isinstance(region, Annulus):
        c = ",".join(f"{x:.6g}" for x in region.center)
        return f"annulus[{c};{region.inner:.6g},{region.outer:.6g}]"
    if isinstance(region, StepShell):
        cell, ann = region_label(region.cell), region_label(region.annulus)
        return f"step-shell[{cell};{ann}]"
    return type(region).__name__.lower()
