"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces public functions and methods of the
hardspheres modules with timing wrappers, each patched where its caller
looks it up (``poisson.regions_disjoint``, ``construction.explore_step``,
``cli.run_multilayer``, ``percolation2d.build_lattice`` ...), and
``uninstall()`` puts every original object back.  The program's source is
never touched; an untraced run executes the original code paths.

A span is one wrapped call.  Each span's self time is its duration minus
the time covered by the spans it encloses, so the ``.s`` figures of all
layers add up to the traced wall time of the outermost spans.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from hardspheres import cli, construction, geometry, percolation2d, poisson

REGION_CLASSES = (
    geometry.Ball,
    geometry.Cell,
    geometry.Annulus,
    geometry.Intersection,
    geometry.Difference,
)
# (owner, attribute, span name): each function is patched where its caller
# looks it up, so the program's own calls go through the wrapper.
SPANS = (
    *((cls, "sample", "geometry.sample") for cls in (geometry.Ball, geometry.Cell, geometry.Annulus)),
    (poisson, "regions_disjoint", "geometry.regions_disjoint"),
    (geometry, "search_overlap_constant", "geometry.search_overlap_constant"),
    (poisson.RegionRegistry, "materialize", "poisson.materialize"),
    (poisson.RegionRegistry, "collect", "poisson.collect"),
    (poisson.RegionRegistry, "points_in_ball", "poisson.points_in_ball"),
    (poisson, "consistency_counts_lazy", "poisson.consistency_counts_lazy"),
    (poisson, "consistency_counts_oracle", "poisson.consistency_counts_oracle"),
    (construction, "explore_step", "construction.explore_step"),
    (construction, "choose_next_vertex", "construction.choose_next_vertex"),
    (construction, "assemble_gamma", "construction.assemble_gamma"),
    (cli, "run_multilayer", "construction.run_multilayer"),
    (cli, "verify_hard_sphere", "construction.verify_hard_sphere"),
    (cli, "cluster_components", "construction.cluster_components"),
    (cli, "cmd_simulate", "cli.simulate"),
    (cli, "cmd_perc2d", "cli.perc2d"),
    (cli, "cmd_verify", "cli.verify"),
    (construction, "build_lattice", "hexlattice.build_lattice"),
    (percolation2d, "build_lattice", "hexlattice.build_lattice"),
    (percolation2d, "build_site_graph", "percolation2d.build_site_graph"),
    (percolation2d, "sample_config", "percolation2d.sample_config"),
    (percolation2d, "origin_cluster", "percolation2d.origin_cluster"),
)
# Spans at most this deep are kept as records; deeper ones only feed the
# per-name totals, so millions of membership tests cost no memory.
RECORD_DEPTH = 2


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)  # name -> [calls, self seconds]
    counts: dict = field(default_factory=dict)  # counter name -> value
    spans: list = field(default_factory=list)
    registries: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        # [name or None until the result names it, start, child seconds, span index]
        frame = [name, time.perf_counter(), 0.0, -1]
        if len(self._stack) < RECORD_DEPTH:
            parent = self._stack[-1][3] if self._stack else -1
            frame[3] = len(self.spans)
            self.spans.append(Span("", frame[1], frame[1], parent))
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name):
        end = time.perf_counter()
        self._stack.pop()
        elapsed = end - frame[1]
        entry = self.stats.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += elapsed - frame[2]
        if self._stack:
            self._stack[-1][2] += elapsed
        if frame[3] >= 0:
            span = self.spans[frame[3]]
            span.name, span.end = name, end

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def inside(self, name) -> bool:
        return bool(self._stack) and self._stack[-1][0] == name

    def timed(self, name, fn, after=None):
        """Wrap fn in a span called ``name``; ``name`` may be a function of
        the result.  ``after(result)`` records counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name if isinstance(name, str) else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, frame[0] or f"{fn.__qualname__}.raised")
                raise
            self._exit(frame, name if isinstance(name, str) else name(result))
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- layer wrappers ---------------------------------------------------

    def _contains(self, fn):
        """Membership tests; nested calls (the parts of an Intersection)
        are folded into the outermost one."""
        timed = self.timed("geometry.contains", fn, self._after["geometry.contains"])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.inside("geometry.contains"):
                return fn(*args, **kwargs)
            return timed(*args, **kwargs)

        return wrapper

    def _replay(self, fn):
        """Counts the candidates each stream replay regenerates.  The only
        private method patched: a replay is where regeneration shows.  The
        generator's time belongs to whoever consumes it."""

        @functools.wraps(fn)
        def wrapper(registry, rec):
            for batch in fn(registry, rec):
                self.count("poisson.stream_batches", 1)
                self.count("poisson.regenerated_candidates", batch[1].shape[0])
                yield batch

        return wrapper

    def _registry_init(self, fn):
        @functools.wraps(fn)
        def wrapper(registry, *args, **kwargs):
            fn(registry, *args, **kwargs)
            self.registries.append(registry)

        return wrapper

    @property
    def _after(self) -> dict:
        """Counters recorded from a span's result, by span name."""

        def sample(pts):
            self.count("geometry.sample.points", pts.shape[0])
            self.count("geometry.sample.normals", pts.size)

        return {
            "geometry.sample": sample,
            "geometry.contains": lambda mask: self.count("geometry.contains.points", mask.shape[0]),
            "construction.verify_hard_sphere": lambda rep: self.count(
                "construction.verify.pairs", rep.n_pairs_checked
            ),
            "hexlattice.build_lattice": lambda lat: self.count("hexlattice.vertices", lat.n_vertices),
            "percolation2d.origin_cluster": lambda ids: self.count(
                "percolation2d.sites_visited", ids.size
            ),
        }

    def _patches(self):
        """(owner, attribute, wrapper factory) for every traced boundary."""
        after = self._after
        out = [
            (owner, attr, lambda f, name=name: self.timed(name, f, after.get(name)))
            for owner, attr, name in SPANS
        ]
        out += [(cls, "contains", self._contains) for cls in REGION_CLASSES]
        reg = poisson.RegionRegistry
        out += [
            (reg, "pick_in_region", lambda f: self.timed(lambda res: f"poisson.pick.{res.mode}", f)),
            (reg, "_replay", self._replay),
            (reg, "__init__", self._registry_init),
        ]
        return out

    # -- install / uninstall -----------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, make in self._patches():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def patch_targets():
    """(owner, attribute) pairs the tracer replaces, for checking that
    uninstall restores each one."""
    return [(owner, attr) for owner, attr, _ in Tracer()._patches()]
