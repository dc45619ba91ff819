"""Lazy, exactly consistent sampling of a homogeneous Poisson process.

A RegionRegistry realizes one Poisson process of intensity lam on R^d a
region at a time.  Each query region becomes a record, and a location is
owned by the earliest record that determined its points, so overlapping
queries never resample and every point keeps a stable identity
(record id, index).  Determined coordinates live in one place, a record's
``coords`` array; records come in three kinds:

stored     Points drawn and kept: draw N ~ Poisson(lam * vol), place them
           by the region's exact sampler, drop the ones owned by earlier
           stored/streamed records (exact Poisson thinning), keep the rest
           in ``coords``.

streamed   For masses too heavy to keep in memory: the same thinning, but
           candidates are generated in fixed-size batches and immediately
           discarded (``coords`` stays None), so a stream costs only its
           Philox key.  Batch b draws from the record's own key with the
           counter starting at block b, i.e.
           generator(seed, 2, rid).bit_generator.jumped(b): every batch can
           be regenerated on its own, and no two batches overlap.  Every
           replay regenerates the batches on the calling thread and filters
           them again against the same earlier records, so the realization
           is exact at every scale.  A pick is one replay: it chooses its
           member batch by batch as the stream goes by (reservoir
           selection), keeping only the chosen row.  Memory rule: a replay
           draws one batch of (STREAM_BATCH, d) doubles at a time, the next
           only when the caller asks for it; the samplers' and membership
           tests' other temporaries are blocks of geometry.ROW_BLOCK rows.

saturated  A sea pick, for masses beyond any enumeration (a first-layer
           cell in d = 45 holds ~1e51 points).  The zone S is the region
           less the earlier records that reach it, and none of them may
           hold a point of S.  No count is drawn: emptiness has probability
           at most exp(-m), 0.0 in binary64 for the enforced minimum mass,
           and by the Mecke equation (Last and Penrose, Lectures on the
           Poisson Process, 2017, Thm 4.1) a uniform point Y of the process
           in S is a uniform location in S, kept as a one-row ``coords``.
           The rest R of the process then has density proportional to
           1/(R(S) + 1) against the Poisson law.  Each later realization
           that reaches S is proposed as a fresh Poisson realization and
           accepted by a coin (mecke_coin) with probability K'/(j + K'),
           where j is the number of points all accepted realizations and
           the proposal put in S, and K' ~ Poisson(mu) | K' >= 1 with mu
           the unrealized mass of S; a rejected proposal is redrawn.  The
           coin is settled from a lower bound on mu when the chance that it
           errs is below 2^-1074, the same convention as the mass floor;
           otherwise K' is drawn exactly from an auxiliary, discarded
           realization of S's bounding region, refused (RegistryError) past
           the stream cap.  Its draws come from their own Philox path keyed
           by the realizing record, so a coin that settles leaves every
           other draw unchanged.  A streamed record that would reach S, a
           second sea zone overlapping S, and determined points inside the
           region are refused.  ``q_max``, the largest share of a zone's
           lower mass that later queries realized, is a diagnostic only.
           A realization that regions_disjoint certifies as separated from
           the zone is independent of it and takes no coin.

Same seed and same query sequence give bit-identical results; streams
replay from SeedSequence-derived Philox keys, derived once per record, that
never touch the main stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .geometry import Ball, Cell, Region, exact_volume, regions_disjoint
from .rngutil import (
    RNG_ALGORITHM,
    generator,
    keyed_generator,
    philox_key,
)

STREAM_BATCH = 1 << 16  # frozen: replay identity depends on it

DEFAULT_STORE_CAP = 10_000.0
DEFAULT_STREAM_CAP = 2e7
SATURATION_MIN_MASS = 4096.0  # exp(-m) == 0.0 in binary64 needs m >= 746
# A materialization of N points peaks at about (4 d + 17) doubles per point:
# its coordinates, the sampler's and the membership tests' temporaries, and
# one id tuple (137 + 32 d bytes measured at d = 3 and d = 45).  Regions are
# refused above the mass that keeps that within MATERIALIZE_BYTES.
MATERIALIZE_BYTES = 1 << 30

_MAIN_PATH = 0
_STREAM_PATH = 2
_COIN_PATH = 3
_LOG_TINY = -1074 * math.log(2.0)  # log of the least positive binary64
_COIN_BATCH = 1 << 12  # rows per batch of a coin's auxiliary realization
# A sea pick's draws of its bounding region: a small first block (at d = 45
# a median 98% of rows land, and at least 41%), then full blocks after a
# miss, up to a refusal.
_SEA_FIRST_ROWS = 16
_SEA_BLOCK_ROWS = 1 << 12
_SEA_BLOCKS = 10_000


def max_materialize(dim: int) -> int:
    """The largest expected count a materialization may have in ``dim``."""
    return MATERIALIZE_BYTES // (8 * (4 * dim + 17))


class RegistryError(RuntimeError):
    pass


def mecke_coin(j: int, mu_lo: float, rng, aux_counts) -> bool:
    """Whether a realization that leaves j points of the process in a sea
    zone (besides its pick) is accepted: with probability K'/(j + K'),
    where K' ~ Poisson(mu) | K' >= 1 and mu >= mu_lo is the zone's
    unrealized mass.

    With U uniform and t = jU/(1 - U), P(K' > t) = E[K'/(j + K')], so the
    coin accepts iff K' > t.  For t < mu_lo, P(K' <= t) is at most
    P(Poisson(mu_lo) <= t) <= exp(-mu_lo + t + t ln(mu_lo/t)) (Chernoff;
    the conditioning on K' >= 1 divides by 1 - exp(-mu_lo), which is 1.0
    at the masses where the bound settles anything); below 2^-1074 that
    accepts outright.  Otherwise K' is drawn exactly: ``aux_counts(rng)``
    yields, batch by batch, the counts of one auxiliary realization of the
    zone's unrealized part, K ~ Poisson(mu) in all, and a draw with K = 0
    is redrawn.  The count stops as soon as it exceeds t."""
    if j == 0:
        return True
    u = rng.random()
    t = j * u / (1.0 - u)
    if t == 0.0:
        return True
    if -_LOG_TINY < mu_lo and t < mu_lo:
        if t - mu_lo + t * math.log(mu_lo / t) < _LOG_TINY:
            return True
    while True:
        k = 0
        for c in aux_counts(rng):
            k += c
            if k > t:
                return True
        if k:
            return False


@dataclass(frozen=True)
class PointSet:
    """Points of the process inside one query region.  ids is a tuple of
    stable (record_id, local_index) pairs; coords is (n, d)."""

    ids: tuple
    coords: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class PickResult:
    """Outcome of pick_in_region: status 'empty' or 'picked'."""

    status: str
    point_id: Optional[tuple]
    coords: Optional[np.ndarray]
    mode: str
    n_members: Optional[int]
    mass_lower: float
    mass_upper: float


class _Record:
    __slots__ = (
        "rid",
        "region",
        "mode",
        "coords",
        "n_candidates",
        "n_fresh",
        "filter_ids",
        "stream_key",
        "bounding",
        "mass_lower",
        "realized_mass_in_zone",
        "zone_points",
    )

    def __init__(self, rid, region, mode):
        self.rid = rid
        self.region = region
        self.mode = mode
        # stored mode: (n, d) fresh points; saturated mode: the (1, d) pick,
        # set once it has landed; streamed mode: None
        self.coords = None
        self.n_candidates = 0
        self.n_fresh = 0
        self.filter_ids = ()
        self.stream_key = None  # streamed mode: the Philox key of its batches
        # saturated mode: the zone's bounding region, the lower mass of its
        # unrealized part when it was picked, the upper mass realized in it
        # since, and the points those realizations put in it
        self.bounding = None
        self.mass_lower = 0.0
        self.realized_mass_in_zone = 0.0
        self.zone_points = 0


class RegionRegistry:
    """One lazily realized Poisson process of intensity lam on R^dim."""

    def __init__(
        self,
        dim: int,
        lam: float,
        seed: int,
        store_cap: float = DEFAULT_STORE_CAP,
        stream_cap: float = DEFAULT_STREAM_CAP,
    ):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if not 0 <= lam < math.inf:
            raise ValueError(f"intensity must be finite and >= 0, got {lam}")
        self.dim = dim
        self.lam = lam
        self.seed = int(seed)
        self.store_cap = store_cap
        self.stream_cap = stream_cap
        self.rng = generator(self.seed, _MAIN_PATH)
        self.records: list = []
        self.rng_algorithm = RNG_ALGORITHM
        # budget metrics
        self.stored_points = 0
        self.streamed_candidates_total = 0
        self.stream_replays = 0
        self.q_max = 0.0
        self.coin_rejections = 0
        self.coin_candidates = 0
        self.sea_candidates = 0  # rows sea picks drew of their bounding regions
        self.picks = dict.fromkeys(("stored", "streamed", "saturated"), 0)

    # -- helpers -------------------------------------------------------

    def _check_dim(self, region: Region):
        if region.dim != self.dim:
            raise RegistryError(
                f"region dimension {region.dim} != registry dimension {self.dim}"
            )

    def _reaching(self, region: Region) -> list:
        """Records, in id order, whose zone can reach into the region:
        provably disjoint ones are skipped.  A new record scans once, for
        the region it realizes: its stored and streamed records are the
        record's filter_ids (the membership test of any other could never
        fire), and its saturated ones are the zones the record meets.
        Skipping a disjoint zone is exact, because a Poisson process is
        independent on disjoint sets."""
        return [r for r in self.records if not regions_disjoint(region, r.region)]

    @staticmethod
    def _filter_ids(reach: list) -> tuple:
        return tuple(r.rid for r in reach if r.mode != "saturated")

    def _drop_determined(self, pts: np.ndarray, filter_ids) -> np.ndarray:
        """Mask of candidates NOT owned by the given earlier records."""
        keep = np.ones(pts.shape[0], dtype=bool)
        for rid in filter_ids:
            rec = self.records[rid]
            keep &= ~rec.region.contains(pts)
        return keep

    def _sea_coins(self, rec, seas: list, attempt: int) -> bool:
        """Whether the proposed realization ``rec`` passes the Mecke coin of
        every sea zone it reaches; if so, each zone adds the points the
        proposal put in it.  The coins draw from the Philox path keyed by
        (rec.rid, attempt), and only once a zone holds points."""
        js = [
            sea.zone_points + int(np.count_nonzero(sea.region.contains(rec.coords)))
            for sea in seas
        ]
        if any(js):
            rng = generator(self.seed, _COIN_PATH, rec.rid, attempt)
            for sea, j in zip(seas, js):
                if not self._sea_coin(sea, j, rec.region, rng):
                    self.coin_rejections += 1
                    return False
        for sea, j in zip(seas, js):
            sea.zone_points = j
        return True

    def _sea_coin(self, sea, j: int, proposal: Region, rng) -> bool:
        """mecke_coin for one sea zone.  Its exact count draws auxiliary
        realizations of the zone's unrealized part: Poisson(lam *
        vol(bounding)) uniform points of the zone's bounding region,
        thinned to the zone less every realized region that reaches it and
        the proposal, and discarded.  More candidates in all than the
        stream cap are refused."""
        realized = [
            r.region for r in self._reaching(sea.region) if r.mode != "saturated"
        ] + [proposal]
        mass = self.lam * exact_volume(sea.bounding)
        drawn = 0

        def counts(rng):
            nonlocal drawn
            n = int(rng.poisson(mass))
            drawn += n
            self.coin_candidates += n
            if drawn > self.stream_cap:
                raise RegistryError(
                    f"the Mecke coin of saturated record {sea.rid} needs more "
                    f"than the stream cap of {self.stream_cap:.3e} candidates"
                )
            for start in range(0, n, _COIN_BATCH):
                pts = sea.bounding.sample(min(_COIN_BATCH, n - start), rng)
                keep = sea.region.contains(pts)
                for region in realized:
                    keep &= ~region.contains(pts)
                yield int(np.count_nonzero(keep))

        return mecke_coin(j, sea.mass_lower - sea.realized_mass_in_zone, rng, counts)

    def _replay(self, rec):
        """Yield (start_index, candidates, fresh_mask) batches of a streamed
        record, identical on every call.  Batch b is drawn on the calling
        thread from the record's Philox key with the counter at block b and
        filtered against the records in rec.filter_ids; both are fixed when
        the record is created, so every replay recomputes the same bits."""
        self.stream_replays += 1
        for b, start in enumerate(range(0, rec.n_candidates, STREAM_BATCH)):
            n = min(STREAM_BATCH, rec.n_candidates - start)
            pts = rec.region.sample(n, keyed_generator(rec.stream_key, b))
            yield start, pts, self._drop_determined(pts, rec.filter_ids)

    # -- core queries --------------------------------------------------

    def materialize(self, region: Region) -> PointSet:
        """All process points in a region with an exact volume and sampler.
        Every call realizes a new stored record: it draws the region's
        candidates, keeps those no earlier record owns, and redraws until
        the Mecke coin of every sea zone it reaches accepts.  A repeat of a
        realized region keeps no fresh points, since the earlier record
        owns every candidate, so it returns the same ids and coordinates."""
        self._check_dim(region)
        vol = exact_volume(region)
        if vol is None:
            raise RegistryError(
                "only regions with exact volumes can be materialized "
                "directly; wrap composite regions via pick_in_region"
            )
        mass = self.lam * vol
        if mass > max_materialize(self.dim):
            raise RegistryError(
                f"expected count {mass:.3e} exceeds the materialization "
                f"cap {max_materialize(self.dim):.3e}; use pick_in_region"
            )
        reach = self._reaching(region)
        seas = [r for r in reach if r.mode == "saturated"]
        for sea in seas:  # q_max, a diagnostic
            sea.realized_mass_in_zone += mass
            self.q_max = max(self.q_max, sea.realized_mass_in_zone / sea.mass_lower)
        rid = len(self.records)
        rec = _Record(rid, region, "stored")
        rec.filter_ids = self._filter_ids(reach)
        attempt = 0
        while True:
            n = int(self.rng.poisson(mass)) if mass > 0 else 0
            rec.n_candidates = n
            if n:
                pts = region.sample(n, self.rng)
                keep = self._drop_determined(pts, rec.filter_ids)
                rec.coords = pts[keep]
            else:
                rec.coords = np.empty((0, self.dim))
            if self._sea_coins(rec, seas, attempt):
                break
            attempt += 1
        rec.n_fresh = rec.coords.shape[0]
        self.records.append(rec)
        self.stored_points += rec.n_fresh
        return self._collect(region, reach + [rec])

    def points_in_ball(self, center, radius: float) -> PointSet:
        return self.materialize(Ball(np.asarray(center, dtype=float), radius))

    def collect(self, region: Region) -> PointSet:
        """All currently determined points inside the region: the stored
        points and saturated picks each record holds, and streamed
        candidates via replay.  Does not realize anything new; the region
        must be covered by determined zones (callers materialize a superset
        first).  Records come in id order and each yields ascending
        indices, so the ids come out sorted."""
        self._check_dim(region)
        return self._collect(region, self._reaching(region))

    def _collect(self, region: Region, records: list) -> PointSet:
        """collect over the given records, which must include every record
        that can reach into the region, in id order."""
        ids = []
        coords = []
        for rec in records:
            if rec.mode == "streamed":
                batches = self._replay(rec)
            elif rec.coords is not None and len(rec.coords):
                batches = ((0, rec.coords, True),)
            else:
                continue
            for start, pts, fresh in batches:
                idx = np.flatnonzero(region.contains(pts) & fresh)
                if idx.size:
                    ids.extend((rec.rid, start + i) for i in idx.tolist())
                    coords.append(pts[idx])
        return PointSet(
            ids=tuple(ids),
            coords=np.concatenate(coords) if coords else np.empty((0, self.dim)),
        )

    def uniform_choice(self, points: PointSet):
        """Uniform element of a point set, invariant under input permutation:
        the member at a uniform rank j of the lexicographic coordinate order
        (ties between equal rows go to the lower index, as in a stable
        np.lexsort).  Rank j is selected in O(n) on the first coordinate;
        only the rows that share its value are sorted on every coordinate."""
        n = len(points)
        if n == 0:
            raise RegistryError("uniform_choice on an empty point set")
        coords = points.coords
        j = int(self.rng.integers(n))
        first = coords[:, 0]
        k = int(np.argpartition(first, j)[j])
        same = first == first[k]
        if np.count_nonzero(same) > 1:
            tied = np.flatnonzero(same)
            rank = j - int(np.count_nonzero(first < first[k]))
            k = int(tied[np.lexsort(coords[tied].T[::-1])[rank]])
        return points.ids[k], coords[k].copy()

    # -- tiered pick ----------------------------------------------------

    def pick_in_region(
        self,
        region: Region,
        bounding: Region,
        vol_lower: float,
    ) -> PickResult:
        """Uniformly pick one process point of ``region`` (or report it
        empty), choosing the cheapest exact realization tier from the mass
        bracket [m_lo, m_hi] = lam * [vol_lower, vol(bounding)]: stored when
        m_hi is at most the store cap, a sea pick when the zone's lower
        mass is at least SATURATION_MIN_MASS, streamed when m_hi is at most
        the stream cap, and refused otherwise.  ``bounding`` must contain
        the region and have an exact volume and sampler; ``vol_lower`` must
        underestimate vol(region)."""
        self._check_dim(region)
        self._check_dim(bounding)
        vol_upper = exact_volume(bounding)
        if vol_upper is None:
            raise RegistryError("bounding region needs an exact volume")
        if not 0.0 <= vol_lower <= vol_upper:
            raise RegistryError(
                f"invalid volume bracket [{vol_lower}, {vol_upper}]"
            )
        m_lo = self.lam * vol_lower
        m_hi = self.lam * vol_upper

        if m_hi <= self.store_cap:
            self.picks["stored"] += 1
            # The region lies inside bounding, so its members are the rows
            # of bounding's points that it contains, ids kept in order.
            stored = self.materialize(bounding)
            inside = np.flatnonzero(region.contains(stored.coords))
            members = PointSet(
                ids=tuple(stored.ids[i] for i in inside.tolist()),
                coords=stored.coords[inside],
            )
            if len(members) == 0:
                return PickResult("empty", None, None, "stored", 0, m_lo, m_hi)
            pid, coords = self.uniform_choice(members)
            return PickResult(
                "picked", pid, coords, "stored", len(members), m_lo, m_hi
            )

        if m_lo >= SATURATION_MIN_MASS:
            # The zone is the region less the earlier records that reach it;
            # their upper masses come off its lower mass.
            reach = self._reaching(region)
            sea_lower = m_lo - sum(
                self.lam * exact_volume(r.region) for r in reach if r.mode != "saturated"
            )
            if sea_lower >= SATURATION_MIN_MASS:
                self.picks["saturated"] += 1
                return self._pick_sea(region, bounding, reach, sea_lower, m_lo, m_hi)

        if m_hi <= self.stream_cap:
            self.picks["streamed"] += 1
            return self._pick_streamed(region, bounding, m_lo, m_hi)

        raise RegistryError(
            f"mass bracket [{m_lo:.3e}, {m_hi:.3e}] is too heavy to stream but "
            "its lower bound, less the earlier records that reach the region, "
            f"is below the saturation minimum {SATURATION_MIN_MASS}; cannot "
            "realize exactly"
        )

    def _pick_streamed(self, region, bounding, m_lo, m_hi) -> PickResult:
        """One replay of the new stream, choosing as it goes (weighted
        reservoir selection; Vitter, ACM TOMS 11, 1985): the choice starts
        as a uniform member of ``earlier``, and a batch with c members,
        bringing the count to T, replaces it by a uniform one of them with
        probability c / T."""
        reach = self._reaching(bounding)
        for rec in reach:
            if rec.mode == "saturated":
                raise RegistryError(
                    f"a streamed record would reach saturated record {rec.rid}, "
                    "whose Mecke coin cannot redraw a stream"
                )
        # Earlier determined points inside the region are members too; they
        # must be collected before the new record exists.
        earlier = self.collect(region)
        rid = len(self.records)
        rec = _Record(rid, bounding, "streamed")
        rec.filter_ids = self._filter_ids(reach)
        rec.stream_key = philox_key(self.seed, _STREAM_PATH, rid)
        rec.n_candidates = int(self.rng.poisson(m_hi))
        self.records.append(rec)
        self.streamed_candidates_total += rec.n_candidates

        total = len(earlier)
        if total:
            j = int(self.rng.integers(total))
            pid, coords = earlier.ids[j], earlier.coords[j].copy()
        for start, pts, fresh in self._replay(rec):
            rec.n_fresh += int(np.count_nonzero(fresh))
            inside = np.flatnonzero(fresh & region.contains(pts))
            if inside.size:
                total += inside.size
                j = int(self.rng.integers(total))
                if j < inside.size:
                    pid, coords = (rid, start + int(inside[j])), pts[inside[j]].copy()
        if total == 0:
            return PickResult("empty", None, None, "streamed", 0, m_lo, m_hi)
        return PickResult("picked", pid, coords, "streamed", total, m_lo, m_hi)

    def _pick_sea(self, region, bounding, reach, sea_lower, m_lo, m_hi) -> PickResult:
        """A uniform location of the zone: the region less the records in
        ``reach``, which must hold none of its points.  It is the first of
        i.i.d. uniform draws of ``bounding`` that lands in the zone, which
        is uniform on the zone whatever the draws' block sizes (rejection
        sampling; Devroye, Non-Uniform Random Variate Generation, 1986,
        II.3).  Most draws land, so the first block holds _SEA_FIRST_ROWS
        rows, and blocks of _SEA_BLOCK_ROWS follow only after a miss; after
        _SEA_BLOCKS of them the pick is refused."""
        if any(r.mode == "saturated" for r in reach):
            raise RegistryError("overlapping saturated zones are not supported")
        # The sea pick must come from the undetermined sea; a determined
        # point inside the region would carry selection weight ~ 1/mass that
        # the sea pick ignores.  Refuse instead of approximate.
        if len(self._collect(region, reach)) > 0:
            raise RegistryError(
                "saturated pick over a region that already holds determined "
                "points; realize it with a lighter tier instead"
            )
        rid = len(self.records)
        rec = _Record(rid, region, "saturated")
        rec.filter_ids = self._filter_ids(reach)
        rec.bounding = bounding
        rec.mass_lower = sea_lower
        self.records.append(rec)

        rows = _SEA_FIRST_ROWS
        for _ in range(1 + _SEA_BLOCKS):
            pts = bounding.sample(rows, self.rng)
            self.sea_candidates += rows
            ok = region.contains(pts) & self._drop_determined(pts, rec.filter_ids)
            hit = np.flatnonzero(ok)
            if hit.size:
                coords = pts[hit[0]].copy()
                rec.coords = coords[None]
                self.stored_points += 1
                return PickResult("picked", (rid, 0), coords, "saturated", None, m_lo, m_hi)
            rows = _SEA_BLOCK_ROWS
        raise RegistryError(
            "rejection sampling failed to land in the saturated region; "
            "the volume bracket is probably wrong"
        )

    # -- reporting -------------------------------------------------------

    def metrics(self) -> dict:
        return {
            "records": len(self.records),
            "stored_points": self.stored_points,
            # records are never freed, so the peak is the total
            "peak_stored_points": self.stored_points,
            "streamed_candidates_total": self.streamed_candidates_total,
            "stream_replays": self.stream_replays,
            "rng_algorithm": self.rng_algorithm,
            "q_max": self.q_max,
            "coin_rejections": self.coin_rejections,
            "coin_candidates": self.coin_candidates,
            "sea_candidates": self.sea_candidates,
            **{f"{tier}_picks": n for tier, n in self.picks.items()},
        }


# -- lazy-vs-oracle consistency ------------------------------------------
#
# A fixed planar script of ten overlapping cell/ball queries whose joint
# count vector has the same law as counting the regions on one global
# sample.  The picks run with a small store cap, so the first two queries
# stream while the rest store, exercising ownership thinning, full-overlap
# replay, and the stored tier in one pass.  checks.sampler_consistency
# compares the laws of the two count vectors.

_SCRIPT_STORE_CAP = 4.0
_SCRIPT_BOX = 2.5


_SCRIPT_REGIONS = MappingProxyType(
    {
        "q01": Ball(np.array([0.0, 0.0]), 0.8),
        "q02": Ball(np.array([0.6, 0.0]), 0.7),
        "q03": Cell(np.array([-0.4, 0.2]), 0.35, np.empty(0), 1.0),
        "q04": Ball(np.array([-0.5, -0.5]), 0.4),
        "q05": Ball(np.array([0.3, 0.4]), 0.5),
        "q06": Cell(np.array([0.9, -0.3]), 0.3, np.empty(0), 1.0),
        "q07": Ball(np.array([-0.9, 0.1]), 0.45),
        "q08": Ball(np.array([0.2, -0.6]), 0.5),
        "q09": Ball(np.array([0.0, 0.0]), 1.2),
        "q10": Ball(np.array([0.55, 0.35]), 0.35),
    }
)


def consistency_regions(dim: int) -> Mapping:
    """The script's ten frozen regions, built once per process and shared
    read-only by every count."""
    if dim != 2:
        raise ValueError("the consistency script is planar (dim = 2)")
    return _SCRIPT_REGIONS


# Which queries pick (uniform member draw) and which materialize; every
# query yields the region's exact point count either way.
_SCRIPT_PICKS = ("q01", "q02", "q05", "q07", "q10")


def consistency_counts_lazy(dim: int, lam: float, seed: int) -> tuple:
    """Count vector of the script's ten regions through a lazy registry."""
    regs = consistency_regions(dim)
    registry = RegionRegistry(dim, lam, seed, store_cap=_SCRIPT_STORE_CAP)
    counts = []
    for key in sorted(regs):
        reg = regs[key]
        if key in _SCRIPT_PICKS:
            res = registry.pick_in_region(reg, reg, exact_volume(reg))
            counts.append(res.n_members)
        else:
            counts.append(len(registry.materialize(reg)))
    recount = len(registry.collect(regs["q01"]))
    if recount != counts[0]:
        raise RegistryError(
            f"replay recount {recount} != pick-time count {counts[0]}"
        )
    return tuple(counts)


def consistency_counts_oracle(dim: int, lam: float, seed: int) -> tuple:
    """Count vector of the script's ten regions on one realization of the
    process on the box [-_SCRIPT_BOX, _SCRIPT_BOX]^dim, which holds them."""
    regs = consistency_regions(dim)
    rng = generator(seed, _MAIN_PATH)
    side = 2.0 * _SCRIPT_BOX
    n = int(rng.poisson(lam * side**dim))
    pts = -_SCRIPT_BOX + rng.random((n, dim)) * side
    return tuple(int(np.count_nonzero(regs[k].contains(pts))) for k in sorted(regs))
