"""Charts, transition maps, atlases, and deterministic sampling.

A chart is a named coordinate box, optionally with excluded bands (e.g. a
punctured fiber coordinate ``s`` whose band around 0 is cut out).  Sampling
stays a configurable margin away from all box faces and excluded bands, so
checks never evaluate on the closure boundary; evaluating *outside* the box
is deliberately not an error (scaling maps need it).

A chart's ``env`` of a point is a :class:`PointEnv`: the coordinate values
plus that point's evaluation memo, which `tensor` fills (see there).  A
sample group (a chart's samples, or a transition piece's) is a list of
points and one batch env (`Chart.batch_env`), whose coordinates are the
points' columns as float64 arrays, so that `tensor` evaluates a field once
for the whole group; the driver (`report.run_residual_check`) evaluates a
residual there, and gives a point an env of its own only where the batch
raises.

Transition maps are piecewise: each piece restricts the source box and maps
coordinates by expressions, with an explicit inverse.  `apply_transition`
maps the coordinates of a point, or the arrays of a batch, through the
piece each point lies in; a batch whose points lie in different pieces is
carried group by group and merged, as `numkernel` splits a solve.  Sampling is
deterministic: the stream for a chart depends only on (seed, chart name),
and that of a transition's pieces on (seed, its stream name), never on
iteration order, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import exprlang, numkernel as nk
from .exprlang import Expr
from .report import CheckReport, max_or_nan, run_residual_check

if TYPE_CHECKING:
    from .tensor import SampleSet


class EmptyDomain(ValueError):
    """A chart coordinate has no room left after margins and exclusions."""


class NoTransition(LookupError):
    """The atlas has no transition between the requested charts."""


class OutOfDomain(ValueError):
    """A point fell outside every piece of the transition (or its chart box)."""


class PointEnv(dict):
    """Read-only coordinate values of one point, with the point's memo.

    ``memo`` belongs to `tensor`: it holds the components of every field
    evaluated at this env and the dual-seeded envs of its jets, and it is
    dropped together with the env.  Changing a value would leave the memo
    describing values the env no longer holds, so the mapping refuses
    writes; ``dict(env)`` gives a writable copy, which `tensor` wraps in a
    fresh PointEnv, with an empty memo, whenever it evaluates there.

    A batch env holds the float64 arrays, of shape (P,), of the P points
    of a sample group, and its memo what is evaluated there once for all
    of them; an env derived from it (a seeded env, or `bundle`'s base env
    and lift) is a batch too, and may hold scalars beside its arrays (a
    lift's height).
    """

    __slots__ = ("memo", "__weakref__")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.memo = {}

    def _read_only(self, *args, **kwargs):
        raise TypeError("PointEnv is read-only; change a dict(env) copy instead")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


@dataclass(frozen=True)
class Chart:
    """A coordinate box with optional excluded bands per coordinate."""

    name: str
    coords: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    excluded: tuple[tuple[str, float, float], ...] = ()
    margin: float = 0.05

    def __post_init__(self):
        if len(self.coords) != len(self.box):
            raise ValueError(f"chart {self.name}: coords/box length mismatch")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError(f"chart {self.name}: duplicate coordinate names")
        for c, (lo, hi) in zip(self.coords, self.box):
            if not lo < hi:
                raise ValueError(f"chart {self.name}: empty range for {c}")
        for c, lo, hi in self.excluded:
            if c not in self.coords:
                raise ValueError(f"chart {self.name}: excluded unknown coord {c}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, coord: str) -> int:
        return self.coords.index(coord)

    def env(self, coords) -> PointEnv:
        return PointEnv(zip(self.coords, coords))

    def batch_env(self, points: list) -> PointEnv:
        """The env of a sample group: each coordinate the float64 array of
        the points' values."""
        return PointEnv(zip(self.coords, map(np.array, zip(*points))))

    def sample_intervals(self, coord: str) -> list[tuple[float, float]]:
        """Allowed sampling sub-intervals: margins applied to box and bands."""
        i = self.index(coord)
        lo, hi = self.box[i]
        pieces = [(lo + self.margin, hi - self.margin)]
        for c, blo, bhi in self.excluded:
            if c != coord:
                continue
            wlo, whi = blo - self.margin, bhi + self.margin
            nxt = []
            for plo, phi in pieces:
                if whi <= plo or wlo >= phi:
                    nxt.append((plo, phi))
                    continue
                if plo < wlo:
                    nxt.append((plo, wlo))
                if whi < phi:
                    nxt.append((whi, phi))
            pieces = nxt
        pieces = [(a, b) for a, b in pieces if b > a]
        if not pieces:
            raise EmptyDomain(f"chart {self.name}: nothing to sample for {coord}")
        return pieces

    def contains(self, coords, slack: float = 1e-9) -> bool:
        """Whether the point lies in the box, `slack` wide (a NaN coordinate
        does not); at a batch, whether every point does."""
        return all(
            np.all((lo - slack <= v) & (v <= hi + slack))
            for v, (lo, hi) in zip(coords, self.box)
        )


@dataclass(frozen=True)
class TransitionPiece:
    """One sub-box of the source chart with forward/inverse formulas."""

    box: tuple[tuple[float, float], ...]  # aligned with source chart coords
    forward: tuple[Expr, ...]  # target coords as exprs in source coords
    inverse: tuple[Expr, ...]  # source coords as exprs in target coords

    def contains(self, coords, slack: float = 1e-12):
        """Whether the point lies in the piece's box, `slack` wide; at a
        batch, a bool array, one per point."""
        inside = True
        for v, (lo, hi) in zip(coords, self.box):
            inside = inside & (lo - slack <= v) & (v <= hi + slack)
        return inside


@dataclass(frozen=True)
class TransitionMap:
    source: str
    target: str
    pieces: tuple[TransitionPiece, ...]

    def piece_index(self, coords):
        """The index of the first piece that contains the point, or
        ``len(pieces)`` if none does; at a batch, an int array of them."""
        picked = len(self.pieces)
        for k in reversed(range(len(self.pieces))):
            picked = np.where(self.pieces[k].contains(coords), k, picked)
        return picked

    def piece_for(self, coords) -> TransitionPiece:
        k = self.piece_index(coords)
        if k < len(self.pieces):
            return self.pieces[k]
        raise OutOfDomain(
            f"point {tuple(coords)} lies in no piece of {self.source}->{self.target}"
        )


@dataclass(frozen=True)
class Point:
    chart: str
    coords: tuple[float, ...]


@dataclass(frozen=True)
class SamplePlan:
    """How checks sample: the same plan always yields the same points.

    ``sample_set`` (a `tensor.SampleSet`) lets one entry's checks share
    their chart samples, and the memo of its declared fields, until its
    last check; without one each check samples afresh.  It is not part of
    the plan's value.
    """

    seed: int = 42
    points_per_chart: int = 64
    tolerance: float = 1e-8
    sample_set: SampleSet | None = field(default=None, compare=False, repr=False)


@dataclass
class Atlas:
    charts: list[Chart]
    transitions: list[TransitionMap] = field(default_factory=list)

    def __post_init__(self):
        names = [c.name for c in self.charts]
        if len(set(names)) != len(names):
            raise ValueError("duplicate chart names in atlas")
        self._by_name = {c.name: c for c in self.charts}
        for t in self.transitions:
            if t.source not in self._by_name or t.target not in self._by_name:
                raise ValueError(f"transition {t.source}->{t.target}: unknown chart")

    def chart(self, name: str) -> Chart:
        try:
            return self._by_name[name]
        except KeyError:
            raise NoTransition(f"no chart named {name!r}") from None

    def transition(self, source: str, target: str) -> TransitionMap:
        for t in self.transitions:
            if t.source == source and t.target == target:
                return t
        raise NoTransition(f"no transition {source}->{target}")


def append_coordinate(atlas: Atlas, coord: str, box, band=None, sign=None) -> Atlas:
    """The atlas with ``coord`` appended last to every chart and piece.

    Each chart keeps its box, bands and margin, and ``coord`` ranges over
    ``box`` minus the ``band`` (lo, hi) when one is given.  Each piece
    maps ``coord`` to ``coord`` both ways, or to ``-coord`` where
    ``sign(transition, piece)`` is not positive.
    """
    extra = () if band is None else ((coord, *band),)
    charts = [
        Chart(c.name, c.coords + (coord,), c.box + (box,), c.excluded + extra, c.margin)
        for c in atlas.charts
    ]
    transitions = []
    for t in atlas.transitions:
        pieces = []
        for piece in t.pieces:
            flip = sign is not None and not sign(t, piece) > 0
            e = exprlang.parse(f"-{coord}" if flip else coord)
            pieces.append(TransitionPiece(
                piece.box + (box,), piece.forward + (e,), piece.inverse + (e,)
            ))
        transitions.append(TransitionMap(t.source, t.target, tuple(pieces)))
    return Atlas(charts, transitions)


def _chart_rng(seed: int, chart_name: str) -> np.random.Generator:
    crc = zlib.crc32(chart_name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, crc]))


def _draw_points(rng, intervals: list, count: int) -> list[tuple[float, ...]]:
    """``count`` points, coordinate by coordinate from its intervals.

    One ``rng.random`` call draws every value, point by point and in
    coordinate order within a point.  A value is the fraction u of its
    intervals' total length, laid along them in turn: ``a + u`` in the
    first interval whose length is at least u, u less the lengths passed.
    This is ``rng.uniform(0, total)`` (``0 + total * next_double``) per
    value, bit for bit.
    """
    draws = rng.random((count, len(intervals)))
    columns = []
    for k, ivs in enumerate(intervals):
        lengths = [b - a for a, b in ivs]
        u = draws[:, k] * sum(lengths)
        out = np.full(count, ivs[-1][1])
        left = np.ones(count, dtype=bool)
        for (a, _), ln in zip(ivs, lengths):
            hit = left & (u <= ln)
            out[hit] = a + u[hit]
            left &= ~hit
            u = u - ln
        columns.append(out.tolist())
    return list(zip(*columns))


def sample_chart(chart: Chart, plan: SamplePlan) -> list[tuple[float, ...]]:
    """Deterministic points for one chart, one coordinate tuple each."""
    rng = _chart_rng(plan.seed, chart.name)
    intervals = [chart.sample_intervals(c) for c in chart.coords]
    return _draw_points(rng, intervals, plan.points_per_chart)


def sample_group(chart: Chart, plan: SamplePlan) -> tuple[list, PointEnv]:
    """One chart's sample group: its points and their batch env."""
    points = sample_chart(chart, plan)
    return points, chart.batch_env(points)


def sample_points(atlas: Atlas, plan: SamplePlan):
    """Every chart's sample group: [(chart_name, points, batch env), ...],
    the plan's `sample_set` ones when it has a set."""
    draw = sample_group if plan.sample_set is None else plan.sample_set.points
    return [(c.name, *draw(c, plan)) for c in atlas.charts]


def apply_transition(atlas: Atlas, p: Point, target: str) -> Point:
    """Map a point to the target chart through the declared transition.

    At a batch ``p.coords`` holds the group's arrays, and so does the
    result (`_carry`); every point must pass the box tests.
    """
    if p.chart == target:
        return p
    if not atlas.chart(p.chart).contains(p.coords):
        raise OutOfDomain(f"point {p.coords} outside chart {p.chart} box")
    new = tuple(_carry(atlas, atlas.transition(p.chart, target), p.coords))
    if not atlas.chart(target).contains(new, slack=1e-7):
        raise OutOfDomain(
            f"transition {p.chart}->{target} left the target box at {new}"
        )
    return Point(target, new)


def _carry(atlas: Atlas, t: TransitionMap, coords) -> list:
    """The image of `coords` under `t`, through the piece `piece_index`
    picks: each forward expression at the source chart's env of `coords`.

    At a batch (array coordinates) the points that pick the same piece
    are carried together and merged (`numkernel.groups`, `merge`), so each
    gets its own piece's image bit for bit; a group in no piece raises.
    """
    size = next((len(v) for v in coords if type(v) is np.ndarray), None)
    if size is None:
        return _images(t.piece_for(coords).forward, atlas.chart(t.source).env(coords))
    picked = np.broadcast_to(t.piece_index(coords), size)
    if (picked == picked[0]).all():
        if picked[0] == len(t.pieces):
            raise OutOfDomain(f"no point of the batch lies in a piece of {t.source}->{t.target}")
        env = atlas.chart(t.source).env(coords)
        return _images(t.pieces[picked[0]].forward, env)
    return nk.merge([
        (idx, _carry(atlas, t, nk.take(coords, idx))) for idx in nk.groups(picked)
    ], size)


def _images(exprs, env) -> list:
    """The values of `exprs` at `env`: floats, or the arrays of a batch."""
    values = [exprlang.eval_expr(e, env) for e in exprs]
    return [v if type(v) is np.ndarray else float(v) for v in values]


def _piece_sample(chart: Chart, piece: TransitionPiece, plan: SamplePlan, rng):
    """Sample inside one transition piece, respecting margins and bands."""
    intervals = []
    boxes = zip(chart.coords, piece.box, chart.box, strict=True)
    for c, (p_lo, p_hi), (c_lo, c_hi) in boxes:
        lo, hi = max(p_lo, c_lo) + chart.margin, min(p_hi, c_hi) - chart.margin
        ivs = [(max(a, lo), min(b, hi)) for a, b in chart.sample_intervals(c)]
        ivs = [(a, b) for a, b in ivs if b > a]
        if not ivs:
            raise EmptyDomain(f"{chart.name}: transition piece leaves no room for {c}")
        intervals.append(ivs)
    return _draw_points(rng, intervals, plan.points_per_chart)


@dataclass(frozen=True, eq=False)
class Overlaps:
    """A sampling domain: the pieces of the atlas's transitions (between
    ``charts`` only, when given); ``src->tgt`` draws from the stream named
    ``"src->tgt" + stream``, piece after piece."""

    atlas: Atlas
    stream: str = ""
    charts: frozenset[str] | None = None

    def transitions(self) -> list[TransitionMap]:
        """The atlas's transitions, those between ``charts`` when given."""
        return [t for t in self.atlas.transitions
                if self.charts is None or {t.source, t.target} <= self.charts]


class OverlapSite(NamedTuple):
    """Where an overlap sample lies: its domain, transition and piece."""

    domain: Overlaps
    transition: TransitionMap
    piece: TransitionPiece


def sample_domain(domain, plan: SamplePlan):
    """(label, where, points, batch env) groups of a domain's samples.

    An `Atlas` gives one per chart, ``where`` its name, all drawn up
    front; `Overlaps` one per transition piece, labelled ``src->tgt``,
    ``where`` its `OverlapSite`, each piece's points drawn when its group
    is reached.  A list of domains gives their groups in turn.
    """
    if isinstance(domain, Atlas):
        return [(name, name, *group) for name, *group in sample_points(domain, plan)]
    if isinstance(domain, Overlaps):
        return _overlap_groups(domain, plan)
    return itertools.chain.from_iterable(sample_domain(d, plan) for d in domain)


def _overlap_groups(domain: Overlaps, plan: SamplePlan):
    for t in domain.transitions():
        src = domain.atlas.chart(t.source)
        label = f"{t.source}->{t.target}"
        rng = _chart_rng(plan.seed, label + domain.stream)
        for piece in t.pieces:
            points = _piece_sample(src, piece, plan, rng)
            yield label, OverlapSite(domain, t, piece), points, src.batch_env(points)


def atlas_consistency_check(atlas: Atlas, plan: SamplePlan) -> CheckReport:
    """Round-trip every transition piece: inverse(forward(p)) == p.

    Also composes each declared opposite pair source->target->source on the
    same samples (`_carry`), which covers 2-cycle cocycle
    consistency; 3-chart cycles would report here too if an atlas declared
    them.  The round trip is a declared identity: at a sample group it is
    evaluated once, the coordinates its arrays (see `tensor`), and its
    value at each point is the largest |difference| of the two round trips.
    """

    def round_trips(site, env):
        t, piece = site.transition, site.piece
        coords = [env[c] for c in atlas.chart(t.source).coords]
        fwd = _images(piece.forward, env)
        back = _images(piece.inverse, atlas.chart(t.target).env(fwd))
        diffs = [abs(b - c) for b, c in zip(back, coords)]
        try:
            reverse = atlas.transition(t.target, t.source)
        except NoTransition:
            return max_or_nan(diffs)
        back2 = _carry(atlas, reverse, fwd)
        return max_or_nan(diffs + [abs(b - c) for b, c in zip(back2, coords)])

    return run_residual_check(
        "atlas_consistency", Overlaps(atlas), round_trips, plan
    )
