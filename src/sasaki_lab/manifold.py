"""Charts, transition maps, atlases, and deterministic sampling.

A chart is a named coordinate box, optionally with excluded bands (e.g. a
punctured fiber coordinate ``s`` whose band around 0 is cut out).  Sampling
stays a configurable margin away from all box faces and excluded bands, so
checks never evaluate on the closure boundary; evaluating *outside* the box
is deliberately not an error (scaling maps need it).

A chart's ``env`` of a point is a :class:`PointEnv`: the coordinate values
plus that point's evaluation memo, which `tensor` fills (see there).

Transition maps are piecewise: each piece restricts the source box and maps
coordinates by expressions, with an explicit inverse.  Sampling is
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

from . import exprlang
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
        for v, (lo, hi) in zip(coords, self.box):
            if v < lo - slack or v > hi + slack:
                return False
        return True


@dataclass(frozen=True)
class TransitionPiece:
    """One sub-box of the source chart with forward/inverse formulas."""

    box: tuple[tuple[float, float], ...]  # aligned with source chart coords
    forward: tuple[Expr, ...]  # target coords as exprs in source coords
    inverse: tuple[Expr, ...]  # source coords as exprs in target coords

    def contains(self, coords, slack: float = 1e-12) -> bool:
        return all(
            lo - slack <= v <= hi + slack for v, (lo, hi) in zip(coords, self.box)
        )


@dataclass(frozen=True)
class TransitionMap:
    source: str
    target: str
    pieces: tuple[TransitionPiece, ...]

    def piece_for(self, coords) -> TransitionPiece:
        for piece in self.pieces:
            if piece.contains(coords):
                return piece
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


def _draw(rng, intervals: list[tuple[float, float]]) -> float:
    lengths = [b - a for a, b in intervals]
    total = sum(lengths)
    u = rng.uniform(0.0, total)
    for (a, b), ln in zip(intervals, lengths):
        if u <= ln:
            return a + u
        u -= ln
    return intervals[-1][1]


def _draw_points(rng, intervals: list, count: int) -> list[tuple[float, ...]]:
    """``count`` points, one `_draw` per coordinate from its intervals, in
    coordinate order within a point."""
    return [tuple(_draw(rng, iv) for iv in intervals) for _ in range(count)]


def sample_chart(chart: Chart, plan: SamplePlan):
    """Deterministic points for one chart: list of (coords, PointEnv)."""
    rng = _chart_rng(plan.seed, chart.name)
    intervals = [chart.sample_intervals(c) for c in chart.coords]
    points = _draw_points(rng, intervals, plan.points_per_chart)
    return [(coords, chart.env(coords)) for coords in points]


def sample_points(atlas: Atlas, plan: SamplePlan):
    """Points for every chart: [(chart_name, [(coords, env), ...]), ...],
    the plan's `sample_set` ones when it has a set."""
    draw = sample_chart if plan.sample_set is None else plan.sample_set.points
    return [(c.name, draw(c, plan)) for c in atlas.charts]


def apply_transition(atlas: Atlas, p: Point, target: str) -> Point:
    """Map a point to the target chart through the declared transition."""
    if p.chart == target:
        return p
    chart = atlas.chart(p.chart)
    if not chart.contains(p.coords):
        raise OutOfDomain(f"point {p.coords} outside chart {p.chart} box")
    t = atlas.transition(p.chart, target)
    piece = t.piece_for(p.coords)
    env = chart.env(p.coords)
    new = tuple(float(exprlang.eval_expr(e, env)) for e in piece.forward)
    tgt = atlas.chart(target)
    if not tgt.contains(new, slack=1e-7):
        raise OutOfDomain(
            f"transition {p.chart}->{target} left the target box at {new}"
        )
    return Point(target, new)


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
    """(label, where, [(coords, env), ...]) groups of a domain's samples.

    An `Atlas` gives one per chart, ``where`` its name, all envs up front;
    `Overlaps` one per transition piece, labelled ``src->tgt``, ``where``
    its `OverlapSite`, each env built when its row is reached.  A list of
    domains gives their groups in turn.
    """
    if isinstance(domain, Atlas):
        return [(name, name, pts) for name, pts in sample_points(domain, plan)]
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
            site = OverlapSite(domain, t, piece)
            yield label, site, ((coords, src.env(coords)) for coords in points)


def atlas_consistency_check(atlas: Atlas, plan: SamplePlan) -> CheckReport:
    """Round-trip every transition piece: inverse(forward(p)) == p.

    Also composes each declared opposite pair source->target->source on the
    same samples, which covers 2-cycle cocycle consistency; 3-chart cycles
    would report here too if an atlas declared them.
    """

    def residual(site, coords, env):
        t, piece = site.transition, site.piece
        fwd = [float(exprlang.eval_expr(e, env)) for e in piece.forward]
        fenv = atlas.chart(t.target).env(fwd)
        back = [float(exprlang.eval_expr(e, fenv)) for e in piece.inverse]
        diffs = [abs(b - c) for b, c in zip(back, coords)]
        try:
            rpiece = atlas.transition(t.target, t.source).piece_for(fwd)
            back2 = [float(exprlang.eval_expr(e, fenv)) for e in rpiece.forward]
            diffs += [abs(b - c) for b, c in zip(back2, coords)]
        except NoTransition:
            pass
        return max_or_nan(diffs)

    return run_residual_check("atlas_consistency", Overlaps(atlas), residual, plan)
