"""Integrating a graph rule across the radius filtration of an instance.

The weight of an element is the integral over r in [0, alpha] of
nu(r) * w(G_r)(x).  The integrand is piecewise constant in r (the graph only
changes at the finitely many pairwise distances), so the integral collapses
to an exact finite sum of CDF increments times rule outputs.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .caps import CapExceeded, default_caps
from .filtration import Filtration, Graph, _TwinState, neighborhood_graph
from .metric import MetricInstance, _fraction
from .rules import (
    Rule,
    WeightVector,
    _maximal_clique_masks,
    _mcca_pairs,
    _mccp_pairs,
    _membership,
    _shared_fractions,
    _smooth_pairs,
    parse_rule,
    rule_is_rational,
    w_cu,
    w_mcca,
    w_mccp,
    w_uniform,
)

__all__ = [
    "Density",
    "MetricWeighting",
    "evaluate",
    "evaluate_all",
    "riemann_oracle",
    "sample_labels",
]

Number = int | float | Fraction


@dataclass(frozen=True)
class Density:
    """A radius density on [0, alpha] with a piecewise-linear CDF.

    ``knots`` is the CDF as (radius, cumulative) pairs from (0, 0) to
    (alpha, 1), all exact rationals; ``nu_bar`` is the density's sup, the
    constant in every Lipschitz bound.
    """

    alpha: Fraction
    knots: tuple[tuple[Fraction, Fraction], ...]
    nu_bar: Fraction
    kind: str = "piecewise_linear"

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        ks = self.knots
        if len(ks) < 2 or ks[0] != (0, 0) or ks[-1][0] != self.alpha or ks[-1][1] != 1:
            raise ValueError("CDF knots must run from (0, 0) to (alpha, 1)")
        for (r0, f0), (r1, f1) in zip(ks, ks[1:]):
            if r1 <= r0:
                raise ValueError("CDF knot radii must be strictly increasing")
            if f1 < f0:
                raise ValueError("CDF must be non-decreasing")
            if f1 - f0 > self.nu_bar * (r1 - r0):
                raise ValueError(
                    f"CDF slope {(f1 - f0) / (r1 - r0)} on [{r0}, {r1}] exceeds "
                    f"nu_bar = {self.nu_bar}"
                )

    @classmethod
    def uniform(cls, alpha: Number) -> "Density":
        a = _fraction(alpha)
        if a <= 0:
            raise ValueError(f"the disambiguation factor must be positive, got {alpha}")
        return cls(a, ((Fraction(0), Fraction(0)), (a, Fraction(1))), 1 / a, kind="uniform")

    @classmethod
    def piecewise_linear_cdf(
        cls, knots, nu_bar: Number | None = None
    ) -> "Density":
        ks = tuple((_fraction(r), _fraction(f)) for r, f in knots)
        alpha = ks[-1][0]
        max_slope = max((f1 - f0) / (r1 - r0) for (r0, f0), (r1, f1) in zip(ks, ks[1:]))
        bar = _fraction(nu_bar) if nu_bar is not None else max_slope
        return cls(alpha, ks, bar)

    def cdf(self, r: Number) -> Fraction:
        x = _fraction(r)
        if x <= 0:
            return Fraction(0)
        if x >= self.alpha:
            return Fraction(1)
        ks = self.knots
        lo, hi = 0, len(ks) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ks[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        (r0, f0), (r1, f1) = ks[lo], ks[hi]
        return f0 + (f1 - f0) * (x - r0) / (r1 - r0)

    def pdf(self, r: Number) -> Fraction:
        """Right-continuous density (left-continuous at alpha)."""
        x = _fraction(r)
        if x < 0 or x > self.alpha:
            return Fraction(0)
        ks = self.knots
        for (r0, f0), (r1, f1) in zip(ks, ks[1:]):
            if r0 <= x < r1 or (r1 == self.alpha and x == self.alpha):
                return (f1 - f0) / (r1 - r0)
        return Fraction(0)  # pragma: no cover - unreachable

    def pdf_array(self, rs: np.ndarray) -> np.ndarray:
        edges = np.array([float(r) for r, _ in self.knots])
        slopes = np.array(
            [
                float((f1 - f0) / (r1 - r0))
                for (r0, f0), (r1, f1) in zip(self.knots, self.knots[1:])
            ]
        )
        idx = np.clip(np.searchsorted(edges, rs, side="right") - 1, 0, len(slopes) - 1)
        out = slopes[idx]
        out[(rs < 0) | (rs > float(self.alpha))] = 0.0
        return out

    def knot_radii(self) -> list[Fraction]:
        return [r for r, _ in self.knots]


@dataclass(frozen=True)
class MetricWeighting:
    """A graph rule integrated against a radius density."""

    rule: Rule
    density: Density
    rule_name: str = "custom"

    @classmethod
    def from_names(cls, rule_spec: str, density: Density) -> "MetricWeighting":
        name, rule = parse_rule(rule_spec)
        return cls(rule, density, rule_name=name)

    @property
    def exact_capable(self) -> bool:
        return self.rule_name == "custom" or rule_is_rational(self.rule_name)


def _increments(filtration: Filtration, density: Density, exact: bool) -> list:
    """The CDF increment of each constant piece of the filtration, from r = 0
    up to the first radius and then from each radius to the next (or to
    alpha); the CDF is evaluated once per radius."""
    radii = [0, *filtration.radii, density.alpha if exact else float(density.alpha)]
    values = list(map(density.cdf, radii)) if exact else _float_cdf(density, radii)
    return [above - below for below, above in zip(values, values[1:])]


def _float_cdf(density: Density, radii: list) -> list[float]:
    """``float(density.cdf(r))`` for ascending floats (or ints) r, in integers.

    On the knot piece from r0 to r1 the CDF is c + s * r, and with c and s
    over a common denominator L, c0 / L and c1 / L, a radius p / q has the
    value (c0 * q + c1 * p) / (L * q).  Knots and alpha are compared in
    integers too, and the one ``int / int`` per radius rounds correctly,
    as ``float(Fraction)`` does, so the floats are the same bit for bit.
    """
    pieces = []  # (right end, c0, c1, L) per knot piece
    for (r0, f0), (r1, f1) in zip(density.knots, density.knots[1:]):
        slope = (f1 - f0) / (r1 - r0)
        start = f0 - slope * r0
        common = math.lcm(start.denominator, slope.denominator)
        pieces.append((r1, start.numerator * (common // start.denominator),
                       slope.numerator * (common // slope.denominator), common))
    alpha, k, out = density.alpha, 0, []
    for r in radii:
        p, q = r.as_integer_ratio()
        if p <= 0:
            out.append(0.0)
        elif p * alpha.denominator >= alpha.numerator * q:
            out.append(1.0)
        else:
            # the piece whose right end lies above r; radii ascend, so k does
            while p * pieces[k][0].denominator >= pieces[k][0].numerator * q:
                k += 1
            _, c0, c1, common = pieces[k]
            out.append((c0 * q + c1 * p) / (common * q))
    return out


@dataclass
class _Kept:
    """The state a pairs sweep keeps at a read piece: ``nbrs``, the open
    neighbourhoods; ``twins``, the duplicate classes, when the reader reads
    them; ``cover``, the maximal cliques as bitmasks, when it reads them."""

    n: int
    nbrs: list[int]
    twins: _TwinState | None
    cover: list[int] | None


@dataclass(frozen=True)
class _Reader:
    """A rule's weights read off the state a sweep keeps: ``pairs`` maps a
    ``_Kept`` to one integer (numerator, denominator) pair per vertex, and
    the flags say whether it reads the classes and the clique cover."""

    pairs: Callable[[_Kept], list[tuple[int, int]]]
    classes: bool = False
    cliques: bool = False


def _class_uniform_pairs(kept: _Kept) -> list[tuple[int, int]]:
    """w(x) = 1 / (k * |[x]|) with k the number of duplicate classes."""
    twins = kept.twins
    k, size = len(twins.by_key), twins.size
    return [(1, k * size[c]) for c in twins.cid]


def _smoothed(base: _Reader) -> _Reader:
    """``smooth`` over the reader ``base``.  The smoothed pairs share one
    denominator, so that the sweep keeps the check a ``WeightVector`` makes
    in the per-event loop, in float mode too, as one integer sum."""

    def pairs(kept: _Kept) -> list[tuple[int, int]]:
        out = _smooth_pairs(base.pairs(kept), kept.nbrs)
        total, common = sum(t for t, _ in out), out[0][1]
        if total != common:
            raise ValueError(f"smoothed weights sum to {Fraction(total, common)}, expected 1")
        return out

    return _Reader(pairs, base.classes, base.cliques)


_CLASS_UNIFORM = _Reader(_class_uniform_pairs, classes=True)
_MCCA = _Reader(lambda kept: _mcca_pairs(kept.cover, kept.n), cliques=True)
_MCCP = _Reader(lambda kept: _mccp_pairs(kept.cover, _membership(kept.cover, kept.n)),
                cliques=True)


def _pairs_reader(rule: Rule) -> _Reader | None:
    """The reader of ``rule``'s weights, or ``None`` when it has none and
    is called on every event's graph.

    ``cu`` and ``lift:uniform`` (which puts 1/k on each class of the
    quotient and divides it by the class size) read the classes, ``mcca``
    and ``mccp`` the clique cover, and ``smooth`` over any of these reads
    what its base reads.  The rule is told by its callable, wrapped or not,
    not by its name, so that any other callable given one of these names is
    still called.
    """
    fn = inspect.unwrap(rule)
    if fn is w_cu or getattr(fn, "lifted", None) is w_uniform:
        return _CLASS_UNIFORM
    if fn is w_mcca:
        return _MCCA
    if fn is w_mccp:
        return _MCCP
    base = getattr(fn, "smoothed", None)
    reader = None if base is None else _pairs_reader(base)
    return None if reader is None else _smoothed(reader)


def evaluate_all(
    inst: MetricInstance, mw: MetricWeighting, *, exact: bool = False
) -> WeightVector:
    """Weights of all elements by the exact threshold sweep.

    With ``exact=True`` all radii, CDF increments and rule outputs are exact
    rationals and the result sums to 1 exactly; the rule must be
    rational-valued (the entropy rule is not).  The filtration and its CDF
    increments are built once, as one stream of (pairs, increment) events.
    One driver, ``_pairs_sweep``, integrates the rule over it: a rule with
    a reader (the maximal-clique rules ``mcca`` and ``mccp``, and ``smooth``
    over a rule with a reader; see ``_pairs_reader``) is read off the state
    the sweep keeps, without a rule call per event, and every other rule is
    called on the graph of each piece with a nonzero increment; a rule that
    reads duplicate classes or the quotient (``lift:mcca``, ``entropy``, ...)
    computes them from that graph.  The class-uniform rules (``cu``,
    ``lift:uniform``) take the same events, read off the duplicate classes
    as they change: ``_class_uniform_floats`` in float mode and
    ``_ClassUniformSums`` in exact mode.
    """
    if exact and not mw.exact_capable:
        raise ValueError(
            f"rule {mw.rule_name!r} does not produce rational weights; "
            "exact integration is unavailable"
        )
    filtration = Filtration(inst, mw.density.alpha, exact=exact)
    increments = _increments(filtration, mw.density, exact)
    events = list(zip([filtration.base, *filtration.pairs], increments))
    n, labels = inst.n, inst.labels
    reader = _pairs_reader(mw.rule)
    if reader is not _CLASS_UNIFORM:
        steps = _pairs_sweep(events, n, labels, reader or mw.rule, exact)
    elif exact:
        return WeightVector(_ClassUniformSums.integrate(n, events), labels)
    else:
        steps = _class_uniform_floats(n, events)
    if not exact:
        acc = np.zeros(n)
        for weights, increment in steps:
            # elementwise multiply-then-add in vertex order: the same float
            # operations as a per-vertex loop, so the result is bit-identical
            acc += increment * np.asarray(weights)
        return WeightVector(tuple(acc.tolist()), labels)

    # exact: one Fraction product per distinct rule value and one sum per
    # distinct (running total, value) pair.  Rules share one value object per
    # class, and vertices with equal histories share their running total, so
    # only the grouping by id pairs runs over every vertex, in C-level passes.
    acc = [Fraction(0)] * n
    for weights, increment in steps:
        terms = {key: increment * v for key, v in weights.distinct.items()}
        keys = list(zip(map(id, acc), map(id, weights.values)))
        totals = dict(zip(keys, acc))
        sums = {key: total + terms[key[1]] for key, total in totals.items()}
        acc = list(map(sums.__getitem__, keys))
    return WeightVector(tuple(acc), labels)


def _pairs_sweep(events, n: int, labels: tuple[str, ...], read, exact: bool):
    """Yield (weights, increment) per piece of ``events`` with a nonzero
    increment: the ``WeightVector`` in exact mode, one float per vertex
    otherwise.

    ``read`` is a ``_Reader``, whose weights are read off the state the
    sweep keeps, or a rule without one, which is called on the piece's
    graph.  Float mode converts each distinct value once: ``as_floats`` of
    the rule's weights, or one ``int / int`` per distinct pair a reader
    reads, which rounds as ``float(Fraction)`` does.

    The sweep keeps one list of open neighbourhoods, the ``_TwinState``'s
    when the reader reads the duplicate classes, and the clique cover only
    when it reads that.  The cover is kept as bitmasks.  After edges are
    added, with T their endpoints, a maximal clique that misses T is still
    maximal: a vertex that could extend it would have gained an edge into
    it, so it would be in T.  The new cover is therefore the old cliques
    that miss T plus the cliques of the new graph that meet T, which
    Bron-Kerbosch lists from T | N(T).  The cover is only brought up to
    date at the pieces that are read, with T collected over the events
    since, so the ``cliques`` cap is checked on the same graphs as a rule
    call checks it.
    """
    reader = read if isinstance(read, _Reader) else None
    twins = _TwinState(n) if reader and reader.classes else None
    nbrs = [0] * n if twins is None else twins.masks
    kept = _Kept(n, nbrs, twins, [] if reader and reader.cliques else None)
    cap = default_caps().cliques
    touched = (1 << n) - 1  # the first cover read is enumerated in full
    for pairs, increment in events:
        if twins is not None:
            twins.add(pairs)
        for u, v in pairs:
            if twins is None:
                nbrs[u] |= 1 << v
                nbrs[v] |= 1 << u
            touched |= 1 << u | 1 << v
        if increment == 0:
            continue
        if reader is None:
            weights = read(Graph._trusted(n, tuple(nbrs), labels))
            yield (weights if exact else weights.as_floats()), increment
            continue
        if kept.cover is not None:
            cover = [c for c in kept.cover if not c & touched]
            cover += _maximal_clique_masks(nbrs, cap, touched)
            if len(cover) > cap:
                raise CapExceeded("maximal-clique enumeration", "cliques", cap)
            kept.cover, touched = cover, 0
        weights = reader.pairs(kept)
        if exact:
            yield WeightVector(_shared_fractions(weights), labels), increment
        else:
            made = {pair: pair[0] / pair[1] for pair in set(weights)}
            yield list(map(made.__getitem__, weights)), increment


def _class_uniform_floats(n: int, events):
    """Yield (w, increment) per piece of ``events`` with a nonzero
    increment, w(x) = 1.0 / (k * |[x]|) with k the number of duplicate
    classes, read off the classes as the events are added.  k * |[x]| is
    an integer below 2**53, so each weight is ``float(Fraction(1, k *
    |[x]|))``, the float the rule gives."""
    state = _TwinState(n)
    # numpy copies of state.cid and state.size, updated where they change
    cid, size = np.arange(n), np.ones(n, dtype=np.int64)
    for pairs, increment in events:
        moved = state.add(pairs)
        now = [state.cid[w] for w in moved]
        changed = [*cid[moved].tolist(), *now]
        cid[moved] = now
        size[changed] = [state.size[c] for c in changed]
        if increment != 0:
            yield 1.0 / (len(state.by_key) * size[cid]), increment


class _ClassUniformSums(_TwinState):
    """The duplicate classes of the sweep and each vertex's class-uniform
    integral so far, in integers.

    With P the running sum of increment / k, a vertex accrues
    (change in P) / s while its class has s members.  Each class id keeps
    ``accrued``, the sum of (change in P) * L / s over its life, settled up
    to ``since`` (the value of P when last settled), with L = lcm(1..n) so
    that every division by a class size is exact.  A vertex's integral is
    the ``accrued`` of its class plus its ``offset``: on moving from class a
    to class b it adds ``accrued[a] - accrued[b]``, both settled.  So an
    event touches only the vertices that move and the classes they leave or
    join, which are settled before their size changes.
    """

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.lcm = math.lcm(*range(1, n + 1))
        self.per = [0] + [self.lcm // s for s in range(1, n + 1)]  # L / s
        self.total = 0  # P, scaled to an integer
        self.accrued = [0] * n  # per class id
        self.since = [0] * n  # per class id
        self.offset = [0] * n  # per vertex

    @classmethod
    def integrate(cls, n: int, events) -> tuple[Fraction, ...]:
        """The integral of w(x) = 1 / (k * |[x]|) over the exact ``events``.

        With D the increments' common denominator, P is kept in units of
        1 / (D * L) and the integrals in units of 1 / (D * L**2).
        """
        common = math.lcm(*(increment.denominator for _, increment in events))
        state = cls(n)
        for pairs, increment in events:
            state.add(pairs)
            if increment != 0:
                scaled = increment.numerator * (common // increment.denominator)
                state.total += scaled * state.per[len(state.by_key)]
        for c in state.by_key.values():
            state._settle(c)
        nums = map(int.__add__, map(state.accrued.__getitem__, state.cid), state.offset)
        return _shared_fractions((num, common * state.lcm**2) for num in nums)

    def _settle(self, c: int) -> None:
        self.accrued[c] += (self.total - self.since[c]) * self.per[self.size[c]]
        self.since[c] = self.total

    def _move(self, w: int) -> None:
        a, b = self.cid[w], self.by_key.get(self.masks[w] | 1 << w)
        self._settle(a)
        if b is not None:
            self._settle(b)
        super()._move(w)
        b = self.cid[w]
        self._settle(b)  # a fresh class id starts accruing here
        self.offset[w] += self.accrued[a] - self.accrued[b]


def evaluate(
    inst: MetricInstance, x: int | str, mw: MetricWeighting, *, exact: bool = False
):
    return evaluate_all(inst, mw, exact=exact)[inst.index(x)]


def riemann_oracle(inst: MetricInstance, x: int | str, mw: MetricWeighting, steps: int) -> float:
    """Midpoint Riemann sum of nu(r) * w(G_r)(x) on a uniform radius grid.

    Deliberately independent of the threshold sweep: each grid cell's graph
    is rebuilt by ``neighborhood_graph`` from raw distance comparisons at the
    cell midpoint.  Cells whose midpoints see the same set of distances share
    one rule call.
    """
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    xi = inst.index(x)
    alpha = float(mw.density.alpha)
    width = alpha / steps
    mids = (np.arange(steps) + 0.5) * width
    pdf_vals = mw.density.pdf_array(mids)

    n = inst.n
    iu = np.triu_indices(n, k=1)
    pair_d = np.unique(inst.dist[iu]) if n > 1 else np.empty(0)
    groups = np.searchsorted(pair_d, mids, side="right")

    total = 0.0
    for key in np.unique(groups):
        sel = groups == key
        rep = float(mids[sel][0])
        w_x = float(mw.rule(neighborhood_graph(inst, rep))[xi])
        total += w_x * float(pdf_vals[sel].sum()) * width
    return total


def sample_labels(weights: WeightVector, k: int, seed: int) -> list[str]:
    """Draw k labels i.i.d. from the weight distribution, reproducibly."""
    rng = np.random.default_rng(seed)
    p = np.array(weights.as_floats())
    p = p / p.sum()
    return [str(s) for s in rng.choice(weights.labels, size=k, p=p)]
