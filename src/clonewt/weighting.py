"""Integrating a graph rule across the radius filtration of an instance.

The weight of an element is the integral over r in [0, alpha] of
nu(r) * w(G_r)(x).  The integrand is piecewise constant in r (the graph only
changes at the finitely many pairwise distances), so the integral collapses
to an exact finite sum of CDF increments times rule outputs.
"""

from __future__ import annotations

import bisect
import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection

import numpy as np

from .caps import CapExceeded, default_caps
from .filtration import Filtration, Graph, _bits, _TwinState, neighborhood_graph
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
        ks = self.knots  # radii that rise strictly from 0 to alpha make alpha positive
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
    def piecewise_linear_cdf(cls, knots) -> "Density":
        """The CDF through the (radius, cumulative) ``knots``; slopes skip the
        radii that do not rise, which ``__post_init__`` refuses."""
        try:
            ks = tuple((_fraction(r), _fraction(f)) for r, f in knots)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("CDF knots must be pairs of finite numbers") from None
        slopes = [(f1 - f0) / (r1 - r0) for (r0, f0), (r1, f1) in zip(ks, ks[1:]) if r1 > r0]
        return cls(ks[-1][0] if ks else Fraction(0), ks, max(slopes, default=Fraction(0)))

    def cdf(self, r: Number) -> Fraction:
        x = _fraction(r)
        if x <= 0:
            return Fraction(0)
        if x >= self.alpha:
            return Fraction(1)
        hi = bisect.bisect_right(self.knots, x, key=lambda knot: knot[0])
        (r0, f0), (r1, f1) = self.knots[hi - 1], self.knots[hi]
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
    alpha).  The CDF is evaluated once per radius, in integers: float mode
    divides once per radius, and exact mode takes the differences over one
    common denominator and builds one ``Fraction`` per increment."""
    radii = [0, *filtration.radii, density.alpha if exact else float(density.alpha)]
    ratios = _cdf_ratios(density, radii)
    if not exact:
        values = [p / q for p, q in ratios]
        return [above - below for below, above in zip(values, values[1:])]
    common = math.lcm(*(q for _, q in ratios))
    values = [p * (common // q) for p, q in ratios]
    return [Fraction(above - below, common) for below, above in zip(values, values[1:])]


def _cdf_ratios(density: Density, radii: list) -> list[tuple[int, int]]:
    """``density.cdf(r)`` as an integer ratio (p, q), not reduced, for
    ascending radii r: floats, ints or ``Fraction``s.

    On the knot piece from r0 to r1 the CDF is c + s * r, and with c and s
    over a common denominator L, c0 / L and c1 / L, a radius p / q has the
    value (c0 * q + c1 * p) / (L * q).  Knots and alpha are compared in
    integers too.  ``p / q`` rounds correctly, as ``float(Fraction)`` does,
    so float mode's values are ``float(density.cdf(r))`` bit for bit.
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
            out.append((0, 1))
        elif p * alpha.denominator >= alpha.numerator * q:
            out.append((1, 1))
        else:
            # the piece whose right end lies above r; radii ascend, so k does
            while p * pieces[k][0].denominator >= pieces[k][0].numerator * q:
                k += 1
            _, c0, c1, common = pieces[k]
            out.append((c0 * q + c1 * p, common * q))
    return out


@dataclass
class _Kept:
    """The state a pairs sweep keeps at a read piece: ``nbrs``, the open
    neighbourhoods; ``twins``, the duplicate classes, when the reader reads
    them; ``cover``, the maximal cliques as bitmasks, when it reads them,
    and ``gone`` and ``new``, the cliques it lost and gained since the last
    read piece: ``gone`` are the kept cliques that a vertex of T, the
    endpoints of the edges added since, now extends, and ``new`` are the
    maximal cliques that hold one of those edges."""

    n: int
    nbrs: list[int]
    twins: _TwinState | None
    cover: Collection[int] | None
    gone: Collection[int] = ()
    new: Collection[int] = ()


Pairs = list[tuple[int, int]]


@dataclass(frozen=True)
class _Reader:
    """A rule's weights read off the state a sweep keeps: ``pairs`` maps a
    ``_Kept`` to one integer (numerator, denominator) pair per vertex;
    ``classes`` is the ``_TwinState`` type that keeps the duplicate classes
    when it reads them, and ``cliques`` says whether it reads the clique
    cover.  ``sweep``, when given, makes the pairs function of one sweep of
    n vertices, which keeps sums across the sweep's read pieces
    (``_family_sweep``, ``_mccp_sweep``); ``pairs`` stays a pure function
    of the ``_Kept``."""

    pairs: Callable[[_Kept], Pairs]
    classes: type[_TwinState] | None = None
    cliques: bool = False
    sweep: Callable[[int], Callable[[_Kept], Pairs]] | None = None


def _class_uniform_pairs(kept: _Kept) -> Pairs:
    """w(x) = 1 / (k * |[x]|) with k the number of duplicate classes."""
    twins = kept.twins
    k, size = len(twins.by_key), twins.size
    return [(1, k * size[c]) for c in twins.cid]


def _checked(total: int, common: int) -> None:
    """The check a ``WeightVector`` makes in the per-event loop, as one
    integer sum, in float mode too."""
    if total != common:
        raise ValueError(f"weights read off the sweep sum to {Fraction(total, common)}, expected 1")


def _smoothing(base: Callable[[_Kept], Pairs]) -> Callable[[_Kept], Pairs]:
    """``smooth`` over the pairs function ``base``; the smoothed pairs
    share one denominator, so their sum is checked in integers."""

    def pairs(kept: _Kept) -> Pairs:
        out = _smooth_pairs(base(kept), kept.nbrs)
        _checked(sum(t for t, _ in out), out[0][1])
        return out

    return pairs


def _smoothed(base: _Reader) -> _Reader:
    """``smooth`` over the reader ``base``, in a sweep over ``base``'s
    sweep pairs when it keeps sums."""
    sweep = base.sweep and (lambda n: _smoothing(base.sweep(n)))
    return _Reader(_smoothing(base.pairs), base.classes, base.cliques, sweep)


class _KeyLog(_TwinState):
    """The duplicate classes of a sweep and a log of the class keys (the
    closed neighbourhoods N[C] of the classes C) that ``_move`` retired and
    created since the last read; the initial singleton keys start the log.

    smooth:cu spreads the class-uniform weight 1 / (k * |C|) of each member
    of a class C over the |N[C]| vertices of its key, so x gets
    1 / (k * |N[C]|) from each key that holds it: smooth:cu is the average
    of the uniform weights on the keys, as mcca is on the maximal cliques.
    """

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.gone, self.new = [], list(self.key)

    def _move(self, w: int) -> None:
        a, closed = self.cid[w], self.masks[w] | 1 << w
        if self.size[a] == 1:  # a's key is retired (or replaced by closed)
            self.gone.append(self.key[a])
        if closed not in self.by_key:
            self.new.append(closed)
        super()._move(w)

    def sets(self):
        """The live keys, and those gone and new since the last read, which
        empties the log."""
        gone, new, self.gone, self.new = self.gone, self.new, [], []
        return self.by_key, gone, new


def _family_sweep(n: int, sets: Callable[[_Kept], tuple]) -> Callable[[_Kept], Pairs]:
    """The average of the uniform weights on a family of vertex sets (the
    cliques for mcca, the class keys for smooth:cu), from sums kept across
    a sweep: nums[v] sums L / |S| over the sets S that hold v, with L the
    lcm of the set sizes seen, which only grows (nums are scaled when it
    does).  ``sets`` gives the live sets and those gone and new since the
    last read, which adds the new sets' terms and takes off the gone ones',
    or rebuilds when more sets changed than are live.  Each set adds L."""
    nums, lcm = [0] * n, 1

    def pairs(kept: _Kept) -> Pairs:
        nonlocal nums, lcm
        live, gone, new = sets(kept)
        if len(gone) + len(new) > len(live):
            nums, lcm, gone, new = [0] * n, 1, (), live
        grown = math.lcm(lcm, *{c.bit_count() for c in new})
        if grown != lcm:
            nums, lcm = [t * (grown // lcm) for t in nums], grown
        for sign, family in ((-1, gone), (1, new)):
            for c in family:
                share = sign * (lcm // c.bit_count())
                while c:
                    low = c & -c
                    nums[low.bit_length() - 1] += share
                    c ^= low
        den = len(live) * lcm
        _checked(sum(nums), den)
        return [(t, den) for t in nums]

    return pairs


def _mccp_sweep(n: int) -> Callable[[_Kept], Pairs]:
    """``_mccp_pairs`` of the cover a sweep keeps, from state kept across
    it: each vertex's membership count m_v and cliques, each clique's
    inverse participation 1 / P_C = 1 / (sum over u in C of 1 / m_u) as a
    reduced pair, and each vertex's T_v / D_v = sum of 1 / P_C over its
    cliques, so that w(v) = T_v / (#cliques * m_v * D_v).

    A read piece recomputes 1 / P_C for the cliques that meet a gone or new
    one, and T_v / D_v for their vertices.  When those are more than half
    the vertices, it sums every T_v over one common D, as ``_mccp_pairs``
    does; when more cliques changed than the cover holds, it starts again
    from the cover.
    """
    member, held = [0] * n, [set() for _ in range(n)]
    members: dict[int, list[int]] = {}  # the vertices of each clique
    inverse: dict[int, tuple[int, int]] = {}
    sums = [(0, 1)] * n

    def pairs(kept: _Kept) -> Pairs:
        cover, gone, new = kept.cover, kept.gone, kept.new
        if len(gone) + len(new) > len(cover):
            member[:] = [0] * n
            for cliques in held:
                cliques.clear()
            members.clear()
            inverse.clear()
            gone, new = (), cover
        touched = 0
        for c in gone:
            touched |= c
            del inverse[c]
            for v in members.pop(c):
                member[v] -= 1
                held[v].remove(c)
        for c in new:
            touched |= c
            members[c] = vs = list(_bits(c))
            for v in vs:
                member[v] += 1
                held[v].add(c)
        dropped = set().union(*map(held.__getitem__, _bits(touched)))
        m_lcm = math.lcm(*set(member))
        dirty = set()
        for c in dropped:
            vs = members[c]
            dirty.update(vs)
            s = sum(map(m_lcm.__floordiv__, map(member.__getitem__, vs)))
            g = math.gcd(s, m_lcm)
            inverse[c] = (m_lcm // g, s // g)
        if 2 * len(dirty) > n:
            common = math.lcm(*{b for _, b in inverse.values()})
            totals = [0] * n
            for c in cover:
                a, b = inverse[c]
                share = a * (common // b)
                for v in members[c]:
                    totals[v] += share
            sums[:] = [(t, common) for t in totals]
        else:
            for v in dirty:
                terms = list(map(inverse.__getitem__, held[v]))
                d = math.lcm(*{b for _, b in terms})
                sums[v] = (sum(a * (d // b) for a, b in terms), d)
        count = len(cover)
        return [(t, count * m * d) for (t, d), m in zip(sums, member)]

    return pairs


_CLASS_UNIFORM = _Reader(_class_uniform_pairs, classes=_TwinState)
_SMOOTH_CLASS_UNIFORM = _Reader(_smoothing(_class_uniform_pairs), classes=_KeyLog,
                                sweep=lambda n: _family_sweep(n, lambda kept: kept.twins.sets()))
_MCCA = _Reader(lambda kept: _mcca_pairs(kept.cover, kept.n), cliques=True,
                sweep=lambda n: _family_sweep(n, lambda kept: (kept.cover, kept.gone, kept.new)))
_MCCP = _Reader(lambda kept: _mccp_pairs(kept.cover, _membership(kept.cover, kept.n)),
                cliques=True, sweep=_mccp_sweep)


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
    if reader is _CLASS_UNIFORM:
        return _SMOOTH_CLASS_UNIFORM
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
    when it reads that, as a set of bitmasks.  After edges are
    added, with T their endpoints, a maximal clique that misses T is still
    maximal: a vertex that could extend it would have gained an edge into
    it, so it would be in T.  A kept clique C that meets T is gone exactly
    when a vertex of T is a neighbour of all of C, and a maximal clique of
    the new graph is new exactly when it holds an added edge (one without
    was maximal before).  When at most as many edges were added as kept
    cliques meet T, Bron-Kerbosch lists only the cliques through each
    added edge uv, from {u, v} and N(u) & N(v), and the gone ones are
    found by that test.  Otherwise (at the first read, and at reads that
    add many edges at once) it lists every clique of the new graph that
    meets T, from T | N(T), and ``gone`` and ``new`` are the differences
    between those and the kept cliques that meet T.  The cover is only
    brought up to date at the pieces that are read, with T and the edges
    collected over the events since, so the ``cliques`` cap is checked on
    the same graphs as a rule call checks it.

    A reader with a ``sweep`` keeps sums across the read pieces instead of
    reading its pairs afresh at each: the sweep hands it ``gone`` (the
    retired cliques that were not listed again) and ``new`` (the listed
    cliques that were not retired), and the ``_TwinState`` subclass it names
    sees every class move (``_KeyLog`` logs the class keys).  So ``mcca``,
    ``mccp`` and ``smooth`` over the class-uniform rule cost O(changed
    clique slots or class keys) per read piece plus O(n) to read; the
    keepers start again from the live sets, or sum over the whole cover,
    when most of them changed (see ``_family_sweep``, ``_mccp_sweep``).
    """
    reader = read if isinstance(read, _Reader) else None
    twins = reader.classes(n) if reader and reader.classes else None
    nbrs = [0] * n if twins is None else twins.masks
    kept = _Kept(n, nbrs, twins, set() if reader and reader.cliques else None)
    pairs_of = reader and (reader.sweep(n) if reader.sweep else reader.pairs)
    cap = default_caps().cliques
    touched = (1 << n) - 1  # the first cover read is enumerated in full
    pending = None  # the edges added since the last cover read, after the first
    for pairs, increment in events:
        if twins is not None:
            twins.add(pairs)
        for u, v in pairs:
            if twins is None:
                nbrs[u] |= 1 << v
                nbrs[v] |= 1 << u
            touched |= 1 << u | 1 << v
        if pending is not None:
            pending += pairs
        if increment == 0:
            continue
        if reader is None:
            weights = read(Graph._trusted(n, tuple(nbrs), labels))
            yield (weights if exact else weights.as_floats()), increment
            continue
        if kept.cover is not None:
            hit = [c for c in kept.cover if c & touched]
            if pending is not None and len(pending) <= len(hit):
                new = _maximal_clique_masks(nbrs, cap, edges=pending)
                gone = []
                for c in hit:  # gone when a vertex of T is a neighbour of all of c
                    rest = touched & ~c
                    while rest:
                        low = rest & -rest
                        if not c & ~nbrs[low.bit_length() - 1]:
                            gone.append(c)
                            break
                        rest ^= low
            else:
                fresh = _maximal_clique_masks(nbrs, cap, touched)
                retired = set(hit)
                gone, new = retired.difference(fresh), set(fresh).difference(retired)
            kept.cover.difference_update(gone)
            kept.cover.update(new)
            if len(kept.cover) > cap:
                raise CapExceeded("maximal-clique enumeration", "cliques", cap)
            kept.gone, kept.new = gone, new
            touched, pending = 0, []
        weights = pairs_of(kept)
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
