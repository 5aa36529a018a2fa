"""Vertex-removal sharing coefficients for graph rules, and their axioms.

Removing a vertex x from a graph frees its mass; a rule redistributes that
mass among the survivors.  The redistribution splits into a multiplicative
rescaling (read off far from x, where locality pins the weights) and
per-vertex shifts chi(x, y) near x.  Everything here runs in exact
arithmetic, integers over common denominators, because the axioms are sign
conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .filtration import Graph, _squeeze, _TwinState
from .rules import Rule, maximal_cliques
from .weighting import _Kept, _pairs_reader

__all__ = [
    "InconsistentRescaling",
    "RescaleReport",
    "SharingRow",
    "AxiomReport",
    "sharing_row",
    "sharing_rows",
    "eta",
    "chi_graph",
    "private_graph",
    "audit_axioms",
]


class InconsistentRescaling(ValueError):
    """Raised when a rule fails the multiplicative-rescaling axiom at x,
    which leaves the sharing coefficients undefined."""


@dataclass(frozen=True)
class RescaleReport:
    """Rescaling factor observed outside N[x] after removing x.

    ``eta`` is None when the non-neighbour ratios disagree (the rule breaks
    the rescaling axiom at x); ``witness`` then names two non-neighbours
    with different ratios.  When N[x] covers the whole graph the factor is 0
    by convention (nothing is pinned, nothing needs rescaling).
    """

    x: int
    eta: Fraction | None
    consistent: bool
    witness: tuple[int, int] | None = None


@dataclass(frozen=True)
class SharingRow:
    """Everything one removal of x defines.

    ``report`` is the rescaling read off outside N[x]; it is None when a
    non-neighbour has weight 0, so no ratio exists.  When the rescaling is
    consistent and its factor 1 + eta is not 0, ``chi`` maps every y != x
    to chi(x, y) and ``private`` is chi(x, x); otherwise both are None and
    ``undefined`` says why.
    """

    report: RescaleReport | None
    chi: dict[int, Fraction] | None = None
    private: Fraction | None = None
    undefined: str | None = None

    def require(self) -> "SharingRow":
        """This row, or InconsistentRescaling when chi is undefined at x."""
        if self.undefined is not None:
            raise InconsistentRescaling(self.undefined)
        return self


def sharing_row(graph: Graph, rule: Rule, x: int | str) -> SharingRow:
    """The row of x: eta, the chi row and the private weight, from w(G) and
    w(G - x) (see ``sharing_rows``).

    The row identity w(x) = chi(x, x) + sum over y != x of chi(x, y) is an
    algebraic consequence of normalisation and is re-derived exactly
    whenever w(G) is rational (float rules sum to 1 only within 1e-12).
    """
    x = graph.index(x)
    return _rows(graph, rule, [x])[0]


def sharing_rows(graph: Graph, rule: Rule) -> list[SharingRow]:
    """The row of every vertex, indexed by vertex: w(G) and each w(G - x)
    read off G's cover or classes, or one rule call for w(G) and one per
    removal (see ``_weights``)."""
    return _rows(graph, rule, range(graph.n))


def _rows(graph: Graph, rule: Rule, xs) -> list[SharingRow]:
    """The rows of the vertices ``xs``.

    Everything runs in integers: w(G) is numerators b over a common
    denominator B, and each w(G - x) numerators a over a common denominator
    A.  With (P, Q) = (b_o, a_o) at the first non-neighbour o of x, or
    (B, A) when N[x] covers everything, the scale 1 + eta is
    Q*B / (P*A): a non-neighbour z rescales consistently iff
    a_z*P == Q*b_z, chi(x, y) = (a_y*P - b_y*Q) / (Q*B) and the private
    weight is (Q*B - P*A) / (Q*B).  Only the values a row returns become
    ``Fraction``s.
    """
    if graph.n < 2:
        raise ValueError("cannot remove a vertex from a single-vertex graph")
    (b, B), exact, removed = _weights(graph, rule)
    return [_row(graph, x, b, B, exact, *removed(x)) for x in xs]


def _ratios(weights) -> list[tuple[int, int]]:
    """The exact (numerator, denominator) of each weight, converting each
    distinct value object once; a float is the dyadic rational it holds."""
    conv = {key: Fraction(v).as_integer_ratio() for key, v in weights.distinct.items()}
    return list(map(conv.__getitem__, map(id, weights.values)))


def _over_common(pairs) -> tuple[list[int], int]:
    """The numerators of the (p, q) ``pairs`` over the lcm L of the q, and L."""
    common = math.lcm(*{q for _, q in pairs})
    scale = {q: common // q for _, q in pairs}
    return [p * scale[q] for p, q in pairs], common


def _removal_cover(cover: list[int], x: int) -> list[int]:
    """The maximal cliques of G - x, as masks over its vertices, from the
    maximal cliques ``cover`` of G.

    A maximal clique of G - x that is maximal in G misses x.  Any other is
    C - {x} for the one maximal clique C of G that adds x to it, and C - {x}
    is maximal in G - x iff no vertex but x extends it, that is iff it lies
    in no maximal clique of G that misses x.  C -> C - {x} is one-to-one, so
    G - x never has more maximal cliques than G, and the ``cliques`` cap
    checked on G covers every removal.
    """
    bit = 1 << x
    missing = [c for c in cover if not c & bit]
    out = [_squeeze(c, x) for c in missing]
    for c in cover:
        rest = c ^ bit
        if c & bit and rest and not any(rest | d == d for d in missing):
            out.append(_squeeze(rest, x))
    return out


def _weights(graph: Graph, rule: Rule):
    """w(G) as (numerators, common denominator), whether it is exact, and
    the function that maps x to w(G - x) the same way, one numerator per
    vertex of G - x.

    A rule that ``_pairs_reader`` knows is read off the state of G and of
    each G - x, with no rule call and no ``remove_vertex``: the closed
    neighbourhoods, the duplicate classes grouped by them, and the maximal
    cliques of G, enumerated once, with those of each G - x derived from
    them (``_removal_cover``).  The weights read must sum to 1 exactly, the
    check a ``WeightVector`` makes.  Every other rule is called on G and on
    each ``graph.remove_vertex(x)``.
    """
    reader = _pairs_reader(rule)
    if reader is None:
        weights = rule(graph)
        return (_over_common(_ratios(weights)), weights.exact,
                lambda x: _over_common(_ratios(rule(graph.remove_vertex(x)))))

    def read(nbrs: list[int], cover: list[int] | None) -> tuple[list[int], int]:
        twins = _TwinState.of(nbrs) if reader.classes else None
        a, common = _over_common(reader.pairs(_Kept(len(nbrs), nbrs, twins, cover)))
        if sum(a) != common:
            raise ValueError(f"exact weights sum to {Fraction(sum(a), common)}, expected 1")
        return a, common

    cover = list(maximal_cliques(graph).masks) if reader.cliques else None

    def removed(x: int) -> tuple[list[int], int]:
        nbrs = [_squeeze(m, x) for v, m in enumerate(graph.nbrs) if v != x]
        return read(nbrs, _removal_cover(cover, x) if cover is not None else None)

    return read(list(graph.nbrs), cover), True, removed


def _row(
    graph: Graph, x: int, b: list[int], B: int, exact: bool, a: list[int], A: int
) -> SharingRow:
    """The row of x from w(G) = b / B and w(G - x) = a / A; see ``_rows``."""
    a = [*a[:x], 0, *a[x:]]  # indexed by G's vertices; x's entry is never read
    labels = graph.labels
    near = graph.closed(x)
    outside = [z for z in range(graph.n) if not near >> z & 1]
    for z in outside:
        if b[z] == 0:
            return SharingRow(None, undefined=f"w(G)({labels[z]}) = 0; rescaling ratio undefined")
    P, Q = (b[outside[0]], a[outside[0]]) if outside else (B, A)
    for z in outside[1:]:
        if a[z] * P != Q * b[z]:
            return SharingRow(
                RescaleReport(x, None, False, witness=(outside[0], z)),
                undefined=(
                    f"rule rescales inconsistently when removing {labels[x]}: "
                    f"witness non-neighbours {labels[outside[0]]}, {labels[z]}"
                ),
            )
    if Q == 0:
        return SharingRow(
            RescaleReport(x, Fraction(-1), True),
            undefined=(
                f"removing {labels[x]} leaves weight 0 on non-neighbour "
                f"{labels[outside[0]]}: eta = -1, chi undefined"
            ),
        )

    den = Q * B
    nums = {y: a[y] * P - b[y] * Q for y in range(graph.n) if y != x}
    for z in outside:
        if nums[z]:  # pragma: no cover - guard
            raise RuntimeError(
                f"chi({labels[x]},{labels[z]}) = {Fraction(nums[z], den)} != 0 outside N[x]"
            )
    private = den - P * A
    if exact and b[x] * Q != private + sum(nums.values()):  # pragma: no cover - guard
        raise RuntimeError(
            f"row identity failed at {labels[x]}: w = {Fraction(b[x], B)} but "
            f"chi(x,x) + row = {Fraction(private + sum(nums.values()), den)}"
        )
    made = {t: Fraction(t, den) for t in set(nums.values())}
    chi = {y: made[t] for y, t in nums.items()}
    return SharingRow(
        RescaleReport(x, Fraction(private, P * A), True), chi, Fraction(private, den)
    )


def eta(graph: Graph, rule: Rule, x: int | str) -> RescaleReport:
    """Rescaling factor: w(G-x)(z)/w(G)(z) - 1 for z outside N[x], with all
    eligible z checked for agreement."""
    row = sharing_row(graph, rule, x)
    if row.report is None:
        raise InconsistentRescaling(row.undefined)
    return row.report


def chi_graph(graph: Graph, rule: Rule, x: int | str, y: int | str) -> Fraction:
    """Sharing coefficient chi(x, y) = w(G-x)(y)/(1 + eta) - w(G)(y).

    Requires the rescaling at x to be consistent; by construction the value
    is 0 for every y outside N[x], which is re-checked.
    """
    x, y = graph.index(x), graph.index(y)
    if x == y:
        raise ValueError("use private_graph for the diagonal")
    return sharing_row(graph, rule, x).require().chi[y]


def private_graph(graph: Graph, rule: Rule, x: int | str) -> Fraction:
    """Private weight chi(x, x) = eta/(1 + eta)."""
    return sharing_row(graph, rule, x).require().private


@dataclass
class AxiomReport:
    """Outcome of the four sharing axioms on one graph and rule.

    ``passed[k]`` covers axiom k; witnesses hold up to ``max_witnesses``
    labelled counterexamples each.  Axioms 2-4 are only evaluated at
    vertices where chi is defined (they presuppose it); the others are
    ``skipped_vertices``.
    """

    passed: dict[int, bool] = field(default_factory=dict)
    witnesses: dict[int, list] = field(default_factory=dict)
    skipped_vertices: list[int] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


def audit_axioms(
    graph: Graph,
    rule: Rule,
    axioms: tuple[int, ...] = (1, 2, 3, 4),
    max_witnesses: int = 10,
) -> AxiomReport:
    """Check multiplicative rescaling, non-negative sharing, sharing
    symmetry and sharing domination, with exact witnesses."""
    report = AxiomReport(
        passed={k: True for k in axioms}, witnesses={k: [] for k in axioms}
    )
    n = graph.n
    rows = sharing_rows(graph, rule)
    for row in rows:
        if row.report is None:
            raise InconsistentRescaling(row.undefined)
    consistent = {x for x, row in enumerate(rows) if row.chi is not None}
    report.skipped_vertices = sorted(set(range(n)) - consistent)

    def note(axiom: int, witness) -> None:
        report.passed[axiom] = False
        if len(report.witnesses[axiom]) < max_witnesses:
            report.witnesses[axiom].append(witness)

    if 1 in axioms:
        for x in range(n):
            rep = rows[x].report
            if not rep.consistent:
                u, v = rep.witness
                note(1, (graph.labels[x], graph.labels[u], graph.labels[v]))

    chi = {
        (x, y): value
        for x in sorted(consistent)
        for y, value in rows[x].chi.items()
    }

    if 2 in axioms:
        for (x, y), value in sorted(chi.items()):
            if value < 0:
                note(2, (graph.labels[x], graph.labels[y], value))

    if 3 in axioms:
        for x in sorted(consistent):
            for y in sorted(consistent):
                if x < y and chi[x, y] != chi[y, x]:
                    note(3, (graph.labels[x], graph.labels[y], chi[x, y], chi[y, x]))

    if 4 in axioms:
        for x in sorted(consistent):
            nx = graph.closed(x)
            for y in range(n):
                if y == x:
                    continue
                for z in range(n):
                    if z in (x, y):
                        continue
                    # y dominates z at x iff N[x] & N[z] is a subset of N[x] & N[y]
                    if nx & graph.closed(z) & ~graph.closed(y):
                        continue
                    if chi[x, y] < chi[x, z]:
                        note(
                            4,
                            (
                                graph.labels[x],
                                graph.labels[y],
                                graph.labels[z],
                                chi[x, y],
                                chi[x, z],
                            ),
                        )
    return report
