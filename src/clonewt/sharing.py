"""Vertex-removal sharing coefficients for graph rules, and their axioms.

Removing a vertex x from a graph frees its mass; a rule redistributes that
mass among the survivors.  The redistribution splits into a multiplicative
rescaling (read off far from x, where locality pins the weights) and
per-vertex shifts chi(x, y) near x.  Everything here runs in exact rational
arithmetic because the axioms are sign conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .filtration import Graph
from .rules import Rule

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
    consistent, ``chi`` maps every y != x to chi(x, y) and ``private`` is
    chi(x, x); otherwise both are None and ``undefined`` says why.
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


def sharing_row(graph: Graph, rule: Rule, x: int | str, weights=None) -> SharingRow:
    """Remove x once and read off eta, the chi row and the private weight.

    ``weights`` is w(G) when the caller already holds it; otherwise the rule
    is evaluated here.  The row identity w(x) = chi(x, x) + sum over y != x
    of chi(x, y) is an algebraic consequence of normalisation and is
    re-derived exactly whenever w(G) is rational (float rules sum to 1 only
    within 1e-12).
    """
    if graph.n < 2:
        raise ValueError("cannot remove a vertex from a single-vertex graph")
    x = graph.index(x)
    if weights is None:
        weights = rule(graph)
    before = [Fraction(v) for v in weights]
    survivors = [v for v in range(graph.n) if v != x]
    w_after = rule(graph.remove_vertex(x))
    after = {z: Fraction(w_after[i]) for i, z in enumerate(survivors)}

    near = graph.closed(x)
    outside = [z for z in survivors if not near >> z & 1]
    scale = Fraction(1)
    if outside:
        for z in outside:
            if before[z] == 0:
                return SharingRow(
                    None, undefined=f"w(G)({graph.labels[z]}) = 0; rescaling ratio undefined"
                )
        first_z, scale = outside[0], after[outside[0]] / before[outside[0]]
        for z in outside[1:]:
            if after[z] / before[z] != scale:
                return SharingRow(
                    RescaleReport(x, None, False, witness=(first_z, z)),
                    undefined=(
                        f"rule rescales inconsistently when removing {graph.labels[x]}: "
                        f"witness non-neighbours {graph.labels[first_z]}, {graph.labels[z]}"
                    ),
                )

    eta_x = scale - 1
    chi = {}
    for y in survivors:
        value = after[y] / scale - before[y]
        if not near >> y & 1 and value != 0:  # pragma: no cover - guard
            raise RuntimeError(
                f"chi({graph.labels[x]},{graph.labels[y]}) = {value} != 0 outside N[x]"
            )
        chi[y] = value
    private = eta_x / (1 + eta_x)
    if weights.exact and before[x] != private + sum(chi.values()):  # pragma: no cover - guard
        raise RuntimeError(
            f"row identity failed at {graph.labels[x]}: "
            f"w = {before[x]} but chi(x,x) + row = {private + sum(chi.values())}"
        )
    return SharingRow(RescaleReport(x, eta_x, True), chi, private)


def sharing_rows(graph: Graph, rule: Rule) -> list[SharingRow]:
    """The row of every vertex, indexed by vertex: one evaluation of w(G)
    plus one removal per vertex."""
    weights = rule(graph)
    return [sharing_row(graph, rule, x, weights) for x in range(graph.n)]


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
    vertices where the rescaling is consistent (they presuppose chi).
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
