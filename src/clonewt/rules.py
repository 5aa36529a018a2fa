"""Graph weighting rules: closed-form rules, rule combinators, entropy rule.

A rule maps a graph to a probability vector over its vertices.  The
closed-form rules work in exact rational arithmetic end to end; the entropy
rule is a certified numerical optimisation and returns floats.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import optimize

from .caps import CapExceeded, default_caps
from .filtration import Graph, _bits, equivalence_classes, quotient

__all__ = [
    "WeightVector",
    "Rule",
    "w_uniform",
    "w_cu",
    "lift_quotient",
    "smooth",
    "w_degree",
    "CliqueCover",
    "maximal_cliques",
    "w_mcca",
    "w_mccp",
    "clique_partitions",
    "shannon_bits",
    "graph_entropy",
    "graph_entropy_certificate",
    "class_entropy",
    "w_entropy",
    "parse_rule",
    "registry_names",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class WeightVector:
    """A probability vector over labelled vertices.

    Rational-valued vectors must sum to exactly 1; float-valued vectors to
    within 1e-12.  Both non-negativity and normalisation are enforced at
    construction so downstream code can rely on them.
    """

    values: tuple
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.labels):
            raise ValueError("one weight per label required")
        if not self.values:
            raise ValueError("weight vector over an empty vertex set")
        if self.exact:
            # integer arithmetic over the lcm of the distinct denominators
            distinct = dict(zip(map(id, self.values), self.values))
            object.__setattr__(self, "distinct", distinct)
            if any(v.numerator < 0 for v in distinct.values()):
                raise ValueError(f"negative weight in {self.values}")
            common = math.lcm(*{v.denominator for v in distinct.values()})
            total = sum(
                distinct[key].numerator * (common // distinct[key].denominator) * k
                for key, k in Counter(map(id, self.values)).items()
            )
            if total != common:
                raise ValueError(
                    f"exact weights sum to {Fraction(total, common)}, expected 1"
                )
            return
        if any(v < 0 for v in self.values):
            raise ValueError(f"negative weight in {self.values}")
        total = sum(self.values)
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {float(total)!r}, expected 1 within 1e-12")

    @cached_property
    def distinct(self) -> dict[int, object]:
        """The distinct value objects, keyed by ``id``.  Rules share one
        value object per class, so this is usually far shorter than
        ``values``; equal values held by different objects stay separate.
        The exact check of ``__post_init__`` stores it as it goes."""
        return dict(zip(map(id, self.values), self.values))

    @property
    def exact(self) -> bool:
        return all(issubclass(t, (int, Fraction)) for t in set(map(type, self.values)))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, key: int | str):
        if isinstance(key, str):
            try:
                key = self.labels.index(key)
            except ValueError:
                raise KeyError(f"unknown label {key!r}") from None
        return self.values[key]

    def as_floats(self) -> tuple[float, ...]:
        """``float(v)`` of each weight, converting each distinct object once.
        A ``Fraction`` is converted as ``numerator / denominator``, which
        rounds as ``float(Fraction)`` does, without its method calls."""
        made = {key: v.numerator / v.denominator if isinstance(v, Fraction) else float(v)
                for key, v in self.distinct.items()}
        return tuple(map(made.__getitem__, map(id, self.values)))

    def as_dict(self) -> dict[str, object]:
        return dict(zip(self.labels, self.values))


def _shared_fractions(pairs) -> tuple[Fraction, ...]:
    """``Fraction(p, q)`` of each (p, q) pair, one object per distinct pair."""
    made: dict[tuple[int, int], Fraction] = {}
    out = []
    for pair in pairs:
        f = made.get(pair)
        if f is None:
            f = made[pair] = Fraction(*pair)
        out.append(f)
    return tuple(out)


Rule = Callable[[Graph], WeightVector]


def _require_nonempty(graph: Graph) -> None:
    if graph.n == 0:
        raise ValueError("rules are not defined on the empty graph")


def w_uniform(graph: Graph) -> WeightVector:
    """Uniform mass 1/|V| — the clone-sensitive baseline."""
    _require_nonempty(graph)
    share = Fraction(1, graph.n)
    return WeightVector((share,) * graph.n, graph.labels)


def w_cu(graph: Graph) -> WeightVector:
    """Class-uniform rule: split mass evenly over duplicate classes, then
    evenly inside each class, i.e. w(x) = 1 / (#classes * |class(x)|)."""
    _require_nonempty(graph)
    part = equivalence_classes(graph)
    k, size_of = len(part), part.size_of
    share = {size: Fraction(1, k * size) for size in set(size_of)}
    return WeightVector(tuple(map(share.__getitem__, size_of)), graph.labels)


def lift_quotient(base: Rule) -> Rule:
    """Lift a rule through the duplicate-class quotient:
    w~(x) = base(G/~)([x]) / |[x]|, one division per distinct
    (base value, class size) pair.  The lifted rule's ``lifted`` attribute
    is ``base``."""

    def rule(graph: Graph) -> WeightVector:
        _require_nonempty(graph)
        q = quotient(graph)
        base_values = base(q.graph).values
        keys = list(zip(map(id, base_values), q.partition.sizes))
        made = {key: v / key[1] for key, v in dict(zip(keys, base_values)).items()}
        shares = list(map(made.__getitem__, keys))
        return WeightVector(
            tuple(map(shares.__getitem__, q.partition.class_of)), graph.labels
        )

    rule.__name__ = f"lift_{getattr(base, '__name__', 'rule')}"
    rule.lifted = base
    return rule


def _closed_sums(terms: Sequence, nbrs: Sequence[int], zero) -> list:
    """For each vertex x, the sum of ``terms[y]`` over y in N[x], added in
    vertex order, once per distinct closed neighbourhood (true twins share
    theirs)."""
    sums: dict[int, object] = {}
    values = []
    for x, mask in enumerate(nbrs):
        closed = mask | (1 << x)
        total = sums.get(closed)
        if total is None:
            total, rest = zero, closed
            while rest:
                low = rest & -rest
                total += terms[low.bit_length() - 1]
                rest ^= low
            sums[closed] = total
        values.append(total)
    return values


def _smooth_pairs(
    base_pairs: Sequence[tuple[int, int]], nbrs: Sequence[int]
) -> list[tuple[int, int]]:
    """``smooth`` of the weights ``base_pairs``, one (numerator,
    denominator) pair per vertex of the graph with open neighbourhoods
    ``nbrs``, as (t_x, L) pairs over one common denominator L.

    Vertex y spreads p / (q * (1 + deg y)); L is the lcm of those
    denominators over the distinct (pair, degree) keys, and t_x sums the
    spreads over N[x] scaled to L.  Mass is conserved, so the t_x sum to L
    when the base pairs sum to 1.
    """
    keys = list(zip(base_pairs, map(int.bit_count, nbrs)))
    spreads = {key: key[0][1] * (1 + key[1]) for key in set(keys)}
    common = math.lcm(*set(spreads.values()))
    scaled = {key: key[0][0] * (common // q) for key, q in spreads.items()}
    return [(t, common) for t in _closed_sums(list(map(scaled.__getitem__, keys)), nbrs, 0)]


def smooth(base: Rule) -> Rule:
    """One step of the lazy random walk applied to a rule's output:
    w^(x) = sum over y in N[x] of base(y) / (1 + deg(y)).

    Each vertex y spreads its mass evenly over its closed neighborhood, so
    total mass is conserved.  Exact bases are summed as integers over one
    common denominator (``_smooth_pairs``, which the weigh sweep shares);
    float bases by the same float additions, in the same order, as a
    per-vertex loop, with the spread computed once per (base value, degree).
    The smoothed rule's ``smoothed`` attribute is ``base``.
    """

    def rule(graph: Graph) -> WeightVector:
        _require_nonempty(graph)
        base_w = base(graph)
        if base_w.exact:
            conv = {key: (v.numerator, v.denominator) for key, v in base_w.distinct.items()}
            pairs = _smooth_pairs(list(map(conv.__getitem__, map(id, base_w.values))), graph.nbrs)
            return WeightVector(_shared_fractions(pairs), graph.labels)
        made: dict[tuple[int, int], float] = {}
        spread = []
        for v, mask in zip(base_w.values, graph.nbrs):
            key = (id(v), mask.bit_count())
            s = made.get(key)
            if s is None:
                s = made[key] = v / (1 + key[1])
            spread.append(s)
        return WeightVector(tuple(_closed_sums(spread, graph.nbrs, 0.0)), graph.labels)

    rule.__name__ = f"smooth_{getattr(base, '__name__', 'rule')}"
    rule.smoothed = base
    return rule


def w_degree(graph: Graph) -> WeightVector:
    """Degree-proportional contrast rule, w(x) proportional to 1 + deg(x).

    Deliberately not clone-robust; the audit harness uses it to prove its
    own sensitivity.
    """
    _require_nonempty(graph)
    total = sum(1 + graph.degree(v) for v in range(graph.n))
    values = tuple(Fraction(1 + graph.degree(v), total) for v in range(graph.n))
    return WeightVector(values, graph.labels)


# ---------------------------------------------------------------------------
# Maximal-clique rules


@dataclass(frozen=True)
class CliqueCover:
    """All maximal cliques of a graph plus the derived per-vertex counts.

    ``masks`` holds the cliques as vertex bitmasks, in enumeration order;
    ``cliques`` the same cliques as sorted vertex tuples in lexicographic
    order (built when read).  ``membership[v]`` is the number of maximal
    cliques containing v; ``participation[k]`` is the sum over the members
    of ``cliques[k]`` of 1/membership, the total "attention" that clique
    receives from its vertices (computed when read).
    """

    masks: tuple[int, ...]
    membership: tuple[int, ...]

    @cached_property
    def cliques(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(tuple(_bits(m)) for m in self.masks))

    @cached_property
    def participation(self) -> tuple[Fraction, ...]:
        return tuple(
            sum(Fraction(1, self.membership[v]) for v in clique) for clique in self.cliques
        )


def _maximal_clique_masks(nbrs: Sequence[int], cap: int, through: int | None = None) -> list[int]:
    """Bron-Kerbosch with Tomita pivoting over bitmask vertex sets.

    The pivot is the vertex of P | X with the most neighbours in P, ties to
    the lowest index; candidates P minus N(pivot) are expanded in ascending
    order.  With a vertex mask ``through`` = T, only the maximal cliques
    that meet T are listed: each lies in T | N(T), which a clique meeting T
    cannot be extended out of, and a branch whose R and P both miss T is
    cut.  The default, every vertex, lists them all.
    """
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not (r | p) & through:
            return
        if not p:
            if not x:
                out.append(r)
                if len(out) > cap:
                    raise CapExceeded("maximal-clique enumeration", "cliques", cap)
            return
        # no vertex has more than |P| neighbours in P, so stop at the first that does
        most, pivot, reach, rest = -1, 0, p.bit_count(), p | x
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            c = (p & nbrs[v]).bit_count()
            if c > most:
                most, pivot = c, v
                if c == reach:
                    break
            rest ^= low
        cand = p & ~nbrs[pivot]
        while cand:
            low = cand & -cand
            nv = nbrs[low.bit_length() - 1]
            expand(r | low, p & nv, x & nv)
            p ^= low
            x |= low
            cand ^= low

    if through is None:
        through = (1 << len(nbrs)) - 1
    p, rest = through, through
    while rest:
        low = rest & -rest
        p |= nbrs[low.bit_length() - 1]
        rest ^= low
    expand(0, p, 0)
    return out


def _membership(masks: Sequence[int], n: int) -> list[int]:
    """The number of masks that hold each of the n vertices."""
    membership = [0] * n
    for m in masks:
        while m:
            low = m & -m
            membership[low.bit_length() - 1] += 1
            m ^= low
    return membership


def maximal_cliques(graph: Graph, cap: int | None = None) -> CliqueCover:
    _require_nonempty(graph)
    limit = cap if cap is not None else default_caps().cliques
    masks = _maximal_clique_masks(graph.nbrs, limit)
    return CliqueCover(tuple(masks), tuple(_membership(masks, graph.n)))


def _mcca_pairs(masks: Sequence[int], n: int) -> list[tuple[int, int]]:
    """``w_mcca`` of the cover ``masks`` of an n-vertex graph, as one
    (numerator, denominator) pair per vertex."""
    sizes = list(map(int.bit_count, masks))
    common = math.lcm(*set(sizes))
    nums = [0] * n
    for m, size in zip(masks, sizes):
        share = common // size
        while m:
            low = m & -m
            nums[low.bit_length() - 1] += share
            m ^= low
    den = len(masks) * common
    return [(t, den) for t in nums]


def _mccp_pairs(masks: Sequence[int], membership: Sequence[int]) -> list[tuple[int, int]]:
    """``w_mccp`` of the cover ``masks`` with the given per-vertex
    membership counts, as one (numerator, denominator) pair per vertex."""
    m_lcm = math.lcm(*set(membership))
    inverse = [m_lcm // m for m in membership]
    sums = []
    for m in masks:
        s = 0
        while m:
            low = m & -m
            s += inverse[low.bit_length() - 1]
            m ^= low
        sums.append(s)
    d_lcm = math.lcm(*set(sums))
    totals = [0] * len(membership)
    for m, s in zip(masks, sums):
        share = d_lcm // s
        while m:
            low = m & -m
            totals[low.bit_length() - 1] += share
            m ^= low
    scale = len(masks) * d_lcm
    return [(m_lcm * t, scale * m) for t, m in zip(totals, membership)]


def w_mcca(graph: Graph, cap: int | None = None) -> WeightVector:
    """Maximal-clique averaging: each maximal clique holds mass 1/#cliques
    and splits it evenly among its members.

    Over L = lcm of the clique sizes, w(v) = (sum over C containing v of
    L/|C|) / (#cliques * L): integer sums, one ``Fraction`` per value.
    """
    masks = maximal_cliques(graph, cap).masks
    return WeightVector(_shared_fractions(_mcca_pairs(masks, graph.n)), graph.labels)


def w_mccp(graph: Graph, cap: int | None = None) -> WeightVector:
    """Maximal-clique proportional sharing: inside each clique, mass goes
    inversely to how many cliques a member belongs to, normalised by the
    clique's total participation.

    With M = lcm of the memberships m_u, clique C's participation is
    S_C / M for the integer S_C = sum over u in C of M/m_u.  Over
    D = lcm of the S_C, w(v) = M * T_v / (#cliques * m_v * D) where
    T_v = sum over C containing v of D/S_C: integer sums, one ``Fraction``
    per distinct (T_v, m_v).
    """
    cover = maximal_cliques(graph, cap)
    pairs = _mccp_pairs(cover.masks, cover.membership)
    return WeightVector(_shared_fractions(pairs), graph.labels)


# ---------------------------------------------------------------------------
# Clique partitions and the entropy rule


def clique_partitions(
    graph: Graph, cap: int | None = None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of V into cliques, deterministically ordered.

    The block containing the smallest unassigned vertex is grown in
    lexicographic order, so the all-singletons partition streams first and
    the overall order is stable across runs.
    """
    _require_nonempty(graph)
    limit = cap if cap is not None else default_caps().partition_vertices
    if graph.n > limit:
        raise CapExceeded(
            f"clique-partition enumeration on {graph.n} vertices",
            "partition_vertices",
            limit,
        )
    return _partition_stream(graph)


def _partition_stream(graph: Graph) -> Iterator[tuple[tuple[int, ...], ...]]:
    nbrs = graph.nbrs

    def blocks(prefix: list[int], cand: int) -> Iterator[list[int]]:
        yield prefix
        for u in _bits(cand):
            above = ~((1 << (u + 1)) - 1)
            yield from blocks(prefix + [u], cand & nbrs[u] & above)

    def rec(remaining: int, acc: list[tuple[int, ...]]) -> Iterator[tuple]:
        if not remaining:
            yield tuple(acc)
            return
        v = (remaining & -remaining).bit_length() - 1
        rest = remaining & ~(1 << v)
        for block in blocks([v], rest & nbrs[v]):
            mask = 0
            for u in block:
                mask |= 1 << u
            acc.append(tuple(block))
            yield from rec(remaining & ~mask, acc)
            acc.pop()

    yield from rec((1 << graph.n) - 1, [])


def shannon_bits(masses) -> float:
    """Shannon entropy in bits with the 0·log 0 = 0 convention."""
    h = 0.0
    for m in masses:
        m = float(m)
        if m > 0.0:
            h -= m * math.log2(m)
    return h


def graph_entropy(graph: Graph, pi, cap: int | None = None) -> float:
    """Clique-partition entropy: the minimum over partitions of V into
    cliques of the Shannon entropy of the block masses of pi."""
    return graph_entropy_certificate(graph, pi, cap)[0]


def graph_entropy_certificate(
    graph: Graph, pi, cap: int | None = None
) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """Graph entropy plus an attaining partition, by exhaustive enumeration."""
    masses = [float(v) for v in pi]
    if len(masses) != graph.n:
        raise ValueError(f"{len(masses)} masses for {graph.n} vertices")
    best = math.inf
    best_partition = None
    for partition in clique_partitions(graph, cap):
        h = shannon_bits(sum(masses[v] for v in block) for block in partition)
        if h < best - 1e-15:
            best = h
            best_partition = partition
    return best, best_partition


def class_entropy(graph: Graph, pi) -> float:
    """Shannon entropy of the duplicate-class masses of pi."""
    masses = [float(v) for v in pi]
    part = equivalence_classes(graph)
    return shannon_bits(sum(masses[v] for v in cls) for cls in part.classes)


def _class_mass_matrices(graph: Graph, cap: int | None) -> list[np.ndarray]:
    """Distinct block-aggregation matrices over class masses.

    Any clique partition's block masses, for a vector constant on duplicate
    classes, are a fixed linear image of the class masses; deduplicating the
    matrices collapses the enumeration hugely.  A matrix is keyed by its
    sorted rows of per-class vertex counts: entry (b, c) is count / |class c|,
    and within a column the class size is fixed, so counts sort and compare
    as the entries do.
    """
    part = equivalence_classes(graph)
    sizes = [len(cls) for cls in part.classes]
    seen: set[tuple] = set()
    mats: list[np.ndarray] = []
    for partition in clique_partitions(graph, cap):
        rows = []
        for block in partition:
            row = [0] * len(part.classes)
            for v in block:
                row[part.class_of[v]] += 1
            rows.append(tuple(row))
        key = tuple(sorted(rows))
        if key not in seen:
            seen.add(key)
            mats.append(np.array([[c / s for c, s in zip(row, sizes)] for row in key]))
    return mats


def _group_by_blocks(mats: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The matrices stacked by row (block) count: one ``(m_r, r, k)`` array
    per count r, with the positions of its matrices in ``mats``.

    Each entropy over a stack is then summed over exactly its r blocks, in
    the order one matrix at a time would sum them.  One zero-padded stack
    would not: numpy adds fewer than 8 terms one by one and 8 or more in
    interleaved partial sums, so padding moves the last bits of the
    entropies and of the weights.
    """
    by_rows: dict[int, list[int]] = {}
    for i, mat in enumerate(mats):
        by_rows.setdefault(len(mat), []).append(i)
    return [(np.array(idx), np.stack([mats[i] for i in idx])) for idx in by_rows.values()]


def _entropy_and_grad(masses: np.ndarray) -> tuple[float, np.ndarray]:
    clipped = np.maximum(masses, 1e-300)
    return float(-(clipped * np.log2(clipped)).sum()), -np.log2(clipped) - 1.0 / LN2


def _project_simplex(q: np.ndarray) -> np.ndarray:
    u = np.sort(q)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(q) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(q - theta, 0.0)


def w_entropy(
    graph: Graph,
    tol: float = 1e-8,
    max_iter: int | None = None,
    cap: int | None = None,
) -> WeightVector:
    """Entropy-maximising rule.

    Maximises graph entropy over the simplex, restricted to vectors uniform
    on duplicate classes (ties inside a class can always be flattened without
    losing graph entropy, and the Shannon tie-break demands it).  The
    lexicographic tie-breaking by class entropy is realised as a single
    concave objective Phi(q) + mu*H(q) with mu = tol, which perturbs the
    leading value by O(mu log mu) — inside the certified tolerance.  A
    projected supergradient ascent finds the region, an epigraph-form SLSQP
    polish finishes, and every candidate is re-certified against the exact
    partition enumeration before it may win.

    The partition entropies H(A q) are evaluated in one stacked pass per
    point: the distinct class-mass matrices A are built once and stacked by
    block count (see ``_group_by_blocks``), Phi(q) is the first minimum
    over them, and each ascent step evaluates Phi and H at its new point
    once, carrying both into the next step's supergradient.  The polish
    takes all the epigraph bounds H(A q) >= t as one vector-valued
    inequality constraint with its Jacobian matrix.  The arithmetic is that
    of a loop over the matrices one at a time, so the weights are the same
    bit for bit.
    """
    _require_nonempty(graph)
    budget = max_iter if max_iter is not None else default_caps().entropy_iterations
    if graph.n == 1:
        return WeightVector((1.0,), graph.labels)
    part = equivalence_classes(graph)
    k = len(part.classes)
    mats = _class_mass_matrices(graph, cap)
    groups = _group_by_blocks(mats)
    mu = tol

    def block_masses(q: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for idx, stack in groups:
            yield idx, stack, np.maximum(stack @ q, 1e-300)

    def entropies(q: np.ndarray) -> np.ndarray:
        """H(A q) for every matrix A, in the order of ``mats``."""
        h = np.empty(len(mats))
        for idx, _, c in block_masses(q):
            h[idx] = -(c * np.log2(c)).sum(axis=1)
        return h

    def phi(q: np.ndarray) -> tuple[float, np.ndarray]:
        i = int(np.argmin(entropies(q)))  # the first minimum
        h, grad = _entropy_and_grad(mats[i] @ q)
        return h, mats[i].T @ grad

    q = np.full(k, 1.0 / k)
    phi_q, grad_phi = phi(q)
    h_q, grad_h = _entropy_and_grad(q)
    best_q, best_val = q.copy(), phi_q + mu * h_q
    ascent_iters = min(2000, budget)
    stall_needed = min(200, max(10, ascent_iters // 4))
    stall = 0
    for it in range(1, ascent_iters + 1):
        q = _project_simplex(q + 0.25 / math.sqrt(it) * (grad_phi + mu * grad_h))
        phi_q, grad_phi = phi(q)
        h_q, grad_h = _entropy_and_grad(q)
        val = phi_q + mu * h_q
        if val > best_val + tol * 1e-3:
            best_val, best_q, stall = val, q.copy(), 0
        else:
            stall += 1
        if stall > stall_needed:
            break

    # Epigraph polish: maximise t + mu*H(q) s.t. H(A q) >= t for every matrix.
    def neg_obj(z: np.ndarray) -> float:
        h, _ = _entropy_and_grad(z[:k])
        return -(z[k] + mu * h)

    def neg_obj_grad(z: np.ndarray) -> np.ndarray:
        _, grad = _entropy_and_grad(z[:k])
        return np.concatenate([-mu * grad, [-1.0]])

    def epigraph_jac(z: np.ndarray) -> np.ndarray:
        """Row j: the gradient of H(A_j q) - t in z = (q, t)."""
        jac = np.full((len(mats), k + 1), -1.0)
        for idx, stack, c in block_masses(z[:k]):
            jac[idx, :k] = ((-np.log2(c) - 1.0 / LN2)[:, None, :] @ stack)[:, 0]
        return jac

    constraints = [
        {"type": "eq", "fun": lambda z: z[:k].sum() - 1.0,
         "jac": lambda z: np.concatenate([np.ones(k), [0.0]])},
        {"type": "ineq", "fun": lambda z: entropies(z[:k]) - z[k], "jac": epigraph_jac},
    ]
    z0 = np.concatenate([best_q, [phi(best_q)[0]]])
    res = optimize.minimize(
        neg_obj,
        z0,
        jac=neg_obj_grad,
        bounds=[(0.0, 1.0)] * k + [(0.0, math.log2(graph.n) + 1.0)],
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 400, "ftol": 1e-14},
    )
    if res.success:
        cand = np.maximum(res.x[:k], 0.0)
        s = cand.sum()
        if s > 0:
            cand /= s
            val = phi(cand)[0] + mu * _entropy_and_grad(cand)[0]
            if val > best_val:
                best_val, best_q = val, cand
    elif stall <= stall_needed:
        # neither the ascent stabilised nor the polish converged
        raise RuntimeError(
            f"entropy rule did not converge within the iteration budget {budget}"
        )

    values = []
    for v in range(graph.n):
        cls = part.class_of[v]
        values.append(max(float(best_q[cls]), 0.0) / len(part.classes[cls]))
    total = sum(values)
    values = tuple(v / total for v in values)
    return WeightVector(values, graph.labels)


# ---------------------------------------------------------------------------
# Rule registry

_ATOMIC: dict[str, Rule] = {
    "uniform": w_uniform,
    "cu": w_cu,
    "mcca": w_mcca,
    "mccp": w_mccp,
    "degree": w_degree,
    "entropy": lambda graph: w_entropy(graph),
}
_COMBINATORS: dict[str, Callable[[Rule], Rule]] = {
    "lift": lift_quotient,
    "smooth": smooth,
}

#: rules whose values are exact rationals (safe for exact integration)
_RATIONAL_ATOMS = {"uniform", "cu", "mcca", "mccp", "degree"}


def registry_names() -> list[str]:
    return sorted(_ATOMIC) + [f"{c}:<rule>" for c in sorted(_COMBINATORS)]


def parse_rule(spec: str) -> tuple[str, Rule]:
    """Resolve a rule expression like ``cu``, ``lift:uniform`` or
    ``smooth:cu`` into a canonical name and a callable."""
    tokens = spec.strip().split(":")
    name = tokens[-1]
    if name not in _ATOMIC:
        raise ValueError(
            f"unknown rule {name!r}; available: {', '.join(registry_names())}"
        )
    rule = _ATOMIC[name]
    for combinator in reversed(tokens[:-1]):
        if combinator not in _COMBINATORS:
            raise ValueError(
                f"unknown rule combinator {combinator!r}; "
                f"available: {', '.join(sorted(_COMBINATORS))}"
            )
        rule = _COMBINATORS[combinator](rule)
    canonical = ":".join(tokens)
    return canonical, rule


def rule_is_rational(spec: str) -> bool:
    """Whether a rule expression yields exact rational weights."""
    return spec.strip().split(":")[-1] in _RATIONAL_ATOMS
