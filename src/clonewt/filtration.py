"""Threshold graphs of a pseudo-metric instance and their quotient structure.

For a radius r the neighborhood graph joins two elements iff their distance
is at most r.  Sweeping r produces a finite filtration; the distinct pairwise
distances are the only radii where the graph changes.  Vertices with equal
closed neighborhoods form the duplicate classes that the clone-robust rules
are built around.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from fractions import Fraction

import numpy as np

from .caps import CapExceeded, default_caps
from .metric import MetricInstance

__all__ = [
    "Graph",
    "Filtration",
    "ClassPartition",
    "QuotientGraph",
    "neighborhood_graph",
    "threshold_radii",
    "equivalence_classes",
    "quotient",
    "forbidden_intervals",
    "merge_intervals",
    "automorphisms",
    "orbits",
    "isometry_orbits",
]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _squeeze(mask: int, x: int) -> int:
    """``mask`` with bit x dropped and the bits above it moved down one: a
    vertex set of G as one of G - x, whose vertex y > x is G's y + 1."""
    low = (1 << x) - 1
    return mask & low | mask >> 1 & ~low


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1 with bitmask adjacency.

    ``nbrs[v]`` is the open neighborhood of v as a bitmask (no self-bit).
    Instances are hashable, so they can key caches and appear in test tables.
    """

    n: int
    nbrs: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nbrs) != self.n or len(self.labels) != self.n:
            raise ValueError("adjacency/label arity does not match vertex count")
        index = {lab: i for i, lab in enumerate(self.labels)}
        if len(index) < self.n:
            repeated = next(lab for i, lab in enumerate(self.labels) if index[lab] != i)
            raise ValueError(f"vertex label {repeated!r} appears more than once")
        for v, mask in enumerate(self.nbrs):
            if mask >> self.n:
                raise ValueError(f"neighbor mask of vertex {v} addresses missing vertices")
            if mask & (1 << v):
                raise ValueError(f"vertex {v} listed as its own neighbor")
            for u in _bits(mask):
                if not self.nbrs[u] & (1 << v):
                    raise ValueError(f"edge {v}-{u} is not symmetric")

    @staticmethod
    def _trusted(n: int, nbrs: tuple[int, ...], labels: tuple[str, ...]) -> "Graph":
        """A graph valid by construction (a sweep's graphs, vertex removals
        and quotients), built without ``__init__`` and the checks of
        ``__post_init__``."""
        graph = object.__new__(Graph)
        graph.__dict__.update(n=n, nbrs=nbrs, labels=labels)
        return graph

    @staticmethod
    def from_edges(
        n: int, edges: list[tuple[int, int]], labels: tuple[str, ...] | None = None
    ) -> "Graph":
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) names a vertex outside 0..{n - 1} (n={n})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        if labels is None:
            labels = tuple(f"v{i}" for i in range(n))
        return Graph(n, tuple(masks), labels)

    def index(self, vertex: int | str) -> int:
        if isinstance(vertex, str):
            try:
                return self.labels.index(vertex)
            except ValueError:
                raise KeyError(f"unknown vertex label {vertex!r}") from None
        if not 0 <= vertex < self.n:
            raise IndexError(f"vertex index {vertex} out of range for n={self.n}")
        return vertex

    def closed(self, v: int) -> int:
        return self.nbrs[v] | (1 << v)

    def degree(self, v: int) -> int:
        return self.nbrs[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.nbrs[u] & (1 << v))

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.nbrs[v]))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.neighbors(u) if u < v]

    def remove_vertex(self, v: int) -> "Graph":
        v = self.index(v)
        nbrs = tuple(_squeeze(mask, v) for u, mask in enumerate(self.nbrs) if u != v)
        labels = tuple(label for u, label in enumerate(self.labels) if u != v)
        return Graph._trusted(self.n - 1, nbrs, labels)


def neighborhood_graph(
    inst: MetricInstance, r: float | Fraction, *, exact: bool = False
) -> Graph:
    """Graph with an edge between x != y iff d(x, y) <= r (inclusive)."""
    n = inst.n
    r, d = (Fraction(r), inst.d_exact) if exact else (float(r), inst.dist.item)
    masks = [0] * n
    for i, j in combinations(range(n), 2):
        if d(i, j) <= r:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return Graph(n, tuple(masks), inst.labels)


def _prefilter_bound(inst: MetricInstance, alpha: Fraction) -> float:
    """A float radius that every pair with ``d_exact <= alpha`` stays within.

    Exact matrices round correctly to the float matrix, and rounding is
    monotone, so ``float(alpha)`` bounds them.  Distances computed from
    rounded coordinates can be off by a few units in the last place of the
    largest coordinate; the margin covers that with room to spare.
    """
    bound = float(alpha)
    scale = bound
    if inst.points is not None and inst.points.size:
        scale += float(np.abs(inst.points).max())
    return bound + scale * 2.0**-40


class Filtration:
    """The threshold events of an instance up to alpha.

    ``radii`` are the distinct pairwise distances in (0, alpha], ascending,
    ``pairs[k]`` the pairs (i < j) at distance ``radii[k]``, in (i, j)
    order, and ``base`` the pairs at distance 0, joined at every radius.
    Pairs farther apart than alpha are never listed.  Float mode compares
    the float matrix; exact mode decides membership and groups radii by
    ``d_exact`` and uses the float matrix only to skip pairs that cannot be
    within alpha.

    The near pairs are sorted once, stably, and cut where the sort key
    changes, so each radius's pairs are a slice of one list; ``<= alpha``
    is decided once per distinct radius.  The key is the float distance,
    also in exact mode without an exact matrix (``d_exact`` is then the
    float's exact value).  With one it is the exact distance as an integer
    over the lcm of the near pairs' denominators: equal exact distances
    can have unequal floats.
    """

    def __init__(
        self, inst: MetricInstance, alpha: float | Fraction, *, exact: bool = False
    ) -> None:
        n = inst.n
        self.n, self.labels, self.exact = n, inst.labels, exact
        a = Fraction(alpha) if exact else float(alpha)
        i, j = np.nonzero(inst.dist <= (_prefilter_bound(inst, a) if exact else a))
        upper = i < j
        i, j = i[upper], j[upper]  # the near pairs, in (i, j) order
        keys = inst.dist[i, j]
        keyed = exact and inst.dist_exact is not None
        if keyed:
            rows = inst.dist_exact
            radius = [rows[u][v] for u, v in zip(i.tolist(), j.tolist())]
            distinct = {id(r): r for r in radius}
            common = math.lcm(*{r.denominator for r in distinct.values()})
            scaled = {key: r.numerator * (common // r.denominator)
                      for key, r in distinct.items()}
            wide = max(scaled.values(), default=0) >= 2**63
            keys = np.array(list(map(scaled.__getitem__, map(id, radius))),
                            dtype=object if wide else np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()] if len(keys) else []
        if keyed:
            firsts = [radius[k] for k in order[starts].tolist()]
        else:
            firsts = keys[starts].tolist()
            if exact:
                firsts = list(map(Fraction, firsts))
        pairs = list(zip(i[order].tolist(), j[order].tolist()))
        groups = [pairs[lo:hi] for lo, hi in zip(starts, [*starts[1:], len(pairs)])]
        within = bisect_right(firsts, a)  # the radii ascend
        zero = within > 0 and firsts[0] == 0
        self.base: list[tuple[int, int]] = groups[0] if zero else []
        self.radii: list = firsts[zero:within]
        self.pairs: list[list[tuple[int, int]]] = groups[zero:within]

    def graphs(self):
        """Yield (r, G_r) for r = 0 and then for each radius in turn; the
        graph is constant from r up to the next radius."""
        n, labels, masks = self.n, self.labels, [0] * self.n
        zero = Fraction(0) if self.exact else 0.0
        for r, pairs in zip([zero, *self.radii], [self.base, *self.pairs]):
            for u, v in pairs:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            yield r, Graph._trusted(n, tuple(masks), labels)


class _TwinState:
    """A graph that only gains edges, and its duplicate classes.

    Vertices with equal closed neighbourhoods (true twins) share a class
    id.  Adding the edge uv changes only N[u] and N[v], so only u and v can
    change class: each leaves its class and joins the class keyed by its new
    closed neighbourhood, or a fresh one.  That is a few dict and list
    operations per endpoint.  Ids of emptied classes are reused, so ids stay
    below n.  A sweep that keeps the classes reads its graph off ``masks``
    and keeps no other adjacency.
    """

    def __init__(self, n: int) -> None:
        self.masks = [0] * n  # open neighbourhoods
        self.cid = list(range(n))  # class id of each vertex
        self.size = [1] * n  # members of each class id
        self.key = [1 << v for v in range(n)]  # closed neighbourhood of each class id
        self.by_key = {key: c for c, key in enumerate(self.key)}
        self.free: list[int] = []  # ids of empty classes

    @classmethod
    def of(cls, nbrs: list[int]) -> "_TwinState":
        """The state of the graph with open neighbourhoods ``nbrs``, built in
        one pass: each vertex joins the class keyed by its closed
        neighbourhood, and class ids follow their least members."""
        n = len(nbrs)
        state = cls(n)
        state.masks = list(nbrs)
        by_key = state.by_key = {}
        state.size = [0] * n
        for v, mask in enumerate(nbrs):
            c = state.cid[v] = by_key.setdefault(mask | 1 << v, len(by_key))
            state.size[c] += 1
        for key, c in by_key.items():
            state.key[c] = key
        state.free = list(range(n - 1, len(by_key) - 1, -1))
        return state

    def add(self, pairs: list[tuple[int, int]]) -> list[int]:
        """Add the edges of ``pairs``, none of them present yet, and return
        their endpoints: the only vertices that can have changed class.

        Each endpoint moves once, after all masks have changed.  A vertex
        that has not moved yet may sit in a class keyed by its old closed
        neighbourhood, but a moving vertex only joins the class keyed by its
        new one, so once all have moved every class holds exactly the
        vertices whose closed neighbourhood is its key.
        """
        masks = self.masks
        for u, v in pairs:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        moved = list(dict.fromkeys(chain.from_iterable(pairs)))
        for w in moved:
            self._move(w)
        return moved

    def _move(self, w: int) -> None:
        a = self.cid[w]
        new = self.masks[w] | 1 << w
        b = self.by_key.get(new)
        if self.size[a] == 1:
            del self.by_key[self.key[a]]
            if b is None:  # still a singleton: the class keeps its id
                self.key[a] = new
                self.by_key[new] = a
                return
            self.free.append(a)
        else:
            self.size[a] -= 1
        if b is None:
            b = self.free.pop()  # w left a class of 2+, so an id is free
            self.key[b] = new
            self.by_key[new] = b
            self.size[b] = 1
        else:
            self.size[b] += 1
        self.cid[w] = b


def threshold_radii(
    inst: MetricInstance, alpha: float | Fraction, *, exact: bool = False
) -> list:
    """Distinct pairwise distances in (0, alpha], ascending.

    These are exactly the radii at which the neighborhood graph changes
    within the integration window.
    """
    return Filtration(inst, alpha, exact=exact).radii


@dataclass(frozen=True)
class ClassPartition:
    """Duplicate classes of a graph: vertices with equal closed neighborhoods.

    Classes are ordered by their smallest vertex; each class induces a clique
    (equal closed neighborhoods containing both endpoints force the edge).
    ``count`` is the number of classes, ``sizes[c]`` the size of class c
    and ``size_of[v]`` that of v's class.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @cached_property
    def count(self) -> int:
        return len(self.classes)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.classes))

    @cached_property
    def size_of(self) -> tuple[int, ...]:
        return tuple(map(self.sizes.__getitem__, self.class_of))

    def members(self, v: int) -> tuple[int, ...]:
        return self.classes[self.class_of[v]]

    def __len__(self) -> int:
        return self.count


def equivalence_classes(graph: Graph) -> ClassPartition:
    """The duplicate classes of ``graph``, computed from its closed
    neighbourhoods."""
    by_closed: dict[int, list[int]] = {}
    for v, mask in enumerate(graph.nbrs):
        by_closed.setdefault(mask | 1 << v, []).append(v)
    # scanning vertices in order opens each class at its least member, so
    # the classes come out ordered by least vertex
    classes = tuple(map(tuple, by_closed.values()))
    class_of = [0] * graph.n
    for idx, cls in enumerate(classes):
        for v in cls:
            class_of[v] = idx
    return ClassPartition(classes, tuple(class_of))


@dataclass(frozen=True)
class QuotientGraph:
    graph: Graph
    partition: ClassPartition


def quotient(graph: Graph) -> QuotientGraph:
    """Quotient by the duplicate-class partition.

    Two classes are adjacent iff their members are adjacent; member choice
    cannot matter (equal closed neighborhoods).  The classes are re-checked
    here, because the rules build on them: each class's closed neighborhood
    must be a union of whole classes.  The quotient's labels join the member
    labels with ``+``.
    """
    part = equivalence_classes(graph)
    class_mask = [0] * len(part)
    for v, c in enumerate(part.class_of):
        class_mask[c] |= 1 << v
    masks = []
    for a, cls in enumerate(part.classes):
        closed = graph.closed(cls[0])
        hit = covered = 0
        for u in _bits(closed):
            c = part.class_of[u]
            if not hit >> c & 1:
                hit |= 1 << c
                covered |= class_mask[c]
        if covered != closed:
            b = part.class_of[next(_bits(covered & ~closed))]
            raise RuntimeError(
                f"class adjacency of {part.classes[a]} vs {part.classes[b]} "
                f"is not well-defined; classes are not true duplicates"
            )
        masks.append(hit & ~(1 << a))
    labels = tuple("+".join(map(graph.labels.__getitem__, cls)) for cls in part.classes)
    return QuotientGraph(Graph._trusted(len(part), tuple(masks), labels), part)


def merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of closed intervals as a sorted list of disjoint intervals."""
    out: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def forbidden_intervals(
    inst: MetricInstance, x: int | str, y: int | str
) -> list[tuple[float, float]]:
    """Radii where x and y might have different closed neighborhoods.

    A witness z can only distinguish the pair when r lies within d(x, y) of
    d(x, z), because |d(y, z) - d(x, z)| <= d(x, y); outside the union
    over z of those closed intervals (clipped to r >= 0) the two elements
    are provably duplicates.  Total measure is at most 2|S|d(x, y).
    """
    xi, yi = inst.index(x), inst.index(y)
    gap = float(inst.dist[xi, yi])
    if gap == 0.0:
        # |d(y, z) - d(x, z)| <= 0: the pair agrees about every witness.
        return []
    intervals = []
    for z in range(inst.n):
        anchor = float(inst.dist[xi, z])
        intervals.append((max(0.0, anchor - gap), anchor + gap))
    return merge_intervals(intervals)


def _check_search_cap(n: int, cap: int | None) -> None:
    limit = cap if cap is not None else default_caps().automorphism_vertices
    if n > limit:
        raise CapExceeded(f"automorphism search on {n} vertices", "automorphism_vertices", limit)


def _candidates(signatures: list) -> list[list[int]]:
    """For each vertex, the vertices with its signature: the only possible
    images under a permutation that preserves the relation."""
    groups: dict = {}
    for v, sig in enumerate(signatures):
        groups.setdefault(sig, []).append(v)
    return [groups[sig] for sig in signatures]


def _graph_relation(graph: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """Adjacency bits per vertex, and candidates by degree and sorted
    neighbour degrees."""
    n, nbrs = graph.n, graph.nbrs
    degree = [mask.bit_count() for mask in nbrs]
    signatures = [(degree[v], tuple(sorted(map(degree.__getitem__, _bits(nbrs[v])))))
                  for v in range(n)]
    rows = [[mask >> u & 1 for u in range(n)] for mask in nbrs]
    return rows, _candidates(signatures)


def _permutation_search(
    rows: list[list], candidates: list[list[int]], order: list[int], limit: int | None = None
) -> list[tuple[int, ...]]:
    """Permutations sigma of a symmetric relation with
    ``rows[sigma(v)][sigma(u)] == rows[v][u]`` off the diagonal and every
    sigma(v) in ``candidates[v]``, found by backtracking over the vertices
    in ``order``; at most ``limit`` of them."""
    n = len(rows)
    image = [-1] * n
    used = [False] * n
    out: list[tuple[int, ...]] = []

    def extend(depth: int) -> bool:
        """Extend the partial image; True once ``limit`` are found."""
        if depth == n:
            out.append(tuple(image))
            return len(out) == limit
        v = order[depth]
        row_v, placed = rows[v], order[:depth]
        for w in candidates[v]:
            if used[w]:
                continue
            row_w = rows[w]
            for u in placed:
                if row_v[u] != row_w[image[u]]:
                    break
            else:
                image[v] = w
                used[w] = True
                if extend(depth + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    extend(0)
    return out


def _orbits(rows: list[list], candidates: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Orbits of the permutations ``_permutation_search`` admits, ordered by
    least vertex.

    Needs one permutation per merge, not the whole group: for each vertex
    that still leads its orbit and each candidate image outside it, search
    for one permutation mapping the first to the second and merge along all
    of its cycles.
    """
    n = len(rows)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # The least vertex of each orbit found so far has been tested against
    # every vertex that could join it, so a vertex that no longer leads its
    # orbit, and a smaller vertex outside v's orbit, need no further search.
    for v in range(n):
        if find(v) != v:
            continue
        order = [v] + [u for u in range(n) if u != v]
        for w in candidates[v]:
            if w <= v or find(w) == v:
                continue
            pinned = candidates[:v] + [[w]] + candidates[v + 1 :]
            for perm in _permutation_search(rows, pinned, order, limit=1):
                for u in range(n):
                    ra, rb = find(u), find(perm[u])
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(vs) for _, vs in sorted(groups.items()))


def automorphisms(graph: Graph, cap: int | None = None) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, by backtracking.

    Exhaustive search is only allowed up to the ``automorphism_vertices``
    cap (default 8); pass ``cap`` explicitly for known-small bigger graphs.
    """
    _check_search_cap(graph.n, cap)
    return _permutation_search(*_graph_relation(graph), list(range(graph.n)))


def orbits(graph: Graph, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Vertex orbits under the automorphism group, ordered by least vertex,
    found without enumerating the group.  The same cap as ``automorphisms``
    applies."""
    _check_search_cap(graph.n, cap)
    return _orbits(*_graph_relation(graph))


def isometry_orbits(inst: MetricInstance, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Element orbits under the self-isometries of ``inst``: the
    permutations that fix the float distance matrix entry for entry.
    Ordered by least element; candidates share a sorted distance row.  The
    same cap as ``automorphisms`` applies."""
    _check_search_cap(inst.n, cap)
    rows = inst.dist.tolist()
    return _orbits(rows, _candidates([tuple(sorted(row)) for row in rows]))
