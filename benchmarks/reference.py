"""Reference computations for the benchmark's correctness checks.

Everything here is written from the definitions and imports nothing from
clonewt, so a fault in the package cannot hide inside its own checker.
Graphs are lists of neighbour bitmasks (no self bits); weights are lists in
vertex order.  Exact inputs (``Fraction``) give exact outputs; float inputs
give float outputs.
"""

from __future__ import annotations

import math
from fractions import Fraction


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Graph rules


def rule_cu(nbrs):
    """Class-uniform: 1 / (#classes * |class|), classes = equal closed nbhds."""
    closed = [m | (1 << v) for v, m in enumerate(nbrs)]
    size: dict[int, int] = {}
    for c in closed:
        size[c] = size.get(c, 0) + 1
    k = len(size)
    return [Fraction(1, k * size[c]) for c in closed]


def maximal_cliques(nbrs) -> list[int]:
    """All maximal cliques as bitmasks (Bron-Kerbosch, Tomita pivot)."""
    out: list[int] = []
    stack = [(0, (1 << len(nbrs)) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
            continue
        pivot = max(bits(p | x), key=lambda u: (p & nbrs[u]).bit_count())
        for v in bits(p & ~nbrs[pivot]):
            stack.append((r | (1 << v), p & nbrs[v], x & nbrs[v]))
            p &= ~(1 << v)
            x |= 1 << v
    return out


def rule_mcca(nbrs):
    """Each maximal clique holds 1/#cliques, split evenly among its members."""
    cliques = maximal_cliques(nbrs)
    k = len(cliques)
    w = [Fraction(0)] * len(nbrs)
    for c in cliques:
        share = Fraction(1, k * c.bit_count())
        for v in bits(c):
            w[v] += share
    return w


def rule_mccp(nbrs):
    """Inside each clique, mass goes to members inversely to their number of
    cliques, normalised by the clique's total participation."""
    cliques = maximal_cliques(nbrs)
    k = len(cliques)
    member = [0] * len(nbrs)
    for c in cliques:
        for v in bits(c):
            member[v] += 1
    w = [Fraction(0)] * len(nbrs)
    for c in cliques:
        part = sum(Fraction(1, member[u]) for u in bits(c))
        for v in bits(c):
            w[v] += 1 / (k * member[v] * part)
    return w


def smooth(base):
    """One lazy random-walk step: w(x) = sum over y in N[x] of b(y)/(1+deg y)."""

    def rule(nbrs):
        b = base(nbrs)
        spread = [b[y] / (1 + m.bit_count()) for y, m in enumerate(nbrs)]
        return [sum(spread[y] for y in bits(m | (1 << x))) for x, m in enumerate(nbrs)]

    return rule


#: lift:uniform spreads the uniform quotient weight over each class, which is cu
RULES = {
    "cu": rule_cu,
    "lift:uniform": rule_cu,
    "mcca": rule_mcca,
    "mccp": rule_mccp,
    "smooth:cu": smooth(rule_cu),
}


# ---------------------------------------------------------------------------
# Threshold sweep (uniform radius density on [0, alpha])


def sweep(dist, alpha, rule):
    """Weights integral_0^alpha (1/alpha) w(G_r) dr over the threshold graphs.

    ``dist`` is a symmetric matrix; with ``Fraction`` entries and alpha the
    result is exact, with floats it is accumulated in float.
    """
    n = len(dist)
    exact = isinstance(alpha, Fraction)
    zero = Fraction(0) if exact else 0.0
    by_radius: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            by_radius.setdefault(dist[i][j], []).append((i, j))
    grid = [zero] + sorted(r for r in by_radius if 0 < r <= alpha)
    nbrs = [0] * n
    acc = [zero] * n
    for idx, r in enumerate(grid):
        for i, j in by_radius.get(r, ()):
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
        upper = grid[idx + 1] if idx + 1 < len(grid) else alpha
        inc = (upper - r) / alpha
        if inc:
            w = rule(nbrs)
            for v in range(n):
                acc[v] += inc * (w[v] if exact else float(w[v]))
    return acc


# ---------------------------------------------------------------------------
# Vertex-removal sharing on graphs


def remove_vertex(nbrs, x):
    low = (1 << x) - 1
    return [(m & low) | ((m >> (x + 1)) << x) for v, m in enumerate(nbrs) if v != x]


def sharing_row(nbrs, rule, x):
    """(eta, private, {y: chi(x, y)}) from chi = w(G-x)(y)/(1+eta) - w(G)(y),
    or None when the non-neighbours of x rescale by different factors."""
    before = rule(nbrs)
    after_list = rule(remove_vertex(nbrs, x))
    after = {y: after_list[y - (y > x)] for y in range(len(nbrs)) if y != x}
    closed = nbrs[x] | (1 << x)
    ratios = {after[z] / before[z] for z in after if not closed >> z & 1}
    if len(ratios) > 1:
        return None
    scale = ratios.pop() if ratios else Fraction(1)
    eta = scale - 1
    chi = {y: after[y] / scale - before[y] for y in after}
    return eta, eta / (1 + eta), chi


# ---------------------------------------------------------------------------
# One-dimensional ball geometry


def segments_1d(coords, r):
    """Maximal covered intervals of constant membership: (length, members)."""
    cuts = sorted({c - r for c in coords} | {c + r for c in coords})
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        members = tuple(i for i, c in enumerate(coords) if abs(c - mid) <= r)
        if members:
            out.append((hi - lo, members))
    return out


def share_sums(segments, n):
    """Unnormalised weights, sharing matrix and union volume from the
    (length, members) pieces of the union: weight(x) integrates 1/c over
    B_x, chi(x, y) integrates 1/(c(c-1)) over B_x & B_y, and chi(x, x) is
    the volume covered by x alone."""
    zero = segments[0][0] * 0 if segments else 0
    g = [zero] * n
    chi = [[zero] * n for _ in range(n)]
    union = zero
    for length, members in segments:
        c = len(members)
        union += length
        for a in members:
            g[a] += length / c
        if c == 1:
            chi[members[0]][members[0]] += length
            continue
        pair = length / (c * (c - 1))
        for a in members:
            for b in members:
                if a != b:
                    chi[a][b] += pair
    return g, chi, union


def accumulate_shares(segments, n):
    """(weights, chi) normalised by the union volume."""
    g, chi, union = share_sums(segments, n)
    return [v / union for v in g], [[v / union for v in row] for row in chi]


def gr_1d(coords, r):
    """Exact (weights, chi) of the radius-r ball-overlap family in 1-D."""
    return accumulate_shares(segments_1d(coords, r), len(coords))


def fnu_1d(coords, alpha):
    """(weights, chi) integrated over r in (0, alpha] against the uniform
    density.  Between consecutive half-distances every numerator N and the
    union U are linear in r, so each piece contributes the closed form of
    the integral of N/U: a linear term plus a logarithm."""
    coords = [Fraction(c) for c in coords]
    alpha = Fraction(alpha)
    n = len(coords)
    cuts = {Fraction(0), alpha}
    for i in range(n):
        for j in range(i + 1, n):
            half = abs(coords[i] - coords[j]) / 2
            if 0 < half < alpha:
                cuts.add(half)
    cuts = sorted(cuts)
    g = [0.0] * n
    chi = [[0.0] * n for _ in range(n)]
    for lo, hi in zip(cuts, cuts[1:]):
        r1, r2 = lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3
        g1, chi1, u1 = share_sums(segments_1d(coords, r1), n)
        g2, chi2, u2 = share_sums(segments_1d(coords, r2), n)
        su = (u2 - u1) / (r2 - r1)
        u0 = u1 - su * r1

        def integral(v1, v2) -> float:
            sn = (v2 - v1) / (r2 - r1)
            n0 = v1 - sn * r1
            if su == 0:
                return float((n0 + sn * (lo + hi) / 2) * (hi - lo) / u0 / alpha)
            q = sn / su
            rest = n0 - q * u0  # N/U = q + rest/U
            total = float(q * (hi - lo) / alpha)
            if rest:
                total += float(rest / su / alpha) * math.log((u0 + su * hi) / (u0 + su * lo))
            return total

        for a in range(n):
            g[a] += integral(g1[a], g2[a])
            for b in range(n):
                chi[a][b] += integral(chi1[a][b], chi2[a][b])
    return g, chi


# ---------------------------------------------------------------------------
# Two-dimensional ball geometry (scan lines, exact along each line)


def gr_2d(centers, r: float, lines: int = 1000):
    """(weights, chi) of the radius-r family for 2-D centres.

    Each horizontal scan line cuts every ball in an interval, so coverage is
    exact along the line; the lines are combined by the midpoint rule in y.
    """
    ylo = min(c[1] for c in centers) - r
    dy = (max(c[1] for c in centers) + r - ylo) / lines
    pieces = []
    for k in range(lines):
        y = ylo + (k + 0.5) * dy
        spans = []
        for i, (cx, cy) in enumerate(centers):
            h2 = r * r - (y - cy) ** 2
            if h2 > 0:
                half = math.sqrt(h2)
                spans.append((cx - half, cx + half, i))
        cuts = sorted({e for a, b, _ in spans for e in (a, b)})
        for lo, hi in zip(cuts, cuts[1:]):
            members = tuple(i for a, b, i in spans if a <= lo and hi <= b)
            if members:
                pieces.append(((hi - lo) * dy, members))
    return accumulate_shares(pieces, len(centers))


def fnu_2d(centers, alpha: float, cells: int = 64, lines: int = 300):
    """(weights, chi) integrated against the uniform density on (0, alpha]
    by the midpoint rule over ``cells`` radius cells."""
    n = len(centers)
    g = [0.0] * n
    chi = [[0.0] * n for _ in range(n)]
    for k in range(cells):
        w, c = gr_2d(centers, (k + 0.5) * alpha / cells, lines)
        for a in range(n):
            g[a] += w[a] / cells
            for b in range(n):
                chi[a][b] += c[a][b] / cells
    return g, chi


# ---------------------------------------------------------------------------
# Self-test against hand-derived values


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"reference self-test failed: {what}")


def selftest() -> None:
    F = Fraction
    three = [F(0), F(2, 5), F(2)]
    dist = [[abs(a - b) for b in three] for a in three]
    _expect(sweep(dist, F(2), rule_cu) == [F(17, 60), F(17, 60), F(13, 30)],
            "cu weights of {0, 2/5, 2} at alpha 2")
    # paw: pendant a on b, triangle b-c-d
    paw = [0b0010, 0b1101, 0b1010, 0b0110]
    for name, value in (("cu", F(-1, 6)), ("mcca", F(-1, 4)), ("mccp", F(-1, 15))):
        _expect(sharing_row(paw, RULES[name], 0)[2][1] == value, f"paw {name} chi(a, b)")
    # two unit balls at distance 1 in 1-D: union 3, overlap 1
    w, c = gr_1d([F(0), F(1)], F(1))
    _expect(w == [F(1, 2)] * 2 and c[0] == [F(1, 3), F(1, 6)], "1-D two-ball geometry")
    # chi(0, 1) over r in (0, 1]: integral of (2r-1)/(2(2r+1)) from 1/2 to 1
    w, c = fnu_1d([0, 1], 1)
    _expect(abs(c[0][1] - (0.25 - 0.5 * math.log(1.5))) < 1e-9 and abs(w[0] - 0.5) < 1e-12,
            "1-D f_nu closed form")
    # two unit discs at distance 1: lens 2*pi/3 - sqrt(3)/2, shared by two
    lens = 2 * math.pi / 3 - math.sqrt(3) / 2
    w, c = gr_2d([(0.0, 0.0), (1.0, 0.0)], 1.0, lines=4000)
    _expect(abs(c[0][1] - lens / 2 / (2 * math.pi - lens)) < 1e-5, "2-D lens share")
