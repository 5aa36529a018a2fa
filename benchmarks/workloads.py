"""Seeded inputs, job lists and output checks for the four workloads.

A workload is built from a seed into a list of jobs.  Each job is one
``clonewt`` command line that writes its result to a file, plus a check
that reads the file back and compares it with the reference computations
in ``reference.py`` or with properties every correct output has.  Inputs
are drawn with ``random.Random(seed)``; the two jobs that trip known
faults use fixed inputs that do not depend on the seed.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

#: MC entries must lie within this many 99% half-widths of the grid estimate
MC_WIDTHS = 4.0
#: allowance for the error of the benchmark's own 2-D scan-line estimate
GRID_TOL = 2e-3

#: the two faults kept as named failures, matched against the error message
FAULT_DIGITS = "Exceeds the limit (4300 digits) for integer string conversion"
FAULT_MC = "no sample hit the ball union; estimator degenerate"


class CheckFailed(Exception):
    """A job's output is wrong."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Job:
    name: str
    argv: list[str]
    output: Path
    check: Callable[[str], None]  # receives the output text
    exit_code: int = 0
    fault: str | None = None  # error message of the fault this job trips today


@dataclass
class Workload:
    name: str
    jobs: list[Job] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)  # one line per input, for the README

    def add(self, job: Job, note: str) -> None:
        self.jobs.append(job)
        self.inputs.append(f"{job.name}: {note}")


# ---------------------------------------------------------------------------
# Input generators


def distance(p, q) -> float:
    """Euclidean distance, summed in coordinate order like numpy does."""
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def cloud(rng: random.Random, n: int, dim: int, eps: float, n_exact=None, n_near=None):
    """n points in the unit cube: by default a tenth are exact copies of
    other points and a fifth lie within eps of one.  The others sit in
    distinct cells of a jittered lattice, so every seed gives a collection
    of the same make-up (and about the same cost) in a different draw."""
    n_exact = n // 10 if n_exact is None else n_exact
    n_near = n // 5 if n_near is None else n_near
    m = n - n_exact - n_near
    side = math.ceil(m ** (1 / dim) - 1e-9)
    base = []
    for cell in rng.sample(range(side**dim), m):
        index = [cell // side**k % side for k in range(dim)]
        base.append([(i + 0.2 + 0.6 * rng.random()) / side for i in index])
    pts = [list(p) for p in base]
    pts += [list(rng.choice(base)) for _ in range(n_exact)]
    for _ in range(n_near):
        p = rng.choice(base)
        step = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        scale = eps * rng.random() / math.sqrt(sum(s * s for s in step))
        pts.append([a + s * scale for a, s in zip(p, step)])
    rng.shuffle(pts)
    return pts


def groups_of_equal(rows) -> list[list[int]]:
    """Index groups of identical rows (the planted exact duplicates)."""
    seen: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        seen.setdefault(tuple(row), []).append(i)
    return [g for g in seen.values() if len(g) > 1]


def distances(pts) -> list[list[float]]:
    return [[distance(p, q) for q in pts] for p in pts]


def rank_alpha(pts, events: int) -> float:
    """A radius between the events-th and next distinct positive distance
    between the points, so the sweep below it has exactly ``events`` radius
    events.  The distances are streamed, not kept: the k smallest of them
    hold every distinct value up to the k-th, so k grows until they hold
    ``events + 1`` positive ones."""
    def pairs():
        return (distance(p, q) for i, p in enumerate(pts) for q in pts[i + 1:])

    k = 2 * (events + 1)
    while True:
        smallest = heapq.nsmallest(k, pairs())
        values = sorted(set(smallest) - {0.0})
        if len(values) > events:
            return (values[events - 1] + values[events]) / 2
        k *= 2


def integer_metric(rng: random.Random, n: int, density: float, top: int, dups: int):
    """Shortest-path closure of a random connected graph with integer edge
    weights 1..top; ``dups`` elements are planted as exact copies (distance
    0) and as many as near copies (distance 1) of other elements."""
    m = n - 2 * dups
    inf = float("inf")
    w = [[0 if i == j else inf for j in range(m)] for i in range(m)]

    def edge(i: int, j: int) -> None:
        w[i][j] = w[j][i] = min(w[i][j], rng.randint(1, top))

    order = list(range(m))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        edge(a, b)
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                edge(i, j)
    for k in range(m):
        wk = w[k]
        for row in w:
            via = row[k]
            for j in range(m):
                if via + wk[j] < row[j]:
                    row[j] = via + wk[j]
    for gap in [0] * dups + [1] * dups:
        src = rng.randrange(len(w))
        new = [v + gap for v in w[src]] + [0]
        new[src] = gap
        for row, v in zip(w, new):
            row.append(v)
        w.append(new)
    order = list(range(n))
    rng.shuffle(order)
    return [[int(w[i][j]) for j in order] for i in order]


def lattice_l1(rng: random.Random, n: int, dups: int):
    """Integer points on a jittered square lattice (spacing 2, jitter 0..1)
    with ``dups`` exact copies and ``dups`` copies one unit step away; the
    matrix of their L1 distances, which is the shortest-path metric of the
    integer grid graph."""
    m = n - 2 * dups
    side = math.ceil(math.sqrt(m))
    pts = [[2 * (c % side) + rng.randrange(2), 2 * (c // side) + rng.randrange(2)]
           for c in rng.sample(range(side * side), m)]
    pts += [list(rng.choice(pts[:m])) for _ in range(dups)]
    for _ in range(dups):
        p = list(rng.choice(pts[:m]))
        p[rng.randrange(2)] += 1
        pts.append(p)
    rng.shuffle(pts)
    return [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts] for a in pts]


def write_points(path: Path, points) -> None:
    path.write_text(json.dumps({"kind": "points", "points": points}))


def write_matrix(path: Path, rows) -> None:
    path.write_text(json.dumps({"kind": "matrix", "distances": rows}))


def write_graph(path: Path, n: int, edges) -> None:
    lines = ["# labels: " + " ".join(f"v{i}" for i in range(n))]
    lines += [f"v{i} v{j}" for i, j in edges]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Output parsing and shared checks


def exact(value) -> Fraction:
    """Parse a 'p/q' string (or an int) without Python's digit limit."""
    if isinstance(value, int):
        return Fraction(value)
    expect(isinstance(value, str), f"expected an exact 'p/q' string, got {value!r}")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(value)
    finally:
        sys.set_int_max_str_digits(limit)


def number(value) -> float:
    return float(exact(value)) if isinstance(value, str) else float(value)


def weigh_check(n: int, is_exact: bool, dups, reference: Callable[[], list], tol: float):
    """Weights positive and summing to 1 (exactly, or within 1e-9 in float),
    planted duplicates equal, and equal to the reference within tol (0 means
    exactly)."""
    reference = functools.cache(reference)

    def check(text: str) -> None:
        weights = json.loads(text)["weights"]
        labels = [f"e{i}" for i in range(n)]
        expect(sorted(weights) == sorted(labels), "labels differ from the input")
        if is_exact:
            vals = [exact(weights[lab]) for lab in labels]
            expect(sum(vals) == 1, f"exact weights sum to {float(sum(vals))!r}, not 1")
        else:
            vals = [float(weights[lab]) for lab in labels]
            expect(abs(sum(vals) - 1) <= 1e-9, f"weights sum to {sum(vals)!r}")
        expect(all(v > 0 for v in vals), "a weight is not positive")
        for group in dups:
            expect(all(vals[i] == vals[group[0]] for i in group),
                   f"planted duplicates {group} got different weights")
        for i, (got, want) in enumerate(zip(vals, reference())):
            ok = got == want if tol == 0 else abs(float(got) - float(want)) <= tol
            expect(ok, f"weight {i} is {float(got)!r}, reference {float(want)!r}")

    return check


def weigh_job(work: Path, name: str, inp: Path, rule: str, alpha: str, exact_mode: bool,
              n: int, dups, reference, tol: float, fault: str | None = None) -> Job:
    out = work / f"{name}.out.json"
    argv = ["weigh", "--input", str(inp), "--rule", rule, "--alpha", alpha,
            "--output", str(out)]
    if exact_mode:
        argv.append("--exact")
    return Job(name, argv, out, weigh_check(n, exact_mode, dups, reference, tol),
               fault=fault)


# ---------------------------------------------------------------------------
# sweep-sparse


def sweep_sparse(seed: int, work: Path) -> Workload:
    rng = random.Random(f"sweep-sparse/{seed}")
    wl = Workload("sweep-sparse")

    def cloud_job(name, n, dim, events, rule, exact_mode, tol):
        pts = cloud(rng, n, dim, eps=0.2 / math.sqrt(n))
        inp = work / f"{name}.json"
        write_points(inp, pts)
        alpha = rank_alpha(pts, events)
        # the checks rebuild the distance matrix, so that it is not held
        # through the rounds and does not count in the peak memory
        if exact_mode:
            ref_fn = lambda: ref.sweep([[Fraction(v) for v in r] for r in distances(pts)],
                                       Fraction(repr(alpha)), ref.RULES[rule])
        else:
            ref_fn = lambda: ref.sweep(distances(pts), alpha, ref.RULES[rule])
        wl.add(weigh_job(work, name, inp, rule, repr(alpha), exact_mode, n,
                         groups_of_equal(pts), ref_fn, tol),
               f"{n} points in {dim}-D, alpha at the {events}th pair distance, "
               f"{n // 10} exact and {n // 5} near duplicates, rule {rule}"
               + (", exact" if exact_mode else ""))

    cloud_job("cu-2d", 400, 2, 600, "cu", False, 1e-9)
    cloud_job("cu-3d-exact", 150, 3, 225, "cu", True, 1e-12)
    cloud_job("lift-2d", 100, 2, 200, "lift:uniform", False, 1e-9)

    # decimal matrix as CSV: checked against its literal decimal values
    n = 60
    m = integer_metric(rng, n, 0.15, 40, 4)
    inp = work / "cu-csv-exact.csv"
    rows = [",".join(f"e{i}" for i in range(n))]
    rows += [",".join(f"{v / 100:.2f}" for v in row) for row in m]
    inp.write_text("\n".join(rows) + "\n")
    alpha = Fraction(1, 2)
    dec = lambda: [[Fraction(v, 100) for v in row] for row in m]
    wl.add(weigh_job(work, "cu-csv-exact", inp, "cu", str(alpha), True, n,
                     groups_of_equal(m), lambda: ref.sweep(dec(), alpha, ref.rule_cu), 1e-9),
           f"{n}-element CSV matrix of two-decimal shortest-path distances, alpha {alpha}, "
           "4 exact and 4 near duplicates, rule cu, exact")
    return wl


# ---------------------------------------------------------------------------
# sweep-cliques


def dyadic_job(wl: Workload, work: Path, name: str, m, alpha: Fraction, rule: str,
               kind: str, fault: str | None = None) -> None:
    n = len(m)
    inp = work / f"{name}.json"
    write_matrix(inp, [[v / 16 for v in row] for row in m])
    dist = lambda: [[Fraction(v, 16) for v in row] for row in m]
    wl.add(weigh_job(work, name, inp, rule, str(alpha), True, n, groups_of_equal(m),
                     lambda: ref.sweep(dist(), alpha, ref.RULES[rule]), 0, fault=fault),
           f"{n}-element matrix in multiples of 1/16 ({kind}), alpha {alpha}, "
           f"rule {rule}, exact")


def sweep_cliques(seed: int, work: Path) -> Workload:
    rng = random.Random(f"sweep-cliques/{seed}")
    wl = Workload("sweep-cliques")
    for rule in ("mcca", "mccp", "smooth:cu"):
        n, events = 80, 350
        pts = cloud(rng, n, 2, eps=0.02)
        name = rule.replace(":", "-") + "-2d"
        inp = work / f"{name}.json"
        write_points(inp, pts)
        alpha = rank_alpha(pts, events)
        wl.add(weigh_job(work, name, inp, rule, repr(alpha), False, n, groups_of_equal(pts),
                         lambda p=pts, a=alpha, r=rule: ref.sweep(distances(p), a, ref.RULES[r]),
                         1e-9),
               f"{n} points in 2-D, alpha at the {events}th pair distance, "
               f"{n // 10} exact and {n // 5} near duplicates, rule {rule}")
    dyadic_job(wl, work, "mcca-dyadic-exact", lattice_l1(rng, 120, 5), Fraction(3, 4), "mcca",
               "L1 distances of a jittered integer lattice")
    # kept fault: fixed input whose exact mccp weights need > 4300 digits
    fixed = integer_metric(random.Random("digits-fault"), 50, 0.3, 16, 3)
    dyadic_job(wl, work, "mccp-dyadic-exact", fixed, Fraction(1, 2), "mccp",
               "fixed shortest-path closure of a random graph", fault=FAULT_DIGITS)
    return wl


# ---------------------------------------------------------------------------
# share-audit


def graph_rows(nbrs, rule, labels):
    return {labels[x]: ref.sharing_row(nbrs, ref.RULES[rule], x) for x in range(len(nbrs))}


def share_graph_check(nbrs, rule: str):
    n = len(nbrs)
    labels = [f"v{i}" for i in range(n)]
    expected = functools.cache(lambda: (graph_rows(nbrs, rule, labels), ref.RULES[rule](nbrs)))

    def check(text: str) -> None:
        doc = json.loads(text)
        rows, weights = expected()
        expect(doc["rule"] == rule and set(doc["vertices"]) == set(labels), "wrong rows")
        for x, label in enumerate(labels):
            got, want = doc["vertices"][label], rows[label]
            if want is None:
                expect("inconsistent" in got, f"{label}: rescaling should be inconsistent")
                continue
            eta, private, chi = want
            expect(exact(got["eta"]) == eta and exact(got["private"]) == private,
                   f"{label}: eta or private weight differs from the definition")
            row = {k: exact(v) for k, v in got["chi"].items()}
            expect(row == {labels[y]: v for y, v in chi.items()},
                   f"{label}: chi row differs from the definition")
            expect(private + sum(row.values()) == weights[x], f"{label}: row identity fails")
            for y in range(n):
                if y != x and not nbrs[x] >> y & 1:
                    expect(row[labels[y]] == 0, f"chi({label}, v{y}) is not 0 outside N[x]")

    return check


def share_audit(seed: int, work: Path) -> Workload:
    rng = random.Random(f"share-audit/{seed}")
    wl = Workload("share-audit")
    n = 40
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(rng.sample(pairs, round(0.15 * len(pairs))))
    nbrs = [0] * n
    for i, j in edges:
        nbrs[i] |= 1 << j
        nbrs[j] |= 1 << i
    graph = work / "g40.edges"
    write_graph(graph, n, edges)
    note = f"G({n}, m={len(edges)}) random graph"
    for rule in ("mcca", "cu"):
        out = work / f"share-{rule}.out.json"
        wl.add(Job(f"share-graph-{rule}", ["share", "--graph", str(graph), "--rule", rule,
                                           "--output", str(out)], out,
                   share_graph_check(nbrs, rule)), f"{note}, rule {rule}")

    labels = [f"v{i}" for i in range(n)]
    mccp_rows = functools.cache(lambda: graph_rows(nbrs, "mccp", labels))

    def axioms_check(text: str) -> None:
        doc = json.loads(text)
        rows = mccp_rows()
        skipped = [lab for lab, row in rows.items() if row is None]
        expect(doc["skipped_vertices"] == skipped, "skipped vertices differ")
        expect(doc["axioms"]["1"]["passed"] == (not skipped), "axiom 1 verdict differs")
        negative = {(x, labels[y], v) for x, row in rows.items() if row
                    for y, v in row[2].items() if v < 0}
        ax2 = doc["axioms"]["2"]
        expect(ax2["passed"] == (not negative) and doc["passed"] is False,
               "axiom 2 verdict differs from the definition")
        for x, y, value in ax2["witnesses"]:
            expect((x, y, exact(value)) in negative,
                   f"axiom 2 witness ({x}, {y}) is not a negative chi")

    out = work / "axioms-mccp.out.json"
    wl.add(Job("audit-axioms-mccp", ["audit", "axioms", "--input", str(graph), "--rule",
                                     "mccp", "--report", str(out)], out, axioms_check,
               exit_code=2), f"{note}, rule mccp (exit 2: clique covers break axiom 2)")

    def suite_check(kind: str, count: int):
        def check(text: str) -> None:
            doc = json.loads(text)
            expect(doc["passed"] is True and not doc["violations"], f"{kind} suite failed")
            expect(doc[kind] == count and all(v > 0 for v in doc["checks"].values()),
                   f"{kind} suite did not run every case")
        return check

    # 60 graphs reach the automorphism-group tail on some seeds (5.8 s on
    # seed 6 against at most 0.5 s on 39 others); 20 stayed within 0.41 s
    out = work / "audit-graph.out.json"
    wl.add(Job("audit-graph", ["audit", "graph", "--rule", "cu", "--rule", "mccp",
                               "--seeds", "20", "--seed", str(seed), "--report", str(out)],
               out, suite_check("graphs", 20)), "20 seeded random graphs, rules cu and mccp")
    out = work / "audit-metric.out.json"
    wl.add(Job("audit-metric", ["audit", "metric", "--rule", "cu", "--seeds", "12",
                                "--seed", str(seed), "--report", str(out)],
               out, suite_check("instances", 12)), "12 seeded random instances, rule cu")

    def conjecture_check(budget: int, paw: bool):
        def check(text: str) -> None:
            doc = json.loads(text)
            expect(doc["probed"] == budget, "conjecture search probed the wrong count")
            for wit in doc["witnesses"]:
                names = wit["vertices"]
                g = [0] * len(names)
                for a, b in wit["edges"]:
                    i, j = names.index(a), names.index(b)
                    g[i] |= 1 << j
                    g[j] |= 1 << i
                x, y = (names.index(v) for v in wit["pair"])
                value = number(wit["value"])
                expect(value < 0, f"witness {wit['pair']} is not negative")
                if wit["rule"] in ("mcca", "mccp"):
                    row = ref.sharing_row(g, ref.RULES[wit["rule"]], x)
                    expect(row is not None and row[2][y] == exact(wit["value"]),
                           f"witness {wit['pair']} differs from the definition")
            if paw:  # the paw graph is probed first: chi(a, b) is -1/4 and -1/15
                found = {(w["rule"], tuple(w["pair"]), w["value"]) for w in doc["witnesses"]}
                expect({("mcca", ("a", "b"), "-1/4"), ("mccp", ("a", "b"), "-1/15")} <= found,
                       "paw-graph witnesses missing")
        return check

    for target, budget in (("mcc_axiom2", 100), ("entropy_negative_chi", 1)):
        out = work / f"conjecture-{target}.out.json"
        wl.add(Job(f"conjecture-{target}", ["audit", "conjecture", "--target", target,
                                             "--budget", str(budget), "--seed", str(seed),
                                             "--report", str(out)],
                   out, conjecture_check(budget, target == "mcc_axiom2")),
               f"budget {budget} seeded graphs")

    n_att, k, alpha, eps = 24, 3, Fraction(1, 2), "0.05"
    pts = cloud(rng, n_att, 2, eps=0.02)
    inp = work / "attack.json"
    write_points(inp, pts)
    target = f"e{max(range(n_att), key=lambda i: sum(distance(pts[i], q) >= 0.5 for q in pts))}"

    def attack_check(text: str) -> None:
        doc = json.loads(text)
        stages = doc["stages"]
        expect(len(stages) == k, "wrong number of attack stages")
        bound = Fraction(0)
        for i, st in enumerate(stages, start=1):
            bound += 2 * (1 / alpha) * (n_att + i - 1) * exact(st["distance"])
            expect(exact(st["cumulative_bound"]) == bound, f"stage {i}: bound differs")
            expect(exact(st["uniform_family_mass"]) == Fraction(1 + i, n_att + i),
                   f"stage {i}: uniform family mass is not (1+k)/(n+k)")
            expect(exact(st["max_far_drift"]) <= bound, f"stage {i}: drift exceeds bound")
        expect(doc["far_elements"] and doc["within_bound"] is True, "attack check empty")

    out = work / "attack.out.json"
    wl.add(Job("attack-exact", ["attack", "--input", str(inp), "--alpha", str(alpha),
                                "--target", target, "--clones", str(k), "--eps", eps,
                                "--seed", str(seed), "--exact", "--output", str(out)],
               out, attack_check),
           f"{n_att} points in 2-D, alpha {alpha}, {k} clones within {eps}, exact")
    return wl


# ---------------------------------------------------------------------------
# euclid-share


def euclid_check(centers_or_coords, compute, is_exact: bool, tol: float, monte_carlo: bool):
    """Compare a sharing matrix with the reference (weights, chi)."""
    n = len(centers_or_coords)
    compute = functools.cache(compute)

    def check(text: str) -> None:
        doc = json.loads(text)
        w_ref, chi_ref = compute()
        expect(len(doc["weights"]) == n and len(doc["chi"]) == n, "wrong matrix size")
        hw = doc["half_widths"]
        expect((hw is not None) == monte_carlo, "estimator kind differs")
        for i in range(n):
            row_hw = 0.0
            for j in range(n):
                got = doc["chi"][i][j]
                want = chi_ref[i][j]
                if is_exact:
                    expect(exact(got) == want, f"chi[{i}][{j}] differs from the geometry")
                    continue
                width = hw[i][j] if monte_carlo else 0.0
                row_hw += width
                expect(abs(number(got) - want) <= MC_WIDTHS * width + tol,
                       f"chi[{i}][{j}] = {number(got)!r}, reference {want!r} "
                       f"(half-width {width!r})")
            got_w = doc["weights"][i]
            if is_exact:
                expect(exact(got_w) == w_ref[i], f"weight {i} differs from the geometry")
                expect(exact(doc["row_residuals"][i]) == 0, f"row {i} does not sum to w")
            else:
                expect(abs(number(got_w) - w_ref[i]) <= MC_WIDTHS * row_hw + tol,
                       f"weight {i} = {number(got_w)!r}, reference {w_ref[i]!r}")
                expect(abs(number(doc["row_residuals"][i])) <= MC_WIDTHS * row_hw + tol,
                       f"row {i} residual too large")

    return check


def decimals_1d(rng: random.Random, n: int, near: int):
    """n coordinates k/1000 in [0, 1], one per cell of an even grid with
    jitter, plus one exact duplicate and ``near`` near duplicates (within
    5/1000)."""
    m = n - 1 - near
    base = [round(1000 * (i + 0.2 + 0.6 * rng.random()) / m) for i in range(m)]
    ks = base + [rng.choice(base)]
    ks += [min(1000, max(0, rng.choice(base) + rng.choice((-5, -3, 3, 5)))) for _ in range(near)]
    rng.shuffle(ks)
    return [Fraction(k, 1000) for k in ks]


def share_job(work: Path, name: str, inp: Path, extra: list[str], check) -> Job:
    out = work / f"{name}.out.json"
    return Job(name, ["share", "--input", str(inp), *extra, "--output", str(out)], out, check)


def euclid_share(seed: int, work: Path) -> Workload:
    rng = random.Random(f"euclid-share/{seed}")
    wl = Workload("euclid-share")

    coords = decimals_1d(rng, 4, 1)
    inp = work / "fnu-1d.json"
    write_points(inp, [[float(c)] for c in coords])
    half = Fraction(1, 2)
    wl.add(share_job(work, "fnu-1d-exact", inp, ["--family", "fnu", "--alpha", "1/2", "--exact"],
                     euclid_check(coords, lambda: ref.fnu_1d(coords, half), False, 2e-6, False)),
           "4 points in [0, 1] (k/1000), 1 exact and 1 near duplicate, f_nu, alpha 1/2")

    coords16 = decimals_1d(rng, 16, 3)
    r = Fraction(1, 20)
    inp = work / "gr-1d.json"
    write_points(inp, [[float(c)] for c in coords16])
    wl.add(share_job(work, "gr-1d-exact", inp, ["--family", "gr", "--r", str(r), "--exact"],
                     euclid_check(coords16, lambda: ref.gr_1d(coords16, r), True, 0, False)),
           f"16 points in [0, 1] (k/1000), 1 exact and 3 near duplicates, g_r, r {r}")

    # f_nu samples every radius cell over the points' bounding box; a box
    # well inside alpha keeps hits in the smallest cell on every seed
    for name, n, width, family, param, samples in (
        ("gr-2d-mc", 8, 1.0, "gr", ("--r", "0.15"), 20000),
        ("fnu-2d-mc", 4, 0.15, "fnu", ("--alpha", "1"), 128000),
    ):
        pts = [[c * width for c in p] for p in cloud(rng, n, 2, 0.02, n_exact=1, n_near=1)]
        inp = work / f"{name}.json"
        write_points(inp, pts)
        centers = [tuple(p) for p in pts]
        if family == "gr":
            compute = lambda c=centers: ref.gr_2d(c, 0.15)
        else:
            compute = lambda c=centers: ref.fnu_2d(c, 1.0)
        wl.add(share_job(work, name, inp, ["--family", family, *param, "--samples",
                                           str(samples), "--seed", str(seed)],
                         euclid_check(centers, compute, False, GRID_TOL, True)),
               f"{n} points in a {width} x {width} square, 1 exact and 1 near duplicate, "
               f"{family} {' '.join(param)}, {samples} samples")

    # kept fault: six far-apart 3-D points, so the answer is exactly 1/6 each
    pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1]]
    inp = work / "fnu-3d-disjoint.json"
    write_points(inp, pts)
    sixth = ([1 / 6] * 6, [[1 / 6 if i == j else 0.0 for j in range(6)] for i in range(6)])
    job = share_job(work, "fnu-3d-disjoint", inp, ["--family", "fnu", "--alpha", "1/10",
                                                   "--samples", "64000", "--seed", "1"],
                    euclid_check(pts, lambda: sixth, False, 1e-9, True))
    job.fault = FAULT_MC
    wl.add(job, "6 fixed 3-D points at least 1 apart, f_nu, alpha 1/10 (answer 1/6 each)")
    return wl


WORKLOADS = {
    "sweep-sparse": sweep_sparse,
    "sweep-cliques": sweep_cliques,
    "share-audit": share_audit,
    "euclid-share": euclid_share,
}
