"""Fuzzing of the input loaders: JSON point and matrix documents, CSV
matrices and the edge-list graph reader.

A valid document must load.  A malformed one must raise the loader's own
error (``MetricError`` for instances, the CLI's error for graph files) with
a message naming the problem, never an ``IndexError``, ``KeyError``,
``TypeError`` or ``ValueError`` from deeper code.  Each malformed case
starts from a valid document and breaks exactly one thing.
"""

import csv
import io
import json
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonewt import MetricError, load_instance
from clonewt.cli import _CLIError, _read_graph

FUZZ = settings(max_examples=60, deadline=None)

LABEL = st.text(string.ascii_letters + string.digits + "_.-", min_size=1, max_size=4)
COORD = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.fractions(-1000, 1000, max_denominator=1000),
)
#: every off-diagonal entry in [1, 2] satisfies the triangle inequality
SPREAD = st.one_of(
    st.integers(1, 2),
    st.floats(1, 2),
    st.fractions(1, 2, max_denominator=1000),
)
NOT_A_NUMBER = st.sampled_from(["1", None, [1], {"x": 1}, True])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def labels(draw, n):
    return draw(st.lists(LABEL, min_size=n, max_size=n, unique=True))


@st.composite
def point_docs(draw):
    n, dim = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    doc = {"kind": "points", "points": [[draw(COORD) for _ in range(dim)] for _ in range(n)]}
    if draw(st.booleans()):
        doc["labels"] = draw(labels(n))
    if draw(st.booleans()):
        doc["dim"] = dim
    return doc


@st.composite
def matrix_docs(draw, min_n=1):
    n = draw(st.integers(min_n, 5))
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(SPREAD)
    doc = {"kind": "matrix", "distances": d}
    if draw(st.booleans()):
        doc["labels"] = draw(labels(n))
    return doc


def _cell(draw, doc, field):
    rows = doc[field]
    i = draw(st.integers(0, len(rows) - 1))
    return rows, i, draw(st.integers(0, len(rows[i]) - 1))


@st.composite
def broken_point_docs(draw):
    """A point document with one fault, and a pattern its error must match."""
    doc = draw(point_docs())
    n, dim = len(doc["points"]), len(doc["points"][0])
    fault = draw(st.sampled_from([
        "kind", "points", "row", "entry", "non-finite", "huge", "labels", "label-count", "dim",
    ] + (["ragged", "duplicate-labels"] if n > 1 else [])))
    if fault == "kind":
        doc["kind"] = draw(st.sampled_from(["point", "Matrix", None, 3]))
        return doc, 'instance "kind" must be'
    if fault == "points":
        doc["points"] = draw(st.sampled_from([None, 3, "abc", [], {}]))
        return doc, 'needs a non-empty "points" list'
    if fault == "row":
        doc["points"][draw(st.integers(0, n - 1))] = draw(st.sampled_from([3, "ab", None]))
        return doc, r'"points" row \d+ must be a list'
    if fault == "entry":
        rows, i, j = _cell(draw, doc, "points")
        rows[i][j] = draw(NOT_A_NUMBER)
        return doc, r'"points"\[\d+\]\[\d+\] must be a number'
    if fault == "ragged":
        doc["points"][draw(st.integers(0, n - 1))].pop()
        return doc, "entries where row 0 has"
    if fault == "non-finite":
        rows, i, j = _cell(draw, doc, "points")
        rows[i][j] = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
        return doc, "coordinates must be finite"
    if fault == "huge":
        rows, i, j = _cell(draw, doc, "points")
        rows[i][j] = 10**400
        return doc, "too large for a float"
    if fault == "labels":
        doc["labels"] = draw(st.sampled_from(["abc", 5, {"a": 1}]))
        return doc, '"labels" must be a list'
    if fault == "label-count":
        doc["labels"] = draw(labels(n + draw(st.sampled_from([-1, 1]))))
        return doc, f"labels for {n} elements"
    if fault == "dim":
        doc["dim"] = dim + draw(st.sampled_from([-1, 1, 5]))
        return doc, "every point must have dim="
    doc["labels"] = draw(labels(n - 1)) + ["dup"]
    doc["labels"][0] = "dup"
    return doc, "labels must be unique"


@st.composite
def broken_matrix_docs(draw):
    """A matrix document with one fault, and a pattern its error must match."""
    doc = draw(matrix_docs(min_n=2))
    d = doc["distances"]
    n = len(d)
    i, j = draw(st.permutations(range(n)))[:2]
    fault = draw(st.sampled_from([
        "distances", "entry", "ragged", "extra-row", "asymmetric", "negative", "diagonal",
        "non-finite",
    ] + (["triangle"] if n > 2 else [])))
    if fault == "distances":
        doc["distances"] = draw(st.sampled_from([None, 3, "abc", [], {}]))
        return doc, 'needs a non-empty "distances" list'
    if fault == "entry":
        d[i][j] = draw(NOT_A_NUMBER)
        return doc, r'"distances"\[\d+\]\[\d+\] must be a number'
    if fault == "ragged":
        d[i].pop()
        return doc, "entries where row 0 has"
    if fault == "extra-row":
        d.append(list(d[0]))
        doc.pop("labels", None)
        return doc, "must be square"
    if fault == "asymmetric":
        d[i][j] = 3
        return doc, "asymmetric entries"
    if fault == "negative":
        d[i][j] = d[j][i] = -1
        return doc, "negative distance"
    if fault == "diagonal":
        d[i][i] = 1
        return doc, "nonzero diagonal"
    if fault == "non-finite":
        d[i][j] = d[j][i] = draw(st.sampled_from([float("nan"), float("inf")]))
        return doc, "non-finite entries"
    d[i][j] = d[j][i] = 5
    return doc, "triangle inequality violated"


class TestJSONDocuments:
    @FUZZ
    @given(st.one_of(point_docs(), matrix_docs()))
    def test_valid_documents_load(self, doc):
        rows = doc.get("points", doc.get("distances"))
        inst = load_instance(doc)
        assert inst.n == len(rows)
        if "labels" in doc:
            assert inst.labels == tuple(doc["labels"])

    @FUZZ
    @given(st.one_of(broken_point_docs(), broken_matrix_docs()))
    def test_malformed_documents_name_the_problem(self, case):
        doc, message = case
        with pytest.raises(MetricError, match=message):
            load_instance(doc)

    @FUZZ
    @given(st.one_of(point_docs(), matrix_docs()), st.data())
    def test_files_load_and_truncated_files_are_named(self, scratch, doc, data):
        text = json.dumps(doc, default=float)  # a Fraction is written as its float
        path = scratch / "doc.json"
        path.write_text(text)
        assert load_instance(path).n == len(doc.get("points", doc.get("distances")))
        path.write_text(text[: data.draw(st.integers(0, len(text) - 1))])
        with pytest.raises(MetricError, match="not valid JSON"):
            load_instance(path)


def _csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


@st.composite
def csv_tables(draw):
    doc = draw(matrix_docs())
    n = len(doc["distances"])
    # a Fraction prints as p/q, which is not a decimal: write its float
    rows = [[str(float(v) if isinstance(v, Fraction) else v) for v in row]
            for row in doc["distances"]]
    return doc.get("labels", [f"e{i}" for i in range(n)]), rows


@st.composite
def broken_csv_tables(draw):
    header, rows = draw(csv_tables())
    n = len(rows)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    fault = draw(st.sampled_from(
        ["header-only", "missing-row", "ragged", "cell", "diagonal"]
        + (["asymmetric", "negative", "duplicate-labels"] if n > 1 else [])
        + (["triangle"] if n > 2 else [])
    ))
    if fault == "header-only":
        return header, [], "expected a header row plus a square matrix"
    if fault == "missing-row":
        rows = rows[:-1] if n > 1 else rows + [list(rows[0])]
        return header, rows, r"matrix rows for \d+ labels"
    if fault == "ragged":
        rows[i] = rows[i][:-1] if n > 1 else rows[i] + ["0"]
        return header, rows, rf"matrix row {i + 1} has \d+ cells"
    if fault == "cell":
        rows[i][j] = draw(st.sampled_from(["abc", "", "1/2", "nan", "inf", "0x10"]))
        return header, rows, "is not a finite decimal number"
    if fault == "diagonal":
        rows[i][i] = "1"
        return header, rows, "nonzero diagonal"
    if fault in ("asymmetric", "negative", "triangle"):
        i, j = draw(st.permutations(range(n)))[:2]
    if fault == "asymmetric":
        rows[i][j] = "3"
        return header, rows, "asymmetric entries"
    if fault == "negative":
        rows[i][j] = rows[j][i] = "-1"
        return header, rows, "negative distance"
    if fault == "triangle":
        rows[i][j] = rows[j][i] = "5"
        return header, rows, "triangle inequality violated"
    header = ["dup"] + list(header[1:-1]) + ["dup"]
    return header, rows, "labels must be unique"


class TestCSVFiles:
    @FUZZ
    @given(csv_tables())
    def test_valid_tables_load(self, scratch, table):
        header, rows = table
        path = scratch / "m.csv"
        path.write_text(_csv_text(header, rows))
        inst = load_instance(path)
        assert inst.labels == tuple(header)
        assert inst.dist_exact == tuple(tuple(Fraction(v) for v in row) for row in rows)

    @FUZZ
    @given(broken_csv_tables())
    def test_malformed_tables_name_the_problem(self, scratch, case):
        header, rows, message = case
        path = scratch / "m.csv"
        path.write_text(_csv_text(header, rows))
        with pytest.raises(MetricError, match=message):
            load_instance(path)


@st.composite
def edge_lists(draw):
    names = draw(labels(draw(st.integers(2, 6))))
    pairs = [(u, v) for u in names for v in names if u < v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8))
    header = draw(st.booleans()) or not edges
    return (names if header else None), edges


def _edge_text(names, edges) -> str:
    lines = [] if names is None else ["# labels: " + " ".join(names)]
    return "\n".join(lines + [f"{u} {v}" for u, v in edges]) + "\n"


@st.composite
def broken_edge_lists(draw):
    names, edges = draw(edge_lists())
    names = names if names is not None else sorted({x for e in edges for x in e})
    u = draw(st.sampled_from(names))
    fault = draw(st.sampled_from(["tokens", "self-loop", "missing", "repeated", "empty"]))
    if fault == "tokens":
        line = draw(st.sampled_from([u, f"{u} {u} {u}", f"{u} {names[0]} 1"]))
        return _edge_text(names, edges) + line + "\n", "expected 'u v'"
    if fault == "self-loop":
        return _edge_text(names, edges) + f"{u} {u}\n", f"self-loop at vertex '{u}'"
    if fault == "missing":
        return _edge_text(names, edges) + f"{u} {u}_missing\n", "missing from the header"
    if fault == "repeated":
        return _edge_text(names + [u], edges), f"vertex label '{u}' appears more than once"
    return draw(st.sampled_from(["", "\n\n", "# a comment\n"])), "no vertices"


class TestEdgeLists:
    @FUZZ
    @given(edge_lists())
    def test_valid_edge_lists_load(self, scratch, case):
        names, edges = case
        path = scratch / "g.edges"
        path.write_text(_edge_text(names, edges))
        graph = _read_graph(str(path))
        index = {lab: i for i, lab in enumerate(graph.labels)}
        assert {(min(index[u], index[v]), max(index[u], index[v])) for u, v in edges} == set(
            graph.edges()
        )
        if names is not None:
            assert graph.labels == tuple(names)

    @FUZZ
    @given(broken_edge_lists())
    def test_malformed_edge_lists_name_the_problem(self, scratch, case):
        text, message = case
        path = scratch / "g.edges"
        path.write_text(text)
        with pytest.raises(_CLIError, match=message):
            _read_graph(str(path))
