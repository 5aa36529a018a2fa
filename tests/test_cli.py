"""End-to-end tests for the command-line interface.

Every test drives ``clonewt.cli.main`` in-process with an argv list and
checks the exit code, the JSON/CSV payload, and determinism of the output.
"""

import argparse
import json
import os
import runpy
import stat
import sys
from fractions import Fraction

import pytest

from clonewt import cli
from clonewt.cli import OK, USAGE_ERROR, VIOLATIONS, main
from clonewt.euclid import sharing_matrix


@pytest.fixture
def three_points_doc(tmp_path):
    """A 1-D point cloud at 0, 0.4, 2 (the worked three-element example)."""
    path = tmp_path / "three.json"
    path.write_text(
        json.dumps(
            {
                "kind": "points",
                "labels": ["p0", "p1", "p2"],
                "points": [[0], [0.4], [2]],
            }
        )
    )
    return str(path)


@pytest.fixture
def paw_edges(tmp_path):
    """Edge-list file for the 4-vertex graph: triangle b-c-d plus pendant a-b."""
    path = tmp_path / "paw.edges"
    path.write_text("# labels: a b c d\na b\nb c\nb d\nc d\n")
    return str(path)


@pytest.fixture
def k4_edges(tmp_path):
    path = tmp_path / "k4.edges"
    lines = ["# labels: v0 v1 v2 v3"]
    lines += [f"v{i} v{j}" for i in range(4) for j in range(i + 1, 4)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def p5_edges(tmp_path):
    path = tmp_path / "p5.edges"
    path.write_text("# labels: 0 1 2 3 4\n0 1\n1 2\n2 3\n3 4\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeigh:
    """`clonewt weigh` turns an instance plus a rule into a weight vector."""

    def test_exact_weights_for_the_three_point_instance(self, capsys, three_points_doc):
        code, out, _ = run(
            capsys,
            "weigh",
            "--input", three_points_doc,
            "--rule", "cu",
            "--alpha", "2",
            "--exact",
        )
        assert code == OK
        doc = json.loads(out)
        assert doc["weights"] == {"p0": "17/60", "p1": "17/60", "p2": "13/30"}
        assert doc["rule"] == "cu"
        assert doc["exact"] is True

    def test_exact_mode_prints_alpha_exactly(self, capsys, three_points_doc):
        argv = ["weigh", "--input", three_points_doc, "--rule", "cu", "--alpha", "1/3"]
        code, out, _ = run(capsys, *argv, "--exact")
        assert code == OK
        assert json.loads(out)["alpha"] == "1/3"
        code, out, _ = run(capsys, *argv)
        assert code == OK
        assert json.loads(out)["alpha"] == 1 / 3

    def test_float_weights_match_the_exact_ones(self, capsys, three_points_doc):
        code, out, _ = run(
            capsys, "weigh", "--input", three_points_doc, "--rule", "cu", "--alpha", "2"
        )
        assert code == OK
        weights = json.loads(out)["weights"]
        for label, expected in (("p0", 17 / 60), ("p1", 17 / 60), ("p2", 13 / 30)):
            assert weights[label] == pytest.approx(expected, abs=1e-12), (
                f"float weight for {label}: {weights[label]} vs {expected}"
            )

    def test_csv_format(self, capsys, three_points_doc):
        code, out, _ = run(
            capsys,
            "weigh",
            "--input", three_points_doc,
            "--rule", "cu",
            "--alpha", "2",
            "--exact",
            "--format", "csv",
        )
        assert code == OK
        lines = out.splitlines()
        assert lines[0] == "label,weight"
        assert lines[1:] == ["p0,17/60", "p1,17/60", "p2,13/30"]

    def test_output_flag_writes_the_same_bytes(self, capsys, three_points_doc, tmp_path):
        target = tmp_path / "weights.json"
        argv = ["weigh", "--input", three_points_doc, "--rule", "cu", "--alpha", "2"]
        code, out, _ = run(capsys, *argv)
        assert code == OK
        assert main(argv + ["--output", str(target)]) == OK
        capsys.readouterr()
        assert target.read_text() == out

    def test_json_output_is_canonical(self, capsys, three_points_doc):
        _, out, _ = run(
            capsys, "weigh", "--input", three_points_doc, "--rule", "cu", "--alpha", "2"
        )
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command", ["conjecture", "graph-share", "share-2d", "exact-weigh"])
    def test_written_documents_are_canonical(self, capsys, tmp_path, paw_edges, command):
        """The one-pass writer gives ``json.dumps``'s sorted-key, two-space
        text on witness lists, rows of exact chis, sampled floats and a
        weight of more than 4,300 digits."""
        points = tmp_path / "points.json"
        if command == "share-2d":
            points.write_text('{"kind": "points", "points": [[0, 0], [0.5, 0], [0.2, 0.3]]}')
        else:
            points.write_text('{"kind": "points", "points": [[0], [1e-5000], [1]]}')
        argv = {
            "conjecture": ["audit", "conjecture", "--target", "mcc_axiom2", "--budget", "20",
                           "--seed", "1"],
            "graph-share": ["share", "--graph", paw_edges, "--rule", "mccp"],
            "share-2d": ["share", "--input", str(points), "--family", "gr", "--r", "0.4",
                         "--samples", "2000", "--seed", "3"],
            "exact-weigh": ["weigh", "--input", str(points), "--rule", "cu", "--alpha", "2",
                            "--exact"],
        }[command]
        code, out, _ = run(capsys, *argv)
        assert code == OK
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if command == "conjecture":
            assert doc["witnesses"]
        elif command == "share-2d":
            assert doc["estimator"] == "stratified-mc" and doc["half_widths"][0][1] > 0
        elif command == "exact-weigh":
            assert max(map(len, doc["weights"].values())) > 2 * 4300

    def test_unknown_rule_is_a_usage_error(self, capsys, three_points_doc):
        code, _, err = run(
            capsys, "weigh", "--input", three_points_doc, "--rule", "bogus", "--alpha", "2"
        )
        assert code == USAGE_ERROR
        assert "bogus" in err and "available" in err

    def test_missing_input_flag(self, capsys):
        code, _, err = run(capsys, "weigh", "--rule", "cu", "--alpha", "2")
        assert code == USAGE_ERROR
        assert "--input" in err

    def test_nonexistent_input_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "weigh",
            "--input", str(tmp_path / "nope.json"),
            "--rule", "cu",
            "--alpha", "2",
        )
        assert code == USAGE_ERROR
        assert "does not exist" in err

    def test_uniform_density_requires_alpha(self, capsys, three_points_doc):
        code, _, err = run(capsys, "weigh", "--input", three_points_doc, "--rule", "cu")
        assert code == USAGE_ERROR
        assert "--alpha" in err

    def test_non_numeric_alpha(self, capsys, three_points_doc):
        code, _, err = run(
            capsys, "weigh", "--input", three_points_doc, "--rule", "cu", "--alpha", "wide"
        )
        assert code == USAGE_ERROR
        assert "expected a number" in err

    def test_density_file(self, capsys, three_points_doc, tmp_path):
        path = tmp_path / "nu.json"
        path.write_text("[[0, 0], [0.5, 0.75], [2, 1]]")
        code, out, _ = run(capsys, "weigh", "--input", three_points_doc, "--rule", "cu",
                           "--nu", str(path), "--exact")
        assert code == OK
        assert sum(map(Fraction, json.loads(out)["weights"].values())) == 1

    @pytest.mark.parametrize("text, fault", [
        ("[[0, 0], [0, 0.5], [1, 1]]", "CDF knot radii must be strictly increasing"),
        ("[[0, 0]]", "CDF knots must run from (0, 0) to (alpha, 1)"),
        ('{"a": 1}', "CDF knots must be pairs of finite numbers"),
        ('[[0, 0], [1, "x"]]', "CDF knots must be pairs of finite numbers"),
    ])
    def test_malformed_density_file_is_named(self, capsys, three_points_doc, tmp_path,
                                             text, fault):
        path = tmp_path / "nu.json"
        path.write_text(text)
        code, out, err = run(capsys, "weigh", "--input", three_points_doc, "--rule", "cu",
                             "--nu", str(path))
        assert code == USAGE_ERROR and out == ""
        assert err == f"error: density file {path}: {fault}\n"

    @pytest.mark.parametrize("doc", [
        {"kind": "matrix", "distances": [[0, 0.1, 0.25], [0.1, 0, 0.15], [0.25, 0.15, 0.0]]},
        {"kind": "points", "points": [[0.5, 0.25], [0.5, 1.5], [0.25, 0.5]]},
    ])
    def test_exact_document_parses_each_literal_once(self, doc, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        got = cli._exact_document(argparse.Namespace(input=str(path), exact=True))
        with open(path) as fh:
            assert got == json.load(fh, parse_float=Fraction)
        cells = [v for row in got.get("distances", got.get("points")) for v in row]
        by_value = {}
        for v in cells:
            if isinstance(v, Fraction):
                by_value.setdefault(v, set()).add(id(v))
        assert len(by_value) >= 2
        assert all(len(ids) == 1 for ids in by_value.values())
        assert any(sum(v is w for w in cells) > 1 for v in by_value)

    def test_tol_admits_a_small_triangle_violation_in_a_matrix(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(
            {"kind": "matrix", "distances": [[0, 1, 2.01], [1, 0, 1], [2.01, 1, 0]]}
        ))
        argv = ["weigh", "--input", str(path), "--rule", "cu", "--alpha", "1"]
        code, _, err = run(capsys, *argv)
        assert code == USAGE_ERROR
        assert "triangle inequality violated by 1.000e-02 > tol=1e-09" in err
        code, out, _ = run(capsys, *argv, "--tol", "0.1")
        assert code == OK
        assert set(json.loads(out)["weights"]) == {"e0", "e1", "e2"}


class TestGraphExport:
    """`clonewt graph` writes the neighbourhood graph as labelled edge lines."""

    def test_export_at_a_mid_radius(self, capsys, three_points_doc):
        code, out, _ = run(
            capsys, "graph", "--input", three_points_doc, "--r", "1.7"
        )
        assert code == OK
        lines = out.splitlines()
        assert lines[0] == "# labels: p0 p1 p2"
        assert lines[1:] == ["p0 p1", "p1 p2"]

    def test_negative_radius_is_refused(self, capsys, three_points_doc):
        code, out, err = run(capsys, "graph", "--input", three_points_doc, "--r", "-1")
        assert code == USAGE_ERROR and out == ""
        assert "--r" in err and "non-negative" in err

    def test_radius_zero_links_the_copies(self, capsys, tmp_path):
        doc = tmp_path / "dup.json"
        doc.write_text(json.dumps({"kind": "points", "points": [[0], [0], [1]]}))
        code, out, _ = run(capsys, "graph", "--input", str(doc), "--r", "0")
        assert code == OK
        assert out.splitlines()[1:] == ["e0 e1"]

    def test_quotient_merges_duplicates(self, capsys, tmp_path):
        doc = tmp_path / "dup.json"
        doc.write_text(
            json.dumps(
                {
                    "kind": "points",
                    "labels": ["p0", "p1", "p2"],
                    "points": [[0], [0], [1]],
                }
            )
        )
        code, out, _ = run(
            capsys, "graph", "--input", str(doc), "--r", "0.5", "--quotient"
        )
        assert code == OK
        assert out.splitlines()[0] == "# labels: p0+p1 p2"

    def test_export_round_trips_into_the_clique_command(
        self, capsys, three_points_doc, tmp_path
    ):
        exported = tmp_path / "g.edges"
        assert (
            main(
                [
                    "graph",
                    "--input", three_points_doc,
                    "--r", "1.7",
                    "--output", str(exported),
                ]
            )
            == OK
        )
        capsys.readouterr()
        code, out, _ = run(capsys, "cliques", "--graph", str(exported))
        assert code == OK
        doc = json.loads(out)
        assert doc["cliques"] == [["p0", "p1"], ["p1", "p2"]]


class TestCliques:
    """`clonewt cliques` lists maximal cliques with membership statistics."""

    def test_paw_cliques(self, capsys, paw_edges):
        code, out, _ = run(capsys, "cliques", "--graph", paw_edges)
        assert code == OK
        doc = json.loads(out)
        assert doc["count"] == 2
        assert doc["cliques"] == [["a", "b"], ["b", "c", "d"]]
        assert doc["membership"] == {"a": 1, "b": 2, "c": 1, "d": 1}

    def test_isolated_vertex_from_the_label_header(self, capsys, tmp_path):
        path = tmp_path / "iso.edges"
        path.write_text("# labels: a b c\na b\n")
        code, out, _ = run(capsys, "cliques", "--graph", str(path))
        assert code == OK
        doc = json.loads(out)
        assert ["c"] in doc["cliques"], (
            f"an isolated vertex is its own maximal clique, got {doc['cliques']}"
        )

    def test_malformed_edge_line(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b c\n")
        code, _, err = run(capsys, "cliques", "--graph", str(path))
        assert code == USAGE_ERROR
        assert "expected 'u v'" in err

    def test_repeated_header_label_is_rejected(self, capsys, tmp_path):
        """Label-keyed output would merge the two vertices named a."""
        path = tmp_path / "dup.edges"
        path.write_text("# labels: a b a\na b\n")
        code, out, err = run(capsys, "cliques", "--graph", str(path))
        assert code == USAGE_ERROR and not out
        assert "vertex label 'a' appears more than once" in err


class TestShare:
    """`clonewt share` reports sharing coefficients in both operating modes."""

    def test_graph_mode_paw_ledger(self, capsys, paw_edges):
        code, out, _ = run(capsys, "share", "--graph", paw_edges, "--rule", "cu")
        assert code == OK
        doc = json.loads(out)
        row_a = doc["vertices"]["a"]
        assert Fraction(str(row_a["eta"])) == 1
        assert Fraction(str(row_a["private"])) == Fraction(1, 2)
        assert row_a["chi"]["b"] == "-1/6"
        assert Fraction(str(doc["vertices"]["b"]["chi"]["a"])) == Fraction(1, 6)

    def test_graph_mode_evaluates_the_rule_once_per_removal(
        self, capsys, monkeypatch, k4_edges
    ):
        """For a rule the engine cannot read removals off (here an unknown
        callable), the sharing matrix of an n-vertex graph costs n + 1 rule
        calls and n removals."""
        import clonewt.cli as cli
        from clonewt import Graph

        calls = []
        name, mcca = cli.parse_rule("mcca")

        def counting(graph):
            calls.append(graph.n)
            return mcca(graph)

        removals = []
        remove_vertex = Graph.remove_vertex

        def counting_removal(self, v):
            removals.append(v)
            return remove_vertex(self, v)

        monkeypatch.setattr(cli, "parse_rule", lambda spec: (name, counting))
        monkeypatch.setattr(Graph, "remove_vertex", counting_removal)
        code, out, _ = run(capsys, "share", "--graph", k4_edges, "--rule", "mcca")
        assert code == OK
        assert len(json.loads(out)["vertices"]) == 4
        assert calls == [4, 3, 3, 3, 3]
        assert removals == [0, 1, 2, 3]

    def test_graph_mode_reads_clique_rule_removals_off_the_cover(
        self, capsys, monkeypatch, paw_edges
    ):
        """``mcca`` itself, wrapped as a tracer wraps it: no rule call and
        no removal, with the paw's known row."""
        import functools

        import clonewt.cli as cli
        from clonewt import Graph

        calls = []
        name, mcca = cli.parse_rule("mcca")

        @functools.wraps(mcca)
        def counting(graph):
            calls.append(graph.n)
            return mcca(graph)

        def no_removal(self, v):
            raise AssertionError("removal made")

        monkeypatch.setattr(cli, "parse_rule", lambda spec: (name, counting))
        monkeypatch.setattr(Graph, "remove_vertex", no_removal)
        code, out, _ = run(capsys, "share", "--graph", paw_edges, "--rule", "mcca")
        assert code == OK
        assert json.loads(out)["vertices"]["a"]["chi"]["b"] == "-1/4"
        assert calls == []

    @pytest.mark.parametrize("rule", ["mcca", "mccp", "smooth:mcca"])
    def test_graph_mode_keeps_the_clique_cap(self, capsys, monkeypatch, paw_edges, rule):
        """The paw has 2 maximal cliques and no removal has more: a cap of 2
        lets the matrix through, a cap of 1 stops it and names the cap."""
        monkeypatch.setenv("CLONEWT_CAPS", "cliques=2")
        code, out, _ = run(capsys, "share", "--graph", paw_edges, "--rule", rule)
        assert code == OK and len(json.loads(out)["vertices"]) == 4
        monkeypatch.setenv("CLONEWT_CAPS", "cliques=1")
        code, out, err = run(capsys, "share", "--graph", paw_edges, "--rule", rule)
        assert code == USAGE_ERROR and out == ""
        assert "cap cliques=1" in err

    def test_graph_mode_reports_inconsistent_vertices(self, capsys, p5_edges):
        code, out, _ = run(capsys, "share", "--graph", p5_edges, "--rule", "mccp")
        assert code == OK
        doc = json.loads(out)
        assert "inconsistent" in doc["vertices"]["0"]
        assert "rescales inconsistently" in doc["vertices"]["0"]["inconsistent"]

    def test_points_mode_exact_two_intervals(self, capsys, tmp_path):
        doc_path = tmp_path / "two.json"
        doc_path.write_text(
            json.dumps({"kind": "points", "points": [[0], [1]]})
        )
        code, out, _ = run(
            capsys,
            "share",
            "--input", str(doc_path),
            "--family", "gr",
            "--r", "1",
            "--exact",
        )
        assert code == OK
        doc = json.loads(out)
        assert doc["estimator"] == "exact"
        assert doc["half_widths"] is None
        assert [Fraction(w) for w in doc["weights"]] == [Fraction(1, 2), Fraction(1, 2)]
        assert Fraction(doc["chi"][0][1]) == Fraction(1, 6)

    def test_points_mode_exact_parses_the_document_once(self, capsys, tmp_path, monkeypatch):
        doc_path = tmp_path / "p.json"
        doc_path.write_text(json.dumps({"kind": "points", "points": [[0], [0.1], [1]]}))
        loads = []
        original = json.load
        monkeypatch.setattr(json, "load", lambda *a, **k: loads.append(1) or original(*a, **k))
        code, out, _ = run(
            capsys, "share", "--input", str(doc_path), "--family", "gr", "--r", "1/2",
            "--exact",
        )
        assert code == OK
        assert len(loads) == 1
        # computed from the literal decimal 0.1, not from its binary float
        want = sharing_matrix([[Fraction(0)], [Fraction(1, 10)], [Fraction(1)]],
                              family="gr", r=Fraction(1, 2))
        assert [Fraction(w) for w in json.loads(out)["weights"]] == list(want.weights)

    def test_points_mode_monte_carlo_echoes_the_seed(self, capsys, tmp_path):
        doc_path = tmp_path / "planar.json"
        doc_path.write_text(
            json.dumps({"kind": "points", "points": [[0, 0], [1, 0]]})
        )
        code, out, _ = run(
            capsys,
            "share",
            "--input", str(doc_path),
            "--family", "gr",
            "--r", "1",
            "--samples", "2000",
            "--seed", "7",
        )
        assert code == OK
        doc = json.loads(out)
        assert doc["estimator"] == "stratified-mc"
        assert doc["seed"] == 7
        assert doc["chi"][0][1] == doc["chi"][1][0]

    def test_fnu_monte_carlo_with_a_far_pair(self, capsys, tmp_path):
        """Points 2.1 apart share nothing under alpha 1: the entry is an
        exact zero with half-width 0, not a crash on a float entry."""
        doc_path = tmp_path / "far.json"
        doc_path.write_text(
            json.dumps({"kind": "points", "points": [[0, 0], [0.5, 0], [2.1, 0]]})
        )
        code, out, err = run(
            capsys,
            "share",
            "--input", str(doc_path),
            "--family", "fnu",
            "--alpha", "1",
            "--samples", "64000",
            "--seed", "1",
        )
        assert code == OK, err
        doc = json.loads(out)
        assert doc["chi"][0][2] == doc["chi"][2][0] == "0"
        assert doc["half_widths"][0][2] == 0.0
        assert doc["half_widths"][0][1] > 0.0

    def test_gr_on_disjoint_2d_balls_is_an_exact_matrix(self, capsys, tmp_path):
        """The unit square's corners at r = 1/2: every entry is exact, so
        the document reports an exact matrix, seeded or not."""
        doc_path = tmp_path / "apart.json"
        doc_path.write_text('{"kind": "points", "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}')
        for seed in ([], ["--samples", "1000", "--seed", "1"]):
            code, out, err = run(capsys, "share", "--input", str(doc_path), "--family", "gr",
                                 "--r", "1/2", *seed)
            assert code == OK, err
            doc = json.loads(out)
            assert doc["estimator"] == "exact"
            assert doc["half_widths"] is None and doc["samples"] is None
            assert doc["weights"] == ["1/4"] * 4 and doc["row_residuals"] == ["0"] * 4
            assert doc["chi"] == [["1/4" if i == j else "0" for j in range(4)] for i in range(4)]

    def test_fnu_on_disjoint_3d_balls_is_exact(self, capsys, tmp_path):
        """Six 3-D points at least 1 apart under alpha 1/10: every radius
        cell has pairwise disjoint balls, so each weight and private share
        is 1/6 and nothing is sampled."""
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1]]
        doc_path = tmp_path / "disjoint.json"
        doc_path.write_text(json.dumps({"kind": "points", "points": pts}))
        code, out, err = run(
            capsys,
            "share",
            "--input", str(doc_path),
            "--family", "fnu",
            "--alpha", "1/10",
            "--samples", "64000",
            "--seed", "1",
        )
        assert code == OK, err
        doc = json.loads(out)
        for i in range(6):
            assert doc["weights"][i] == pytest.approx(1 / 6, abs=1e-12)
            assert doc["chi"][i][i] == pytest.approx(1 / 6, abs=1e-12)
            assert doc["row_residuals"][i] == 0.0
            assert doc["half_widths"][i][i] == 0.0
            assert all(doc["chi"][i][j] == "0" for j in range(6) if j != i)

    def test_points_mode_without_a_seed_fails(self, capsys, tmp_path):
        doc_path = tmp_path / "planar.json"
        doc_path.write_text(
            json.dumps({"kind": "points", "points": [[0, 0], [1, 0]]})
        )
        code, _, err = run(
            capsys,
            "share",
            "--input", str(doc_path),
            "--family", "gr",
            "--r", "1",
            "--samples", "2000",
        )
        assert code == USAGE_ERROR
        assert "seed" in err

    @pytest.mark.parametrize("family", [["--family", "fnu", "--alpha", "1"],
                                        ["--family", "gr", "--r", "1"]])
    @pytest.mark.parametrize("samples", ["0", "-5", "many"])
    def test_non_positive_samples_name_the_flag(self, capsys, tmp_path, family, samples):
        doc_path = tmp_path / "planar.json"
        doc_path.write_text(json.dumps({"kind": "points", "points": [[0, 0], [1, 0]]}))
        code, out, err = run(capsys, "share", "--input", str(doc_path), *family,
                             "--samples", samples, "--seed", "1")
        assert code == USAGE_ERROR and out == ""
        assert f"argument --samples: expected a positive integer, got '{samples}'" in err

    def test_family_gr_needs_a_radius(self, capsys, three_points_doc):
        code, _, err = run(
            capsys, "share", "--input", three_points_doc, "--family", "gr"
        )
        assert code == USAGE_ERROR
        assert "--r" in err


class TestAudit:
    """`clonewt audit` gates CI: exit 2 whenever a violation is on record."""

    def test_metric_suite_passes_for_the_reference_rule(self, capsys, tmp_path):
        report = tmp_path / "metric.json"
        code, _, _ = run(
            capsys,
            "audit", "metric",
            "--rule", "cu",
            "--seeds", "3",
            "--report", str(report),
        )
        assert code == OK
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        assert doc["violations"] == []

    def test_graph_suite_flags_the_degree_rule(self, capsys):
        code, out, _ = run(
            capsys, "audit", "graph", "--rule", "degree", "--seeds", "20"
        )
        assert code == VIOLATIONS
        doc = json.loads(out)
        assert doc["passed"] is False
        assert any(v["check"] == "locality" for v in doc["violations"])

    def test_graph_suite_passes_the_clique_rules(self, capsys):
        code, out, _ = run(
            capsys,
            "audit", "graph",
            "--rule", "cu",
            "--rule", "mccp",
            "--seeds", "20",
        )
        assert code == OK
        assert json.loads(out)["passed"] is True

    def test_axiom_mode_flags_the_paw(self, capsys, paw_edges):
        code, out, _ = run(capsys, "audit", "axioms", "--input", paw_edges)
        assert code == VIOLATIONS
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["axioms"]["1"]["passed"] is True
        assert doc["axioms"]["2"]["passed"] is False
        assert doc["axioms"]["3"]["passed"] is False

    def test_axiom_mode_passes_a_complete_graph(self, capsys, k4_edges):
        code, out, _ = run(capsys, "audit", "axioms", "--input", k4_edges)
        assert code == OK
        assert json.loads(out)["passed"] is True

    def test_axiom_subset_selection(self, capsys, paw_edges):
        code, out, _ = run(
            capsys, "audit", "axioms", "--input", paw_edges, "--axioms", "1"
        )
        assert code == OK, "axiom 1 alone passes on the paw"
        assert list(json.loads(out)["axioms"]) == ["1"]

    def test_unknown_axiom_number(self, capsys, paw_edges):
        code, _, err = run(
            capsys, "audit", "axioms", "--input", paw_edges, "--axioms", "5"
        )
        assert code == USAGE_ERROR
        assert "unknown axiom" in err

    def test_non_numeric_axiom_names_the_flag(self, capsys, paw_edges):
        code, out, err = run(
            capsys, "audit", "axioms", "--input", paw_edges, "--axioms", "1,x"
        )
        assert code == USAGE_ERROR and out == ""
        assert err == "error: --axioms must list axioms 1,2,3,4, got '1,x'\n"

    def test_demo_refutes_the_strict_locality_axioms(self, capsys):
        code, out, _ = run(capsys, "audit", "demo")
        assert code == OK
        doc = json.loads(out)
        assert doc["refuted"] is True
        assert "1/2" in doc["contradiction"]

    def test_conjecture_mode_requires_a_target(self, capsys):
        code, _, err = run(capsys, "audit", "conjecture")
        assert code == USAGE_ERROR
        assert "--target" in err

    def test_conjecture_mode_finds_the_negative_sharing_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "audit", "conjecture",
            "--target", "mcc_axiom2",
            "--budget", "10",
            "--seed", "0",
        )
        assert code == OK
        doc = json.loads(out)
        assert doc["witnesses"], "a 10-graph probe already contains the 4-vertex witness"


class TestAttack:
    """`clonewt attack` simulates duplication and checks the locality bound."""

    def test_perfect_clones_leave_far_weights_alone(self, capsys, three_points_doc):
        code, out, _ = run(
            capsys,
            "attack",
            "--input", three_points_doc,
            "--alpha", "1",
            "--target", "p2",
            "--clones", "3",
            "--eps", "0",
            "--seed", "5",
            "--exact",
        )
        assert code == OK
        doc = json.loads(out)
        assert doc["within_bound"] is True
        assert doc["clones"] == 3
        assert doc["max_far_drift"] == "0"
        assert len(doc["stages"]) == 3

    def test_unknown_target_label(self, capsys, three_points_doc):
        code, _, err = run(
            capsys,
            "attack",
            "--input", three_points_doc,
            "--alpha", "1",
            "--target", "zz",
            "--clones", "1",
            "--seed", "5",
        )
        assert code == USAGE_ERROR
        assert "zz" in err


class TestEntropy:
    """`clonewt entropy` reports certified maximum-entropy weights."""

    def test_paw_certificate(self, capsys, paw_edges):
        code, out, _ = run(capsys, "entropy", "--graph", paw_edges)
        assert code == OK
        doc = json.loads(out)
        assert doc["entropy_bits"] == pytest.approx(1.0, abs=1e-8)
        assert doc["weights"]["a"] == pytest.approx(0.5, abs=1e-6)
        blocks = {frozenset(block) for block in doc["certifying_partition"]}
        assert blocks == {frozenset({"a", "b"}), frozenset({"c", "d"})}


class TestSample:
    """`clonewt sample` draws reproducible labels from a weighting."""

    def test_sampling_is_deterministic(self, capsys, three_points_doc):
        argv = [
            "sample",
            "--input", three_points_doc,
            "--alpha", "2",
            "--k", "12",
            "--seed", "42",
        ]
        code, first, _ = run(capsys, *argv)
        assert code == OK
        code, second, _ = run(capsys, *argv)
        assert code == OK
        assert first == second

    def test_sample_shape(self, capsys, three_points_doc):
        code, out, _ = run(
            capsys,
            "sample",
            "--input", three_points_doc,
            "--alpha", "2",
            "--k", "5",
            "--seed", "1",
        )
        assert code == OK
        doc = json.loads(out)
        assert doc["k"] == 5 and doc["seed"] == 1
        assert len(doc["labels"]) == 5
        assert set(doc["labels"]) <= {"p0", "p1", "p2"}


class TestTopLevel:
    """Argument plumbing shared by all subcommands."""

    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == USAGE_ERROR
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == USAGE_ERROR
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["audit", "metric", "--seeds", "-1"], "--seeds"),
            (["audit", "graph", "--seeds", "-3"], "--seeds"),
            (["audit", "graph", "--seeds", "two"], "--seeds"),
            (["audit", "conjecture", "--target", "mcc_axiom2", "--budget", "-1"], "--budget"),
            (["sample", "--alpha", "2", "--k", "-1", "--seed", "0"], "--k"),
            (["attack", "--alpha", "1", "--target", "p2", "--clones", "-1", "--seed", "0"],
             "--clones"),
        ],
    )
    def test_negative_counts_name_their_flag(self, capsys, three_points_doc, argv, flag):
        code, out, err = run(capsys, *argv, "--input", three_points_doc)
        assert code == USAGE_ERROR and out == ""
        assert f"argument {flag}: expected a non-negative integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["weigh", "--rule", "cu", "--alpha", "x"], "--alpha"),
            (["graph", "--r", "1/0"], "--r"),
            (["share", "--family", "gr", "--r", "one"], "--r"),
            (["attack", "--eps", "1e"], "--eps"),
        ],
    )
    def test_malformed_numbers_name_their_flag(self, capsys, three_points_doc, argv, flag):
        code, out, err = run(capsys, *argv, "--input", three_points_doc)
        assert code == USAGE_ERROR and out == ""
        assert f"argument {flag}: expected a number, got {argv[-1]!r}" in err
        assert "Traceback" not in err

    def test_python_dash_m_runs_the_cli(self, capsys, monkeypatch, three_points_doc):
        argv = ["weigh", "--input", three_points_doc, "--rule", "cu", "--alpha", "2"]
        code, want, _ = run(capsys, *argv)
        assert code == OK
        monkeypatch.setattr(sys, "argv", ["clonewt", *argv])
        # runpy warns when the module was imported before under its own name
        monkeypatch.delitem(sys.modules, "clonewt.__main__", raising=False)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("clonewt", run_name="__main__")
        assert exc.value.code == OK
        assert capsys.readouterr().out == want

    def test_the_parser_is_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_consecutive_calls_match_a_fresh_parser(self, capsys, three_points_doc):
        """The cached parser carries nothing from one call into the next:
        an appended --rule list or a store_true flag does not leak."""
        weigh = ["weigh", "--input", three_points_doc, "--rule", "cu", "--alpha", "2"]
        calls = [
            ["audit", "graph", "--rule", "cu", "--rule", "mccp", "--seeds", "3"],
            ["audit", "graph", "--seeds", "3"],
            weigh + ["--exact"],
            weigh,
        ]
        warm = [run(capsys, *argv) for argv in calls]
        for argv, got in zip(calls, warm):
            cli._build_parser.cache_clear()
            assert run(capsys, *argv) == got, f"cached parser differs for {argv}"
        assert warm[0][1] != warm[1][1] and warm[2][1] != warm[3][1]
        parser = cli._build_parser()
        parser.parse_args(calls[0])
        assert parser.parse_args(calls[1]).rule is None
        parser.parse_args(calls[2])
        assert parser.parse_args(calls[3]).exact is False


class TestOutputFile:
    """--output and --report overwrite the named file in place."""

    def write(self, capsys, graph, target):
        """Run `cliques` to stdout and to ``target``; the stdout bytes."""
        code, want, _ = run(capsys, "cliques", "--graph", graph)
        assert code == OK
        assert main(["cliques", "--graph", graph, "--output", str(target)]) == OK
        capsys.readouterr()
        return want

    def test_a_shorter_output_leaves_no_old_tail(self, capsys, paw_edges, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("x" * 5000 + "\n")
        want = self.write(capsys, paw_edges, target)
        assert len(want) < 5000
        assert target.read_text() == want

    def test_the_file_keeps_its_inode_and_mode(self, capsys, paw_edges, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("stale\n" * 1000)
        target.chmod(0o640)
        inode = target.stat().st_ino
        want = self.write(capsys, paw_edges, target)
        assert target.read_text() == want
        assert target.stat().st_ino == inode
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_a_symlink_is_followed(self, capsys, paw_edges, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("stale\n" * 1000)
        link = tmp_path / "link.json"
        link.symlink_to(real)
        want = self.write(capsys, paw_edges, link)
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == want

    def test_the_null_device(self, capsys, paw_edges):
        assert main(["cliques", "--graph", paw_edges, "--output", os.devnull]) == OK
        assert capsys.readouterr().out == ""

    def test_a_failed_write_leaves_none_of_the_old_bytes(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("stale\n" * 1000)
        with pytest.raises(UnicodeEncodeError):
            cli._emit("\ud800", str(target))
        assert target.read_bytes() == b""

    def test_the_file_is_never_truncated_at_open(self, capsys, paw_edges, tmp_path, monkeypatch):
        """Truncating a non-empty file at open() can block for tens of
        milliseconds; the old tail is cut after the write instead."""
        flags = []
        real_open = os.open

        def spy(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        target = tmp_path / "out.json"
        target.write_text("stale\n" * 1000)
        monkeypatch.setattr(os, "open", spy)
        want = self.write(capsys, paw_edges, target)
        assert target.read_text() == want
        assert flags and all(not flag & os.O_TRUNC for flag in flags), flags
