"""End-to-end tests for the command-line interface.

Every test drives ``clonewt.cli.main`` in-process with an argv list and
checks the exit code, the JSON/CSV payload, and determinism of the output.
"""

import json
from fractions import Fraction

import pytest

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
        """The whole sharing matrix of an n-vertex graph costs n + 1 rule
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
        ],
    )
    def test_negative_counts_name_their_flag(self, capsys, three_points_doc, argv, flag):
        code, out, err = run(capsys, *argv, "--input", three_points_doc)
        assert code == USAGE_ERROR and out == ""
        assert f"argument {flag}: expected a non-negative integer" in err
        assert "Traceback" not in err
