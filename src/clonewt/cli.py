"""Command-line entry point.

One executable, eight subcommands::

    weigh     integrate a graph rule over the filtration -> weight vector
    graph     export the neighbourhood graph at a radius (edge-list text)
    cliques   maximal cliques of a graph with membership statistics
    share     sharing coefficients (graph rule or Euclidean families)
    audit     axiom suites, the impossibility demo, conjecture search
    attack    duplication-attack simulation with locality bounds
    entropy   entropy-rule weights with a certified entropy value
    sample    draw labels from a weight distribution, reproducibly

Exit codes: 0 success, 1 validation or input error, 2 axiom violations
found (so CI can gate on compliance).  All output is deterministic for a
fixed command line and input: JSON is emitted with sorted keys and no
timestamps, and every Monte-Carlo path requires an explicit ``--seed``.
In ``--exact`` mode JSON decimal literals are parsed as their literal
decimal values and weights are printed as ``p/q`` strings that round-trip.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from fractions import Fraction
from pathlib import Path

from .audit import (
    attack as run_attack,
    conjecture_search,
    run_def31_suite,
    run_graph_suite,
    strict_locality_demo,
)
from .caps import CapExceeded
from .euclid import sharing_matrix
from .filtration import Graph, neighborhood_graph, quotient
from .metric import MetricError, MetricInstance, load_instance
from .render import json_text, jsonable
from .rules import (
    graph_entropy_certificate,
    maximal_cliques,
    parse_rule,
    w_entropy,
)
from .sharing import InconsistentRescaling, audit_axioms, sharing_rows
from .weighting import Density, MetricWeighting, evaluate_all, sample_labels

OK, USAGE_ERROR, VIOLATIONS = 0, 1, 2


class _CLIError(Exception):
    """A user-facing validation error (maps to exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse contract
        raise _CLIError(message)


def _number(text: str) -> Fraction:
    """Parse a CLI numeric argument exactly (decimals, fractions, ints)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _count(text: str, least: int = 0) -> int:
    """Parse a CLI count: an integer of at least ``least`` (0 or 1)."""
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if value >= least:
            return value
    kind = "positive" if least else "non-negative"
    raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")


def _positive(text: str) -> int:
    """Parse a CLI count that must be at least 1."""
    return _count(text, 1)


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to stdout, or over the file ``output`` in place.

    The file is opened without ``O_TRUNC`` and its old tail is cut after
    the write: on some filesystems truncating a non-empty file at open()
    blocks for tens of milliseconds, an in-place write for well under one.
    Only regular files are truncated (pipes, ttys and devices cannot be);
    the truncate runs also when the write fails, so no old bytes remain.
    """
    if not output:
        sys.stdout.write(text)
        return
    fd = os.open(output, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        try:
            fh.write(text)
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _emit_json(doc, args) -> None:
    _emit(json_text(doc), args.output)


def _read_instance(args, doc=None) -> MetricInstance:
    """The --input instance; ``doc`` is its exact JSON document when the
    caller has already parsed it (``_exact_document``)."""
    path = _input_path(args)
    tol = {"tol": float(args.tol)} if getattr(args, "tol", None) is not None else {}
    if doc is None:
        doc = _exact_document(args)
    return load_instance(path if doc is None else doc, **tol)


def _input_path(args) -> Path:
    if not args.input:
        raise _CLIError("this command needs --input")
    path = Path(args.input)
    if not path.exists():
        raise _CLIError(f"input file {path} does not exist")
    return path


def _exact_document(args):
    """The --input JSON document with decimals parsed as their exact
    values, when --exact applies to it; otherwise None.  A distance matrix
    repeats its cells, so each distinct literal is parsed once and its
    cells share the one ``Fraction``."""
    path = _input_path(args)
    if not getattr(args, "exact", False) or path.suffix.lower() != ".json":
        return None
    with open(path) as fh:
        return json.load(fh, parse_float=functools.cache(Fraction))


def _read_graph(path_str: str) -> Graph:
    path = Path(path_str)
    if not path.exists():
        raise _CLIError(f"graph file {path} does not exist")
    labels: list[str] | None = None
    edge_labels: list[tuple[str, str]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("labels:"):
                labels = body[len("labels:"):].split()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise _CLIError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        if parts[0] == parts[1]:
            raise _CLIError(f"{path}:{lineno}: self-loop at vertex {parts[0]!r}")
        edge_labels.append((parts[0], parts[1]))
    if labels is None:
        seen: dict[str, None] = {}
        for u, v in edge_labels:
            seen.setdefault(u)
            seen.setdefault(v)
        labels = list(seen)
    if not labels:
        raise _CLIError(f"{path}: no vertices (need a '# labels: ...' header or edges)")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) < len(labels):
        repeated = next(lab for i, lab in enumerate(labels) if index[lab] != i)
        raise _CLIError(f"{path}: vertex label {repeated!r} appears more than once")
    edges = []
    for u, v in edge_labels:
        if u not in index or v not in index:
            raise _CLIError(f"{path}: edge {u} {v} uses a vertex missing from the header")
        edges.append((index[u], index[v]))
    return Graph.from_edges(len(labels), edges, labels=tuple(labels))


def _graph_text(graph: Graph) -> str:
    lines = ["# labels: " + " ".join(graph.labels)]
    lines += [f"{graph.labels[a]} {graph.labels[b]}" for a, b in graph.edges()]
    return "\n".join(lines) + "\n"


def _density(args) -> Density:
    alpha = getattr(args, "alpha", None)
    spec = getattr(args, "nu", "uniform")
    if spec == "uniform":
        if alpha is None:
            raise _CLIError("--nu uniform needs --alpha")
        if alpha <= 0:
            raise _CLIError(f"--alpha must be positive, got {alpha}")
        return Density.uniform(alpha)
    path = Path(spec)
    if not path.exists():
        raise _CLIError(
            f'unknown density {spec!r}: use "uniform" or a JSON file of CDF knots'
        )
    try:
        with open(path) as fh:
            density = Density.piecewise_linear_cdf(json.load(fh, parse_float=Fraction))
    except ValueError as exc:
        raise _CLIError(f"density file {path}: {exc}") from None
    if alpha is not None and density.alpha != alpha:
        raise _CLIError(
            f"--alpha {alpha} conflicts with the density file (alpha={density.alpha})"
        )
    return density


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_weigh(args) -> int:
    inst = _read_instance(args)
    density = _density(args)
    mw = MetricWeighting.from_names(args.rule, density)
    weights = evaluate_all(inst, mw, exact=args.exact)
    if args.format == "csv":
        lines = ["label,weight"]
        lines += [f"{lab},{jsonable(w)}" for lab, w in zip(inst.labels, weights.values)]
        _emit("\n".join(lines) + "\n", args.output)
        return OK
    doc = {
        "alpha": density.alpha if args.exact else float(density.alpha),
        "nu": args.nu,
        "rule": mw.rule_name,
        "exact": args.exact,
        "weights": dict(zip(inst.labels, weights.values)),
    }
    _emit_json(doc, args)
    return OK


def _cmd_graph(args) -> int:
    if args.r < 0:
        raise _CLIError(f"--r must be non-negative, got {args.r}")
    inst = _read_instance(args)
    g = neighborhood_graph(inst, args.r, exact=args.exact and inst.has_exact)
    if args.quotient:
        g = quotient(g).graph
    _emit(_graph_text(g), args.output)
    return OK


def _cmd_cliques(args) -> int:
    graph = _read_graph(args.graph)
    cover = maximal_cliques(graph)
    doc = {
        "vertices": list(graph.labels),
        "count": len(cover.cliques),
        "cliques": [[graph.labels[v] for v in clique] for clique in cover.cliques],
        "membership": {graph.labels[v]: cover.membership[v] for v in range(graph.n)},
        "participation": [p for p in cover.participation],
    }
    _emit_json(doc, args)
    return OK


def _cmd_share(args) -> int:
    if args.graph:
        graph = _read_graph(args.graph)
        name, rule = parse_rule(args.rule)
        rows = {}
        for x, row in enumerate(sharing_rows(graph, rule)):
            if row.undefined is not None:
                rows[graph.labels[x]] = {"inconsistent": row.undefined}
                continue
            rows[graph.labels[x]] = {
                "eta": row.report.eta,
                "private": row.private,
                "chi": {graph.labels[y]: value for y, value in row.chi.items()},
            }
        _emit_json({"rule": name, "vertices": rows}, args)
        return OK

    doc = _exact_document(args)
    inst = _read_instance(args, doc)
    if inst.points is None:
        raise _CLIError("Euclidean sharing needs a point-cloud instance (kind 'points')")
    # exact coordinates where the document has them, the float points otherwise
    points = [list(row) for row in (doc["points"] if doc is not None else inst.points)]
    if args.family == "gr":
        if args.r is None:
            raise _CLIError("--family gr needs --r")
        matrix = sharing_matrix(
            points, family="gr", r=args.r, samples=args.samples, seed=args.seed
        )
    else:
        matrix = sharing_matrix(
            points,
            family="fnu",
            density=_density(args),
            samples=args.samples,
            seed=args.seed,
        )
    doc = {
        "family": matrix.family,
        "param": matrix.param,
        "labels": list(inst.labels),
        "weights": list(matrix.weights),
        "chi": [list(row) for row in matrix.chi],
        "row_residuals": list(matrix.row_residuals),
        "half_widths": None
        if matrix.half_widths is None
        else [list(row) for row in matrix.half_widths],
        "samples": matrix.samples,
        "seed": matrix.seed,
        "estimator": "exact" if matrix.half_widths is None else "stratified-mc",
    }
    _emit_json(doc, args)
    return OK


def _cmd_audit(args) -> int:
    if args.mode == "metric":
        report = run_def31_suite(
            tuple(args.rule) if args.rule else ("cu",),
            instances=args.seeds,
            seed=args.seed,
            alpha=args.alpha if args.alpha is not None else Fraction(1),
        )
        doc = report.to_document()
    elif args.mode == "graph":
        report = run_graph_suite(
            tuple(args.rule) if args.rule else ("cu",),
            graphs=args.seeds,
            seed=args.seed,
            tol=args.tol if args.tol is not None else 0.0,
        )
        doc = report.to_document()
    elif args.mode == "demo":
        trace = strict_locality_demo()
        _emit_json(trace.to_document(), args)
        return OK if trace.refuted else VIOLATIONS
    elif args.mode == "conjecture":
        if not args.target:
            raise _CLIError("audit conjecture needs --target")
        findings = conjecture_search(args.target, args.budget, args.seed)
        _emit_json(findings.to_document(), args)
        return OK
    else:  # axioms (sharing axioms on one graph)
        if not args.graph_file:
            raise _CLIError("audit axioms needs --input graph.edges")
        graph = _read_graph(args.graph_file)
        name, rule = parse_rule(args.rule[0] if args.rule else "cu")
        try:
            wanted = tuple(int(t) for t in args.axioms.split(",")) if args.axioms else (1, 2, 3, 4)
        except ValueError:
            raise _CLIError(f"--axioms must list axioms 1,2,3,4, got {args.axioms!r}") from None
        for k in wanted:
            if k not in (1, 2, 3, 4):
                raise _CLIError(f"unknown axiom {k}; choose from 1,2,3,4")
        report = audit_axioms(graph, rule, wanted)
        doc = {
            "suite": "sharing-axioms",
            "rule": name,
            "axioms": {
                str(k): {"passed": report.passed[k], "witnesses": report.witnesses[k]}
                for k in wanted
            },
            "skipped_vertices": [graph.labels[v] for v in report.skipped_vertices],
            "passed": report.all_passed,
        }
        _emit_json(doc, args)
        return OK if report.all_passed else VIOLATIONS

    _emit_json(doc, args)
    return OK if doc["passed"] else VIOLATIONS


def _cmd_attack(args) -> int:
    inst = _read_instance(args)
    density = _density(args)
    mw = MetricWeighting.from_names(args.rule, density)
    report = run_attack(
        inst,
        args.target,
        args.clones,
        args.eps,
        mw,
        args.seed,
        exact=args.exact,
    )
    _emit_json(report.to_document(), args)
    return OK if report.within_bound else VIOLATIONS


def _cmd_entropy(args) -> int:
    graph = _read_graph(args.graph)
    weights = w_entropy(graph, tol=args.tol)
    value, partition = graph_entropy_certificate(graph, weights)
    doc = {
        "rule": "entropy",
        "tol": args.tol,
        "weights": {graph.labels[v]: float(weights[v]) for v in range(graph.n)},
        "entropy_bits": value,
        "certifying_partition": [
            [graph.labels[v] for v in block] for block in partition
        ],
    }
    _emit_json(doc, args)
    return OK


def _cmd_sample(args) -> int:
    inst = _read_instance(args)
    density = _density(args)
    mw = MetricWeighting.from_names(args.rule, density)
    weights = evaluate_all(inst, mw)
    labels = sample_labels(weights, args.k, args.seed)
    _emit_json({"k": args.k, "seed": args.seed, "labels": labels}, args)
    return OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub, *, instance=False, density=False, output=True):
    if instance:
        sub.add_argument("--input", help="instance document (JSON points/matrix or CSV)")
        sub.add_argument(
            "--tol",
            type=float,
            default=None,
            help="triangle tolerance for matrix and CSV input "
            "(point clouds are metric by construction)",
        )
    if density:
        sub.add_argument("--alpha", type=_number, default=None, help="disambiguation factor")
        sub.add_argument(
            "--nu", default="uniform", help='radius density: "uniform" or a CDF-knots JSON file'
        )
    if output:
        sub.add_argument("--output", default=None, help="write to a file instead of stdout")


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged and no default is a shared mutable value."""
    parser = _Parser(prog="clonewt", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    weigh = commands.add_parser("weigh", help="weight an instance with a rule")
    _add_common(weigh, instance=True, density=True)
    weigh.add_argument("--rule", required=True, help="rule spec, e.g. cu or smooth:cu")
    weigh.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    weigh.add_argument("--format", choices=("json", "csv"), default="json")
    weigh.set_defaults(func=_cmd_weigh)

    graph_cmd = commands.add_parser("graph", help="export the neighbourhood graph at radius r")
    _add_common(graph_cmd, instance=True)
    graph_cmd.add_argument("--r", type=_number, required=True, help="radius")
    graph_cmd.add_argument("--exact", action="store_true", help="compare radii exactly")
    graph_cmd.add_argument(
        "--quotient", action="store_true", help="export the duplicate-class quotient instead"
    )
    graph_cmd.set_defaults(func=_cmd_graph)

    cliques = commands.add_parser("cliques", help="maximal cliques of a graph")
    cliques.add_argument("--graph", required=True, help="edge-list file")
    _add_common(cliques)
    cliques.set_defaults(func=_cmd_cliques)

    share = commands.add_parser("share", help="sharing coefficients")
    _add_common(share, instance=True, density=True)
    share.add_argument("--graph", default=None, help="edge-list file (graph-rule sharing)")
    share.add_argument("--rule", default="cu", help="graph rule for --graph mode")
    share.add_argument("--family", choices=("gr", "fnu"), default=None)
    share.add_argument("--r", type=_number, default=None, help="radius for --family gr")
    share.add_argument("--samples", type=_positive, default=10**6)
    share.add_argument("--seed", type=int, default=None)
    share.add_argument("--exact", action="store_true", help="parse decimal inputs exactly")
    share.set_defaults(func=_cmd_share)

    audit = commands.add_parser("audit", help="axiom suites and demos")
    audit.add_argument(
        "mode",
        nargs="?",
        default="axioms",
        choices=("metric", "graph", "demo", "conjecture", "axioms"),
    )
    audit.add_argument("--rule", action="append", default=None, help="repeatable rule spec")
    audit.add_argument("--seeds", type=_count, default=100, help="number of seeded cases")
    audit.add_argument("--seed", type=int, default=0, help="base seed")
    audit.add_argument("--alpha", type=_number, default=None)
    audit.add_argument("--tol", type=float, default=None, help="allowed deviation (graph mode)")
    audit.add_argument("--target", default=None, help="conjecture target")
    audit.add_argument("--budget", type=_count, default=1000, help="conjecture search budget")
    audit.add_argument("--input", dest="graph_file", default=None, help="edge-list file (axioms)")
    audit.add_argument("--axioms", default=None, help="comma list, e.g. 1,2,3,4")
    audit.add_argument("--report", dest="output", default=None, help="write report JSON here")
    audit.set_defaults(func=_cmd_audit)

    attack_cmd = commands.add_parser("attack", help="simulate a duplication attack")
    _add_common(attack_cmd, instance=True, density=True)
    attack_cmd.add_argument("--target", required=True, help="element to clone")
    attack_cmd.add_argument("--clones", type=_count, required=True, help="number of clones")
    attack_cmd.add_argument("--eps", type=_number, default=Fraction(0), help="clone radius")
    attack_cmd.add_argument("--rule", default="cu")
    attack_cmd.add_argument("--seed", type=int, required=True)
    attack_cmd.add_argument("--exact", action="store_true")
    attack_cmd.set_defaults(func=_cmd_attack)

    entropy = commands.add_parser("entropy", help="entropy-rule weights, certified")
    entropy.add_argument("--graph", required=True, help="edge-list file")
    entropy.add_argument("--tol", type=float, default=1e-8)
    _add_common(entropy)
    entropy.set_defaults(func=_cmd_entropy)

    sample = commands.add_parser("sample", help="draw labels from a weighting")
    _add_common(sample, instance=True, density=True)
    sample.add_argument("--rule", default="cu")
    sample.add_argument("--k", type=_count, required=True)
    sample.add_argument("--seed", type=int, required=True)
    sample.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CLIError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (MetricError, InconsistentRescaling, LookupError, ValueError, RuntimeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
