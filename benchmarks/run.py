"""Benchmark of the clonewt command line, one workload per process.

    python3 benchmarks/run.py --workload sweep-sparse --seed 1 --seconds 26 --trace 0

Builds the workload's inputs from the seed, then runs its job list (each
job one ``clonewt.cli.main`` call, in-process) in whole rounds for about
``--seconds`` seconds, and checks every output against the references in
``reference.py``.  The last line of stdout is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  A one-line summary for ``stats.py`` goes to stderr.
Exits 1 when an output is wrong or a job fails other than by a known fault.

Timings are reported in reference seconds.  On a shared machine other
tenants slow the interpreter by up to 1.6x, in phases that last from
seconds to minutes, so whole runs can fall in a slow phase.  Every timed
step is therefore bracketed by a fixed calibration loop, and its wall time
is scaled by CALIBRATION_S over the loop's time around it: the seconds the
step takes when the loop takes CALIBRATION_S, its time on an idle core of
the 2.1 GHz Xeon this benchmark was written on.  A slower program is
slower in reference seconds; a slower machine phase is not.  Each step is
repeated within the run (the set-up six times before the first round,
each job once per round) and the median repeat is reported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 6  # timed, before the first round
#: the calibration loop's time on an idle core (see the module docstring)
CALIBRATION_S = 0.01

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def import_clonewt():
    """Import clonewt from this checkout's src/, dropping any loaded copy."""
    for name in [m for m in sys.modules if m == "clonewt" or m.startswith("clonewt.")]:
        del sys.modules[name]
    pkg = importlib.import_module("clonewt")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"clonewt was imported from {pkg.__file__}, not from {SRC}")
    importlib.import_module("clonewt.cli")
    return pkg


_REVERSED = bytes(range(255, -1, -1))


def calibration_loop() -> float:
    """Seconds for a fixed loop in two halves: bitmask, dict and Fraction
    arithmetic in the interpreter, the mix clonewt spends its time on, and
    streaming through a megabyte in C, as numpy does.  Contention slows the
    two by different factors, and the jobs mix both."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    mask = 0
    for i in range(30000):
        mask ^= 1 << (i % 61)
        counts[i % 97] = counts.get(i % 97, 0) + mask.bit_count()
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i % 7 + 1, i)
    data = bytearray(range(256)) * 4096
    for _ in range(6):
        data = bytearray(data.translate(_REVERSED))
    items = list(range(30000))
    for _ in range(6):
        items.reverse()
        items.sort()
    return time.perf_counter() - start


def calibrate() -> float:
    """The median of three calibration loops, robust to one interruption."""
    return median(calibration_loop() for _ in range(3))


def timed(step):
    """(result, wall seconds, reference seconds) of step()."""
    gc.collect()
    before = calibrate()
    start = time.perf_counter()
    result = step()
    seconds = time.perf_counter() - start
    after = calibrate()
    return result, seconds, seconds * 2 * CALIBRATION_S / (before + after)


def setup(workload: str, seed: int, work: Path):
    """(package, workload) after one set-up: import clonewt afresh and
    generate and write the seeded inputs."""
    shutil.rmtree(work, ignore_errors=True)
    pkg = import_clonewt()
    work.mkdir(parents=True)
    return pkg, WORKLOADS[workload](seed, work)


def rss_mb() -> float:
    """The process's peak resident memory so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_job(cli, job):
    """(exit code, stderr) of one command, from argv to output file."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(job.argv)
    return code, err.getvalue()


class Rounds:
    """What the rounds of one run recorded."""

    def __init__(self, wl) -> None:
        self.outputs: dict[str, set[str]] = {job.name: set() for job in wl.jobs}
        self.job_times = {job.name: [] for job in wl.jobs}  # reference seconds
        self.unexpected: list[str] = []
        self.layers: list[dict[str, float]] = []  # per round
        self.job_layers = {job.name: [] for job in wl.jobs}  # per round
        self.shares: dict[str, float] = {}  # exclusive seconds per layer, last round
        self.spans: dict[str, list] = {}  # last round's, per job
        self.attempted = self.failed = 0
        self.count = 0


def run_rounds(args, wl, work: Path, tracer) -> Rounds:
    """Whole rounds of the job list until the next would end after --seconds."""
    rec = Rounds(wl)
    cli = sys.modules["clonewt.cli"]
    start = time.perf_counter()
    elapsed: list[float] = []
    while not elapsed or time.perf_counter() - start + median(elapsed) <= args.seconds:
        round_start = time.perf_counter()
        layers, rec.shares = [], {}
        for job in wl.jobs:
            (code, err), seconds, ref_s = timed(lambda: run_job(cli, job))
            rec.attempted += 1
            rec.job_times[job.name].append(ref_s)
            output_bytes = 0
            if code == job.exit_code:
                text = job.output.read_text()
                rec.outputs[job.name].add(text)
                output_bytes = len(text.encode())
            else:
                rec.failed += 1
                if not (job.fault and job.fault in err):
                    rec.unexpected.append(f"{job.name}: exit {code}: {err.strip()}")
            if tracer:  # span times in reference seconds, like the job's
                spans = rec.spans[job.name] = tracer.take()
                layers.append(tracing.layer_metrics(spans, output_bytes, ref_s / seconds))
                rec.job_layers[job.name].append(layers[-1])
                for layer, busy in tracing.layer_shares(spans).items():
                    rec.shares[layer] = rec.shares.get(layer, 0.0) + busy / seconds * ref_s
        rec.count += 1
        if tracer:
            rec.layers.append(tracing.combine(layers))
        elapsed.append(time.perf_counter() - round_start)
    return rec


def check_outputs(wl, rec: Rounds) -> list[str]:
    """Problems found: unexpected failures, outputs that differ between
    rounds, and outputs that fail their checks."""
    wrong = list(rec.unexpected)
    for job in wl.jobs:
        texts = rec.outputs[job.name]
        if len(texts) > 1:
            wrong.append(f"{job.name}: output differs between rounds")
        for text in texts:
            try:
                job.check(text)
            except CheckFailed as exc:
                wrong.append(f"{job.name}: {exc}")
            except (KeyError, TypeError, ValueError) as exc:
                wrong.append(f"{job.name}: malformed output: {exc!r}")
    return wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "clonewt" / "cli.py").is_file():
        print(f"error: no clonewt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference.selftest()

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    begin = time.perf_counter()
    try:
        setup(args.workload, args.seed, work)  # the first import also loads numpy and scipy
        setup_times = []
        for _ in range(SETUP_REPEATS):
            (pkg, wl), _, ref_s = timed(lambda: setup(args.workload, args.seed, work))
            setup_times.append(ref_s)
        setup_rss_mb = rss_mb()  # numpy, scipy, clonewt and the harness's inputs
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install(pkg)
        rec = run_rounds(args, wl, work, tracer)
        peak_rss_mb = rss_mb()
        if tracer:
            tracer.uninstall()
        wrong = check_outputs(wl, rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = {name: median(times) for name, times in rec.job_times.items()}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rec.count, "wall_s": sum(jobs.values()), "jobs": jobs,
        "setup_rss_mb": setup_rss_mb,
        "inputs": wl.inputs, "problems": wrong, "run_s": time.perf_counter() - begin,
    }
    if tracer:
        last_round = sum(times[-1] for times in rec.job_times.values())
        summary["layer_share"] = {k: v / last_round for k, v in rec.shares.items()}
        summary["job_layers"] = {
            name: {k: v for k, v in tracing.median_metrics(rounds).items() if v}
            for name, rounds in rec.job_layers.items()
        }
        (ROOT / ".bench_work" / f"trace-{args.workload}.json").write_text(json.dumps(rec.spans))
        metrics = {k: {"value": v, "unit": tracing.METRICS[k]}
                   for k, v in tracing.median_metrics(rec.layers).items()}
    else:
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "wall_s": {"value": sum(jobs.values()), "unit": "s"},
            "job_p50_s": {"value": median(jobs.values()), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print("summary " + json.dumps(summary), file=sys.stderr)
    for problem in wrong:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
