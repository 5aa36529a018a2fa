"""Repeat each workload over several seeds and print each metric's spread.

    python3 benchmarks/stats.py                      # every workload, seeds 1-10
    python3 benchmarks/stats.py --workload euclid-share --seeds 11-15 --trace

Runs the command from BENCHMARK.json, at its run length, once per
(workload, seed), one run at a time, and prints for each end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread (q3 - q1) / median and the bound.  The failed share must be
identical across runs.  With ``--trace`` every seed is also run traced,
right before or after its untraced run (alternating which goes first, so
that the machine's drift between the two cancels out); the tracing overhead
is the median over seeds of traced over untraced wall time, minus 1.  The
median per-layer metrics and layer shares of wall time are printed too.
``--json FILE`` keeps all of it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload: str, seed: int, trace: int):
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    summary = next(json.loads(line[8:]) for line in proc.stderr.splitlines()
                   if line.startswith("summary "))
    return json.loads(lines[-1]), summary


def spread(values):
    q1, q2, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median(values), "values": values}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    report = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results, traced = [], []
        for i, seed in enumerate(seeds):
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)) if args.trace else (0,):
                (traced if trace else results).append(run(bench, workload, seed, trace))
        entry = {
            "failed_share": sorted({r["failed"] / r["attempted"] for r, _ in results}),
            "correct": all(r["correct"] for r, _ in results),
            "rounds": [s["rounds"] for _, s in results],
            "metrics": {k: spread([r["metrics"][k]["value"] for r, _ in results])
                        for k in bounds},
            "jobs": {j: median(s["jobs"][j] for _, s in results) for j in results[0][1]["jobs"]},
            "run_s": max(s["run_s"] for _, s in results),
            "setup_rss_mb": median(s["setup_rss_mb"] for _, s in results),
        }
        print(f"\n{workload}: seeds {args.seeds}, correct={entry['correct']}, "
              f"failed share {entry['failed_share']}, rounds {entry['rounds']}, "
              f"longest run {entry['run_s']:.1f} s, "
              f"memory after set-up {entry['setup_rss_mb']:.1f} MB")
        for name, st in entry["metrics"].items():
            flag = "ok" if st["spread"] <= bounds[name] / 3 else "WIDE"
            print(f"  {name:12s} median {st['median']:.4f}  q1 {st['q1']:.4f}  q3 {st['q3']:.4f}"
                  f"  spread {st['spread']:.3f}  bound {bounds[name]}  {flag}")
            print("      runs " + " ".join(f"{v:.4g}" for v in st["values"]))
        for job, sec in entry["jobs"].items():
            print(f"    job {job:34s} {sec:.3f} s")
        if args.trace:
            wall = median(s["wall_s"] for _, s in traced)
            entry["traced_wall_s"] = wall
            entry["overheads"] = [t["wall_s"] / u["wall_s"] - 1
                                  for (_, t), (_, u) in zip(traced, results)]
            entry["overhead"] = median(entry["overheads"])
            entry["layers"] = {k: median(r["metrics"][k]["value"] for r, _ in traced)
                               for k in traced[0][0]["metrics"]}
            layers = {k for _, s in traced for k in s["layer_share"]}
            entry["layer_share"] = {
                k: median(s["layer_share"].get(k, 0.0) for _, s in traced) for k in sorted(layers)
            }
            print(f"  traced wall_s {wall:.4f}, tracing overhead {entry['overhead']:+.1%} "
                  "(per seed " + " ".join(f"{o:+.1%}" for o in entry["overheads"]) + ")")
            print("  share of traced wall time: " + ", ".join(
                f"{k} {v:.1%}" for k, v in entry["layer_share"].items()))
            for k, v in entry["layers"].items():
                if v:
                    print(f"    {k:30s} {v:.6g}")
        report[workload] = entry
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
